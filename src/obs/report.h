// Structured end-of-run report assembled from a stopped obs::Collector: phase timings,
// every non-zero counter, histogram summaries, and the top-N slowest pairs. Serialized
// as JSON (machine side) and rendered as aligned text tables (human side).
#ifndef SRC_OBS_REPORT_H_
#define SRC_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/obs.h"

namespace noctua::obs {

// One row of the "where do I optimize next" table: a pair-category span, slowest first.
struct SlowPair {
  std::string name;  // e.g. "addTodoItem|removeTodoItem#com"
  int64_t micros = 0;
  uint64_t solver_nodes = 0;  // from the span's "solver_nodes" arg, 0 when absent
  uint64_t cache_hits = 0;    // from the span's "cache_hits" arg
};

struct CounterRow {
  std::string name;
  uint64_t value = 0;
};

struct HistRow {
  std::string name;
  HistSummary summary;
};

struct RunReport {
  std::string app;
  double total_seconds = 0.0;
  double analyze_seconds = 0.0;
  double verify_seconds = 0.0;
  uint64_t pairs_checked = 0;
  double pairs_per_second = 0.0;  // checked pairs / verify_seconds
  size_t trace_events = 0;
  std::vector<std::string> span_categories;
  std::vector<CounterRow> counters;  // non-zero counters, enum order
  std::vector<HistRow> histograms;   // non-empty histograms, enum order
  std::vector<SlowPair> slow_pairs;  // top-N by duration, slowest first

  // Compact JSON object (no trailing newline); the second form writes it as the next
  // value of `w`.
  std::string ToJson() const;
  void ToJson(JsonWriter& w) const;
  // Aligned text tables: a summary block, the counter table, the histogram table, and
  // the slowest-pairs table.
  std::string ToTable() const;
};

// How many of the slowest pairs a RunReport lists (the "what do I optimize next" table).
inline constexpr size_t kTopSlowestPairs = 10;

// Builds the report from a stopped collector. Phase seconds are passed by the owner
// (Pipeline) because the collector only sees spans, not which one the caller considers
// "the analyze phase".
RunReport BuildRunReport(const Collector& collector, const std::string& app,
                         double total_seconds, double analyze_seconds,
                         double verify_seconds);

}  // namespace noctua::obs

#endif  // SRC_OBS_REPORT_H_
