// Shared pieces of the benchmark harness: run arguments, the metric printer, sample
// statistics, process resource readings, reference verdicts, and trace analysis.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/pipeline/engine.h"
#include "src/verifier/report.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;       // scratch space for artifact stores and traces
  std::string reference_dir;  // committed restricted-pair lists
  // Self-test hook: drop one pair from the SmallBank reference after loading it, so
  // every full-app SmallBank answer must be counted as failed.
  bool corrupt_reference = false;
};

// ---- Output ----------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};
using Values = std::map<std::string, double>;

// The metric names, in print order. Every workload prints all of them: end-to-end metrics
// in an untraced run, per-layer metrics in a traced run.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Prints the result line {"correct", "attempted", "failed", "metrics"} for `specs`.
// A per-layer metric the workload does not exercise is printed as 0; a missing
// end-to-end metric is a harness bug and aborts.
void PrintResult(const std::vector<MetricSpec>& specs, const Values& values, bool allow_missing,
                 uint64_t attempted, uint64_t failed);

// Writes a line to stdout ahead of the result line (the run's inputs, for audit).
void PrintInfo(const std::string& json_object);

// ---- Statistics ------------------------------------------------------------------------

// Middle value (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> v);
// The sample at sorted index floor(q * n) — an observed value, so a percentile over
// few, clustered samples never lands between clusters. 0 when empty.
double Percentile(std::vector<double> v, double q);

// Set-up time: the median over repeated calls of `set_up`, which returns the seconds of
// its timed part. The calls come in bursts at several points of a run, so the figure
// spans the run's changing machine state rather than one moment of it.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<double()> set_up) : set_up_(std::move(set_up)) {}
  // Calls set_up for at least 0.1 s and at least 11 times; false if a call failed
  // (returned a negative time).
  bool Burst();
  double MedianSeconds() const { return Median(samples_); }

 private:
  std::function<double()> set_up_;
  std::vector<double> samples_;
};

// Process user+system CPU seconds and peak resident set, from getrusage.
double CpuSeconds();
double PeakRssMb();

// Engine configuration for every run: program defaults, pool pinned to min(4, nproc).
noctua::EngineConfig BenchEngineConfig();
int BenchThreads();

// Seeded permutation of [0, n).
std::vector<size_t> SeededOrder(uint64_t* rng_state, size_t n);

// ---- Reference verdicts ----------------------------------------------------------------

// One app's expected restriction set. Path-level references list every restricted pair
// exactly as RestrictionReport::RestrictedPairNames renders it; view-level references
// (typed in from the paper) list restricted view pairs, compared as unordered sets.
//
// `budget_sensitive` pairs pass under the deterministic node budget but need about as
// long as the default 2 s wall-clock budget, so a run on a loaded machine restricts them
// conservatively with a timeout verdict. An answer may add these pairs (and only these);
// every run reports how often it did.
struct Reference {
  bool view_level = false;
  std::vector<std::string> pairs;
  std::set<std::string> budget_sensitive;
};

// Loads <dir>/<app>.txt for every evaluated app. A path-level file carries the FNV-1a
// fingerprint of its pair lines; a file whose lines do not match it is rejected.
bool LoadReferences(const std::string& dir, std::map<std::string, Reference>* out,
                    std::string* error);

// Writes a path-level reference (the capture mode).
bool WriteReference(const std::string& dir, const std::string& app,
                    const std::vector<std::string>& pairs,
                    const std::set<std::string>& budget_sensitive, std::string* error);

// `names` without the reference's budget-sensitive pairs; sets *flipped when any was there.
std::vector<std::string> WithoutBudgetSensitive(const Reference& ref,
                                                const std::vector<std::string>& names,
                                                bool* flipped);

// True when the restricted pairs `names` (as RestrictedPairNames renders them) are exactly
// the referenced ones, up to budget-sensitive pairs; sets *flipped when one was present.
bool MatchesReference(const Reference& ref, const std::vector<std::string>& names,
                      bool* flipped);

// FNV-1a of a restricted-pair list (or any list of lines) joined with newlines.
uint64_t PairListDigest(const std::vector<std::string>& pairs);
// Sixteen lower-case hex digits.
std::string Hex64(uint64_t v);

// Pairs of `report` with a check that ended in a timeout.
uint64_t TimedOutPairs(const noctua::verifier::RestrictionReport& report);

// ---- Trace analysis --------------------------------------------------------------------

// Per-category self time (span duration minus the part its direct children on the same
// thread cover) and totals, per-name totals, and the longest pair, from one collector's
// events.
struct TraceStats {
  std::map<std::string, double> self_seconds;   // by category
  std::map<std::string, double> total_seconds;  // by span name
  std::map<std::string, double> category_total_seconds;
  double max_pair_seconds = 0;
};
TraceStats AnalyzeTrace(const std::vector<noctua::obs::TraceEvent>& events);

// Layer metrics every workload reads the same way from a stopped collector: verifier
// pair counts and encode time, solver work, cache probes, and pool steals.
void AddCollectorLayers(const noctua::obs::Collector& collector, const TraceStats& trace,
                        Values* v);

// Writes the Chrome trace of `events` to `path` — every span outside a service request
// (trace id 0) plus the span trees of requests with trace ids up to `max_trace` — then
// parses it back with obs::ParseJson and checks that every name in `span_names` and
// every category in `categories` occurs. The bound keeps a long service run's trace,
// and the DOM parsed from it, small.
bool WriteAndValidateTrace(const std::vector<noctua::obs::TraceEvent>& events,
                           uint64_t max_trace, const std::string& path,
                           const std::set<std::string>& span_names,
                           const std::set<std::string>& categories, std::string* error);

// Benchmark-side span category: spans the harness records around its calls into the
// program, next to the program's own spans.
inline constexpr const char* kCatBench = "bench";

// Collector options that record spans and counters, keeping the trace in memory.
inline noctua::obs::ObsOptions Recording() {
  noctua::obs::ObsOptions options;
  options.enabled = true;
  return options;
}

// ---- Workloads -------------------------------------------------------------------------

int RunColdBatch(const Args& args);
int RunServiceMixed(const Args& args);
// Captures path-level references for the four captured apps (see main.cc).
int CaptureReferences(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
