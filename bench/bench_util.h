// Shared helpers for the benchmark harnesses that regenerate the paper's tables/figures.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/app/app.h"
#include "src/obs/json.h"
#include "src/support/strings.h"
#include "src/verifier/report.h"

namespace noctua::bench {

// Version of every BENCH_*.json document's shape. Bump when a sweep's JSON layout
// changes incompatibly, so longitudinal tooling comparing trajectories across commits
// can tell "the metric moved" from "the schema moved".
//   v1 (implicit): the PR 1-4 sweeps, no schema_version field.
//   v2: schema_version field added; parallel_sweep rows carry per-phase percentiles.
//   v3: preamble stamps the resolved solver backend and portfolio race tallies.
//   v4: preamble stamps solver optimization tallies.
//   v5: preamble drops the v3 race tallies and the v4 solver tallies; it stamps the
//       backend only.
//   v6: preamble drops the backend stamp: production has one solver, dfs.
//   v7: parallel_sweep rows drop the pool's count of tasks moved between threads: the
//       pool hands out one shared cursor.
inline constexpr int kBenchSchemaVersion = 7;

// A writer holding the open top-level object of a BENCH_*.json document and the members
// every such document starts with; the bench writes its own members after them.
inline obs::JsonWriter BenchDocument(const char* bench_name) {
  obs::JsonWriter w;
  w.BeginObject().Key("bench").String(bench_name);
  w.Key("schema_version").Int(kBenchSchemaVersion);
  return w;
}

// Percentiles of a sample set, exact by sorting (benches deal in hundreds of samples,
// not millions). The rank is ceil(q*n), clamped to [1, n] — the value such that at
// least q of the samples are <= it.
struct Percentiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

inline Percentiles ComputePercentiles(std::vector<double> samples) {
  Percentiles out;
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()) + 0.999999);
    rank = std::max<size_t>(1, std::min(rank, samples.size()));
    return samples[rank - 1];
  };
  out.p50 = at(0.50);
  out.p95 = at(0.95);
  out.p99 = at(0.99);
  return out;
}

inline void WritePercentiles(obs::JsonWriter& w, const Percentiles& p) {
  w.BeginObject().Key("p50").Double(p.p50, 6).Key("p95").Double(p.p95, 6);
  w.Key("p99").Double(p.p99, 6).EndObject();
}

// Per-phase timing distribution of one verification run: commutativity and semantic
// check wall times across the (non-prefiltered) pairs, as percentile summaries. This is
// what "where did the verify time go" questions need — totals hide the tail pair that
// dominates wall-clock on few threads.
inline void WritePhaseTiming(obs::JsonWriter& w, const verifier::RestrictionReport& report) {
  std::vector<double> com, sem;
  for (const auto& v : report.pairs) {
    if (v.prefiltered) {
      continue;
    }
    com.push_back(v.com_seconds);
    sem.push_back(v.sem_seconds);
  }
  WritePercentiles(w.BeginObject().Key("com_seconds"), ComputePercentiles(std::move(com)));
  WritePercentiles(w.Key("sem_seconds"), ComputePercentiles(std::move(sem)));
  w.EndObject();
}

// Lines of code of an app's defining C++ source (the Table 4 LoC counterpart; the paper
// counts Python lines, we count ours). Blank lines and lines holding nothing but a //
// comment do not count — prose is not code.
inline size_t CountLoc(const std::string& path) {
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    size_t first = 0;
    while (first < line.size() && isspace(static_cast<unsigned char>(line[first]))) {
      ++first;
    }
    if (first == line.size()) {
      continue;  // blank
    }
    if (line.compare(first, 2, "//") == 0) {
      continue;  // comment-only
    }
    ++lines;
  }
  return lines;
}

}  // namespace noctua::bench

#endif  // BENCH_BENCH_UTIL_H_
