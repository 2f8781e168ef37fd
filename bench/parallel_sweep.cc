// Speedup curve for the parallel, cached restriction-set verifier. For each app the
// sweep first runs the pre-parallel engine — the serial pair loop with no verdict cache,
// no cheapest-first schedule, and no footprint projection, exactly what
// AnalyzeRestrictions did before the redesign — and then the full engine at 1/2/4/8
// worker threads. Each row, the baseline included, reports the median of three runs on
// fresh engines, taken in three interleaved rounds over the rows, so one stretch of host
// noise does not bend the curve. Every run must produce byte-identical per-pair verdicts,
// and every run of the full engine the same work as its app's first 1-thread run (equal
// solver_checks and cache_hits); the bench exits nonzero if any run of any thread count
// (or of the legacy engine) disagrees.
//
// Emits one JSON document on stdout (progress goes to stderr):
//
//   {"apps": [{"app": "Zhihu", "pairs": N, "restrictions": R,
//              "baseline": {"config": "legacy serial engine", "seconds": ...},
//              "sweep": [{"threads": 1, "seconds": ..., "speedup": ...,
//                         "speedup_vs_1thread": ..., "cache_hit_rate": ...,
//                         "identical_restrictions": true, "identical_counts": true},
//                        ...]}, ...],
//    "hardware_concurrency": N, "identical_everywhere": true,
//    "identical_counts_everywhere": true}
//
// "speedup" is the end-to-end AnalyzeRestrictions improvement over the baseline row —
// what a caller of the old API gains by moving to this engine at that thread count.
// "speedup_vs_1thread" isolates the threading contribution alone; on a single-core
// machine it stays near 1.0 while "speedup" still reflects the cache + projection wins.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/smallbank.h"
#include "src/apps/todo.h"
#include "src/apps/zhihu.h"
#include "src/pipeline/engine.h"

namespace {

using namespace noctua;
using verifier::RestrictionReport;

// One row of an app's sweep: a pool width, the options it verifies under, and its runs.
struct Row {
  int threads;
  PipelineOptions options;
  std::vector<RestrictionReport> runs;
};

// The run with the median total_seconds.
const RestrictionReport& MedianRun(std::vector<RestrictionReport>& runs) {
  std::sort(runs.begin(), runs.end(), [](const RestrictionReport& x, const RestrictionReport& y) {
    return x.total_seconds < y.total_seconds;
  });
  return runs[runs.size() / 2];
}

}  // namespace

int main() {
  struct AppCase {
    const char* name;
    app::App app;
  };
  std::vector<AppCase> cases;
  cases.push_back({"Todo", apps::MakeTodoApp()});
  cases.push_back({"SmallBank", apps::MakeSmallBankApp()});
  cases.push_back({"Zhihu", apps::MakeZhihuApp()});

  const int kThreadCounts[] = {1, 2, 4, 8};
  constexpr int kRounds = 3;
  bool identical_everywhere = true;
  bool identical_counts_everywhere = true;

  obs::JsonWriter json = bench::BenchDocument("parallel_sweep");
  json.Key("apps").BeginArray();
  for (AppCase& app_case : cases) {
    analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(app_case.app);

    // The pre-redesign engine: one thread, every pair pays a full solver run over the
    // whole schema. This is the "1 thread" end-to-end baseline the speedups compare to.
    PipelineOptions legacy;
    legacy.parallel.cache = false;
    legacy.parallel.cheapest_first = false;
    legacy.checker.project_footprint = false;
    std::vector<Row> rows = {{1, legacy, {}}};
    for (int threads : kThreadCounts) {
      rows.push_back({threads, {}, {}});
    }
    // Each round runs every row once, each run on a fresh engine (so none answers from
    // another's verdict cache): a stretch of host noise lands on one run of several rows,
    // not on every run of one row.
    fprintf(stderr, "[parallel_sweep] %s: %d rounds of the legacy serial engine and %zu "
            "thread counts...\n", app_case.name, kRounds, rows.size() - 1);
    for (int round = 0; round < kRounds; ++round) {
      for (Row& row : rows) {
        EngineConfig config;
        config.threads = row.threads;
        row.runs.push_back(Engine(config).Verify(app_case.app, analysis, row.options));
      }
    }
    const std::vector<std::string> reference = rows[0].runs[0].VerdictLines();
    auto identical_runs = [&](const Row& row) {
      return std::all_of(row.runs.begin(), row.runs.end(), [&](const RestrictionReport& r) {
        return r.VerdictLines() == reference;
      });
    };
    // The full engine's work is a function of the app: every run of every width counts
    // the checks and cache hits of the first 1-thread run.
    const verifier::ReportStats& one_thread = rows[1].runs[0].stats;
    auto identical_counts = [&](const Row& row) {
      return std::all_of(row.runs.begin(), row.runs.end(), [&](const RestrictionReport& r) {
        return r.stats.solver_checks == one_thread.solver_checks &&
               r.stats.cache_hits == one_thread.cache_hits;
      });
    };
    identical_everywhere = identical_everywhere && identical_runs(rows[0]);
    const RestrictionReport& baseline = MedianRun(rows[0].runs);
    fprintf(stderr, "[parallel_sweep] %s: legacy %.3fs (%zu pairs, %zu restrictions)\n",
            app_case.name, baseline.total_seconds, baseline.pairs.size(),
            baseline.num_restrictions());

    json.BeginObject().Key("app").String(app_case.name);
    json.Key("pairs").Uint(baseline.pairs.size());
    json.Key("restrictions").Uint(baseline.num_restrictions()).Key("baseline").BeginObject();
    json.Key("config").String("legacy serial engine");
    json.Key("seconds").Double(baseline.total_seconds, 3).EndObject();
    json.Key("sweep").BeginArray();

    double one_thread_seconds = 0;
    for (size_t i = 1; i < rows.size(); ++i) {
      const int threads = rows[i].threads;
      const bool identical = identical_runs(rows[i]);
      const bool same_counts = identical_counts(rows[i]);
      const RestrictionReport& report = MedianRun(rows[i].runs);
      if (threads == 1) {
        one_thread_seconds = report.total_seconds;
      }
      identical_everywhere = identical_everywhere && identical;
      identical_counts_everywhere = identical_counts_everywhere && same_counts;
      double speedup = baseline.total_seconds / report.total_seconds;
      double vs_one = one_thread_seconds / report.total_seconds;
      fprintf(stderr,
              "[parallel_sweep] %s: %d thread(s) %.3fs  speedup %.2fx  "
              "(vs 1 thread %.2fx, cache hit rate %.2f)%s%s\n",
              app_case.name, threads, report.total_seconds, speedup, vs_one,
              report.stats.CacheHitRate(), identical ? "" : "  VERDICTS DIVERGED",
              same_counts ? "" : "  COUNTS DIVERGED");
      json.BeginObject().Key("threads").Int(threads);
      json.Key("seconds").Double(report.total_seconds, 3).Key("speedup").Double(speedup, 2);
      json.Key("speedup_vs_1thread").Double(vs_one, 2);
      json.Key("cache_hit_rate").Double(report.stats.CacheHitRate(), 4);
      json.Key("cache_hits").Uint(report.stats.cache_hits);
      json.Key("solver_checks").Uint(report.stats.solver_checks);
      json.Key("prefiltered").Uint(report.stats.prefiltered);
      bench::WritePhaseTiming(json.Key("phases"), report);
      json.Key("identical_restrictions").Bool(identical);
      json.Key("identical_counts").Bool(same_counts).EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().Key("hardware_concurrency").Uint(std::thread::hardware_concurrency());
  json.Key("identical_everywhere").Bool(identical_everywhere);
  json.Key("identical_counts_everywhere").Bool(identical_counts_everywhere).EndObject();
  printf("%s\n", json.Take().c_str());
  if (!identical_everywhere) {
    fprintf(stderr, "[parallel_sweep] FAILED: some engine config changed a verdict\n");
    return 1;
  }
  if (!identical_counts_everywhere) {
    fprintf(stderr, "[parallel_sweep] FAILED: some run's solver checks or cache hits differ "
            "from its app's 1-thread run\n");
    return 1;
  }
  return 0;
}
