// Speedup curve for the parallel, cached restriction-set verifier. For each app the
// sweep first runs the pre-parallel engine — the serial pair loop with no verdict cache,
// no cheapest-first schedule, and no footprint projection, exactly what
// AnalyzeRestrictions did before the redesign — and then the full engine at 1/2/4/8
// worker threads. Every run must produce byte-identical per-pair verdicts; the bench
// exits nonzero if any thread count (or the legacy engine) disagrees.
//
// Emits one JSON document on stdout (progress goes to stderr):
//
//   {"apps": [{"app": "Zhihu", "pairs": N, "restrictions": R,
//              "baseline": {"config": "legacy serial engine", "seconds": ...},
//              "sweep": [{"threads": 1, "seconds": ..., "speedup": ...,
//                         "speedup_vs_1thread": ..., "cache_hit_rate": ...,
//                         "identical_restrictions": true}, ...]}, ...],
//    "hardware_concurrency": N, "identical_everywhere": true}
//
// "speedup" is the end-to-end AnalyzeRestrictions improvement over the baseline row —
// what a caller of the old API gains by moving to this engine at that thread count.
// "speedup_vs_1thread" isolates the threading contribution alone; on a single-core
// machine it stays near 1.0 while "speedup" still reflects the cache + projection wins.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/smallbank.h"
#include "src/apps/todo.h"
#include "src/apps/zhihu.h"
#include "src/pipeline/engine.h"
#include "src/support/strings.h"

namespace {

using noctua::verifier::RestrictionReport;

// The per-pair verdicts, flattened for equality comparison across engine configs.
std::vector<std::string> VerdictLines(const RestrictionReport& report) {
  std::vector<std::string> out;
  out.reserve(report.pairs.size());
  for (const auto& v : report.pairs) {
    out.push_back(v.p + "|" + v.q + "|" + noctua::verifier::CheckOutcomeName(v.commutativity) +
                  "|" + noctua::verifier::CheckOutcomeName(v.semantic));
  }
  return out;
}

}  // namespace

int main() {
  using namespace noctua;

  struct AppCase {
    const char* name;
    app::App app;
  };
  std::vector<AppCase> cases;
  cases.push_back({"Todo", apps::MakeTodoApp()});
  cases.push_back({"SmallBank", apps::MakeSmallBankApp()});
  cases.push_back({"Zhihu", apps::MakeZhihuApp()});

  const int kThreadCounts[] = {1, 2, 4, 8};
  bool identical_everywhere = true;

  std::string json = "{" + bench::BenchJsonPreamble("parallel_sweep") + ", \"apps\": [";
  for (size_t c = 0; c < cases.size(); ++c) {
    AppCase& app_case = cases[c];
    analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(app_case.app);

    // The pre-redesign engine: one thread, every pair pays a full solver run over the
    // whole schema. This is the "1 thread" end-to-end baseline the speedups compare to.
    PipelineOptions legacy;
    legacy.parallel.cache = false;
    legacy.parallel.cheapest_first = false;
    legacy.checker.project_footprint = false;
    fprintf(stderr, "[parallel_sweep] %s: legacy serial engine...\n", app_case.name);
    EngineConfig serial;
    serial.threads = 1;
    RestrictionReport baseline = Engine(serial).Verify(app_case.app, analysis, legacy);
    std::vector<std::string> reference = VerdictLines(baseline);
    fprintf(stderr, "[parallel_sweep] %s: legacy %.3fs (%zu pairs, %zu restrictions)\n",
            app_case.name, baseline.total_seconds, baseline.pairs.size(),
            baseline.num_restrictions());

    json += std::string(c ? ", " : "") + "{\"app\": \"" + app_case.name +
            "\", \"pairs\": " + std::to_string(baseline.pairs.size()) +
            ", \"restrictions\": " + std::to_string(baseline.num_restrictions()) +
            ", \"baseline\": {\"config\": \"legacy serial engine\", \"seconds\": " +
            FormatDouble(baseline.total_seconds, 3) + "}, \"sweep\": [";

    double one_thread_seconds = 0;
    for (size_t t = 0; t < std::size(kThreadCounts); ++t) {
      EngineConfig config;
      config.threads = kThreadCounts[t];
      RestrictionReport report = Engine(config).Verify(app_case.app, analysis);
      if (kThreadCounts[t] == 1) {
        one_thread_seconds = report.total_seconds;
      }
      bool identical = VerdictLines(report) == reference;
      identical_everywhere = identical_everywhere && identical;
      double speedup = baseline.total_seconds / report.total_seconds;
      double vs_one = one_thread_seconds / report.total_seconds;
      fprintf(stderr,
              "[parallel_sweep] %s: %d thread(s) %.3fs  speedup %.2fx  "
              "(vs 1 thread %.2fx, cache hit rate %.2f)%s\n",
              app_case.name, kThreadCounts[t], report.total_seconds, speedup, vs_one,
              report.stats.CacheHitRate(), identical ? "" : "  VERDICTS DIVERGED");
      json += std::string(t ? ", " : "") +
              "{\"threads\": " + std::to_string(kThreadCounts[t]) +
              ", \"seconds\": " + FormatDouble(report.total_seconds, 3) +
              ", \"speedup\": " + FormatDouble(speedup, 2) +
              ", \"speedup_vs_1thread\": " + FormatDouble(vs_one, 2) +
              ", \"cache_hit_rate\": " + FormatDouble(report.stats.CacheHitRate(), 4) +
              ", \"cache_hits\": " + std::to_string(report.stats.cache_hits) +
              ", \"solver_checks\": " + std::to_string(report.stats.solver_checks) +
              ", \"prefiltered\": " + std::to_string(report.stats.prefiltered) +
              ", \"pool_steals\": " + std::to_string(report.stats.pool_steals) +
              ", \"phases\": " + bench::PhaseTimingJson(report) +
              ", \"identical_restrictions\": " + (identical ? "true" : "false") + "}";
    }
    json += "]}";
  }
  json += "], \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"identical_everywhere\": " + (identical_everywhere ? "true" : "false") + "}";
  printf("%s\n", json.c_str());
  if (!identical_everywhere) {
    fprintf(stderr, "[parallel_sweep] FAILED: some engine config changed a verdict\n");
    return 1;
  }
  return 0;
}
