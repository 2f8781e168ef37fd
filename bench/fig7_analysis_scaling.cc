// Regenerates paper Figure 7: pipeline cost as the codebase grows. Following the paper,
// each application's endpoint set is doubled and tripled ("codebase doubled and tripled
// by repeating the same set of HTTP endpoints"); analysis time must scale roughly
// linearly with the number of endpoints/code paths.
//
// Beyond the paper's figure, the bench also scales the *verifier* on the grown apps:
// the pair matrix is quadratic in endpoints, but the repeated endpoints are isomorphic,
// so the canonical-fingerprint verdict cache answers most of the extra pairs without a
// solver run — and the remaining pairs spread across 1/2/4/8 worker threads. Emits one
// JSON document on stdout (tables and progress go to stderr):
//
//   {"analysis": [{"app": ..., "points": [{"scale": 1, "ms": ..., "paths": ...}, ...]}],
//    "verification": [{"app": "Todo", "scale": ..., "pairs": ..., "cache_hit_rate": ...,
//                      "threads": [{"threads": 1, "seconds": ...}, ...]}, ...],
//    "hardware_concurrency": N}
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/support/strings.h"
#include "src/support/table.h"

namespace {

// Returns the entry's app with its endpoint set repeated `scale` times (fresh copies
// under distinct names) — the paper's codebase-growth model.
noctua::app::App Grow(const noctua::apps::AppEntry& entry, int scale) {
  noctua::app::App a = entry.make();
  noctua::app::App grown = entry.make();
  for (int rep = 1; rep < scale; ++rep) {
    for (const noctua::app::View& v : a.views()) {
      grown.AddView(v.name + "_copy" + std::to_string(rep), v.fn);
    }
  }
  return grown;
}

}  // namespace

int main() {
  using namespace noctua;
  fprintf(stderr,
          "== Figure 7: analysis time vs codebase size (1x / 2x / 3x endpoints) ==\n\n");
  TextTable table({"Application", "1x (ms)", "2x (ms)", "3x (ms)", "paths 1x/2x/3x"});

  obs::JsonWriter json = bench::BenchDocument("fig7_analysis_scaling");
  json.Key("analysis").BeginArray();
  for (const auto& entry : apps::EvaluatedApps()) {
    double ms[3];
    size_t paths[3];
    for (int k = 1; k <= 3; ++k) {
      app::App grown = Grow(entry, k);
      // Repeat a few times and take the best to de-noise sub-millisecond runs.
      double best = 1e18;
      size_t np = 0;
      for (int trial = 0; trial < 3; ++trial) {
        analyzer::AnalysisResult res = analyzer::AnalyzeApp(grown);
        best = std::min(best, res.seconds);
        np = res.num_code_paths;
      }
      ms[k - 1] = best * 1e3;
      paths[k - 1] = np;
    }
    table.AddRow({entry.name, FormatDouble(ms[0], 2), FormatDouble(ms[1], 2),
                  FormatDouble(ms[2], 2),
                  std::to_string(paths[0]) + "/" + std::to_string(paths[1]) + "/" +
                      std::to_string(paths[2])});
    json.BeginObject().Key("app").String(entry.name).Key("points").BeginArray();
    for (int k = 1; k <= 3; ++k) {
      json.BeginObject().Key("scale").Int(k).Key("ms").Double(ms[k - 1], 3);
      json.Key("paths").Uint(paths[k - 1]).EndObject();
    }
    json.EndArray().EndObject();
  }
  fprintf(stderr, "%s\n", table.Render().c_str());
  fprintf(stderr,
          "Shape to reproduce (Fig. 7): analysis time grows ~linearly with codebase size\n"
          "(2x endpoints => ~2x time) and is fast in absolute terms.\n\n");

  // Verifier scaling on the grown codebases. Todo is the paper's smallest real app, so
  // its tripled pair matrix (quadratic growth) stays affordable in a bench; the repeated
  // endpoints make the cache's contribution directly visible.
  const int kThreadCounts[] = {1, 2, 4, 8};
  json.EndArray().Key("verification").BeginArray();
  fprintf(stderr, "== Verifier on the grown codebase (Todo, threads 1/2/4/8) ==\n\n");
  TextTable vtable({"Scale", "#Pairs", "Cache hit%", "1 thr (s)", "2 thr (s)",
                    "4 thr (s)", "8 thr (s)"});
  for (int scale = 1; scale <= 3; ++scale) {
    app::App grown = Grow(apps::EvaluatedApps()[0], scale);
    analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(grown);
    std::vector<double> seconds;
    uint64_t pairs = 0;
    double hit_rate = 0;
    for (int threads : kThreadCounts) {
      EngineConfig config;
      config.threads = threads;
      verifier::RestrictionReport report = Engine(config).Verify(grown, analysis);
      pairs = report.stats.pairs;
      hit_rate = report.stats.CacheHitRate();
      seconds.push_back(report.total_seconds);
      fprintf(stderr, "[fig7] Todo %dx, %d thread(s): %.3fs (%llu cache hits)\n", scale,
              threads, report.total_seconds,
              (unsigned long long)report.stats.cache_hits);
    }
    std::vector<std::string> row = {std::to_string(scale) + "x", std::to_string(pairs),
                                    FormatDouble(100 * hit_rate, 1)};
    for (double s : seconds) {
      row.push_back(FormatDouble(s, 3));
    }
    vtable.AddRow(row);
    json.BeginObject().Key("app").String("Todo").Key("scale").Int(scale);
    json.Key("pairs").Uint(pairs).Key("cache_hit_rate").Double(hit_rate, 4);
    json.Key("threads").BeginArray();
    for (size_t t = 0; t < seconds.size(); ++t) {
      json.BeginObject().Key("threads").Int(kThreadCounts[t]);
      json.Key("seconds").Double(seconds[t], 3).EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().Key("hardware_concurrency").Uint(std::thread::hardware_concurrency());
  fprintf(stderr, "%s\n", vtable.Render().c_str());
  fprintf(stderr,
          "Shape to reproduce: the pair matrix grows quadratically (paths^2) but verify\n"
          "time does not — repeated endpoints are isomorphic, so the verdict cache\n"
          "answers them, and the remaining solver calls spread across threads.\n");

  printf("%s\n", json.EndObject().Take().c_str());
  return 0;
}
