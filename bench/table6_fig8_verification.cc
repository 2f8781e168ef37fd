// Regenerates paper Table 6 (overall verification results for the four real-world
// applications: #checks, #restrictions, commutativity/semantic failures) and the Figure 8
// series (verification time per application — quadratic in the number of verified paths).
//
// Each app is verified kRuns times, each run cold on a fresh Engine, in kRuns rounds over
// the apps; its time is the median run's, and its Table 6 row is that run's. One cold
// run, or runs back to back, cannot tell a slow stretch of the host (several times the
// others on some apps) from a regression.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/support/strings.h"
#include "src/support/table.h"

int main() {
  using namespace noctua;
  constexpr int kRuns = 5;
  printf("== Table 6: overall verification results (4 real-world apps) ==\n");
  printf("== Figure 8: verification times (median of %d fresh-engine runs) ==\n\n", kRuns);
  TextTable table({"Application", "#Checks", "#Restr.", "Com. fail", "Sem. fail",
                   "Verify (ms)", "#Paths", "Cache hit%"});
  std::vector<std::pair<std::string, double>> fig8;
  std::vector<std::pair<std::string, app::App>> table_apps;
  for (const auto& entry : apps::EvaluatedApps()) {
    if (entry.name != "SmallBank" && entry.name != "Courseware") {
      table_apps.emplace_back(entry.name, entry.make());  // the four real codebases
    }
  }
  std::vector<std::vector<PipelineResult>> runs(table_apps.size());
  for (int r = 0; r < kRuns; ++r) {
    fprintf(stderr, "[table6] round %d of %d\n", r + 1, kRuns);
    for (size_t i = 0; i < table_apps.size(); ++i) {
      runs[i].push_back(Engine().Run(table_apps[i].second));
    }
  }
  for (size_t i = 0; i < table_apps.size(); ++i) {
    const std::string& name = table_apps[i].first;
    fprintf(stderr, "[table6] %s, ms per run:", name.c_str());
    for (const PipelineResult& run : runs[i]) {
      fprintf(stderr, " %.1f", run.restrictions.total_seconds * 1e3);
    }
    fprintf(stderr, "\n");
    std::nth_element(runs[i].begin(), runs[i].begin() + kRuns / 2, runs[i].end(),
                     [](const PipelineResult& x, const PipelineResult& y) {
                       return x.restrictions.total_seconds < y.restrictions.total_seconds;
                     });
    const PipelineResult& median = runs[i][kRuns / 2];
    const verifier::RestrictionReport& report = median.restrictions;
    const double ms = report.total_seconds * 1e3;
    table.AddRow({name, std::to_string(report.num_checks()),
                  std::to_string(report.num_restrictions()),
                  std::to_string(report.com_failures()),
                  std::to_string(report.sem_failures()), FormatDouble(ms, 1),
                  std::to_string(median.analysis.num_effectful),
                  FormatDouble(100 * report.stats.CacheHitRate(), 1)});
    fig8.emplace_back(name, ms);
  }
  printf("%s\n", table.Render().c_str());

  printf("Figure 8 series (verification time, milliseconds):\n");
  for (const auto& [name, ms] : fig8) {
    printf("  %-16s %8.1f\n", name.c_str(), ms);
  }
  printf("\nPaper reference (Table 6): Todo 55 checks/31 restr; PostGraduation 190/34;\n"
         "Zhihu 171/80; OwnPhotos 7260/3066. Shape to reproduce: #checks grows\n"
         "quadratically with effectful paths and OwnPhotos dominates verification time.\n");
  return 0;
}
