// Regenerates paper Table 6 (overall verification results for the four real-world
// applications: #checks, #restrictions, commutativity/semantic failures) and the Figure 8
// series (verification time per application — quadratic in the number of verified paths).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/support/strings.h"
#include "src/support/table.h"

int main() {
  using namespace noctua;
  printf("== Table 6: overall verification results (4 real-world apps) ==\n");
  printf("== Figure 8: verification times ==\n\n");
  TextTable table({"Application", "#Checks", "#Restr.", "Com. fail", "Sem. fail",
                   "Verify (s)", "#Paths", "Cache hit%"});
  std::vector<std::pair<std::string, double>> fig8;
  for (const auto& entry : apps::EvaluatedApps()) {
    if (entry.name == "SmallBank" || entry.name == "Courseware") {
      continue;  // Table 6 covers the four real codebases
    }
    app::App a = entry.make();
    fprintf(stderr, "[table6] verifying %s...\n", entry.name.c_str());
    PipelineResult result = Engine().Run(a);
    const verifier::RestrictionReport& report = result.restrictions;
    table.AddRow({entry.name, std::to_string(report.num_checks()),
                  std::to_string(report.num_restrictions()),
                  std::to_string(report.com_failures()),
                  std::to_string(report.sem_failures()),
                  FormatDouble(report.total_seconds, 2),
                  std::to_string(result.analysis.num_effectful),
                  FormatDouble(100 * report.stats.CacheHitRate(), 1)});
    fig8.emplace_back(entry.name, report.total_seconds);
  }
  printf("%s\n", table.Render().c_str());

  printf("Figure 8 series (verification time, seconds):\n");
  for (const auto& [name, secs] : fig8) {
    printf("  %-16s %8.2f\n", name.c_str(), secs);
  }
  printf("\nPaper reference (Table 6): Todo 55 checks/31 restr; PostGraduation 190/34;\n"
         "Zhihu 171/80; OwnPhotos 7260/3066. Shape to reproduce: #checks grows\n"
         "quadratically with effectful paths and OwnPhotos dominates verification time.\n");
  return 0;
}
