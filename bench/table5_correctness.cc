// Regenerates paper Table 5: comparison of Noctua's analyzer-driven results against the
// spec-driven baseline (the role Rigi plays for SmallBank and Hamsaz for Courseware) on
// the two standard benchmarks. Both must find the same restriction set (§6.2).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/courseware.h"
#include "src/apps/smallbank.h"
#include "src/baseline/specs.h"
#include "src/pipeline/engine.h"
#include "src/support/table.h"

int main() {
  using namespace noctua;
  printf("== Table 5: Noctua vs spec-driven baseline on standard benchmarks ==\n\n");
  TextTable table({"Application", "Com. Noctua", "Com. Baseline", "Sem. Noctua",
                   "Sem. Baseline"});

  struct Case {
    const char* name;
    app::App app;
    std::vector<soir::CodePath> spec;
  };
  std::vector<Case> cases;
  {
    app::App sb = apps::MakeSmallBankApp();
    auto spec = baseline::SmallBankSpec(sb.schema());
    cases.push_back({"SmallBank", std::move(sb), std::move(spec)});
  }
  {
    app::App cw = apps::MakeCoursewareApp();
    auto spec = baseline::CoursewareSpec(cw.schema());
    cases.push_back({"Courseware", std::move(cw), std::move(spec)});
  }

  for (Case& c : cases) {
    // The Noctua column runs the full pipeline; the baseline column verifies the
    // hand-written spec paths with the same checker configuration.
    verifier::RestrictionReport noctua_report = Engine().Run(c.app).restrictions;
    verifier::RestrictionReport base_report =
        verifier::AnalyzeRestrictions(verifier::Checker(c.app.schema()), c.spec);
    table.AddRow({c.name, std::to_string(noctua_report.com_failures()),
                  std::to_string(base_report.com_failures()),
                  std::to_string(noctua_report.sem_failures()),
                  std::to_string(base_report.sem_failures())});
    printf("%s restricted pairs (Noctua):\n", c.name);
    for (const std::string& pair : noctua_report.RestrictedPairNames()) {
      printf("  %s\n", pair.c_str());
    }
  }
  printf("\n%s\n", table.Render().c_str());
  printf("Paper reference (Table 5): SmallBank 0/0 com, 4/4 sem; Courseware 1/1 com,\n"
         "1/1 sem. Expected sem failures: (TransactSavings,TransactSavings),\n"
         "(SendPayment,SendPayment), (Amalgamate,Amalgamate), (Amalgamate,SendPayment);\n"
         "com failure: (AddCourse,DeleteCourse); sem failure: (Enroll,DeleteCourse).\n");
  return 0;
}
