// Regenerates paper Table 4: basic information about the evaluated applications —
// static info (LoC, models, relations) and analysis results (time, #code paths,
// #effectful paths).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/support/strings.h"
#include "src/support/table.h"

int main() {
  using namespace noctua;
  printf("== Table 4: basic information about evaluated applications ==\n");
  printf("(LoC counts our C++ app definitions; the paper counts the original Python)\n\n");
  TextTable table({"Application", "#LoC", "#Models", "#Relations", "Analysis (s)",
                   "#Code Paths", "#Effectful"});
  for (const auto& entry : apps::EvaluatedApps()) {
    app::App a = entry.make();
    analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
    table.AddRow({entry.name, std::to_string(bench::CountLoc(a.source_file())),
                  std::to_string(a.schema().num_models()),
                  std::to_string(a.schema().num_relations()), FormatDouble(res.seconds, 3),
                  std::to_string(res.num_code_paths),
                  std::to_string(res.num_effectful)});
  }
  printf("%s\n", table.Render().c_str());
  printf("Paper reference (Table 4): Todo 18/10, PostGraduation 40/19, Zhihu 51/17,\n"
         "OwnPhotos 545/120, SmallBank 17/4, Courseware 8/4 code/effectful paths.\n");
  return 0;
}
