// Quickstart: the full Noctua pipeline on the paper's Figure 3 blog application.
//
//   1. Define an application (schema + view functions) — here the multi-user blog.
//   2. Engine::Run drives the ANALYZER (explore every code path into SOIR) and the
//      VERIFIER (commutativity + semantic checks over every pair) in one call.
//   3. The output is the restriction set: pairs that need coordination under PoR.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "src/apps/blog.h"
#include "src/pipeline/engine.h"
#include "src/soir/printer.h"

int main() {
  using namespace noctua;

  // Step 1: the application (see src/apps/blog.cc for the model/view definitions).
  app::App blog = apps::MakeBlogApp();
  printf("=== Schema ===\n%s\n", blog.schema().ToString().c_str());

  // Step 2: the whole pipeline — analysis, then verification of every effectful pair.
  PipelineResult result = Engine().Run(blog);

  const analyzer::AnalysisResult& analysis = result.analysis;
  printf("=== Analysis: %zu code paths (%zu effectful) in %.3fs ===\n\n",
         analysis.num_code_paths, analysis.num_effectful, analysis.seconds);
  for (const soir::CodePath& path : analysis.paths) {
    printf("%s\n", soir::PrintCodePath(blog.schema(), path).c_str());
  }

  // Step 3: the restriction set.
  const verifier::RestrictionReport& report = result.restrictions;
  printf("=== Verification: %zu checks in %.2fs (%d threads, %llu verdicts cached) ===\n%s\n",
         report.num_checks(), report.total_seconds, report.stats.threads_used,
         (unsigned long long)report.stats.cache_hits, report.ToString().c_str());
  printf("Every pair listed above must be coordinated by the geo-replicated store; all\n"
         "other pairs can run concurrently without breaking convergence or invariants.\n");
  return 0;
}
