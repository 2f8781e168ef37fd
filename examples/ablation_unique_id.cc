// Example: what the unique-ID optimization (paper §5.2) buys — the restriction set of
// Courseware with and without the assertion that database-generated IDs are globally
// unique. Without it, every insert conflicts with itself.
#include <cstdio>

#include "src/apps/courseware.h"
#include "src/pipeline/engine.h"

int main() {
  using namespace noctua;
  app::App a = apps::MakeCoursewareApp();

  // Analyze once and verify with the default options (optimization on), then re-verify
  // the same analysis with the single flag flipped.
  PipelineResult with_uid = Engine().Run(a);
  PipelineOptions ablated;
  ablated.checker.encoder.unique_id_optimization = false;
  verifier::RestrictionReport off = Engine().Verify(a, with_uid.analysis, ablated);
  const verifier::RestrictionReport& on = with_uid.restrictions;

  printf("Courseware restrictions WITH the unique-ID assertion (%zu):\n",
         on.num_restrictions());
  for (const auto& p : on.RestrictedPairNames()) {
    printf("  %s\n", p.c_str());
  }
  printf("\nCourseware restrictions WITHOUT it (%zu):\n", off.num_restrictions());
  for (const auto& p : off.RestrictedPairNames()) {
    printf("  %s\n", p.c_str());
  }
  printf("\nThe delta is exactly the self-pairs of inserting operations: without the\n"
         "assertion the two replicas \"could\" draw the same fresh ID, an impossible\n"
         "execution the optimization rules out (paper §5.2).\n");
  return 0;
}
