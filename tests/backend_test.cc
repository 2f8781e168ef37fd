// Tests for the solver backend boundary (src/smt/backend.h):
//   * the MakeBackend factory: a null SolverOptions::backend is the model finder, and a
//     factory set there is what answers;
//   * the headline soundness claim: every evaluated app's restriction set is
//     byte-identical under dfs and the Z3 oracle, and with dfs's optimizations off and on.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/obs/obs.h"
#include "src/pipeline/engine.h"
#include "src/smt/backend.h"
#include "src/smt/solver.h"
#include "tests/z3_oracle.h"

namespace noctua {
namespace {

// ------------------------------------------------------------------ backend factory

TEST(BackendFactoryTest, OptionsFactoryChoosesTheBackend) {
  smt::SolverOptions options;  // backend = nullptr
  EXPECT_STREQ(smt::MakeBackend(options)->name(), "dfs");
  if (smt::Z3Oracle() == nullptr) {
    GTEST_SKIP() << "built without Z3";
  }
  options.backend = smt::Z3Oracle();
  EXPECT_STREQ(smt::MakeBackend(options)->name(), "z3");
}

// ---------------------------------------------------- cross-backend restriction sets

// The acceptance bar for the production solver: on every evaluated app, dfs and the Z3
// oracle must produce byte-identical restriction sets under the default budget, and no
// pair may time out on either: the budget counts work (dfs's nodes, Z3's rlimit), never
// seconds, so the comparison is exact on any machine and under any load.
class BackendIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(BackendIdentityTest, RestrictionSetsAreByteIdenticalAcrossBackends) {
  if (smt::Z3Oracle() == nullptr) {
    GTEST_SKIP() << "built without Z3";
  }
  app::App a = GetParam().make();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);

  auto run = [&](smt::BackendFactory solver) {
    PipelineOptions options;
    options.checker.solver.backend = solver;
    EngineConfig two_workers;
    two_workers.threads = 2;
    return Engine(two_workers).Verify(a, analysis, options);
  };

  verifier::RestrictionReport dfs = run(nullptr);
  ASSERT_FALSE(dfs.pairs.empty());
  EXPECT_EQ(dfs.stats.solver_backend, "dfs");

  verifier::RestrictionReport z3 = run(smt::Z3Oracle());
  EXPECT_EQ(z3.stats.solver_backend, "z3");
  EXPECT_EQ(z3.VerdictLines(), dfs.VerdictLines());
  EXPECT_EQ(z3.RestrictedPairNames(), dfs.RestrictedPairNames());

  // The default budget decides every query of the six apps on both backends.
  for (const verifier::RestrictionReport* report : {&dfs, &z3}) {
    for (const verifier::PairVerdict& v : report->pairs) {
      EXPECT_NE(v.commutativity, verifier::CheckOutcome::kTimeout)
          << report->stats.solver_backend << ": " << v.p << " | " << v.q;
      EXPECT_NE(v.semantic, verifier::CheckOutcome::kTimeout)
          << report->stats.solver_backend << ": " << v.p << " | " << v.q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BackendIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// The acceptance bar for the hot-path optimizations: on every evaluated app, turning
// incremental solving and symmetry reduction off must not move a single dfs verdict.
// Each run records under its own obs::Collector, the only home of the solver's tallies,
// so the test also sees that the options really switch the optimizations. Each verifies
// on a fresh engine, so neither answers from the other's verdict cache.
class OptimizationIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(OptimizationIdentityTest, TogglesDoNotChangeTheRestrictionSet) {
  app::App a = GetParam().make();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);

  struct Run {
    verifier::RestrictionReport report;
    uint64_t reuse_hits = 0;
    uint64_t symmetry_pruned = 0;
  };
  auto run = [&](bool optimized) {
    obs::Collector collector(obs::ObsOptions{.enabled = true});
    PipelineOptions options;
    options.checker.solver.symmetry = optimized;
    options.checker.solver.incremental = optimized;
    EngineConfig two_workers;
    two_workers.threads = 2;
    Run r{Engine(two_workers).Verify(a, analysis, options)};
    collector.Stop();
    r.reuse_hits = collector.counter(obs::Counter::kSolverIncrementalReuse);
    r.symmetry_pruned = collector.counter(obs::Counter::kSolverSymmetryPruned);
    return r;
  };

  Run off = run(false);
  ASSERT_FALSE(off.report.pairs.empty());
  // The optimizations are really off: nothing was reused or pruned.
  EXPECT_EQ(off.reuse_hits, 0u);
  EXPECT_EQ(off.symmetry_pruned, 0u);

  Run on = run(true);
  EXPECT_EQ(on.report.VerdictLines(), off.report.VerdictLines());
  EXPECT_EQ(on.report.RestrictedPairNames(), off.report.RestrictedPairNames());
  // And really on: the pair sessions reused their frames' grounding, and the search
  // pruned symmetric values.
  EXPECT_GT(on.reuse_hits, 0u);
  EXPECT_GT(on.symmetry_pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, OptimizationIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

}  // namespace
}  // namespace noctua
