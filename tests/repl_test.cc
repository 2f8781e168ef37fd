// Geo-replication simulator tests: convergence and clean traces under PoR coordination,
// the PoR-beats-strong-consistency performance shape (the substance of Figures 10/11),
// the cost of enforcing more pairs, and workload generation.
#include <gtest/gtest.h>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/pipeline/enforce.h"
#include "src/repl/simulator.h"
#include "src/repl/trace_check.h"
#include "src/verifier/report.h"

namespace noctua::repl {
namespace {

ConflictTable ConflictsFor(const app::App& a, const std::vector<soir::CodePath>& eff) {
  return EnforcementTable(verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), eff));
}

TEST(ConflictTableTest, SymmetricLookup) {
  ConflictTable t;
  t.AddPair("b", "a");
  EXPECT_TRUE(t.Conflicts("a", "b"));
  EXPECT_TRUE(t.Conflicts("b", "a"));
  EXPECT_FALSE(t.Conflicts("a", "c"));
  t.SetTotal(true);
  EXPECT_TRUE(t.Conflicts("a", "c"));
}

TEST(ConflictTableTest, SymmetryHoldsForEveryInsertionOrder) {
  ConflictTable forward;
  forward.AddPair("x", "y");
  ConflictTable backward;
  backward.AddPair("y", "x");
  for (const ConflictTable* t : {&forward, &backward}) {
    EXPECT_TRUE(t->Conflicts("x", "y"));
    EXPECT_TRUE(t->Conflicts("y", "x"));
  }
  EXPECT_EQ(forward.size(), 1u);
  EXPECT_EQ(backward.size(), 1u);
}

TEST(ConflictTableTest, SelfConflictPairs) {
  ConflictTable t;
  t.AddPair("deposit", "deposit");
  EXPECT_TRUE(t.Conflicts("deposit", "deposit"));
  EXPECT_FALSE(t.Conflicts("balance", "balance"));
  EXPECT_FALSE(t.Conflicts("deposit", "balance"));
  EXPECT_EQ(t.size(), 1u);
}

TEST(ConflictTableTest, SetTotalOverridesThePairSet) {
  ConflictTable t;
  t.AddPair("a", "b");
  t.SetTotal(true);
  EXPECT_TRUE(t.total());
  // Total mode: everything conflicts, including pairs never added.
  EXPECT_TRUE(t.Conflicts("p", "q"));
  EXPECT_TRUE(t.Conflicts("p", "p"));
  // Dropping total mode restores exactly the pair set.
  t.SetTotal(false);
  EXPECT_FALSE(t.total());
  EXPECT_TRUE(t.Conflicts("a", "b"));
  EXPECT_FALSE(t.Conflicts("p", "q"));
  EXPECT_FALSE(t.Conflicts("p", "p"));
}

TEST(WorkloadTest, RespectsWriteRatio) {
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  WorkloadGenerator gen(a.schema(), res.paths, 0.2, 7);
  orm::Database db(&a.schema());
  WorkloadGenerator::SeedDatabase(&db, 5, 7);
  int writes = 0;
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    writes += gen.Next(&db).is_write ? 1 : 0;
  }
  EXPECT_NEAR(writes / static_cast<double>(kN), 0.2, 0.05);
}

TEST(WorkloadTest, ArgumentsMatchPathSignatures) {
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  WorkloadGenerator gen(a.schema(), res.paths, 1.0, 9);
  orm::Database db(&a.schema());
  WorkloadGenerator::SeedDatabase(&db, 5, 9);
  for (int i = 0; i < 100; ++i) {
    Request r = gen.Next(&db);
    for (const soir::ArgDef& arg : r.path->args) {
      ASSERT_TRUE(r.args.count(arg.name)) << arg.name;
    }
  }
}

class SimTest : public ::testing::TestWithParam<double> {};

TEST_P(SimTest, SmallBankConvergesUnderPoR) {
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  SimOptions options;
  options.write_ratio = GetParam();
  options.duration_ms = 300;
  ConflictTable conflicts = ConflictsFor(a, eff);
  Simulator sim(a.schema(), res.paths, conflicts, options);
  SimResult result = sim.Run();
  EXPECT_GT(result.completed_requests, 100u);
  EXPECT_TRUE(result.converged) << "replicas diverged under the computed restriction set";
  EXPECT_EQ(result.conflict_violations, 0u);
  // The lease coordinator admitted the writes, and the recorded history satisfies the
  // trace checker against the same restriction set.
  EXPECT_GT(result.lease_acquires, 0u);
  EXPECT_GT(result.lease_grants, 0u);
  TraceCheckResult check = CheckTrace(result.trace, conflicts);
  EXPECT_TRUE(check.ok()) << (check.has_witness ? check.first.Describe() : "");
  EXPECT_GT(check.pairs_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(WriteRatios, SimTest, ::testing::Values(0.15, 0.3, 0.5, 1.0));

TEST(SimulatorTest, StrongConsistencyConverges) {
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  SimOptions options;
  options.duration_ms = 200;
  ConflictTable total;
  total.SetTotal(true);
  Simulator sim(a.schema(), res.paths, total, options);
  SimResult result = sim.Run();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.completed_requests, 0u);
}

TEST(SimulatorTest, PoRBeatsStrongConsistency) {
  // The substance of Fig. 10: relaxing consistency improves throughput.
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  SimOptions options;
  options.write_ratio = 0.15;
  options.duration_ms = 400;

  Simulator por(a.schema(), res.paths, ConflictsFor(a, eff), options);
  SimResult por_result = por.Run();

  ConflictTable total;
  total.SetTotal(true);
  Simulator sc(a.schema(), res.paths, total, options);
  SimResult sc_result = sc.Run();

  EXPECT_GT(por_result.ThroughputOpsPerSec(), sc_result.ThroughputOpsPerSec());
  EXPECT_LT(por_result.avg_latency_ms, sc_result.avg_latency_ms);
}

TEST(SimulatorTest, LowerWriteRatioGivesHigherThroughput) {
  // Fig. 10's trend within PoR: fewer writes, less coordination, more throughput.
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  ConflictTable conflicts = ConflictsFor(a, eff);
  auto run = [&](double ratio) {
    SimOptions options;
    options.write_ratio = ratio;
    options.duration_ms = 400;
    Simulator sim(a.schema(), res.paths, conflicts, options);
    return sim.Run().ThroughputOpsPerSec();
  };
  EXPECT_GT(run(0.15), run(0.5));
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  app::App a = apps::MakeCoursewareApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  SimOptions options;
  options.duration_ms = 150;
  Simulator s1(a.schema(), res.paths, ConflictsFor(a, eff), options);
  Simulator s2(a.schema(), res.paths, ConflictsFor(a, eff), options);
  SimResult r1 = s1.Run();
  SimResult r2 = s2.Run();
  EXPECT_EQ(r1.completed_requests, r2.completed_requests);
  EXPECT_DOUBLE_EQ(r1.avg_latency_ms, r2.avg_latency_ms);
}

TEST(SimulatorTest, ThroughputFallsAsTheConflictTableGrows) {
  // Coordination is not free: every pair-lock a grant takes costs service time, and every
  // conflict can queue an admission. So a total table (SC) loses to the computed
  // restriction set, which loses to enforcing nothing at all.
  app::App a = apps::MakeSmallBankApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  ConflictTable full = ConflictsFor(a, eff);
  ASSERT_GT(full.size(), 0u);
  ConflictTable total;
  total.SetTotal(true);
  SimOptions options;
  options.write_ratio = 0.5;
  options.duration_ms = 400;
  auto run = [&](const ConflictTable& table) {
    Simulator sim(a.schema(), res.paths, table, options);
    return sim.Run().ThroughputOpsPerSec();
  };
  double strong = run(total);
  double por = run(full);
  double unrestricted = run(ConflictTable());
  EXPECT_LT(strong, por) << "PoR lost to strong consistency";
  EXPECT_LT(por, unrestricted) << "enforcing the restriction set came for free";
}

TEST(SimulatorTest, CoursewareConvergesUnderPoR) {
  app::App a = apps::MakeCoursewareApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  SimOptions options;
  options.write_ratio = 0.5;
  options.duration_ms = 300;
  Simulator sim(a.schema(), res.paths, ConflictsFor(a, eff), options);
  SimResult result = sim.Run();
  EXPECT_TRUE(result.converged);
}

}  // namespace
}  // namespace noctua::repl
