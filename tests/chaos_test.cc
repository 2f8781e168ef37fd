// Chaos convergence harness: runs a grid of fault plans × seeds for every evaluated app
// and asserts the two paper-level safety properties after quiescence — all replicas
// converge to identical state, and no two restriction-set-conflicting operations were
// ever concurrently active — while both consistency modes stay live under every
// non-total-partition plan. Also pins the perfect-network contract: a zero-fault
// FaultPlan reproduces the fault-free simulator's counters exactly, and a faulty run is
// bit-deterministic given its seed.
#include <gtest/gtest.h>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/pipeline/enforce.h"
#include "src/repl/simulator.h"
#include "src/verifier/report.h"

namespace noctua::repl {
namespace {

struct PlanCase {
  const char* name;
  FaultPlan plan;
};

// Three qualitatively different ways the network and machines can misbehave. All are
// non-total partitions: every message class has a nonzero chance of getting through, so
// liveness (completed_requests > 0) must survive each of them.
std::vector<PlanCase> ChaosPlans() {
  std::vector<PlanCase> plans;
  plans.push_back({"lossy", FaultPlan::Lossy(/*drop=*/0.08, /*duplicate=*/0.05)});
  plans.push_back({"jittery", FaultPlan::Jittery(/*jitter_ms=*/2.0, /*reorder=*/0.25,
                                                 /*spike=*/0.05, /*spike_mean_ms=*/10.0)});
  FaultPlan crashy = FaultPlan::CrashRestart(/*site=*/2, /*at_ms=*/80, /*restart_ms=*/160,
                                             /*drop=*/0.02);
  crashy.coordinator_outages.push_back({200, 240});
  plans.push_back({"crashy", crashy});
  return plans;
}

// Conflict table for one evaluated app. The four fast apps use the verifier's computed
// restriction set (the paper's §6.5 configuration); Zhihu and OwnPhotos take minutes of
// SMT time, so the chaos grid coordinates them with the syntactic conservative
// over-approximation instead — safe by construction, and the fault layer under test is
// identical either way.
ConflictTable ConflictsFor(const app::App& a, const std::string& name,
                           const analyzer::AnalysisResult& res) {
  auto eff = res.EffectfulPaths();
  if (name == "Zhihu" || name == "OwnPhotos") {
    return ConservativeConflicts(a.schema(), eff);
  }
  // Pass the full path list as order observers: a read-only endpoint that renders a
  // model in insertion order makes that order part of state equality, and under a
  // faulty network unrestricted concurrent inserts really do land in different orders
  // at different sites (Todo exercises exactly this).
  return EnforcementTable(verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), eff,
                                                        {}, res.paths));
}

class ChaosGridTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosGridTest, EveryPlanAndSeedConvergesWithoutViolations) {
  auto entries = apps::EvaluatedApps();
  const auto& entry = entries[GetParam()];
  app::App a = entry.make();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, entry.name, res);

  for (const PlanCase& pc : ChaosPlans()) {
    for (uint64_t seed : {11u, 22u, 33u}) {
      SimOptions options;
      options.duration_ms = 250;
      options.write_ratio = 0.5;
      options.seed = seed;
      options.faults = pc.plan;
      Simulator sim(a.schema(), res.paths, conflicts, options);
      SimResult result = sim.Run();
      SCOPED_TRACE(::testing::Message()
                   << entry.name << " plan=" << pc.name << " seed=" << seed);
      // Run() returning at all means the event queue drained: quiescence was reached.
      EXPECT_TRUE(result.converged) << "replicas diverged under faults";
      EXPECT_EQ(result.conflict_violations, 0u)
          << "conflicting operations were concurrently active";
      EXPECT_GT(result.completed_requests, 0u) << "system lost liveness";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, ChaosGridTest, ::testing::Range(0, 6));

TEST(ChaosTest, StrongConsistencyStaysLiveUnderEveryPlan) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  for (const PlanCase& pc : ChaosPlans()) {
    SimOptions options;
    options.duration_ms = 250;
    options.write_ratio = 0.5;
    options.strong_consistency = true;
    options.faults = pc.plan;
    ConflictTable total;
    total.SetTotal(true);
    Simulator sim(a.schema(), res.paths, total, options);
    SimResult result = sim.Run();
    SCOPED_TRACE(pc.name);
    EXPECT_GT(result.completed_requests, 0u);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.conflict_violations, 0u);
  }
}

TEST(ChaosTest, CrashedReplicaRecoversViaCatchUp) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  SimOptions options;
  options.duration_ms = 300;
  options.write_ratio = 0.5;
  options.faults = FaultPlan::CrashRestart(/*site=*/1, /*at_ms=*/60, /*restart_ms=*/150);
  Simulator sim(a.schema(), res.paths, conflicts, options);
  SimResult result = sim.Run();
  EXPECT_EQ(result.replica_crashes, 1u);
  EXPECT_EQ(result.replica_recoveries, 1u);
  EXPECT_GT(result.effects_replayed, 0u) << "catch-up never replayed missed effects";
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.conflict_violations, 0u);
}

TEST(ChaosTest, LossyLinksExerciseRetriesAndDedup) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  SimOptions options;
  options.duration_ms = 250;
  options.faults = FaultPlan::Lossy(0.1, 0.1);
  Simulator sim(a.schema(), res.paths, conflicts, options);
  SimResult result = sim.Run();
  EXPECT_GT(result.messages_dropped, 0u);
  EXPECT_GT(result.messages_duplicated, 0u);
  EXPECT_GT(result.retransmissions, 0u);
  EXPECT_GT(result.duplicates_ignored, 0u) << "idempotent dedup never engaged";
  EXPECT_TRUE(result.converged);
}

// All integer counters of a SimResult, for exact equality checks.
std::vector<uint64_t> Counters(const SimResult& r) {
  return {r.completed_requests, r.committed_writes,   r.aborted_requests,
          r.timed_out_requests, r.crash_lost_requests, r.messages_sent,
          r.messages_dropped,   r.messages_duplicated, r.retransmissions,
          r.duplicates_ignored, r.effect_gaps_buffered, r.effects_replayed,
          r.ack_giveups,        r.replica_crashes,     r.replica_recoveries,
          r.conflict_violations};
}

TEST(ChaosTest, ZeroFaultPlanReproducesTheFaultFreeSimulatorExactly) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  SimOptions options;
  options.duration_ms = 300;

  Simulator plain(a.schema(), res.paths, conflicts, options);
  SimResult base = plain.Run();

  options.faults = FaultPlan::None();
  Simulator zero(a.schema(), res.paths, conflicts, options);
  SimResult with_plan = zero.Run();

  EXPECT_EQ(Counters(base), Counters(with_plan));
  EXPECT_DOUBLE_EQ(base.avg_latency_ms, with_plan.avg_latency_ms);
  EXPECT_DOUBLE_EQ(base.p99_latency_ms, with_plan.p99_latency_ms);
  EXPECT_EQ(base.converged, with_plan.converged);
  // The perfect network sends no simulated messages at all: the fault machinery is
  // provably disengaged, so Figures 10/11 are untouched by this layer.
  EXPECT_EQ(base.messages_sent, 0u);
}

TEST(ChaosTest, FaultyRunsAreDeterministicGivenSeed) {
  // Protects the seeded event ordering the chaos harness depends on: two runs with
  // identical SimOptions — including an active FaultPlan — must agree bit-for-bit.
  app::App a = apps::MakeCoursewareApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "Courseware", res);
  SimOptions options;
  options.duration_ms = 200;
  options.seed = 77;
  options.faults = FaultPlan::Lossy(0.1, 0.05);
  options.faults.crashes.push_back({1, 50, 120});

  Simulator s1(a.schema(), res.paths, conflicts, options);
  Simulator s2(a.schema(), res.paths, conflicts, options);
  SimResult r1 = s1.Run();
  SimResult r2 = s2.Run();
  EXPECT_EQ(Counters(r1), Counters(r2));
  EXPECT_DOUBLE_EQ(r1.avg_latency_ms, r2.avg_latency_ms);
  EXPECT_DOUBLE_EQ(r1.p99_latency_ms, r2.p99_latency_ms);
  EXPECT_EQ(r1.converged, r2.converged);
}

TEST(ChaosTest, ConservativeTableCoversTheVerifiedRestrictionSet) {
  // The syntactic over-approximation used for the slow apps must restrict at least
  // everything the verifier restricts (endpoint-lifted), or coordinating with it would
  // be unsound.
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  ConflictTable conservative = ConservativeConflicts(a.schema(), eff);
  const ConflictTable verified =
      EnforcementTable(verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), eff));
  for (const auto& [p, q] : verified.pairs()) {
    EXPECT_TRUE(conservative.Conflicts(p, q)) << "(" << p << ", " << q << ")";
  }
}

}  // namespace
}  // namespace noctua::repl
