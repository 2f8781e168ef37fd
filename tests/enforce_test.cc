// Runtime-enforcement tests: the sharded lease-based LeaseCoordinator as a unit (group
// pair-locks, FIFO queueing, lease expiry, epoch fencing, degradation latch), the
// offline execution-trace checker on hand-built histories, and the two halves of the
// end-to-end oracle on the full simulator — (1) enforcing the computed restriction set
// yields violation-free traces across the whole chaos grid, and (2) dropping any single
// computed restriction is detected by the trace checker with a concrete witness cycle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/pipeline/enforce.h"
#include "src/repl/coord.h"
#include "src/repl/simulator.h"
#include "src/repl/trace_check.h"
#include "src/verifier/report.h"

namespace noctua::repl {
namespace {

// Every coordinator in this binary runs with its internal state audit on: after each
// service call the LeaseCoordinator re-validates its lock/registration invariants and
// aborts on the first inconsistency, naming the offending entry point.
const bool kSelfCheck = [] {
  setenv("NOCTUA_COORD_SELFCHECK", "1", /*overwrite=*/0);
  return true;
}();

// ---------------------------------------------------------------------------------------
// LeaseCoordinator unit tests
// ---------------------------------------------------------------------------------------

ConflictTable OnePair(const std::string& a, const std::string& b) {
  ConflictTable t;
  t.AddPair(a, b);
  return t;
}

TEST(LeaseCoordinatorTest, GroupLockAdmitsOneSideAndQueuesTheOther) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {/*num_shards=*/2, /*lease_ms=*/80});

  EXPECT_EQ(coord.Acquire(1, "E", 0, 0, 0.0, false).granted, std::vector<int64_t>{1});
  // A second E-op joins the same side of the group lock concurrently.
  EXPECT_EQ(coord.Acquire(2, "E", 1, 0, 0.0, false).granted, std::vector<int64_t>{2});
  // An F-op is incompatible and queues.
  EXPECT_TRUE(coord.Acquire(3, "F", 2, 0, 0.0, false).granted.empty());
  EXPECT_EQ(coord.stats().lock_waits, 1u);

  // Both E holders must release before the F-op proceeds.
  EXPECT_TRUE(coord.Release(1, 0, 0, 1.0).granted.empty());
  EXPECT_EQ(coord.Release(2, 1, 0, 2.0).granted, std::vector<int64_t>{3});
  EXPECT_TRUE(coord.IsActive(3));
}

TEST(LeaseCoordinatorTest, SelfPairLockIsAMutex) {
  ConflictTable t = OnePair("E", "E");
  LeaseCoordinator coord(t, {1, 80});
  EXPECT_EQ(coord.Acquire(1, "E", 0, 0, 0.0, false).granted, std::vector<int64_t>{1});
  EXPECT_TRUE(coord.Acquire(2, "E", 1, 0, 0.0, false).granted.empty());
  EXPECT_EQ(coord.Release(1, 0, 0, 1.0).granted, std::vector<int64_t>{2});
}

TEST(LeaseCoordinatorTest, UnrestrictedEndpointIsGrantedInstantly) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {2, 80});
  EXPECT_EQ(coord.NumLocks("G"), 0u);
  EXPECT_EQ(coord.Acquire(7, "G", 0, 0, 0.0, false).granted, std::vector<int64_t>{7});
}

TEST(LeaseCoordinatorTest, TotalModeIsOneGlobalExclusiveLock) {
  ConflictTable t;
  t.SetTotal(true);
  LeaseCoordinator coord(t, {4, 80});
  EXPECT_EQ(coord.NumLocks("anything"), 1u);
  EXPECT_EQ(coord.Acquire(1, "A", 0, 0, 0.0, false).granted, std::vector<int64_t>{1});
  EXPECT_TRUE(coord.Acquire(2, "B", 1, 0, 0.0, false).granted.empty());
  EXPECT_TRUE(coord.Acquire(3, "A", 2, 0, 0.0, false).granted.empty());
  // FIFO: B was first in line, and the lock is exclusive even among same-endpoint ops.
  EXPECT_EQ(coord.Release(1, 0, 0, 1.0).granted, std::vector<int64_t>{2});
  EXPECT_EQ(coord.Release(2, 1, 0, 2.0).granted, std::vector<int64_t>{3});
}

TEST(LeaseCoordinatorTest, ExpiryReapsSilentHolderAndWakesWaiter) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {2, 80});
  coord.Acquire(1, "E", 0, 0, 0.0, false);
  coord.Acquire(2, "F", 1, 0, 1.0, false);
  EXPECT_DOUBLE_EQ(coord.NextDeadline(), 80.0);

  EXPECT_TRUE(coord.ExpireDue(79.0).expired.empty());
  LeaseCoordinator::Outcome out = coord.ExpireDue(80.5);
  EXPECT_EQ(out.expired, std::vector<int64_t>{1});
  // Op 2's lease (1.0 + 80) is still alive; it inherits the lock.
  EXPECT_EQ(out.granted, std::vector<int64_t>{2});
  EXPECT_EQ(coord.stats().expiries, 1u);
  EXPECT_FALSE(coord.IsActive(1));
  EXPECT_TRUE(coord.IsActive(2));
}

TEST(LeaseCoordinatorTest, RenewExtendsTheLease) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {2, 80});
  coord.Acquire(1, "E", 0, 0, 0.0, false);
  coord.Renew(1, 0, 0, 50.0);
  EXPECT_TRUE(coord.ExpireDue(100.0).expired.empty());  // deadline moved to 130
  EXPECT_EQ(coord.ExpireDue(130.5).expired, std::vector<int64_t>{1});
}

TEST(LeaseCoordinatorTest, NewerEpochRevokesTheOldIncarnationImmediately) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {2, 80});
  coord.Acquire(1, "E", /*site=*/0, /*epoch=*/0, 0.0, false);
  coord.Acquire(2, "F", /*site=*/1, /*epoch=*/0, 0.0, false);  // queued behind op 1

  // Site 0 restarted: its first epoch-1 message fences every epoch-0 holding away,
  // without waiting for the lease, and op 2 inherits the lock.
  LeaseCoordinator::Outcome out = coord.Acquire(3, "E", 0, /*epoch=*/1, 5.0, false);
  EXPECT_EQ(out.expired, std::vector<int64_t>{1});
  ASSERT_EQ(out.granted.size(), 1u);
  EXPECT_EQ(out.granted[0], 2);  // FIFO: the queued F-op was first in line
  EXPECT_EQ(coord.stats().expiries, 1u);

  // Messages from the dead incarnation are rejected, not processed.
  EXPECT_TRUE(coord.Release(1, 0, /*epoch=*/0, 6.0).fenced);
  EXPECT_TRUE(coord.Renew(1, 0, /*epoch=*/0, 6.0).fenced);
  EXPECT_EQ(coord.stats().fencing_rejections, 2u);

  // Epochs are per site: site 1's epoch-0 traffic is unaffected.
  EXPECT_FALSE(coord.Renew(2, 1, 0, 6.0).fenced);
}

TEST(LeaseCoordinatorTest, DegradedLatchWaitsForDrainAndStallsNewArrivals) {
  ConflictTable t;
  t.AddPair("E", "F");
  t.AddPair("G", "H");
  LeaseCoordinator coord(t, {2, 80});
  coord.Acquire(1, "E", 0, 0, 0.0, false);
  ASSERT_TRUE(coord.IsActive(1));

  // A degraded op wants the service-global exclusive latch: it must wait for every
  // current holder to drain, even ones touching unrelated pairs.
  EXPECT_TRUE(coord.Acquire(9, "G", 1, 0, 1.0, true).granted.empty());
  // While the latch is pending, new fine-grained arrivals stall before their first
  // lock — even on pairs the current holders never touch.
  uint64_t waits_before = coord.stats().lock_waits;
  EXPECT_TRUE(coord.Acquire(3, "H", 2, 0, 2.0, false).granted.empty());
  EXPECT_EQ(coord.stats().lock_waits, waits_before);  // stalled, not queued on a lock

  // The last holder drains: the latch is granted, exclusively.
  LeaseCoordinator::Outcome out = coord.Release(1, 0, 0, 3.0);
  EXPECT_EQ(out.granted, std::vector<int64_t>{9});
  EXPECT_EQ(coord.stats().degradations, 1u);

  // The latch released: the stalled arrival resumes and acquires normally.
  out = coord.Release(9, 1, 0, 4.0);
  EXPECT_EQ(out.granted, std::vector<int64_t>{3});
}

TEST(LeaseCoordinatorTest, QueuedOpCanUpgradeToDegradedMode) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {2, 80});
  coord.Acquire(1, "E", 0, 0, 0.0, false);
  coord.Acquire(2, "F", 1, 0, 0.0, false);  // queued on the (E, F) lock

  // The origin's backoff budget ran out; it re-requests in degraded mode and is pulled
  // out of the fine-grained wait queue.
  EXPECT_TRUE(coord.Acquire(2, "F", 1, 0, 10.0, true).granted.empty());
  LeaseCoordinator::Outcome out = coord.Release(1, 0, 0, 11.0);
  EXPECT_EQ(out.granted, std::vector<int64_t>{2});
  EXPECT_EQ(coord.stats().degradations, 1u);
}

TEST(LeaseCoordinatorTest, AcquireAndReleaseAreIdempotent) {
  ConflictTable t = OnePair("E", "F");
  LeaseCoordinator coord(t, {2, 80});
  coord.Acquire(1, "E", 0, 0, 0.0, false);
  // A retransmitted admission re-sends the grant but registers nothing new.
  EXPECT_EQ(coord.Acquire(1, "E", 0, 0, 1.0, false).granted, std::vector<int64_t>{1});
  EXPECT_EQ(coord.stats().acquires, 1u);
  EXPECT_EQ(coord.stats().grants, 2u);
  // Duplicate releases are harmless no-ops.
  coord.Release(1, 0, 0, 2.0);
  EXPECT_TRUE(coord.Release(1, 0, 0, 3.0).fenced == false);
  EXPECT_EQ(coord.stats().expiries, 0u);
}

// ---------------------------------------------------------------------------------------
// Trace checker unit tests
// ---------------------------------------------------------------------------------------

ExecutionTrace ThreeSiteTrace(std::vector<TraceOp> ops,
                              std::vector<std::vector<int64_t>> orders) {
  ExecutionTrace trace;
  trace.Clear(static_cast<int>(orders.size()));
  trace.ops = std::move(ops);
  trace.site_order = std::move(orders);
  return trace;
}

TEST(TraceCheckTest, CleanHistoryPasses) {
  ExecutionTrace trace = ThreeSiteTrace({{1, "E", 0, 0}, {2, "F", 1, 0}},
                                        {{1, 2}, {1, 2}, {1, 2}});
  TraceCheckResult res = CheckTrace(trace, OnePair("E", "F"));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.ops, 2u);
  EXPECT_EQ(res.pairs_checked, 1u);
}

TEST(TraceCheckTest, ConflictOrderCycleIsReportedWithWitness) {
  // Site 0 applied op 1 before op 2; site 1 applied them the other way around.
  ExecutionTrace trace = ThreeSiteTrace({{1, "E", 0, 0}, {2, "F", 1, 0}},
                                        {{1, 2}, {2, 1}, {1, 2}});
  TraceCheckResult res = CheckTrace(trace, OnePair("E", "F"));
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.violations, 1u);
  ASSERT_TRUE(res.has_witness);
  EXPECT_EQ(res.first.kind, TraceViolation::Kind::kConflictOrder);
  std::set<std::string> witness_eps{res.first.endpoint_a, res.first.endpoint_b};
  EXPECT_EQ(witness_eps, (std::set<std::string>{"E", "F"}));
  std::set<int64_t> witness_ops{res.first.op_a, res.first.op_b};
  EXPECT_EQ(witness_ops, (std::set<int64_t>{1, 2}));
  EXPECT_NE(res.first.site_a, res.first.site_b);
  EXPECT_FALSE(res.first.Describe().empty());

  // The same disagreement is invisible — and legal — without the restriction.
  EXPECT_TRUE(CheckTrace(trace, OnePair("E", "X")).ok());
}

TEST(TraceCheckTest, SelfPairDisagreementIsAViolation) {
  ExecutionTrace trace = ThreeSiteTrace({{1, "E", 0, 0}, {2, "E", 1, 0}},
                                        {{1, 2}, {2, 1}, {1, 2}});
  EXPECT_FALSE(CheckTrace(trace, OnePair("E", "E")).ok());
  EXPECT_TRUE(CheckTrace(trace, OnePair("F", "F")).ok());
}

TEST(TraceCheckTest, SessionOrderBreakIsReportedEvenWithoutRestrictions) {
  // Both ops originate at site 0 with sequence 0 then 1, but site 1 applied them
  // backwards — a per-origin FIFO violation independent of any restriction set.
  ExecutionTrace trace = ThreeSiteTrace({{1, "E", 0, 0}, {2, "E", 0, 1}},
                                        {{1, 2}, {2, 1}, {1, 2}});
  ConflictTable empty;
  TraceCheckResult res = CheckTrace(trace, empty);
  EXPECT_FALSE(res.ok());
  ASSERT_TRUE(res.has_witness);
  EXPECT_EQ(res.first.kind, TraceViolation::Kind::kSessionOrder);
  EXPECT_EQ(res.first.site_b, 0);  // the shared origin
}

TEST(TraceCheckTest, TotalModeChecksEveryEndpointPair) {
  ExecutionTrace trace = ThreeSiteTrace({{1, "E", 0, 0}, {2, "F", 1, 0}},
                                        {{1, 2}, {2, 1}, {1, 2}});
  ConflictTable total;
  total.SetTotal(true);
  EXPECT_FALSE(CheckTrace(trace, total).ok());
}

TEST(TraceCheckTest, SitesMissingAnOperationAreSkipped) {
  // Site 1 and 2 never applied op 2 (e.g. it committed right at the crash horizon):
  // no cross-site pair is comparable, so nothing can be (dis)agreed on.
  ExecutionTrace trace =
      ThreeSiteTrace({{1, "E", 0, 0}, {2, "F", 1, 0}}, {{1, 2}, {1}, {1}});
  TraceCheckResult res = CheckTrace(trace, OnePair("E", "F"));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.pairs_checked, 1u);  // comparable at site 0 only — one reference site
}

// ---------------------------------------------------------------------------------------
// End-to-end: enforced simulation runs across the chaos grid
// ---------------------------------------------------------------------------------------

struct PlanCase {
  const char* name;
  FaultPlan plan;
};

// The chaos harness's three fault regimes (tests/chaos_test.cc), reused verbatim so the
// enforcement layer faces exactly the conditions the omniscient protocol is proven on.
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

// Conflict table for one evaluated app: the verifier's restriction set for the fast
// apps, the syntactic over-approximation for the two SMT-heavy ones (same policy as the
// chaos harness).
ConflictTable ConflictsFor(const app::App& a, const std::string& name,
                           const analyzer::AnalysisResult& res) {
  auto eff = res.EffectfulPaths();
  if (name == "Zhihu" || name == "OwnPhotos") {
    return ConservativeConflicts(a.schema(), eff);
  }
  return EnforcementTable(verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), eff,
                                                        {}, res.paths));
}

SimResult RunEnforced(const app::App& a, const analyzer::AnalysisResult& res,
                      const ConflictTable& conflicts, const FaultPlan& plan,
                      uint64_t seed) {
  SimOptions options;
  options.duration_ms = 250;
  options.write_ratio = 0.5;
  options.seed = seed;
  options.faults = plan;
  options.enforce.enabled = true;
  Simulator sim(a.schema(), res.paths, conflicts, options);
  return sim.Run();
}

class EnforcedGridTest : public ::testing::TestWithParam<int> {};

TEST_P(EnforcedGridTest, FullRestrictionSetYieldsViolationFreeTracesEverywhere) {
  auto entries = apps::EvaluatedApps();
  const auto& entry = entries[GetParam()];
  app::App a = entry.make();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, entry.name, res);

  for (const PlanCase& pc : ChaosPlans()) {
    for (uint64_t seed : {11u, 22u, 33u}) {
      SCOPED_TRACE(::testing::Message()
                   << entry.name << " plan=" << pc.name << " seed=" << seed);
      SimResult result = RunEnforced(a, res, conflicts, pc.plan, seed);
      EXPECT_TRUE(result.converged) << "replicas diverged under enforcement";
      EXPECT_GT(result.completed_requests, 0u) << "enforcement lost liveness";
      EXPECT_GT(result.lease_acquires, 0u) << "the lease coordinator was never engaged";
      EXPECT_EQ(result.conflict_violations, 0u)
          << "conflicting operations were concurrently active";
      TraceCheckResult check = CheckTrace(result.trace, conflicts);
      EXPECT_TRUE(check.ok()) << "trace checker found: "
                              << (check.has_witness ? check.first.Describe() : "?");
      EXPECT_GT(check.ops, 0u) << "no committed writes were recorded";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, EnforcedGridTest, ::testing::Range(0, 6));

// The mutation half of the oracle: for every bundled app, removing one computed
// restriction from the *enforced* table must produce a history that the checker —
// validating against the *full* table — rejects with a concrete witness, on some
// (plan, seed) of the grid. Under the jittery plan concurrent commits of an
// unrestricted-by-mistake pair routinely land in opposite orders at their two origins.
class MutationTest : public ::testing::TestWithParam<int> {};

TEST_P(MutationTest, DroppingAnyOneRestrictionIsDetectedByTheTraceChecker) {
  auto entries = apps::EvaluatedApps();
  const auto& entry = entries[GetParam()];
  app::App a = entry.make();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable full = ConflictsFor(a, entry.name, res);
  ASSERT_GT(full.size(), 0u) << entry.name << " has an empty restriction set";

  FaultPlan jittery = FaultPlan::Jittery(2.0, 0.25, 0.05, 10.0);
  // Try the most detectable mutants first: a dropped self-pair (E, E) materializes as
  // soon as one hot endpoint commits concurrently from two sites, while a cross pair
  // needs traffic on both endpoints — which the conservative tables of the SMT-heavy
  // apps cannot guarantee within the run budget.
  std::vector<std::pair<std::string, std::string>> candidates;
  for (const auto& pr : full.pairs()) {
    if (pr.first == pr.second) {
      candidates.push_back(pr);
    }
  }
  for (const auto& pr : full.pairs()) {
    if (pr.first != pr.second) {
      candidates.push_back(pr);
    }
  }
  bool detected = false;
  int runs = 0;
  for (const auto& [p, q] : candidates) {
    ConflictTable mutant = full;
    ASSERT_TRUE(mutant.RemovePair(p, q));
    for (uint64_t seed : {11u, 22u, 33u}) {
      ++runs;
      SimResult result = RunEnforced(a, res, mutant, jittery, seed);
      TraceCheckResult check = CheckTrace(result.trace, full);
      if (!check.ok()) {
        ASSERT_TRUE(check.has_witness);
        if (check.first.kind == TraceViolation::Kind::kConflictOrder) {
          // Only (p, q) went unenforced, so the cycle must be on exactly that pair.
          std::set<std::string> witness{check.first.endpoint_a, check.first.endpoint_b};
          EXPECT_EQ(witness, (std::set<std::string>{p, q}))
              << "witness names a pair other than the dropped one: "
              << check.first.Describe();
        }
        detected = true;
        break;
      }
    }
    if (detected || runs >= 24) {
      break;
    }
  }
  EXPECT_TRUE(detected)
      << entry.name << ": no dropped restriction was caught within " << runs << " runs";
}

INSTANTIATE_TEST_SUITE_P(Apps, MutationTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------------------
// Fault-mode specifics: expiry, fencing, degradation
// ---------------------------------------------------------------------------------------

TEST(EnforcedSimTest, CrashedHoldersAreReclaimedByLeaseExpiry) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  SimOptions options;
  options.duration_ms = 300;
  options.write_ratio = 0.5;
  options.faults = FaultPlan::CrashRestart(/*site=*/2, /*at_ms=*/80, /*restart_ms=*/200);
  options.enforce.enabled = true;
  options.enforce.lease_ms = 40.0;  // shorter than the 120 ms downtime
  Simulator sim(a.schema(), res.paths, conflicts, options);
  SimResult result = sim.Run();
  EXPECT_GT(result.lease_expiries, 0u)
      << "the dead cohort's locks were never reclaimed by expiry";
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.conflict_violations, 0u);
  TraceCheckResult check = CheckTrace(result.trace, conflicts);
  EXPECT_TRUE(check.ok()) << (check.has_witness ? check.first.Describe() : "");
}

TEST(EnforcedSimTest, EpochFencingRejectsPreCrashGhostMessages) {
  // A crash with a fast restart on a duplicating, spiky network: delayed copies of the
  // old incarnation's messages arrive after the new epoch announced itself and must be
  // fenced, not processed. The exact seed where a straggler survives long enough varies,
  // so scan a few — every run must stay safe either way.
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  FaultPlan plan = FaultPlan::Jittery(2.0, 0.25, 0.3, 15.0);
  plan.link.duplicate = 0.3;
  plan.crashes.push_back({/*site=*/2, /*at_ms=*/80, /*restart_ms=*/92});

  uint64_t total_fenced = 0;
  for (uint64_t seed = 1; seed <= 12 && total_fenced == 0; ++seed) {
    SimOptions options;
    options.duration_ms = 250;
    options.write_ratio = 0.5;
    options.seed = seed;
    options.faults = plan;
    options.enforce.enabled = true;
    Simulator sim(a.schema(), res.paths, conflicts, options);
    SimResult result = sim.Run();
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.conflict_violations, 0u);
    TraceCheckResult check = CheckTrace(result.trace, conflicts);
    EXPECT_TRUE(check.ok()) << (check.has_witness ? check.first.Describe() : "");
    total_fenced += result.fencing_rejections;
  }
  EXPECT_GT(total_fenced, 0u) << "no stale-epoch message was ever fenced";
}

TEST(EnforcedSimTest, ShardOutageDegradesToStrongConsistencyAndStaysSafe) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  SimOptions options;
  options.duration_ms = 300;
  options.write_ratio = 0.5;
  options.enforce.enabled = true;
  options.enforce.num_shards = 2;
  options.enforce.degrade_after_retries = 3;
  // Every lock shard unreachable for 100 ms: fine-grained admission cannot proceed, so
  // ops must burn their backoff budget and fall back to the exclusive latch.
  options.enforce.shard_outages.push_back({0, 60.0, 160.0});
  options.enforce.shard_outages.push_back({1, 60.0, 160.0});
  Simulator sim(a.schema(), res.paths, conflicts, options);
  SimResult result = sim.Run();
  EXPECT_GT(result.degradations, 0u) << "no op ever degraded despite a full shard outage";
  EXPECT_GT(result.completed_requests, 0u);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.conflict_violations, 0u);
  TraceCheckResult check = CheckTrace(result.trace, conflicts);
  EXPECT_TRUE(check.ok()) << (check.has_witness ? check.first.Describe() : "");
}

TEST(EnforcedSimTest, CoordinatorOutageFailoverUnderEveryPreset) {
  // Whole-service outages (FaultPlan's coordinator_outages) on top of each preset: the
  // enforcement protocol must ride them out with retries and stay safe and live.
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  ConflictTable conflicts = ConflictsFor(a, "SmallBank", res);
  for (const PlanCase& pc : ChaosPlans()) {
    FaultPlan plan = pc.plan;
    if (plan.coordinator_outages.empty()) {
      plan.coordinator_outages.push_back({100, 140});
    }
    SCOPED_TRACE(pc.name);
    SimResult result = RunEnforced(a, res, conflicts, plan, /*seed=*/11);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.completed_requests, 0u);
    EXPECT_EQ(result.conflict_violations, 0u);
    TraceCheckResult check = CheckTrace(result.trace, conflicts);
    EXPECT_TRUE(check.ok()) << (check.has_witness ? check.first.Describe() : "");
  }
}

}  // namespace
}  // namespace noctua::repl
