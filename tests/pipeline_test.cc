// Tests for the parallel, cached verification engine and noctua::Engine, the one run:
// the thread pool itself, determinism of the restriction set across thread counts, and
// agreement between every engine configuration (cache on/off, projection on/off,
// cheapest-first on/off) — the redesign must change how fast verdicts are produced,
// never which verdicts.
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/soir/printer.h"
#include "src/support/thread_pool.h"
#include "src/verifier/cache.h"

namespace noctua {
namespace {

// ---------------------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(counts.size(), [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SerialPoolHonorsDispatchOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order = {4, 2, 0, 1, 3};
  std::vector<size_t> executed;
  pool.ParallelFor(5, [&](size_t i) { executed.push_back(i); }, &order);
  EXPECT_EQ(executed, order);
}

TEST(ThreadPoolTest, EmptySingleAndOrderedBatchesOnAWidePool) {
  // Batches smaller than the pool and dispatch orders take the same cursor loop as
  // every other batch: nothing runs for n = 0, the one task runs once for n = 1, and an
  // order runs each index exactly once.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  std::vector<std::atomic<int>> counts(257);
  pool.ParallelFor(1, [&](size_t i) { counts[i].fetch_add(1); });
  EXPECT_EQ(counts[0].load(), 1);
  counts[0].store(0);
  std::vector<size_t> order(counts.size());
  for (size_t k = 0; k < order.size(); ++k) {
    order[k] = (k * 100) % order.size();  // 100 is coprime to 257: a permutation
  }
  pool.ParallelFor(order.size(), [&](size_t i) { counts[i].fetch_add(1); }, &order);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  const size_t n = 10000;
  pool.ParallelFor(n, [&](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> ran{0};
    pool.ParallelFor(17, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 17);
  }
}

TEST(ThreadPoolTest, DefaultThreadsReadsEnvironment) {
  ASSERT_EQ(setenv("NOCTUA_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  ASSERT_EQ(unsetenv("NOCTUA_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsRejectsMalformedEnvironment) {
  // atoi-style lenient parsing would turn "8x" into 8 and "abc" into 0; the variable
  // must parse as a whole positive integer or be ignored entirely.
  const int fallback = [] {
    unsetenv("NOCTUA_THREADS");
    return ThreadPool::DefaultThreads();
  }();
  for (const char* bad : {"abc", "-3", "0", "12abc", "3.5", "", "99999999999999999999"}) {
    ASSERT_EQ(setenv("NOCTUA_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::DefaultThreads(), fallback) << "NOCTUA_THREADS=\"" << bad << '"';
  }
  ASSERT_EQ(unsetenv("NOCTUA_THREADS"), 0);
}

TEST(ThreadPoolTest, DefaultThreadsClampsAbsurdValues) {
  ASSERT_EQ(setenv("NOCTUA_THREADS", "100000", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 256);
  ASSERT_EQ(setenv("NOCTUA_THREADS", "256", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 256);
  ASSERT_EQ(unsetenv("NOCTUA_THREADS"), 0);
}

// Lifecycle tests for the long-lived pool an Engine owns. Workers start lazily, so an
// idle pool must construct and destruct without ever spinning up (or busy-waiting in) a
// worker thread, and a working pool must survive arbitrarily many submit/drain cycles.
// All of these run under TSan in CI.

TEST(ThreadPoolTest, IdlePoolConstructsAndDestructsWithoutWork) {
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(8);
    EXPECT_EQ(pool.threads(), 8);
  }
}

TEST(ThreadPoolTest, ManySubmitDrainCyclesOnOnePool) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  std::atomic<uint64_t> executed{0};
  const int batches = 200;
  const size_t per_batch = 16;
  for (int b = 0; b < batches; ++b) {
    pool.ParallelFor(per_batch, [&](size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), batches * (per_batch * (per_batch + 1) / 2));
  EXPECT_EQ(executed.load(), batches * per_batch);
}

TEST(ThreadPoolTest, RepeatedConstructRunDestroyIsClean) {
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    pool.ParallelFor(8, [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPoolTest, PoolDrivenAndDestroyedOffTheOwningThread) {
  // A daemon constructs its Engine (and thus its pool) on main but serves requests from
  // worker threads; the pool must not care which thread runs ParallelFor or deletes it.
  auto pool = std::make_unique<ThreadPool>(4);
  std::atomic<int> ran{0};
  std::thread driver([&] {
    pool->ParallelFor(32, [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.reset();
  });
  driver.join();
  EXPECT_EQ(ran.load(), 32);
}

// ------------------------------------------------------------------- canonical fingerprint

TEST(CanonicalFingerprintTest, CopiedEndpointsShareFingerprints) {
  // The cache's bread and butter: a copied endpoint is isomorphic to its original, so
  // every pair involving the copy must produce the same cache key as the original pair.
  app::App a = apps::MakeSmallBankApp();
  app::App copied = apps::MakeSmallBankApp();
  for (const app::View& v : a.views()) {
    copied.AddView(v.name + "_twin", v.fn);
  }
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(copied);
  const std::vector<soir::CodePath>& eff = analysis.EffectfulPaths();

  std::set<std::string> originals;
  std::set<std::string> twins;
  for (const soir::CodePath& p : eff) {
    soir::CanonicalizationCtx ctx(copied.schema());
    std::string canon = soir::CanonicalPath(copied.schema(), p, &ctx);
    (p.view_name.find("_twin") != std::string::npos ? twins : originals).insert(canon);
  }
  EXPECT_EQ(originals, twins);
}

TEST(CanonicalFingerprintTest, SeparatesAndMergesSmallBankPaths) {
  app::App a = apps::MakeSmallBankApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  std::map<std::string, std::string> canon;
  for (const soir::CodePath& p : analysis.EffectfulPaths()) {
    soir::CanonicalizationCtx ctx(a.schema());
    canon[p.view_name] = soir::CanonicalPath(a.schema(), p, &ctx);
  }
  ASSERT_EQ(canon.size(), 4u);
  // SendPayment and Amalgamate are the same operation shape in this modeling (move a2
  // from a0's checking to a1's checking under the same guards) — the fingerprint must
  // identify them, which is where SmallBank's cache hits come from...
  EXPECT_EQ(canon.at("SendPayment"), canon.at("Amalgamate"));
  // ...while operations over different field slots or guard shapes stay distinct.
  EXPECT_NE(canon.at("DepositChecking"), canon.at("TransactSavings"));
  EXPECT_NE(canon.at("DepositChecking"), canon.at("SendPayment"));
  EXPECT_NE(canon.at("TransactSavings"), canon.at("SendPayment"));
}

// ------------------------------------------------------------------------- verdict cache

TEST(VerdictCacheTest, LookupInsertAndCounters) {
  verifier::VerdictCache cache;
  EXPECT_FALSE(cache.LookupEntry("k").has_value());
  cache.Insert("k", verifier::CheckOutcome::kFail);
  auto hit = cache.LookupEntry("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcome, verifier::CheckOutcome::kFail);
  EXPECT_FALSE(hit->replayed);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// -------------------------------------------------------------- determinism & agreement

// Pipeline configurations whose verdicts must all agree. The solver's budget counts
// nodes, not seconds, so the comparison is exact even on a loaded machine.
PipelineOptions AgreementOptions(bool cache, bool cheapest_first, bool projection) {
  PipelineOptions options;
  options.parallel.cache = cache;
  options.parallel.cheapest_first = cheapest_first;
  options.checker.project_footprint = projection;
  return options;
}

// The verifier stage on a fresh engine of `threads` workers.
verifier::RestrictionReport VerifyOn(int threads, const app::App& a,
                                     const analyzer::AnalysisResult& analysis,
                                     const PipelineOptions& options) {
  EngineConfig config;
  config.threads = threads;
  return Engine(config).Verify(a, analysis, options);
}

class EngineAgreementTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(EngineAgreementTest, VerdictsIdenticalAcrossThreadCounts) {
  app::App a = GetParam().make();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);

  verifier::RestrictionReport reference =
      VerifyOn(1, a, analysis, AgreementOptions(true, true, true));
  std::vector<std::string> expected = reference.VerdictLines();
  ASSERT_FALSE(expected.empty());

  for (int threads : {2, 8}) {
    verifier::RestrictionReport report =
        VerifyOn(threads, a, analysis, AgreementOptions(true, true, true));
    EXPECT_EQ(report.stats.threads_used, threads);
    EXPECT_EQ(report.VerdictLines(), expected) << "threads=" << threads;
  }
}

TEST_P(EngineAgreementTest, CacheAndScheduleDoNotChangeVerdicts) {
  app::App a = GetParam().make();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);

  std::vector<std::string> expected =
      VerifyOn(1, a, analysis, AgreementOptions(true, true, true)).VerdictLines();
  // Cache off, schedule off (report order), both at 2 threads.
  EXPECT_EQ(VerifyOn(2, a, analysis, AgreementOptions(false, true, true)).VerdictLines(),
            expected);
  EXPECT_EQ(VerifyOn(2, a, analysis, AgreementOptions(true, false, true)).VerdictLines(),
            expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, EngineAgreementTest,
    ::testing::Values(apps::AppEntry{"Blog", apps::MakeBlogApp},
                      apps::AppEntry{"Todo", apps::MakeTodoApp},
                      apps::AppEntry{"SmallBank", apps::MakeSmallBankApp},
                      apps::AppEntry{"Courseware", apps::MakeCoursewareApp}),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// The big apps get the full thread sweep too, but only one extra engine config each so
// the suite stays within the tier-1 budget (their pair matrices dominate the runtime).
TEST(EngineAgreementBigApps, PostGraduationIdenticalAcrossThreads) {
  app::App a = apps::MakePostGraduationApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  std::vector<std::string> expected =
      VerifyOn(1, a, analysis, AgreementOptions(true, true, true)).VerdictLines();
  EXPECT_EQ(VerifyOn(8, a, analysis, AgreementOptions(true, true, true)).VerdictLines(),
            expected);
}

TEST(EngineAgreementBigApps, ZhihuIdenticalAcrossThreadsAndCache) {
  app::App a = apps::MakeZhihuApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  verifier::RestrictionReport reference =
      VerifyOn(1, a, analysis, AgreementOptions(true, true, true));
  std::vector<std::string> expected = reference.VerdictLines();
  EXPECT_GT(reference.stats.cache_hits, 0u);
  EXPECT_EQ(VerifyOn(8, a, analysis, AgreementOptions(true, true, true)).VerdictLines(),
            expected);
  EXPECT_EQ(VerifyOn(2, a, analysis, AgreementOptions(false, true, true)).VerdictLines(),
            expected);
}

TEST(EngineAgreementTestExtra, ProjectionDoesNotChangeVerdicts) {
  app::App a = apps::MakeCoursewareApp();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  EXPECT_EQ(VerifyOn(1, a, analysis, AgreementOptions(true, true, false)).VerdictLines(),
            VerifyOn(1, a, analysis, AgreementOptions(true, true, true)).VerdictLines());
}

// ----------------------------------------------------------------------------- Pipeline

TEST(PipelineTest, RunMatchesHandRolledDance) {
  app::App a = apps::MakeSmallBankApp();
  PipelineResult result = Engine().Run(a);

  analyzer::AnalysisResult manual = analyzer::AnalyzeApp(a);
  verifier::RestrictionReport expected =
      verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), manual.EffectfulPaths());

  EXPECT_EQ(result.analysis.num_effectful, manual.num_effectful);
  EXPECT_EQ(result.restrictions.VerdictLines(), expected.VerdictLines());
  EXPECT_EQ(result.stats().pairs, expected.stats.pairs);
  EXPECT_GT(result.total_seconds, 0.0);
}

TEST(PipelineTest, StatsReportCacheAndPrefilterActivity) {
  app::App a = apps::MakeSmallBankApp();
  PipelineResult result = Engine().Run(a);
  const verifier::ReportStats& stats = result.stats();
  EXPECT_EQ(stats.pairs, result.restrictions.pairs.size());
  // SmallBank's self-pairs guarantee NotInvalidate cache hits.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.solver_checks, 0u);
  EXPECT_GT(stats.CacheHitRate(), 0.0);
}

TEST(PipelineTest, ThreadsOptionFlowsThrough) {
  app::App a = apps::MakeCoursewareApp();
  EngineConfig config;
  config.threads = 2;
  EXPECT_EQ(Engine(config).Run(a).stats().threads_used, 2);
}

// ------------------------------------------------------------------------------- Engine

TEST(EngineTest, WarmEngineAnswersRepeatRunsFromItsVerdictCache) {
  Engine engine{EngineConfig{}};
  app::App todo = apps::MakeTodoApp();
  PipelineResult cold = engine.Run(todo);
  PipelineResult warm = engine.Run(todo);
  EXPECT_GT(cold.restrictions.stats.solver_checks, 0u);
  EXPECT_EQ(warm.restrictions.stats.solver_checks, 0u);
  EXPECT_GT(warm.restrictions.stats.cache_hits, 0u);
  EXPECT_EQ(warm.restrictions.RestrictedPairNames(),
            cold.restrictions.RestrictedPairNames());
}

// Verdict keys name the checker options a verdict depends on, so an engine that has
// verified an app under one set of options answers an ablation exactly as a fresh
// engine does.
TEST(EngineTest, CachedVerdictsDoNotCrossCheckerOptions) {
  app::App a = apps::MakeCoursewareApp();
  PipelineOptions options;
  PipelineOptions ablated = options;
  ablated.checker.encoder.unique_id_optimization = false;

  EngineConfig config;
  config.threads = 2;
  Engine engine(config);
  PipelineResult run = engine.Run(a, options);
  verifier::RestrictionReport shared = engine.Verify(a, run.analysis, ablated);
  verifier::RestrictionReport fresh = Engine(config).Verify(a, run.analysis, ablated);
  EXPECT_EQ(shared.VerdictLines(), fresh.VerdictLines());
  // Not vacuous: the ablation changes the restriction set.
  EXPECT_NE(shared.num_restrictions(), run.restrictions.num_restrictions());
}

TEST(EngineTest, IdleEngineConstructsAndDestructsCleanly) {
  Engine engine{EngineConfig{}};
  EXPECT_EQ(engine.verdicts().size(), 0u);
}

TEST(EngineTest, VerdictCacheCapacityKnobReachesTheEngineCache) {
  ASSERT_EQ(unsetenv("NOCTUA_VERDICT_CACHE"), 0);
  // Unset = unbounded, right for an engine built for one run.
  EXPECT_EQ(EngineConfig::FromEnv().verdict_cache_capacity, 0u);

  ASSERT_EQ(setenv("NOCTUA_VERDICT_CACHE", "123", 1), 0);
  EngineConfig config = EngineConfig::FromEnv();
  EXPECT_EQ(config.verdict_cache_capacity, 123u);
  Engine engine(config);
  EXPECT_EQ(engine.verdicts().capacity(), 123u);
  ASSERT_EQ(unsetenv("NOCTUA_VERDICT_CACHE"), 0);
}

TEST(EngineTest, ResolveOptionsPinsAutoKnobsAndInjectsEngineState) {
  Engine engine{EngineConfig{}};

  PipelineOptions defaults;
  PipelineOptions resolved = engine.ResolveOptions(defaults);
  EXPECT_EQ(resolved.parallel.pool, &engine.pool());
  EXPECT_EQ(resolved.parallel.store, &engine.verdicts());

  // A caller that brought its own store keeps it; the pool is the engine's regardless.
  verifier::VerdictCache mine;
  PipelineOptions custom;
  custom.parallel.store = &mine;
  PipelineOptions kept = engine.ResolveOptions(custom);
  EXPECT_EQ(kept.parallel.store, &mine);
  EXPECT_EQ(kept.parallel.pool, &engine.pool());
}

}  // namespace
}  // namespace noctua
