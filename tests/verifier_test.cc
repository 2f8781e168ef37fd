// Verifier tests: the paper's Table 5 results, the §6.4 case-study pairs, the unique-ID
// optimization ablation (§5.2), the order-encoding ablation (§4.2 / Table 7), the pair
// session's independence of query order and of term-factory reuse, its one encoding
// shared by both rules, and differential testing of verdicts against concrete execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/baseline/specs.h"
#include "src/obs/obs.h"
#include "src/soir/interp.h"
#include "src/repl/workload.h"
#include "src/support/rng.h"
#include "src/verifier/report.h"

namespace noctua::verifier {
namespace {

std::map<std::string, PairVerdict> ByViewPair(const RestrictionReport& report) {
  std::map<std::string, PairVerdict> out;
  for (const PairVerdict& v : report.pairs) {
    std::string p = v.p.substr(0, v.p.find('#'));
    std::string q = v.q.substr(0, v.q.find('#'));
    out[p + "|" + q] = v;
  }
  return out;
}

class SmallBankVerify : public ::testing::Test {
 protected:
  static const RestrictionReport& Report() {
    static RestrictionReport report = [] {
      app::App a = apps::MakeSmallBankApp();
      auto res = analyzer::AnalyzeApp(a);
      return AnalyzeRestrictions(Checker(a.schema()), res.EffectfulPaths());
    }();
    return report;
  }
};

TEST_F(SmallBankVerify, MatchesPaperTable5) {
  // Paper Table 5: 0 commutativity failures, 4 semantic failures.
  EXPECT_EQ(Report().com_failures(), 0u);
  EXPECT_EQ(Report().sem_failures(), 4u);
  EXPECT_EQ(Report().num_restrictions(), 4u);
  EXPECT_EQ(Report().num_checks(), 10u);  // 4 effectful ops -> 10 unordered pairs
}

TEST_F(SmallBankVerify, ExactRestrictedPairs) {
  auto by_pair = ByViewPair(Report());
  // §6.2: (TransactSavings,TransactSavings), (SendPayment,SendPayment),
  // (Amalgamate,Amalgamate), (Amalgamate,SendPayment).
  EXPECT_TRUE(by_pair.at("TransactSavings|TransactSavings").Restricted());
  EXPECT_TRUE(by_pair.at("SendPayment|SendPayment").Restricted());
  EXPECT_TRUE(by_pair.at("Amalgamate|Amalgamate").Restricted());
  EXPECT_TRUE(by_pair.at("SendPayment|Amalgamate").Restricted());
  EXPECT_FALSE(by_pair.at("DepositChecking|DepositChecking").Restricted());
  EXPECT_FALSE(by_pair.at("DepositChecking|TransactSavings").Restricted());
  EXPECT_FALSE(by_pair.at("DepositChecking|SendPayment").Restricted());
  EXPECT_FALSE(by_pair.at("DepositChecking|Amalgamate").Restricted());
  EXPECT_FALSE(by_pair.at("TransactSavings|SendPayment").Restricted());
  EXPECT_FALSE(by_pair.at("TransactSavings|Amalgamate").Restricted());
}

TEST_F(SmallBankVerify, BaselineSpecFindsSameRestrictionSet) {
  // Table 5: the spec-driven baseline and the analyzer-driven run agree.
  app::App a = apps::MakeSmallBankApp();
  auto spec = baseline::SmallBankSpec(a.schema());
  RestrictionReport spec_report = AnalyzeRestrictions(Checker(a.schema()), spec);
  EXPECT_EQ(spec_report.com_failures(), Report().com_failures());
  EXPECT_EQ(spec_report.sem_failures(), Report().sem_failures());
  EXPECT_EQ(spec_report.num_restrictions(), Report().num_restrictions());
}

class CoursewareVerify : public ::testing::Test {
 protected:
  static const RestrictionReport& Report() {
    static RestrictionReport report = [] {
      app::App a = apps::MakeCoursewareApp();
      auto res = analyzer::AnalyzeApp(a);
      return AnalyzeRestrictions(Checker(a.schema()), res.EffectfulPaths());
    }();
    return report;
  }
};

TEST_F(CoursewareVerify, MatchesPaperTable5) {
  // Paper Table 5: 1 commutativity failure, 1 semantic failure.
  EXPECT_EQ(Report().com_failures(), 1u);
  EXPECT_EQ(Report().sem_failures(), 1u);
  EXPECT_EQ(Report().num_restrictions(), 2u);
}

TEST_F(CoursewareVerify, ExactFailures) {
  auto by_pair = ByViewPair(Report());
  // (AddCourse,DeleteCourse): same-ID race — commutativity (paper §6.2).
  EXPECT_TRUE(OutcomeRestricts(by_pair.at("AddCourse|DeleteCourse").commutativity));
  EXPECT_FALSE(OutcomeRestricts(by_pair.at("AddCourse|DeleteCourse").semantic));
  // (Enroll,DeleteCourse): referential integrity — semantic.
  EXPECT_TRUE(OutcomeRestricts(by_pair.at("Enroll|DeleteCourse").semantic));
  EXPECT_FALSE(OutcomeRestricts(by_pair.at("Enroll|DeleteCourse").commutativity));
  EXPECT_FALSE(by_pair.at("Register|Register").Restricted());
  EXPECT_FALSE(by_pair.at("Enroll|Enroll").Restricted());
}

TEST_F(CoursewareVerify, BaselineSpecAgrees) {
  app::App a = apps::MakeCoursewareApp();
  auto spec = baseline::CoursewareSpec(a.schema());
  RestrictionReport spec_report = AnalyzeRestrictions(Checker(a.schema()), spec);
  EXPECT_EQ(spec_report.num_restrictions(), 2u);
  EXPECT_EQ(spec_report.com_failures(), 1u);
  EXPECT_EQ(spec_report.sem_failures(), 1u);
}

// --- Case study (§6.4) ----------------------------------------------------------------------

class ZhihuCaseStudy : public ::testing::Test {
 protected:
  ZhihuCaseStudy() : app(apps::MakeZhihuApp()) {
    auto res = analyzer::AnalyzeApp(app);
    for (auto& p : res.EffectfulPaths()) {
      paths.push_back(p);
    }
  }

  const soir::CodePath& Find(const std::string& view) const {
    for (const auto& p : paths) {
      if (p.view_name == view) {
        return p;
      }
    }
    NOCTUA_UNREACHABLE("no path for view " + view);
  }

  app::App app;
  std::vector<soir::CodePath> paths;
};

TEST_F(ZhihuCaseStudy, CreateQuestionDoesNotConflictWithItself) {
  // §6.4: thanks to the unique-ID assertion, CreateQuestion self-commutes.
  Checker checker(app.schema(), {});
  const soir::CodePath& create = Find("CreateQuestion");
  EXPECT_EQ(checker.CheckCommutativity(create, create), CheckOutcome::kPass);
  EXPECT_EQ(checker.CheckSemantic(create, create), CheckOutcome::kPass);
}

TEST_F(ZhihuCaseStudy, WithoutUniqueIdOptimizationCreateConflicts) {
  // §6.4: removing the assertion makes CreateQuestion conflict with itself — the two new
  // IDs can collide, writing different titles to the same object.
  CheckerOptions options;
  options.encoder.unique_id_optimization = false;
  Checker checker(app.schema(), options);
  const soir::CodePath& create = Find("CreateQuestion");
  EXPECT_EQ(checker.CheckCommutativity(create, create), CheckOutcome::kFail);
}

TEST_F(ZhihuCaseStudy, FollowQuestionConflictsWithCreateQuestion) {
  // §6.4: FollowQuestion updates the follow counter that CreateQuestion initializes.
  Checker checker(app.schema(), {});
  EXPECT_EQ(checker.CheckCommutativity(Find("CreateQuestion"), Find("FollowQuestion")),
            CheckOutcome::kFail);
}

TEST_F(ZhihuCaseStudy, FollowQuestionConflictsWithItselfSemantically) {
  // §6.4: (user, question) is unique-together, so a preceding FollowQuestion invalidates
  // the precondition of a later one.
  Checker checker(app.schema(), {});
  const soir::CodePath& follow = Find("FollowQuestion");
  EXPECT_EQ(checker.CheckSemantic(follow, follow), CheckOutcome::kFail);
}

// --- Order encoding (§4.2, Table 7) -----------------------------------------------------------

TEST(OrderEncoding, PostGraduationIdenticalWithAndWithoutOrder) {
  // Table 7: PostGraduation uses no order primitives, so disabling the order encoding
  // changes nothing.
  app::App a = apps::MakePostGraduationApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  CheckerOptions with_order;
  with_order.encoder.use_order = true;
  CheckerOptions no_order;
  no_order.encoder.use_order = false;
  RestrictionReport r1 = AnalyzeRestrictions(Checker(a.schema(), with_order), eff);
  RestrictionReport r2 = AnalyzeRestrictions(Checker(a.schema(), no_order), eff);
  EXPECT_EQ(r1.com_failures(), r2.com_failures());
  EXPECT_EQ(r1.sem_failures(), r2.sem_failures());
  EXPECT_EQ(r1.num_restrictions(), r2.num_restrictions());
}

TEST(OrderEncoding, OrderUsingPathsAreConservativeWithoutOrder) {
  // A pair involving first()/order_by() must be restricted (unsupported) when the order
  // encoding is disabled — the coverage the paper's design adds (§2.2.2).
  app::App a = apps::MakeTodoApp();
  auto res = analyzer::AnalyzeApp(a);
  const soir::CodePath* order_path = nullptr;
  for (const auto& p : res.paths) {
    if (!soir::OrderRelevantModels(p).empty()) {
      order_path = &p;
      break;
    }
  }
  ASSERT_NE(order_path, nullptr);
  CheckerOptions no_order;
  no_order.encoder.use_order = false;
  no_order.independence_prefilter = false;
  Checker checker(a.schema(), no_order);
  EXPECT_EQ(checker.CheckCommutativity(*order_path, *order_path),
            CheckOutcome::kUnsupported);
  CheckerOptions with_order;
  with_order.independence_prefilter = false;
  Checker checker2(a.schema(), with_order);
  EXPECT_NE(checker2.CheckCommutativity(*order_path, *order_path),
            CheckOutcome::kUnsupported);
}

// --- PairSession -----------------------------------------------------------------------------

// The pair session is the verifier's only pair code path: its three queries go to one
// backend, whose ground cache carries over from Check to Check. Asked out of report order,
// a session must answer exactly like a fresh session asked in report order: a cached
// grounding served for the wrong root, or anything else an earlier Check left behind,
// would change a later verdict. The mixed order runs NotInvalidate directions back to
// back, because only they share a frame and differ in their goals alone. Every effectful
// pair of SmallBank and Todo, prefilter off so every query reaches the solver, with
// incremental solving on and off — which must agree too.
TEST(PairSessionTest, OutOfOrderQueriesMatchAFreshSessionInReportOrder) {
  for (app::App (*make)() : {&apps::MakeSmallBankApp, &apps::MakeTodoApp}) {
    app::App a = make();
    std::vector<soir::CodePath> eff = analyzer::AnalyzeApp(a).EffectfulPaths();
    std::map<bool, std::vector<CheckOutcome>> by_mode;
    for (bool incremental : {true, false}) {
      CheckerOptions options;
      options.solver.incremental = incremental;
      options.independence_prefilter = false;
      Checker checker(a.schema(), options);
      std::vector<Checker::PathFacts> facts;
      for (const soir::CodePath& p : eff) {
        facts.push_back(checker.Facts(p));
      }
      std::vector<CheckOutcome>& outcomes = by_mode[incremental];
      for (size_t i = 0; i < eff.size(); ++i) {
        for (size_t j = i; j < eff.size(); ++j) {
          const std::string pair = a.name() + " " + eff[i].op_name + "|" + eff[j].op_name;
          Checker::PairSession fresh(checker, facts[i], facts[j]);
          CheckOutcome com = fresh.Commutativity();
          CheckOutcome pq = fresh.NotInvalidatePQ();
          CheckOutcome qp = fresh.NotInvalidateQP();
          outcomes.insert(outcomes.end(), {com, pq, qp});

          Checker::PairSession mixed(checker, facts[i], facts[j]);
          EXPECT_EQ(mixed.NotInvalidateQP(), qp) << pair;
          EXPECT_EQ(mixed.NotInvalidatePQ(), pq) << pair;
          EXPECT_EQ(mixed.NotInvalidateQP(), qp) << pair;
          EXPECT_EQ(mixed.Commutativity(), com) << pair;
          EXPECT_EQ(mixed.NotInvalidatePQ(), pq) << pair;
          EXPECT_EQ(mixed.Commutativity(), com) << pair;
        }
      }
    }
    EXPECT_EQ(by_mode[false], by_mode[true]) << a.name();
    // Not vacuous: both verdicts occur.
    const std::vector<CheckOutcome>& on = by_mode[true];
    EXPECT_NE(std::count(on.begin(), on.end(), CheckOutcome::kPass), 0) << a.name();
    EXPECT_NE(std::count(on.begin(), on.end(), CheckOutcome::kFail), 0) << a.name();
  }
}

// A Checker hands each finished session's term factory, Reset, to its next session. A
// session on a factory that served other pairs before must decide exactly like one on a
// new factory: same verdicts, and the same search (solver nodes), under the node budget.
TEST(PairSessionTest, SessionsOnReusedFactoriesMatchSessionsOnNewOnes) {
  for (app::App (*make)() : {&apps::MakeSmallBankApp, &apps::MakeTodoApp}) {
    app::App a = make();
    std::vector<soir::CodePath> eff = analyzer::AnalyzeApp(a).EffectfulPaths();
    CheckerOptions options;
    options.independence_prefilter = false;
    Checker shared(a.schema(), options);
    std::vector<Checker::PathFacts> facts;
    for (const soir::CodePath& p : eff) {
      facts.push_back(shared.Facts(p));
    }
    for (size_t i = 0; i < eff.size(); ++i) {
      for (size_t j = i; j < eff.size(); ++j) {
        const std::string pair = a.name() + " " + eff[i].op_name + "|" + eff[j].op_name;
        Checker fresh_checker(a.schema(), options);
        Checker::PairSession fresh(fresh_checker, facts[i], facts[j]);
        Checker::PairSession reused(shared, facts[i], facts[j]);
        CheckStats want, got;
        EXPECT_EQ(reused.Commutativity(&got), fresh.Commutativity(&want)) << pair;
        EXPECT_EQ(got.solver_nodes, want.solver_nodes) << pair;
        EXPECT_EQ(reused.NotInvalidatePQ(&got), fresh.NotInvalidatePQ(&want)) << pair;
        EXPECT_EQ(got.solver_nodes, want.solver_nodes) << pair;
        EXPECT_EQ(reused.NotInvalidateQP(&got), fresh.NotInvalidateQP(&want)) << pair;
        EXPECT_EQ(got.solver_nodes, want.solver_nodes) << pair;
      }
    }
  }
}

// A session encodes the pair once, and both rules read that encoding: NotInvalidate's
// frame (the unique-id axiom, both origin preconditions, the three states' axioms) is a
// subset of the commutativity roots, the same terms. So a session asked commutativity
// and then NotInvalidate(P, Q) builds no second encoding, and the NotInvalidate Check
// serves all six frame roots from the backend's ground cache. Every effectful pair of
// SmallBank, Todo and Zhihu, prefilter off so every query reaches the solver.
TEST(PairSessionTest, NotInvalidateServesItsFrameFromTheCommutativityGrounding) {
  for (app::App (*make)() : {&apps::MakeSmallBankApp, &apps::MakeTodoApp, &apps::MakeZhihuApp}) {
    app::App a = make();
    std::vector<soir::CodePath> eff = analyzer::AnalyzeApp(a).EffectfulPaths();
    CheckerOptions options;
    options.independence_prefilter = false;
    Checker checker(a.schema(), options);
    std::vector<Checker::PathFacts> facts;
    for (const soir::CodePath& p : eff) {
      facts.push_back(checker.Facts(p));
    }
    for (size_t i = 0; i < eff.size(); ++i) {
      for (size_t j = i; j < eff.size(); ++j) {
        const std::string pair = a.name() + " " + eff[i].op_name + "|" + eff[j].op_name;
        Checker::PairSession session(checker, facts[i], facts[j]);
        session.Commutativity();
        obs::Collector collector(obs::ObsOptions{.enabled = true});
        session.NotInvalidatePQ();
        collector.Stop();
        EXPECT_EQ(collector.histogram(obs::Hist::kEncodeMicros).count, 0u) << pair;
        EXPECT_GE(collector.counter(obs::Counter::kSolverIncrementalReuse), 6u) << pair;
      }
    }
  }
}

// Commutativity compares under the caller's app-wide order set, NotInvalidate under the
// pair's own, ord(p) ∪ ord(q). Where the two materialize differently (order arrays for
// different models of the pair's footprint), the session builds a second encoding for
// NotInvalidate with the same code, and each rule must decide exactly as a session asked
// that rule alone: same outcome, same search. NotInvalidate must also decide as a
// session given no app-wide set: read under the app-wide encoding, five of these
// NotInvalidate verdicts turn from pass to fail (the order arrays widen the integer
// domain). Todo with every path as an order observer, read-only ones too, as the
// enforcement tables verify it: its read-only paths observe orders its effectful ones do
// not.
TEST(PairSessionTest, RulesUnderDifferentOrderSetsMatchSessionsAskedOneRule) {
  app::App a = apps::MakeTodoApp();
  const analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);
  std::vector<soir::CodePath> eff = analysis.EffectfulPaths();
  CheckerOptions options;
  options.independence_prefilter = false;
  Checker checker(a.schema(), options);
  std::vector<Checker::PathFacts> facts;
  for (const soir::CodePath& p : eff) {
    facts.push_back(checker.Facts(p));
  }
  std::set<int> app_order;
  for (const soir::CodePath& p : analysis.paths) {
    std::set<int> order = soir::OrderRelevantModels(p);
    app_order.insert(order.begin(), order.end());
  }

  using Rule = CheckOutcome (Checker::PairSession::*)(CheckStats*);
  const Rule rules[] = {&Checker::PairSession::Commutativity,
                        &Checker::PairSession::NotInvalidatePQ,
                        &Checker::PairSession::NotInvalidateQP};
  size_t differing = 0;
  for (size_t i = 0; i < eff.size(); ++i) {
    for (size_t j = i; j < eff.size(); ++j) {
      const std::string pair = eff[i].op_name + "|" + eff[j].op_name;
      // The order sets as the encoder materializes them: the footprint's models only.
      const std::set<int> scope = Checker::ComputeScope(facts[i], facts[j]).models;
      std::set<int> pair_order = facts[i].order;
      pair_order.insert(facts[j].order.begin(), facts[j].order.end());
      auto materialize = [&](const std::set<int>& order) {
        std::set<int> out;
        std::set_intersection(order.begin(), order.end(), scope.begin(), scope.end(),
                              std::inserter(out, out.end()));
        return out;
      };
      const bool differs = materialize(app_order) != materialize(pair_order);
      differing += differs ? 1 : 0;

      Checker::PairSession all(checker, facts[i], facts[j], &app_order);
      obs::Collector collector(obs::ObsOptions{.enabled = true});
      CheckOutcome outcomes[3];
      CheckStats together[3];
      for (size_t r = 0; r < 3; ++r) {
        outcomes[r] = (all.*rules[r])(&together[r]);
        Checker::PairSession alone(checker, facts[i], facts[j], &app_order);
        CheckStats by_itself;
        EXPECT_EQ((alone.*rules[r])(&by_itself), outcomes[r]) << pair;
        EXPECT_EQ(by_itself.solver_nodes, together[r].solver_nodes) << pair;
      }
      collector.Stop();
      // One encoding per distinct materialized order set: the session's, plus one in
      // each of the three sessions asked a single rule.
      EXPECT_EQ(collector.histogram(obs::Hist::kEncodeMicros).count, (differs ? 2u : 1u) + 3u)
          << pair;
      // NotInvalidate's two directions under the pair's own order set.
      Checker::PairSession own(checker, facts[i], facts[j]);
      for (size_t r = 1; r < 3; ++r) {
        CheckStats by_own_set;
        EXPECT_EQ((own.*rules[r])(&by_own_set), outcomes[r]) << pair;
        EXPECT_EQ(by_own_set.solver_nodes, together[r].solver_nodes) << pair;
      }
    }
  }
  // Not vacuous: some pair's rules compare under different order sets.
  EXPECT_GT(differing, 0u);
}

// --- Differential testing: verifier verdicts vs concrete execution --------------------------

// If the verifier says a pair commutes, executing the two operations in both orders from
// random common states must produce identical databases and commit patterns. Restricted
// pairs are allowed to diverge (that is what the restriction prevents at run time).
class DifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DifferentialTest, CommutativeVerdictsHoldConcretely) {
  app::App a = GetParam() == std::string("smallbank") ? apps::MakeSmallBankApp()
                                                      : apps::MakeCoursewareApp();
  auto res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  RestrictionReport report = AnalyzeRestrictions(Checker(a.schema()), eff);
  std::map<std::string, bool> com_ok;
  for (const PairVerdict& v : report.pairs) {
    com_ok[v.p + "|" + v.q] = !OutcomeRestricts(v.commutativity);
  }

  soir::Interp interp(a.schema());
  Rng rng(2026);
  int divergences = 0;
  int checked = 0;
  for (size_t i = 0; i < eff.size(); ++i) {
    for (size_t j = i; j < eff.size(); ++j) {
      if (!com_ok.at(eff[i].op_name + "|" + eff[j].op_name)) {
        continue;
      }
      for (int trial = 0; trial < 20; ++trial) {
        orm::Database db(&a.schema());
        repl::WorkloadGenerator::SeedDatabase(&db, 3, rng.Next());
        repl::WorkloadGenerator gen(a.schema(), eff, 1.0, rng.Next());
        // Draw both argument vectors against the same initial state; unique-id arguments
        // get distinct fresh IDs thanks to the scratch DB advancing its ID counter.
        orm::Database scratch = db;
        repl::Request rp = gen.ForPath(eff[i], &scratch);
        repl::Request rq = gen.ForPath(eff[j], &scratch);

        // Both operations must be generable from the common state (their preconditions
        // hold at the origin); effects then replay unconditionally in both orders, the
        // operation-transfer semantics the commutativity rule models.
        orm::Database probe_p = db;
        orm::Database probe_q = db;
        if (!interp.Run(*rp.path, rp.args, &probe_p) ||
            !interp.Run(*rq.path, rq.args, &probe_q)) {
          continue;
        }
        orm::Database pq = db;
        interp.Apply(*rp.path, rp.args, &pq);
        interp.Apply(*rq.path, rq.args, &pq);
        orm::Database qp = db;
        interp.Apply(*rq.path, rq.args, &qp);
        interp.Apply(*rp.path, rp.args, &qp);
        ++checked;
        if (!pq.SameState(qp)) {
          ++divergences;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_EQ(divergences, 0) << "a pair judged commutative diverged concretely";
}

INSTANTIATE_TEST_SUITE_P(Apps, DifferentialTest,
                         ::testing::Values("smallbank", "courseware"));

}  // namespace
}  // namespace noctua::verifier
