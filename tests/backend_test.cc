// Tests for the pluggable solver backends (src/smt/backend.h):
//   * the CdclSearch propositional core, driven piecewise — unit propagation chains,
//     first-UIP conflict analysis, learned-clause implication, pigeonhole pure SAT;
//   * backend selection — strict NOCTUA_SOLVER parsing and the MakeBackend factory;
//   * the headline soundness claim: every evaluated app's restriction set is
//     byte-identical across dfs and cdcl, and with the solver optimizations off and on.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/obs/obs.h"
#include "src/pipeline/pipeline.h"
#include "src/smt/backend.h"
#include "src/smt/cdcl.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"

namespace noctua {
namespace {

using smt::BackendKind;
using smt::CdclSearch;
using smt::SolveResult;
using smt::Term;
using smt::TermFactory;

// ------------------------------------------------------------------- CdclSearch core

TEST(CdclSearchTest, UnitPropagationChains) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  // a -> b -> c -> d as implications.
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::PosLit(b)});
  s.AddClause({CdclSearch::NegLit(b), CdclSearch::PosLit(c)});
  s.AddClause({CdclSearch::NegLit(c), CdclSearch::PosLit(d)});
  ASSERT_FALSE(s.unsat());

  s.Decide(CdclSearch::PosLit(a));
  EXPECT_EQ(s.Propagate(), -1);
  for (int v : {a, b, c, d}) {
    EXPECT_EQ(s.value(v), 1) << "var " << v;
    EXPECT_EQ(s.LevelOf(v), 1) << "var " << v;
  }

  // Backtracking undoes the whole chain.
  s.BacktrackTo(0);
  for (int v : {a, b, c, d}) {
    EXPECT_EQ(s.value(v), -1) << "var " << v;
  }
}

TEST(CdclSearchTest, PropagationReportsConflictingClause) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar();
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::PosLit(b)});
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::NegLit(b)});
  s.Decide(CdclSearch::PosLit(a));
  int conflict = s.Propagate();
  ASSERT_GE(conflict, 0);
  // The conflicting clause is falsified end to end.
  // (Either input clause may be reported depending on propagation order.)
  EXPECT_EQ(s.value(a), 1);
}

TEST(CdclSearchTest, LevelZeroUnitsPropagateImmediately) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar();
  s.AddClause({CdclSearch::PosLit(a)});
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::PosLit(b)});
  EXPECT_EQ(s.Propagate(), -1);
  EXPECT_EQ(s.value(a), 1);
  EXPECT_EQ(s.value(b), 1);
  EXPECT_EQ(s.LevelOf(a), 0);
  EXPECT_EQ(s.LevelOf(b), 0);
}

TEST(CdclSearchTest, ContradictoryUnitsMarkUnsat) {
  CdclSearch s;
  int a = s.NewVar();
  s.AddClause({CdclSearch::PosLit(a)});
  s.Propagate();
  s.AddClause({CdclSearch::NegLit(a)});
  EXPECT_TRUE(s.unsat());
}

// The classic first-UIP shape: a@1 and b@2 are decisions; b implies c, c and a imply d,
// and (¬c ∨ ¬d) closes the trap. Analysis must resolve d away, stop at the unique
// level-2 implication point c, and pull in the level-1 context literal ¬a.
TEST(CdclSearchTest, FirstUipLearnedClauseAndBackjump) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  s.AddClause({CdclSearch::NegLit(b), CdclSearch::PosLit(c)});
  s.AddClause({CdclSearch::NegLit(a), CdclSearch::NegLit(c), CdclSearch::PosLit(d)});
  std::vector<int> trap = {CdclSearch::NegLit(c), CdclSearch::NegLit(d)};
  s.AddClause(trap);

  s.Decide(CdclSearch::PosLit(a));
  ASSERT_EQ(s.Propagate(), -1);
  s.Decide(CdclSearch::PosLit(b));
  int conflict = s.Propagate();
  ASSERT_GE(conflict, 0);

  CdclSearch::Conflict result = s.Analyze(trap);
  ASSERT_EQ(result.learned.size(), 2u);
  EXPECT_EQ(result.learned[0], CdclSearch::NegLit(c));  // the asserting first-UIP literal
  EXPECT_EQ(result.learned[1], CdclSearch::NegLit(a));  // the level-1 context
  EXPECT_EQ(result.backjump_level, 1);
}

// Whatever Analyze learns must be *implied* by the input formula: conjoining the
// negation of the learned clause with the original clauses must be unsatisfiable.
TEST(CdclSearchTest, LearnedClauseIsImpliedByTheFormula) {
  std::vector<std::vector<int>> formula;
  auto build = [&](CdclSearch& s) {
    int a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
    formula = {{CdclSearch::NegLit(b), CdclSearch::PosLit(c)},
               {CdclSearch::NegLit(a), CdclSearch::NegLit(c), CdclSearch::PosLit(d)},
               {CdclSearch::NegLit(c), CdclSearch::NegLit(d)}};
    for (const auto& cl : formula) {
      s.AddClause(cl);
    }
    return std::vector<int>{a, b, c, d};
  };

  CdclSearch s;
  std::vector<int> vars = build(s);
  s.Decide(CdclSearch::PosLit(vars[0]));
  ASSERT_EQ(s.Propagate(), -1);
  s.Decide(CdclSearch::PosLit(vars[1]));
  ASSERT_GE(s.Propagate(), 0);
  CdclSearch::Conflict result = s.Analyze(formula[2]);

  // Fresh search: original formula plus the negation of every learned literal.
  CdclSearch check;
  build(check);
  for (int lit : result.learned) {
    check.AddClause({CdclSearch::Negate(lit)});
  }
  EXPECT_EQ(check.Solve(nullptr, nullptr), SolveResult::kUnsat);
}

TEST(CdclSearchTest, SolvePureSatFindsSatisfyingAssignment) {
  CdclSearch s;
  int a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  std::vector<std::vector<int>> formula = {
      {CdclSearch::PosLit(a), CdclSearch::PosLit(b)},
      {CdclSearch::NegLit(a), CdclSearch::PosLit(c)},
      {CdclSearch::NegLit(b), CdclSearch::NegLit(c)},
  };
  for (const auto& cl : formula) {
    s.AddClause(cl);
  }
  ASSERT_EQ(s.Solve(nullptr, nullptr), SolveResult::kSat);
  for (const auto& cl : formula) {
    bool satisfied = false;
    for (int lit : cl) {
      satisfied = satisfied || s.LitValue(lit) == 1;
    }
    EXPECT_TRUE(satisfied);
  }
}

// Pigeonhole PHP(4,3): every unsatisfiable run must learn its way there.
TEST(CdclSearchTest, PigeonholeIsUnsatAndLearnsClauses) {
  constexpr int kPigeons = 4, kHoles = 3;
  CdclSearch s;
  int p[kPigeons][kHoles];
  for (int i = 0; i < kPigeons; ++i) {
    for (int j = 0; j < kHoles; ++j) {
      p[i][j] = s.NewVar();
    }
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<int> somewhere;
    for (int j = 0; j < kHoles; ++j) {
      somewhere.push_back(CdclSearch::PosLit(p[i][j]));
    }
    s.AddClause(somewhere);
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i = 0; i < kPigeons; ++i) {
      for (int k = i + 1; k < kPigeons; ++k) {
        s.AddClause({CdclSearch::NegLit(p[i][j]), CdclSearch::NegLit(p[k][j])});
      }
    }
  }
  EXPECT_EQ(s.Solve(nullptr, nullptr), SolveResult::kUnsat);
  EXPECT_GT(s.conflicts(), 0u);
  EXPECT_GT(s.learned_clauses(), 0u);
}

// Aggressive Luby restarts must not change a verdict: with a one-conflict restart unit
// the pigeonhole refutation still lands at unsat (input clauses and level-0 units
// survive every restart and DB reduction), the schedule actually fires, and the
// injection hook runs once per restart.
TEST(CdclSearchTest, LubyRestartsPreserveUnsatAndFireTheHook) {
  constexpr int kPigeons = 4, kHoles = 3;
  CdclSearch s;
  uint64_t hook_calls = 0;
  s.ConfigureRestarts(1, [&]() { ++hook_calls; });
  int p[kPigeons][kHoles];
  for (int i = 0; i < kPigeons; ++i) {
    for (int j = 0; j < kHoles; ++j) {
      p[i][j] = s.NewVar();
    }
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<int> somewhere;
    for (int j = 0; j < kHoles; ++j) {
      somewhere.push_back(CdclSearch::PosLit(p[i][j]));
    }
    s.AddClause(somewhere);
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i = 0; i < kPigeons; ++i) {
      for (int k = i + 1; k < kPigeons; ++k) {
        s.AddClause({CdclSearch::NegLit(p[i][j]), CdclSearch::NegLit(p[k][j])});
      }
    }
  }
  EXPECT_EQ(s.Solve(nullptr, nullptr), SolveResult::kUnsat);
  EXPECT_GT(s.restarts(), 0u);
  EXPECT_EQ(hook_calls, s.restarts());
}

// ------------------------------------------------------------------ backend selection

TEST(BackendKindTest, ParseAcceptsExactlyTheThreeKnobValues) {
  BackendKind k = BackendKind::kAuto;
  EXPECT_TRUE(smt::ParseBackendKind("dfs", &k));
  EXPECT_EQ(k, BackendKind::kDfs);
  EXPECT_TRUE(smt::ParseBackendKind("cdcl", &k));
  EXPECT_EQ(k, BackendKind::kCdcl);

  for (const char* bad : {"auto", "DFS", "Cdcl", "", "z3", "dfs ", " dfs", "portfolio"}) {
    BackendKind untouched = BackendKind::kCdcl;
    EXPECT_FALSE(smt::ParseBackendKind(bad, &untouched)) << '"' << bad << '"';
    EXPECT_EQ(untouched, BackendKind::kCdcl) << '"' << bad << '"';
  }
}

TEST(BackendKindTest, EnvSelectionIsStrict) {
  ASSERT_EQ(unsetenv("NOCTUA_SOLVER"), 0);
  EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kDfs);
  ASSERT_EQ(setenv("NOCTUA_SOLVER", "cdcl", 1), 0);
  EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kCdcl);
  // Anything else, the retired "portfolio" included, falls back to dfs instead of being
  // absorbed, with a one-shot stderr warning: the first rejected value warns, later ones
  // stay silent. (No earlier test in this binary rejects a NOCTUA_SOLVER value.)
  ::testing::internal::CaptureStderr();
  for (const char* bad : {"portfolio", "Portfolio", "z3", "dfs,cdcl", "auto"}) {
    ASSERT_EQ(setenv("NOCTUA_SOLVER", bad, 1), 0);
    EXPECT_EQ(smt::BackendKindFromEnv(), BackendKind::kDfs) << '"' << bad << '"';
  }
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(warnings.begin(), warnings.end(), '\n'), 1) << warnings;
  EXPECT_NE(warnings.find("NOCTUA_SOLVER=\"portfolio\""), std::string::npos) << warnings;
  ASSERT_EQ(unsetenv("NOCTUA_SOLVER"), 0);
}

TEST(BackendFactoryTest, PinnedKindOverridesOptionsAndEnv) {
  smt::SolverOptions options;
  options.backend = BackendKind::kCdcl;
  EXPECT_STREQ(smt::MakeBackend(options)->name(), "cdcl");
  EXPECT_STREQ(smt::MakeBackend(BackendKind::kDfs, options)->name(), "dfs");

  ASSERT_EQ(setenv("NOCTUA_SOLVER", "cdcl", 1), 0);
  smt::SolverOptions from_env;  // backend = kAuto
  EXPECT_STREQ(smt::MakeBackend(from_env)->name(), "cdcl");
  ASSERT_EQ(unsetenv("NOCTUA_SOLVER"), 0);
  EXPECT_STREQ(smt::MakeBackend(from_env)->name(), "dfs");
}

// ------------------------------------------------------------- optimization toggles

TEST(ToggleTest, ParseAcceptsExactlyOnAndOff) {
  smt::Toggle t = smt::Toggle::kAuto;
  EXPECT_TRUE(smt::ParseToggle("on", &t));
  EXPECT_EQ(t, smt::Toggle::kOn);
  EXPECT_TRUE(smt::ParseToggle("off", &t));
  EXPECT_EQ(t, smt::Toggle::kOff);
  for (const char* bad : {"auto", "1", "0", "true", "ON", "Off", " on", "on ", ""}) {
    smt::Toggle untouched = smt::Toggle::kOn;
    EXPECT_FALSE(smt::ParseToggle(bad, &untouched)) << '"' << bad << '"';
    EXPECT_EQ(untouched, smt::Toggle::kOn) << '"' << bad << '"';
  }
}

TEST(ToggleTest, EnvKnobsAreStrictAndDefaultOn) {
  smt::SolverOptions options;  // both toggles kAuto: defer to the environment
  ASSERT_EQ(unsetenv("NOCTUA_SYMMETRY"), 0);
  ASSERT_EQ(unsetenv("NOCTUA_INCREMENTAL"), 0);
  EXPECT_TRUE(smt::SymmetryEnabled(options));
  EXPECT_TRUE(smt::IncrementalEnabled(options));

  ASSERT_EQ(setenv("NOCTUA_SYMMETRY", "off", 1), 0);
  ASSERT_EQ(setenv("NOCTUA_INCREMENTAL", "off", 1), 0);
  EXPECT_FALSE(smt::SymmetryEnabled(options));
  EXPECT_FALSE(smt::IncrementalEnabled(options));

  // Typos warn (once, on stderr) and fall back to on instead of being absorbed.
  for (const char* bad : {"0", "disabled", "On", "yes"}) {
    ASSERT_EQ(setenv("NOCTUA_SYMMETRY", bad, 1), 0);
    ASSERT_EQ(setenv("NOCTUA_INCREMENTAL", bad, 1), 0);
    EXPECT_TRUE(smt::SymmetryEnabled(options)) << '"' << bad << '"';
    EXPECT_TRUE(smt::IncrementalEnabled(options)) << '"' << bad << '"';
  }

  // A pinned option wins over any environment value.
  options.symmetry = smt::Toggle::kOff;
  options.incremental = smt::Toggle::kOff;
  ASSERT_EQ(setenv("NOCTUA_SYMMETRY", "on", 1), 0);
  ASSERT_EQ(setenv("NOCTUA_INCREMENTAL", "on", 1), 0);
  EXPECT_FALSE(smt::SymmetryEnabled(options));
  EXPECT_FALSE(smt::IncrementalEnabled(options));

  ASSERT_EQ(unsetenv("NOCTUA_SYMMETRY"), 0);
  ASSERT_EQ(unsetenv("NOCTUA_INCREMENTAL"), 0);
}

// ---------------------------------------------------- cross-backend restriction sets

std::vector<std::string> VerdictLines(const verifier::RestrictionReport& report) {
  std::vector<std::string> out;
  out.reserve(report.pairs.size());
  for (const auto& v : report.pairs) {
    out.push_back(v.p + "|" + v.q + "|" + verifier::CheckOutcomeName(v.commutativity) +
                  "|" + verifier::CheckOutcomeName(v.semantic));
  }
  return out;
}

// The acceptance bar for the whole redesign: on every evaluated app, the dfs and cdcl
// backends must produce byte-identical restriction sets. Budgets are pinned to
// deterministic (node-only) mode so the comparison is exact on any machine.
class BackendIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(BackendIdentityTest, RestrictionSetsAreByteIdenticalAcrossBackends) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  auto run = [&](BackendKind kind) {
    PipelineOptions options;
    options.parallel.threads = 2;
    options.checker.solver.backend = kind;
    options.checker.solver.budget.deterministic = true;
    return Pipeline::Verify(a, analysis, options);
  };

  verifier::RestrictionReport dfs = run(BackendKind::kDfs);
  ASSERT_FALSE(dfs.pairs.empty());
  EXPECT_EQ(dfs.stats.solver_backend, "dfs");
  std::vector<std::string> expected = VerdictLines(dfs);

  verifier::RestrictionReport cdcl = run(BackendKind::kCdcl);
  EXPECT_EQ(cdcl.stats.solver_backend, "cdcl");
  EXPECT_EQ(VerdictLines(cdcl), expected);
  EXPECT_EQ(cdcl.RestrictedPairNames(), dfs.RestrictedPairNames());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BackendIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

// The acceptance bar for the hot-path optimizations: on every evaluated app, turning
// incremental solving and symmetry reduction off must not move a single verdict. The
// off-mode reference runs on dfs and is compared against pinned-on runs of dfs and
// cdcl. Each run records under its own obs::Collector, the only home of the solver's
// tallies, so the test also sees that the toggles really switch the optimizations.
class OptimizationIdentityTest : public ::testing::TestWithParam<apps::AppEntry> {};

TEST_P(OptimizationIdentityTest, TogglesDoNotChangeTheRestrictionSet) {
  app::App a = GetParam().make();
  PipelineOptions analysis_only;
  analysis_only.verify = false;
  analyzer::AnalysisResult analysis = Pipeline::Run(a, analysis_only).analysis;

  struct Run {
    verifier::RestrictionReport report;
    uint64_t reuse_hits = 0;
    uint64_t symmetry_pruned = 0;
  };
  auto run = [&](BackendKind kind, smt::Toggle mode) {
    obs::Collector collector(obs::ObsOptions{.enabled = true});
    PipelineOptions options;
    options.parallel.threads = 2;
    options.checker.solver.backend = kind;
    options.checker.solver.budget.deterministic = true;
    options.checker.solver.symmetry = mode;
    options.checker.solver.incremental = mode;
    Run r{Pipeline::Verify(a, analysis, options)};
    collector.Stop();
    r.reuse_hits = collector.counter(obs::Counter::kSolverIncrementalReuse);
    r.symmetry_pruned = collector.counter(obs::Counter::kSolverSymmetryPruned);
    return r;
  };

  Run off = run(BackendKind::kDfs, smt::Toggle::kOff);
  ASSERT_FALSE(off.report.pairs.empty());
  // The toggles are really off: nothing was reused or pruned.
  EXPECT_EQ(off.reuse_hits, 0u);
  EXPECT_EQ(off.symmetry_pruned, 0u);
  std::vector<std::string> expected = VerdictLines(off.report);

  for (BackendKind kind : {BackendKind::kDfs, BackendKind::kCdcl}) {
    Run on = run(kind, smt::Toggle::kOn);
    EXPECT_EQ(VerdictLines(on.report), expected) << smt::BackendKindName(kind);
    EXPECT_EQ(on.report.RestrictedPairNames(), off.report.RestrictedPairNames())
        << smt::BackendKindName(kind);
    if (kind == BackendKind::kDfs) {
      // And really on: the pair sessions reused their frames' grounding, and the search
      // pruned symmetric values.
      EXPECT_GT(on.reuse_hits, 0u);
      EXPECT_GT(on.symmetry_pruned, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, OptimizationIdentityTest, ::testing::ValuesIn(apps::EvaluatedApps()),
    [](const ::testing::TestParamInfo<apps::AppEntry>& info) { return info.param.name; });

}  // namespace
}  // namespace noctua
