// Property-based tests on cross-component invariants:
//   * the model finder and the Z3 oracle agree on random formulas, and both solvers'
//     models satisfy the formula under the independent three-valued evaluator (which
//     shares no evaluation code with either);
//   * grounding preserves truth under the evaluator;
//   * the linear-arithmetic normal form respects integer semantics;
//   * the model finder's pruned substitution returns what an unpruned one returns;
//   * ORM databases keep their structural invariants under random operation streams;
//   * the simulator converges for every evaluated app under its computed restriction set.
#include <gtest/gtest.h>

#include <memory>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/pipeline/enforce.h"
#include "src/repl/simulator.h"
#include "src/smt/backend.h"
#include "src/smt/eval.h"
#include "src/smt/ground.h"
#include "src/smt/solver.h"
#include "src/support/rng.h"
#include "src/verifier/report.h"
#include "tests/z3_oracle.h"

namespace noctua {
namespace {

using smt::Scope;
using smt::Sort;
using smt::Term;
using smt::TermFactory;

// Generates a random ground-able boolean term over a small vocabulary of constants.
class RandomTerms {
 public:
  RandomTerms(TermFactory* f, Rng* rng) : f_(f), rng_(rng) {
    ints_ = {f_->Const("i0", smt::IntSort()), f_->Const("i1", smt::IntSort()),
             f_->Const("i2", smt::IntSort())};
    refs_ = {f_->Const("r0", f_->RefSort(0)), f_->Const("r1", f_->RefSort(0))};
    set_ = f_->Const("s", f_->SetSort(f_->RefSort(0)));
    array_ = f_->Const("arr", f_->ArraySort(f_->RefSort(0), smt::IntSort()));
  }

  Term Int(int depth) {
    switch (rng_->NextBelow(depth > 0 ? 5 : 2)) {
      case 0:
        return f_->IntLit(rng_->NextInRange(-2, 3));
      case 1:
        return ints_[rng_->NextBelow(ints_.size())];
      case 2:
        return f_->Add(Int(depth - 1), Int(depth - 1));
      case 3:
        return f_->Sub(Int(depth - 1), Int(depth - 1));
      default:
        return f_->Select(array_, Ref());
    }
  }

  Term Ref() { return refs_[rng_->NextBelow(refs_.size())]; }

  Term Bool(int depth) {
    switch (rng_->NextBelow(depth > 0 ? 7 : 3)) {
      case 0:
        return f_->Le(Int(depth - 1), Int(depth - 1));
      case 1:
        return f_->Eq(Ref(), Ref());
      case 2:
        return f_->Member(Ref(), set_);
      case 3:
        return f_->And(Bool(depth - 1), Bool(depth - 1));
      case 4:
        return f_->Or(Bool(depth - 1), Bool(depth - 1));
      case 5:
        return f_->Not(Bool(depth - 1));
      default: {
        Term v = f_->NewBoundVar(f_->RefSort(0));
        // forall x. member(x, s) -> arr[x] <= <int expr>
        return f_->Forall(v, f_->Implies(f_->Member(v, set_),
                                         f_->Le(f_->Select(array_, v), Int(depth - 1))));
      }
    }
  }

 private:
  TermFactory* f_;
  Rng* rng_;
  std::vector<Term> ints_;
  std::vector<Term> refs_;
  Term set_;
  Term array_;
};

// Evaluates a term under an assignment parsed from the solver's model, using the
// independent Evaluator (atoms the model omits stay unknown).
smt::Value EvalUnderModel(const Scope& scope, Term t, const smt::SmtModel& model) {
  smt::AtomTable atoms(scope, {t});
  std::vector<smt::Value> assignment(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    const smt::Atom& a = atoms.atoms()[i];
    auto it = model.values.find(a.Name());
    if (it == model.values.end()) {
      continue;
    }
    const std::string& v = it->second;
    if (a.sort->is_bool()) {
      assignment[i] = smt::Value::Bool(v == "true");
    } else if (a.sort->is_int()) {
      assignment[i] = smt::Value::Int(std::stoll(v));
    } else if (a.sort->is_ref()) {
      assignment[i] = smt::Value::Ref(std::stoll(v.substr(1)));  // "#k"
    } else if (a.sort->is_string()) {
      assignment[i] = smt::Value::Str(v.substr(1, v.size() - 2));  // quoted
    }
  }
  smt::Evaluator eval(scope, atoms, assignment);
  return eval.Eval(t);
}

// The solvers every random formula goes to: the model finder (a null factory), then the
// Z3 oracle when the build has it. The tests that compare against the oracle mark
// themselves skipped at the end in a build without it.
std::vector<smt::BackendFactory> Solvers() {
  std::vector<smt::BackendFactory> out = {nullptr};
  if (smt::Z3Oracle() != nullptr) {
    out.push_back(smt::Z3Oracle());
  }
  return out;
}

class SolverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverPropertyTest, SatModelsSatisfyFormulaUnderIndependentEvaluator) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    TermFactory f;
    RandomTerms gen(&f, &rng);
    Term formula = gen.Bool(3);
    smt::SolverOptions options;

    // Every random formula doubles as a cross-backend agreement check: the model finder
    // and the Z3 oracle decide the same finite question, so their verdicts must match
    // and each one's model must satisfy the formula under the independent Evaluator.
    std::vector<smt::SolveResult> verdicts;
    for (smt::BackendFactory solver : Solvers()) {
      options.backend = solver;
      std::unique_ptr<smt::SolverBackend> backend = smt::MakeBackend(options);
      backend->Assert(formula);
      smt::SolveResult r = backend->Check(f);
      ASSERT_NE(r, smt::SolveResult::kUnknown) << backend->name();
      verdicts.push_back(r);
      if (r == smt::SolveResult::kSat) {
        smt::Value v = EvalUnderModel(options.scope, formula, backend->model());
        // The model may omit don't-care atoms; a known value must be true.
        if (v.is_known()) {
          EXPECT_TRUE(v.bool_v()) << backend->name() << ": " << formula->ToString()
                                  << "\nmodel:\n"
                                  << backend->model().ToString();
        }
      } else {
        // UNSAT: the negation must be satisfiable (no formula is both ways).
        std::unique_ptr<smt::SolverBackend> neg = smt::MakeBackend(options);
        neg->Assert(f.Not(formula));
        EXPECT_EQ(neg->Check(f), smt::SolveResult::kSat)
            << backend->name() << ": " << formula->ToString();
      }
    }
    ASSERT_EQ(verdicts.front(), verdicts.back())
        << "dfs and z3 disagree on " << formula->ToString();
  }
  if (smt::Z3Oracle() == nullptr) {
    GTEST_SKIP() << "dfs only: built without Z3";
  }
}

TEST_P(SolverPropertyTest, GroundingPreservesEvaluation) {
  Rng rng(GetParam() * 31 + 7);
  Scope scope(2);
  for (int round = 0; round < 40; ++round) {
    TermFactory f;
    RandomTerms gen(&f, &rng);
    Term formula = gen.Bool(3);
    smt::Grounder grounder(&f, scope);
    Term grounded = grounder.Ground(formula);
    // Build a full random assignment and evaluate both forms.
    smt::AtomTable atoms(scope, {formula, grounded});
    std::vector<smt::Value> assignment(atoms.size());
    for (size_t i = 0; i < atoms.size(); ++i) {
      const smt::Atom& a = atoms.atoms()[i];
      if (a.sort->is_bool()) {
        assignment[i] = smt::Value::Bool(rng.NextBool());
      } else if (a.sort->is_int()) {
        assignment[i] = smt::Value::Int(rng.NextInRange(-3, 3));
      } else if (a.sort->is_ref()) {
        assignment[i] = smt::Value::Ref(rng.NextBelow(2));
      } else {
        assignment[i] = smt::Value::Str("s" + std::to_string(rng.NextBelow(2)));
      }
    }
    smt::Evaluator e1(scope, atoms, assignment);
    smt::Value v1 = e1.Eval(formula);
    smt::Evaluator e2(scope, atoms, assignment);
    smt::Value v2 = e2.Eval(grounded);
    ASSERT_TRUE(v1.is_known());
    ASSERT_TRUE(v2.is_known());
    EXPECT_EQ(v1.bool_v(), v2.bool_v()) << formula->ToString();
  }
}

TEST_P(SolverPropertyTest, LinearNormalFormIsSemanticallyCorrect) {
  Rng rng(GetParam() * 17 + 3);
  Scope scope(2);
  for (int round = 0; round < 60; ++round) {
    TermFactory f;
    RandomTerms gen(&f, &rng);
    Term a = gen.Int(3);
    Term b = gen.Int(3);
    // a + b - b == a must hold semantically (and usually collapses syntactically).
    Term lhs = f.Sub(f.Add(a, b), b);
    smt::AtomTable atoms(scope, {lhs, a});
    std::vector<smt::Value> assignment(atoms.size());
    for (size_t i = 0; i < atoms.size(); ++i) {
      const smt::Atom& at = atoms.atoms()[i];
      assignment[i] = at.sort->is_int() ? smt::Value::Int(rng.NextInRange(-5, 5))
                                        : smt::Value::Ref(rng.NextBelow(2));
    }
    smt::Evaluator e1(scope, atoms, assignment);
    smt::Value v1 = e1.Eval(lhs);
    smt::Evaluator e2(scope, atoms, assignment);
    smt::Value v2 = e2.Eval(a);
    ASSERT_TRUE(v1.is_known() && v2.is_known());
    EXPECT_EQ(v1.int_v(), v2.int_v());
  }
}

// Lex-leader symmetry reduction prunes only non-canonical witnesses, never verdicts:
// every random formula must be decided identically by the model finder with the
// reduction on and off, and by the Z3 oracle, which has no such reduction. Scope 3 so
// the reduction actually engages (a scope-2 group has a single non-trivial transposition
// and truncates almost nothing).
TEST_P(SolverPropertyTest, SymmetryReductionPreservesVerdicts) {
  Rng rng(GetParam() * 101 + 13);
  for (int round = 0; round < 25; ++round) {
    TermFactory f;
    RandomTerms gen(&f, &rng);
    Term formula = gen.Bool(3);
    auto decide = [&](smt::BackendFactory solver, bool symmetry) {
      smt::SolverOptions options;
      options.scope = Scope(3);
      options.backend = solver;
      options.symmetry = symmetry;
      std::unique_ptr<smt::SolverBackend> backend = smt::MakeBackend(options);
      backend->Assert(formula);
      return backend->Check(f);
    };
    const smt::SolveResult off = decide(nullptr, false);
    ASSERT_NE(off, smt::SolveResult::kUnknown);
    EXPECT_EQ(decide(nullptr, true), off)
        << "dfs verdict moved under symmetry reduction: " << formula->ToString();
    if (smt::Z3Oracle() != nullptr) {
      EXPECT_EQ(decide(smt::Z3Oracle(), true), off)
          << "z3 disagrees with unreduced dfs: " << formula->ToString();
    }
  }
  if (smt::Z3Oracle() == nullptr) {
    GTEST_SKIP() << "dfs only: built without Z3";
  }
}

// Renames scope elements a <-> b of model 0 throughout `t` — the test-side twin of the
// clean-model automorphism argument the symmetry breaker relies on.
Term TransposeRefs(TermFactory& f, Term t, int a, int b) {
  if (t->kind() == smt::TermKind::kRefLit) {
    if (t->sort()->is_ref() && t->sort()->model_id() == 0) {
      int64_t i = t->int_payload();
      int64_t ni = i == a ? b : (i == b ? a : i);
      if (ni != i) {
        return f.RefLit(t->sort(), static_cast<int>(ni));
      }
    }
    return t;
  }
  if (t->children().empty()) {
    return t;
  }
  std::vector<Term> kids;
  kids.reserve(t->children().size());
  bool changed = false;
  for (Term c : t->children()) {
    Term n = TransposeRefs(f, c, a, b);
    changed = changed || n != c;
    kids.push_back(n);
  }
  return changed ? smt::RebuildTerm(f, t, kids) : t;
}

// Verdicts are invariant under renaming the scope's interchangeable instances: a random
// formula decorated with explicit instance literals (which make the model "dirty" — the
// breaker must stand down rather than prune against the pinned elements) and its image
// under every transposition of the scope must be decided identically with the default
// toggles on. If the lex-leader scheme ever pruned a dirty model or an entailed image,
// some transposition would flip sat to unsat here.
TEST_P(SolverPropertyTest, VerdictsInvariantUnderInstancePermutation) {
  Rng rng(GetParam() * 57 + 29);
  for (int round = 0; round < 15; ++round) {
    TermFactory f;
    RandomTerms gen(&f, &rng);
    Sort rs = f.RefSort(0);
    // Same interned vocabulary as RandomTerms (hash-consing returns the same constants).
    Term set = f.Const("s", f.SetSort(rs));
    Term arr = f.Const("arr", f.ArraySort(rs, smt::IntSort()));
    Term lit = f.RefLit(rs, static_cast<int>(rng.NextBelow(3)));
    Term decor = rng.NextBool()
                     ? f.Member(lit, set)
                     : f.Le(f.Select(arr, lit), f.IntLit(rng.NextInRange(-2, 2)));
    Term base = gen.Bool(3);
    Term formula = rng.NextBool() ? f.And(base, decor) : f.Or(base, decor);
    for (smt::BackendFactory solver : Solvers()) {
      smt::SolverOptions options;
      options.scope = Scope(3);
      options.backend = solver;
      std::unique_ptr<smt::SolverBackend> backend = smt::MakeBackend(options);
      backend->Assert(formula);
      smt::SolveResult expected = backend->Check(f);
      ASSERT_NE(expected, smt::SolveResult::kUnknown);
      for (auto [a, b] : {std::pair<int, int>{0, 1}, {1, 2}, {0, 2}}) {
        Term image = TransposeRefs(f, formula, a, b);
        std::unique_ptr<smt::SolverBackend> pb = smt::MakeBackend(options);
        pb->Assert(image);
        EXPECT_EQ(pb->Check(f), expected)
            << backend->name() << " transposition (" << a << " " << b
            << ") moved the verdict: " << formula->ToString();
      }
    }
  }
  if (smt::Z3Oracle() == nullptr) {
    GTEST_SKIP() << "dfs only: built without Z3";
  }
}

// Substitution prunes by atom signature and never changes a result. Random grounded
// formulas are driven down random branches the way the model finder drives them: assign
// an atom surviving in the residuals, substitute the residuals with the new atom's bit
// for the first round and the trail's bits for the confirming rounds, keep the undecided
// results. Every result must be the term an all-ones mask gives, which does not rely on
// the residuals being fixpoints of the trail.
//
// Each formula also reads a cell of a tuple array through a store of a conditional
// tuple. Once the store index and the conditional settle, the projection is pushed into
// the conditional, which builds a cell atom inside a rebuilt node; when that atom is
// already assigned (the bounded conjunct reads field 0 of every cell), only a confirming
// round substitutes it. Along the way, no atom surviving in the residuals may be on the
// trail: that is the invariant the one-bit first round relies on.
TEST_P(SolverPropertyTest, PrunedSubstitutionMatchesUnpruned) {
  Rng rng(GetParam() * 43 + 11);
  Scope scope(2);
  constexpr uint64_t kAllBits = ~uint64_t{0};
  int substitutions = 0;
  int confirmed = 0;  // substitutions one unpruned round did not finish
  for (int round = 0; round < 40; ++round) {
    TermFactory f;
    RandomTerms gen(&f, &rng);
    Sort rs = f.RefSort(0);
    Term rec = f.Const("rec", f.ArraySort(rs, f.TupleSort({smt::IntSort(), smt::IntSort()})));
    Term v = f.NewBoundVar(rs);
    Term bounded = f.Forall(v, f.Le(f.Proj(f.Select(rec, v), 0), gen.Int(1)));
    Term choice = f.Ite(gen.Bool(1), f.Select(rec, f.RefLit(rs, rng.NextBelow(2))),
                        f.MkTuple({gen.Int(1), gen.Int(1)}));
    Term stored = f.Select(f.Store(rec, f.Const(rng.NextBool() ? "r0" : "r1", rs), choice),
                           f.RefLit(rs, rng.NextBelow(2)));
    Term tuple_read = f.Le(f.Proj(stored, 0), gen.Int(1));
    smt::Grounder grounder(&f, scope);
    std::vector<Term> residuals;
    if (!smt::GroundAndFlatten(grounder, f, {gen.Bool(3), gen.Bool(3), bounded, tuple_read},
                               &residuals)) {
      continue;
    }
    smt::TermMap walk;
    smt::ValueDomains domains;
    domains.Harvest(residuals, 8, walk);
    smt::TermMap trail;
    smt::TermMap memo;
    smt::TermMap reference_memo;
    uint64_t trail_mask = 0;
    while (!residuals.empty()) {
      std::vector<Term> atoms;
      for (Term r : residuals) {
        smt::Grounder::CollectAtoms(r, walk, &atoms);
      }
      ASSERT_FALSE(atoms.empty());
      for (Term a : atoms) {
        ASSERT_EQ(trail.Find(a), nullptr) << "assigned atom survives: " << a->ToString();
      }
      Term atom = atoms[rng.NextBelow(atoms.size())];
      std::vector<Term> values = domains.LiteralsFor(f, scope, atom);
      trail.Set(atom, values[rng.NextBelow(values.size())]);
      trail_mask |= atom->atom_sig();
      memo.Clear();
      reference_memo.Clear();
      std::vector<Term> next;
      bool conflict = false;
      for (Term a : residuals) {
        Term r = smt::SubstFixpoint(f, a, trail, atom->atom_sig(), trail_mask, memo);
        ASSERT_EQ(r, smt::SubstFixpoint(f, a, trail, kAllBits, kAllBits, reference_memo))
            << a->ToString();
        ++substitutions;
        confirmed += smt::SubstGround(f, a, trail, kAllBits, reference_memo) != r;
        if (r->IsBoolLit(false)) {
          conflict = true;
          break;
        }
        if (r->kind() == smt::TermKind::kAnd) {
          next.insert(next.end(), r->children().begin(), r->children().end());
        } else if (!r->IsBoolLit(true)) {
          next.push_back(r);
        }
      }
      if (conflict) {
        break;
      }
      residuals = std::move(next);
    }
  }
  EXPECT_GT(substitutions, 200);
  EXPECT_GT(confirmed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// --- ORM invariants under random operation streams -------------------------------------------

TEST(OrmPropertyTest, InvariantsHoldUnderRandomOps) {
  soir::Schema s;
  s.AddModel("A");
  s.AddField("A", soir::FieldDef{.name = "v", .type = soir::FieldType::kInt});
  s.AddModel("B");
  int rel = s.AddRelation("a", "B", "A", soir::RelationKind::kManyToOne,
                          soir::OnDelete::kSetNull);
  orm::Database db(&s);
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    switch (rng.NextBelow(5)) {
      case 0:
        db.Upsert(0, rng.NextBelow(8), {orm::Value::Int(rng.NextInRange(0, 9))});
        break;
      case 1:
        db.Upsert(1, rng.NextBelow(8), {});
        break;
      case 2:
        db.Erase(rng.NextBelow(2) ? 1 : 0, rng.NextBelow(8));
        break;
      case 3:
        db.Link(rel, rng.NextBelow(8), rng.NextBelow(8));
        break;
      default:
        db.ClearLinks(rel, rng.NextBelow(8), true);
        break;
    }
    // Invariant 1: a FK holds at most one target.
    for (int64_t from = 0; from < 8; ++from) {
      EXPECT_LE(db.Associated(rel, from, true).size(), 1u);
    }
    // Invariant 2: AllPks is consistent with RowCount and strictly ordered.
    for (int m = 0; m < 2; ++m) {
      std::vector<int64_t> pks = db.AllPks(m);
      EXPECT_EQ(pks.size(), db.RowCount(m));
      for (size_t k = 1; k < pks.size(); ++k) {
        EXPECT_LT(db.OrderOf(m, pks[k - 1]), db.OrderOf(m, pks[k]));
      }
    }
  }
}

// --- Convergence across every evaluated app ----------------------------------------------------

class AppConvergenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AppConvergenceTest, ReplicasConvergeUnderComputedRestrictions) {
  auto entries = apps::EvaluatedApps();
  const auto& entry = entries[GetParam()];
  if (entry.name == "OwnPhotos") {
    GTEST_SKIP() << "OwnPhotos restriction computation is exercised by the bench";
  }
  app::App a = entry.make();
  analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  auto eff = res.EffectfulPaths();
  repl::ConflictTable conflicts =
      EnforcementTable(verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), eff));
  repl::SimOptions options;
  options.duration_ms = 250;
  options.write_ratio = 0.5;
  options.seed = 1000 + GetParam();
  repl::Simulator sim(a.schema(), res.paths, conflicts, options);
  repl::SimResult result = sim.Run();
  EXPECT_TRUE(result.converged) << entry.name;
  EXPECT_GT(result.completed_requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Apps, AppConvergenceTest, ::testing::Values(0, 1, 2, 4, 5));

}  // namespace
}  // namespace noctua
