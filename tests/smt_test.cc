// Unit tests for the SMT substrate: sorts, term construction/simplification, evaluation,
// and the solvers (every solver test runs against both dfs and the Z3 oracle).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/apps/zhihu.h"
#include "src/smt/backend.h"
#include "src/smt/eval.h"
#include "src/smt/ground.h"
#include "src/smt/solver.h"
#include "src/smt/sort.h"
#include "src/smt/term.h"
#include "src/support/check.h"
#include "src/verifier/encoder.h"
#include "tests/model_eval.h"
#include "tests/z3_oracle.h"

namespace noctua::smt {
namespace {

class TermTest : public ::testing::Test {
 protected:
  TermFactory f;
};

TEST(SortTest, ScalarSingletons) {
  TermFactory f;
  EXPECT_EQ(BoolSort(), BoolSort());
  EXPECT_EQ(IntSort(), IntSort());
  EXPECT_NE(BoolSort(), IntSort());
  EXPECT_EQ(f.RefSort(3), f.RefSort(3));
  EXPECT_NE(f.RefSort(3), f.RefSort(4));
  EXPECT_EQ(f.TupleSort({f.RefSort(0), IntSort()}), f.TupleSort({f.RefSort(0), IntSort()}));
  EXPECT_NE(f.TupleSort({f.RefSort(0), IntSort()}), f.TupleSort({IntSort(), f.RefSort(0)}));
}

TEST(SortTest, CompositeStructure) {
  TermFactory f;
  Sort arr = f.ArraySort(f.RefSort(0), IntSort());
  EXPECT_TRUE(arr->is_array());
  EXPECT_EQ(arr->index_sort(), f.RefSort(0));
  EXPECT_EQ(arr->element_sort(), IntSort());
  EXPECT_TRUE(f.SetSort(f.RefSort(1))->is_set());
  EXPECT_FALSE(f.ArraySort(f.RefSort(1), IntSort())->is_set());
}

TEST(SortTest, PairRequiresRefs) {
  TermFactory f;
  Sort p = f.PairSort(f.RefSort(0), f.RefSort(1));
  EXPECT_TRUE(p->is_pair());
  EXPECT_TRUE(p->is_finite_domain());
  EXPECT_FALSE(IntSort()->is_finite_domain());
}

TEST(SortTest, ToStringIsReadable) {
  TermFactory f;
  EXPECT_EQ(f.RefSort(2)->ToString(), "Ref<2>");
  EXPECT_EQ(f.ArraySort(f.RefSort(0), BoolSort())->ToString(), "Array<Ref<0>,Bool>");
}

TEST_F(TermTest, HashConsingMakesEqualTermsPointerEqual) {
  Term a = f.Add(f.Const("x", IntSort()), f.IntLit(1));
  Term b = f.Add(f.Const("x", IntSort()), f.IntLit(1));
  EXPECT_EQ(a, b);
}

TEST_F(TermTest, ConstantFolding) {
  EXPECT_EQ(f.Add(f.IntLit(2), f.IntLit(3)), f.IntLit(5));
  EXPECT_EQ(f.Sub(f.IntLit(2), f.IntLit(3)), f.IntLit(-1));
  EXPECT_EQ(f.Mul(f.IntLit(4), f.IntLit(3)), f.IntLit(12));
  EXPECT_EQ(f.Neg(f.IntLit(7)), f.IntLit(-7));
  EXPECT_EQ(f.Concat(f.StrLit("ab"), f.StrLit("cd")), f.StrLit("abcd"));
  EXPECT_EQ(f.Lt(f.IntLit(1), f.IntLit(2)), f.True());
  EXPECT_EQ(f.Le(f.IntLit(3), f.IntLit(2)), f.False());
}

TEST_F(TermTest, NeutralElements) {
  Term x = f.Const("x", IntSort());
  EXPECT_EQ(f.Add(x, f.IntLit(0)), x);
  EXPECT_EQ(f.Mul(x, f.IntLit(1)), x);
  EXPECT_EQ(f.Mul(x, f.IntLit(0)), f.IntLit(0));
  EXPECT_EQ(f.Sub(x, x), f.IntLit(0));
  Term s = f.Const("s", StringSort());
  EXPECT_EQ(f.Concat(s, f.StrLit("")), s);
}

TEST_F(TermTest, BooleanSimplification) {
  Term p = f.Const("p", BoolSort());
  EXPECT_EQ(f.And(p, f.True()), p);
  EXPECT_EQ(f.And(p, f.False()), f.False());
  EXPECT_EQ(f.Or(p, f.False()), p);
  EXPECT_EQ(f.Or(p, f.True()), f.True());
  EXPECT_EQ(f.Not(f.Not(p)), p);
  EXPECT_EQ(f.And(p, f.Not(p)), f.False());
  EXPECT_EQ(f.Or(p, f.Not(p)), f.True());
  EXPECT_EQ(f.And(p, p), p);
}

TEST_F(TermTest, AndFlattens) {
  Term p = f.Const("p", BoolSort());
  Term q = f.Const("q", BoolSort());
  Term r = f.Const("r", BoolSort());
  Term nested = f.And(f.And(p, q), r);
  EXPECT_EQ(nested->kind(), TermKind::kAnd);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST_F(TermTest, EqSimplification) {
  Term x = f.Const("x", IntSort());
  EXPECT_EQ(f.Eq(x, x), f.True());
  EXPECT_EQ(f.Eq(f.IntLit(1), f.IntLit(1)), f.True());
  EXPECT_EQ(f.Eq(f.IntLit(1), f.IntLit(2)), f.False());
  EXPECT_EQ(f.Eq(f.StrLit("a"), f.StrLit("b")), f.False());
  // Equality is canonically ordered, so both orders intern to the same term.
  Term y = f.Const("y", IntSort());
  EXPECT_EQ(f.Eq(x, y), f.Eq(y, x));
}

TEST_F(TermTest, TupleProjAndWith) {
  Term t = f.MkTuple({f.IntLit(1), f.StrLit("a")});
  EXPECT_EQ(f.Proj(t, 0), f.IntLit(1));
  EXPECT_EQ(f.Proj(t, 1), f.StrLit("a"));
  Term t2 = f.TupleWith(t, 0, f.IntLit(9));
  EXPECT_EQ(f.Proj(t2, 0), f.IntLit(9));
  EXPECT_EQ(f.Proj(t2, 1), f.StrLit("a"));
}

TEST_F(TermTest, TupleEqDecomposes) {
  Term a = f.MkTuple({f.Const("x", IntSort()), f.IntLit(1)});
  Term b = f.MkTuple({f.IntLit(5), f.IntLit(1)});
  Term eq = f.Eq(a, b);
  // (x, 1) == (5, 1)  simplifies to x == 5.
  EXPECT_EQ(eq, f.Eq(f.Const("x", IntSort()), f.IntLit(5)));
}

TEST_F(TermTest, SelectOverStore) {
  Sort arr_sort = f.ArraySort(f.RefSort(0), IntSort());
  Term a = f.Const("a", arr_sort);
  Term i = f.RefLit(f.RefSort(0), 0);
  Term j = f.RefLit(f.RefSort(0), 1);
  Term stored = f.Store(a, i, f.IntLit(42));
  EXPECT_EQ(f.Select(stored, i), f.IntLit(42));
  EXPECT_EQ(f.Select(stored, j), f.Select(a, j));
}

TEST_F(TermTest, SelectOverConstArray) {
  Term k = f.ConstArray(f.RefSort(0), f.IntLit(7));
  EXPECT_EQ(f.Select(k, f.Const("i", f.RefSort(0))), f.IntLit(7));
}

TEST_F(TermTest, StoreOfSameSelectIsIdentity) {
  Sort arr_sort = f.ArraySort(f.RefSort(0), IntSort());
  Term a = f.Const("a", arr_sort);
  Term i = f.Const("i", f.RefSort(0));
  EXPECT_EQ(f.Store(a, i, f.Select(a, i)), a);
}

TEST_F(TermTest, LambdaBetaReduction) {
  Term v = f.NewBoundVar(f.RefSort(0));
  Term ord = f.Const("ord", f.ArraySort(f.RefSort(0), IntSort()));
  Term lam = f.ArrayLambda(v, f.Add(f.Select(ord, v), f.IntLit(1)));
  Term idx = f.RefLit(f.RefSort(0), 1);
  Term sel = f.Select(lam, idx);
  // select(λx. ord[x]+1, #1) beta-reduces to ord[#1]+1.
  EXPECT_EQ(sel, f.Add(f.Select(ord, idx), f.IntLit(1)));
}

TEST_F(TermTest, DistinctLiteralFolding) {
  EXPECT_EQ(f.Distinct({f.IntLit(1), f.IntLit(2), f.IntLit(3)}), f.True());
  EXPECT_EQ(f.Distinct({f.IntLit(1), f.IntLit(1)}), f.False());
  EXPECT_EQ(f.Distinct({f.IntLit(1)}), f.True());
}

TEST_F(TermTest, PairAccessors) {
  Term p = f.MkPair(f.RefLit(f.RefSort(0), 1), f.RefLit(f.RefSort(1), 0));
  EXPECT_EQ(f.Fst(p), f.RefLit(f.RefSort(0), 1));
  EXPECT_EQ(f.Snd(p), f.RefLit(f.RefSort(1), 0));
}

// --- Evaluation ---------------------------------------------------------------------------

class EvalTest : public ::testing::Test {
 protected:
  Value EvalClosed(Term t) {
    Scope scope(2);
    AtomTable atoms(scope, {t});
    std::vector<Value> empty_assignment(atoms.size());
    Evaluator ev(scope, atoms, empty_assignment);
    return ev.Eval(t);
  }

  TermFactory f;
};

TEST_F(EvalTest, GroundArithmetic) {
  // Build a non-simplified ground term by mixing a const that cancels.
  Term t = f.Add(f.Mul(f.IntLit(3), f.IntLit(4)), f.IntLit(5));
  Value v = EvalClosed(t);
  EXPECT_EQ(v.int_v(), 17);
}

TEST_F(EvalTest, UnknownConstPropagates) {
  Term x = f.Const("x", IntSort());
  Value v = EvalClosed(f.Add(x, f.IntLit(1)));
  EXPECT_TRUE(v.is_unknown());
}

TEST_F(EvalTest, ThreeValuedAndShortCircuits) {
  Term x = f.Const("x", BoolSort());
  // x AND false is false even though x is unknown; built via Intern path (no simplifier)
  // would be ideal, but the simplifier already folds this — evaluate Or instead.
  Value v = EvalClosed(f.And(x, f.Const("y", BoolSort())));
  EXPECT_TRUE(v.is_unknown());
  // Mul by zero short-circuits unknowns.
  Term m = f.Mul(f.Const("k", IntSort()), f.Sub(f.Const("a", IntSort()), f.Const("a", IntSort())));
  EXPECT_EQ(EvalClosed(m).int_v(), 0);
}

TEST_F(EvalTest, ForallOverScope) {
  // forall x:Ref<0>. x == x  -> true (trivially, via simplifier); use a data array.
  Term data = f.Const("d", f.ArraySort(f.RefSort(0), IntSort()));
  Term v0 = f.NewBoundVar(f.RefSort(0));
  Term all_eq = f.Forall(v0, f.Eq(f.Select(data, v0), f.Select(data, v0)));
  EXPECT_EQ(EvalClosed(all_eq).bool_v(), true);
}

TEST_F(EvalTest, CountAndSumOverStoredSets) {
  Sort rs = f.RefSort(0);
  Term set = f.SetAdd(f.SetAdd(f.EmptySet(rs), f.RefLit(rs, 0)), f.RefLit(rs, 1));
  Term v = f.NewBoundVar(rs);
  Term count = f.Count(v, f.Member(v, set));
  EXPECT_EQ(EvalClosed(count).int_v(), 2);

  Term one_removed = f.SetRemove(set, f.RefLit(rs, 0));
  Term v2 = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.Count(v2, f.Member(v2, one_removed))).int_v(), 1);
}

TEST_F(EvalTest, SumAggregatesValues) {
  Sort rs = f.RefSort(0);
  Term data = f.Store(f.Store(f.ConstArray(rs, f.IntLit(0)), f.RefLit(rs, 0), f.IntLit(10)),
                      f.RefLit(rs, 1), f.IntLit(32));
  Term v = f.NewBoundVar(rs);
  Term sum = f.Sum(v, f.True(), f.Select(data, v));
  EXPECT_EQ(EvalClosed(sum).int_v(), 42);
}

TEST_F(EvalTest, MinMaxAggAndArgExtreme) {
  Sort rs = f.RefSort(0);
  Term key = f.Store(f.Store(f.ConstArray(rs, f.IntLit(0)), f.RefLit(rs, 0), f.IntLit(5)),
                     f.RefLit(rs, 1), f.IntLit(3));
  Term v1 = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.MinAgg(v1, f.True(), f.Select(key, v1))).int_v(), 3);
  Term v2 = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.MaxAgg(v2, f.True(), f.Select(key, v2))).int_v(), 5);
  Term v3 = f.NewBoundVar(rs);
  Value first = EvalClosed(f.ArgExtreme(v3, f.True(), f.Select(key, v3), /*want_max=*/false));
  EXPECT_EQ(first.int_v(), 1);  // element #1 has the smaller key
  Term v4 = f.NewBoundVar(rs);
  Value last = EvalClosed(f.ArgExtreme(v4, f.True(), f.Select(key, v4), /*want_max=*/true));
  EXPECT_EQ(last.int_v(), 0);
}

TEST_F(EvalTest, EmptyAggregatesDefaultToZero) {
  Term v = f.NewBoundVar(f.RefSort(0));
  EXPECT_EQ(EvalClosed(f.Sum(v, f.False(), f.IntLit(9))).int_v(), 0);
}

TEST_F(EvalTest, SetOperations) {
  Sort rs = f.RefSort(0);
  Term a = f.SetAdd(f.EmptySet(rs), f.RefLit(rs, 0));
  Term b = f.SetAdd(f.EmptySet(rs), f.RefLit(rs, 1));
  Term u = f.SetUnion(a, b);
  Term v = f.NewBoundVar(rs);
  EXPECT_EQ(EvalClosed(f.Count(v, f.Member(v, u))).int_v(), 2);
  EXPECT_EQ(EvalClosed(f.SetIsEmpty(f.SetIntersect(a, b))).bool_v(), true);
  EXPECT_EQ(EvalClosed(f.SetSubset(a, u)).bool_v(), true);
  EXPECT_EQ(EvalClosed(f.SetSubset(u, a)).bool_v(), false);
  EXPECT_EQ(EvalClosed(f.SetEq(f.SetDifference(u, b), a)).bool_v(), true);
}

TEST(AtomTableTest, DecomposesCompositeConstants) {
  TermFactory f;
  Scope scope(2);
  Sort obj = f.TupleSort({IntSort(), StringSort()});
  Term data = f.Const("data", f.ArraySort(f.RefSort(0), obj));
  Term ids = f.Const("ids", f.SetSort(f.RefSort(0)));
  Term x = f.Const("x", IntSort());
  AtomTable atoms(scope, {f.And(f.Member(f.Const("r", f.RefSort(0)), ids),
                                f.Eq(f.Proj(f.Select(data, f.Const("r", f.RefSort(0))), 0), x))});
  // r: 1 atom; ids: 2 bool atoms; data: 2 elems * 2 fields = 4 atoms; x: 1 atom.
  EXPECT_EQ(atoms.size(), 8u);
  EXPECT_GE(atoms.Find(ids, 1, -1), 0);
  EXPECT_GE(atoms.Find(data, 0, 1), 0);
  EXPECT_EQ(atoms.Find(data, 0, 5), -1);
}

// The atom signatures the substitution helpers prune by, on a real pair query: Zhihu's
// DeleteAnswer#p1 self-commutativity query, the app's hardest, encoded the way the
// verifier's pair check encodes it, then grounded. Every atom of a grounded conjunct is
// flagged at interning and sets its bit in the conjunct's signature; since an atom's
// children hold no atoms, the signature is exactly the OR of those bits.
// Zhihu and its `DeleteAnswer#p1` path, the straggler of the evaluated apps.
struct Straggler {
  app::App app;
  soir::CodePath path;
};

const Straggler& ZhihuStraggler() {
  static const Straggler kStraggler = [] {
    Straggler s{apps::MakeZhihuApp(), {}};
    const analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(s.app);
    for (const soir::CodePath& path : analysis.EffectfulPaths()) {
      if (path.op_name == "DeleteAnswer#p1") {
        s.path = path;
      }
    }
    NOCTUA_CHECK(s.path.op_name == "DeleteAnswer#p1");
    return s;
  }();
  return kStraggler;
}

// Builds the straggler's self-commutativity query in `f` and grounds it over a scope of
// two; returns the grounded conjuncts (empty when the query is trivially unsat).
std::vector<Term> GroundedStragglerQuery(TermFactory& f) {
  const Straggler& z = ZhihuStraggler();
  verifier::Encoder enc(z.app.schema(), &f, verifier::EncoderOptions{});
  verifier::EncState s0 = enc.FreshState("S0");
  verifier::Encoder::PathResult pq1 = enc.ApplyPath(z.path, s0, "x");
  verifier::Encoder::PathResult pq2 = enc.ApplyPath(z.path, pq1.post, "y");
  verifier::Encoder::PathResult qp1 = enc.ApplyPath(z.path, s0, "y");
  verifier::Encoder::PathResult qp2 = enc.ApplyPath(z.path, qp1.post, "x");
  std::vector<Term> query = {f.Not(enc.StateEq(pq2.post, qp2.post, {})),
                             enc.UniqueIdAxiom(s0), pq1.pre, qp1.pre, enc.StateAxioms(s0)};
  Grounder grounder(&f, Scope(2));
  std::vector<Term> grounded;
  if (!GroundAndFlatten(grounder, f, query, &grounded)) {
    grounded.clear();
  }
  return grounded;
}

TEST(AtomSignatureTest, GroundedPairQueryAtomsAreFlaggedAndCoveredByTheRootSignature) {
  TermFactory f;
  std::vector<Term> grounded = GroundedStragglerQuery(f);
  ASSERT_FALSE(grounded.empty());
  std::unordered_set<Term> distinct;
  TermMap seen;
  for (Term root : grounded) {
    std::vector<Term> atoms;
    Grounder::CollectAtoms(root, seen, &atoms);
    uint64_t bits = 0;
    for (Term atom : atoms) {
      EXPECT_TRUE(atom->is_ground_atom()) << atom->ToString();
      uint64_t bit = uint64_t{1} << (atom->id() & 63);
      EXPECT_NE(root->atom_sig() & bit, 0u) << atom->ToString();
      bits |= bit;
    }
    EXPECT_EQ(root->atom_sig(), bits) << root->ToString();
    distinct.insert(atoms.begin(), atoms.end());
  }
  // More atoms than bits, so atoms share bits, as in every app-sized query.
  EXPECT_GT(distinct.size(), 64u);
}

// --- Term memory --------------------------------------------------------------------------

TEST(TermMapTest, FindSetEraseAndClear) {
  TermFactory f;
  Term a = f.Const("a", IntSort());
  Term b = f.Const("b", IntSort());
  TermMap map;
  EXPECT_EQ(map.Find(a), nullptr);
  map.Set(a, b);
  ASSERT_NE(map.Find(a), nullptr);
  EXPECT_EQ(*map.Find(a), b);
  EXPECT_EQ(map.Find(b), nullptr);
  map.Set(a, a);  // overwrites
  EXPECT_EQ(*map.Find(a), a);

  map.Erase(a);
  EXPECT_EQ(map.Find(a), nullptr);
  map.Erase(b);  // erasing an absent key is a no-op
  EXPECT_EQ(map.Find(b), nullptr);

  // A stored nullptr is a present key, distinct from an absent one.
  map.Set(b, nullptr);
  ASSERT_NE(map.Find(b), nullptr);
  EXPECT_EQ(*map.Find(b), nullptr);
  EXPECT_EQ(map.Find(a), nullptr);

  // Clear forgets every entry, and the map is usable again afterwards.
  map.Set(a, b);
  map.Clear();
  EXPECT_EQ(map.Find(a), nullptr);
  EXPECT_EQ(map.Find(b), nullptr);
  map.Set(b, a);
  EXPECT_EQ(map.Find(a), nullptr);
  EXPECT_EQ(*map.Find(b), a);
}

TEST(TermMapTest, KeysBeyondTheCurrentCapacityGrowTheMap) {
  TermFactory f;
  std::vector<Term> terms;
  for (int i = 0; i < 5000; ++i) {
    terms.push_back(f.IntLit(i));
  }
  TermMap map;
  map.Set(terms[3], terms[4]);
  // Ids far past every slot the map has: probing is safe, storing grows the map.
  EXPECT_EQ(map.Find(terms.back()), nullptr);
  map.Erase(terms.back());
  map.Set(terms.back(), terms[0]);
  EXPECT_EQ(*map.Find(terms.back()), terms[0]);
  EXPECT_EQ(*map.Find(terms[3]), terms[4]);
  for (size_t i = 0; i < terms.size(); ++i) {
    map.Set(terms[i], terms[terms.size() - 1 - i]);
  }
  for (size_t i = 0; i < terms.size(); ++i) {
    ASSERT_EQ(*map.Find(terms[i]), terms[terms.size() - 1 - i]);
  }
  map.Clear();
  for (Term t : terms) {
    ASSERT_EQ(map.Find(t), nullptr);
  }
}

// The intern table grows by rehashing; every term must stay findable across the growth
// steps, so re-interning returns the original pointer and creates nothing.
TEST(TermFactoryTest, InternTableGrowthKeepsEveryTermFindable) {
  TermFactory f;
  constexpr int kEach = 8192;  // 3 * kEach terms: past 4x the initial 4096 slots
  std::vector<Term> made;
  for (int i = 0; i < kEach; ++i) {
    Term lit = f.IntLit(i);
    Term c = f.Const("c" + std::to_string(i), IntSort());
    made.insert(made.end(), {lit, c, f.Eq(c, lit)});
  }
  const size_t size = f.size();
  ASSERT_GE(size, made.size());
  const uint64_t hits = f.intern_hits();
  for (int i = 0; i < kEach; ++i) {
    Term lit = f.IntLit(i);
    Term c = f.Const("c" + std::to_string(i), IntSort());
    ASSERT_EQ(lit, made[3 * i]);
    ASSERT_EQ(c, made[3 * i + 1]);
    ASSERT_EQ(f.Eq(c, lit), made[3 * i + 2]);
  }
  EXPECT_EQ(f.size(), size);
  EXPECT_EQ(f.intern_hits(), hits + made.size());
}

// Workers build their queries concurrently, each in its own factory: nothing one
// factory writes may be seen by another, so every worker must build the same DAG.
TEST(TermFactoryTest, ConcurrentFactoriesBuildIdenticalQueries) {
  ZhihuStraggler();  // build the shared, read-only inputs before the threads start
  constexpr int kThreads = 4;
  std::vector<size_t> sizes(kThreads);
  std::vector<std::string> roots(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([w, &sizes, &roots] {
      TermFactory f;
      std::vector<Term> grounded = GroundedStragglerQuery(f);
      sizes[w] = f.size();
      roots[w] = grounded.empty() ? "" : f.And(grounded)->ToString();
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  ASSERT_FALSE(roots[0].empty());
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(sizes[w], sizes[0]);
    EXPECT_EQ(roots[w], roots[0]);
  }
}

// A Reset factory serves the verifier's next pair session: it must build exactly what a
// new factory builds (same ids, so the same atom signatures), whatever it held before.
TEST(TermFactoryTest, ResetFactoryBuildsWhatANewOneBuilds) {
  TermFactory fresh;
  const std::vector<Term> expected = GroundedStragglerQuery(fresh);
  ASSERT_FALSE(expected.empty());

  TermFactory reused;
  // Earlier work past the initial table and block sizes, with composite sorts.
  for (int i = 0; i < 20000; ++i) {
    reused.MkTuple({reused.IntLit(i), reused.Const("r" + std::to_string(i),
                                                   reused.RefSort(i % 3))});
  }
  GroundedStragglerQuery(reused);
  reused.Reset();
  EXPECT_EQ(reused.size(), 0u);
  EXPECT_EQ(reused.intern_hits(), 0u);

  const std::vector<Term> got = GroundedStragglerQuery(reused);
  EXPECT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(reused.intern_hits(), fresh.intern_hits());
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->id(), expected[i]->id());
    EXPECT_EQ(got[i]->atom_sig(), expected[i]->atom_sig());
    EXPECT_EQ(got[i]->ToString(), expected[i]->ToString());
  }
  // Bound variables are numbered from the start again too.
  EXPECT_EQ(reused.NewBoundVar(IntSort())->ToString(),
            fresh.NewBoundVar(IntSort())->ToString());
}

TEST(ScratchMapTest, LeasesStartEmptyAndNestedLeasesAreDistinct) {
  TermFactory f;
  Term a = f.Const("a", IntSort());
  Term b = f.Const("b", IntSort());
  {
    ScratchMap outer(f);
    outer->Set(a, b);
    {
      ScratchMap inner(f);
      EXPECT_EQ(inner->Find(a), nullptr);
      inner->Set(a, a);
      EXPECT_EQ(*outer->Find(a), b);
    }
    EXPECT_EQ(*outer->Find(a), b);
  }
  // The returned maps are leased again, without what their last holders stored.
  ScratchMap first(f);
  ScratchMap second(f);
  EXPECT_EQ(first->Find(a), nullptr);
  EXPECT_EQ(second->Find(a), nullptr);
}

TEST(ScratchMapDeathTest, ResetWithALeaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TermFactory f;
        ScratchMap lease(f);
        f.Reset();
      },
      "ScratchMap on lease");
}

// --- Solver -------------------------------------------------------------------------------

// The two solvers the parameterized tests run: the model finder and the Z3 oracle. One
// byte each, so the tests' names print their parameter the same way on every build.
enum class Procedure : uint8_t { kDfs = 1, kZ3 = 2 };

const char* ProcedureName(Procedure p) { return p == Procedure::kDfs ? "dfs" : "z3"; }

// SolverOptions::backend for `p`. The oracle's is null in a build without Z3, and the
// tests that need it skip there.
BackendFactory FactoryFor(Procedure p) { return p == Procedure::kDfs ? nullptr : Z3Oracle(); }

// Every solver-behavior test runs against each backend: the same queries must get the
// same verdicts from the model finder and the Z3 oracle.
class SolverTest : public ::testing::TestWithParam<Procedure> {
 protected:
  void SetUp() override {
    if (GetParam() == Procedure::kZ3 && Z3Oracle() == nullptr) {
      GTEST_SKIP() << "built without Z3";
    }
    options.backend = FactoryFor(GetParam());
  }

  SolveResult Check(const std::vector<Term>& assertions) {
    std::unique_ptr<SolverBackend> backend = MakeBackend(options);
    last_model.values.clear();
    SolveResult r = backend->Check(f, assertions);
    if (r == SolveResult::kSat) {
      last_model = backend->model();
    }
    return r;
  }

  // The last model read back through the independent Evaluator: true when it makes
  // every one of `assertions` true.
  bool ModelSatisfies(const std::vector<Term>& assertions) {
    Value v = EvalUnderModel(options.scope, f.And(assertions), last_model);
    return v.is_known() && v.bool_v();
  }

  TermFactory f;
  SolverOptions options;
  SmtModel last_model;
};

// A refutation query whose first assertion, its negated goal, is a disjunction: once as
// Or(d1..dn) and once as Not(And(c1..cn)) with ci = Not(di), the two shapes the model
// finder searches one disjunct at a time. `frame` follows the goal.
std::vector<std::vector<Term>> DisjunctiveQueries(TermFactory& f,
                                                  const std::vector<Term>& disjuncts,
                                                  const std::vector<Term>& frame) {
  std::vector<Term> negated;
  for (Term d : disjuncts) {
    negated.push_back(f.Not(d));
  }
  std::vector<std::vector<Term>> queries;
  for (Term goal : {f.Or(disjuncts), f.Not(f.And(negated))}) {
    std::vector<Term> query = {goal};
    query.insert(query.end(), frame.begin(), frame.end());
    queries.push_back(std::move(query));
  }
  return queries;
}

TEST_P(SolverTest, TrivialSatAndUnsat) {
  Term x = f.Const("x", IntSort());
  EXPECT_EQ(Check({f.Eq(x, f.IntLit(3))}), SolveResult::kSat);
  EXPECT_EQ(Check({f.Eq(x, f.IntLit(3)), f.Eq(x, f.IntLit(4))}), SolveResult::kUnsat);
}

TEST_P(SolverTest, GroundContradiction) {
  EXPECT_EQ(Check({f.Const("p", BoolSort()), f.Not(f.Const("p", BoolSort()))}),
            SolveResult::kUnsat);
}

TEST_P(SolverTest, ArithmeticWitness) {
  Term x = f.Const("x", IntSort());
  Term y = f.Const("y", IntSort());
  // x + y == 3 and x < y has a witness with the harvested domain {.., 2, 3, 4}.
  EXPECT_EQ(Check({f.Eq(f.Add(x, y), f.IntLit(3)), f.Lt(x, y)}), SolveResult::kSat);
}

TEST_P(SolverTest, RefDistinctBeyondScopeIsUnsat) {
  Term a = f.Const("a", f.RefSort(0));
  Term b = f.Const("b", f.RefSort(0));
  Term c = f.Const("c", f.RefSort(0));
  // Scope is 2, so three pairwise-distinct refs cannot exist.
  EXPECT_EQ(Check({f.Distinct({a, b, c})}), SolveResult::kUnsat);
  options.scope = Scope{3};
  EXPECT_EQ(Check({f.Distinct({a, b, c})}), SolveResult::kSat);
}

TEST_P(SolverTest, SetReasoning) {
  Sort rs = f.RefSort(0);
  Term s = f.Const("s", f.SetSort(rs));
  Term e = f.Const("e", rs);
  // e ∈ s and s ⊆ ∅ is unsat.
  EXPECT_EQ(Check({f.Member(e, s), f.SetSubset(s, f.EmptySet(rs))}), SolveResult::kUnsat);
  // e ∈ s and s ⊆ {e} is sat.
  EXPECT_EQ(Check({f.Member(e, s), f.SetSubset(s, f.SetAdd(f.EmptySet(rs), e))}),
            SolveResult::kSat);
}

TEST_P(SolverTest, ArrayWellFormedness) {
  // data[i].0 == i for all i, and two members with equal field-0 must be the same element.
  Sort rs = f.RefSort(0);
  Sort obj = f.TupleSort({rs, IntSort()});
  Term data = f.Const("data", f.ArraySort(rs, obj));
  Term ids = f.Const("ids", f.SetSort(rs));
  Term v = f.NewBoundVar(rs);
  Term wf = f.Forall(v, f.Eq(f.Proj(f.Select(data, v), 0), v));
  Term x = f.Const("x", rs);
  Term y = f.Const("y", rs);
  Term both_in = f.And(f.Member(x, ids), f.Member(y, ids));
  Term same_pk = f.Eq(f.Proj(f.Select(data, x), 0), f.Proj(f.Select(data, y), 0));
  EXPECT_EQ(Check({wf, both_in, same_pk, f.Neq(x, y)}), SolveResult::kUnsat);
}

TEST_P(SolverTest, StringWitnessUsesFreshSymbols) {
  Term s = f.Const("s", StringSort());
  // s != every literal in the formula: satisfiable thanks to fresh symbols.
  EXPECT_EQ(Check({f.Neq(s, f.StrLit("alice")), f.Neq(s, f.StrLit("bob"))}), SolveResult::kSat);

  // Six literals: the fresh symbols come on top of them.
  std::vector<Term> outside;
  for (const char* lit : {"a", "b", "c", "d", "e", "f"}) {
    outside.push_back(f.Neq(s, f.StrLit(lit)));
  }
  EXPECT_EQ(Check(outside), SolveResult::kSat);

  // Two distinct strings outside five literals need both fresh symbols.
  Term t = f.Const("t", StringSort());
  std::vector<Term> both_outside = {f.Neq(s, t)};
  for (const char* lit : {"a", "b", "c", "d", "e"}) {
    both_outside.push_back(f.Neq(s, f.StrLit(lit)));
    both_outside.push_back(f.Neq(t, f.StrLit(lit)));
  }
  EXPECT_EQ(Check(both_outside), SolveResult::kSat);

  // A seventh literal the formula equates the atom to stays in the domain.
  std::vector<Term> seventh = outside;
  seventh.push_back(f.Eq(s, f.StrLit("g")));
  EXPECT_EQ(Check(seventh), SolveResult::kSat);
  EXPECT_EQ(last_model.values.at("s"), "\"g\"");
}

TEST_P(SolverTest, DisjunctiveGoalSatOnlyThroughItsLastDisjunct) {
  Term x = f.Const("x", IntSort());
  Term y = f.Const("y", IntSort());
  Term a = f.Const("a", f.RefSort(0));
  Term b = f.Const("b", f.RefSort(0));
  Term data = f.Const("data", f.ArraySort(f.RefSort(0), f.TupleSort({IntSort()})));
  auto field = [&](Term at) { return f.Proj(f.Select(data, at), 0); };
  const std::vector<Term> frame = {f.Lt(x, y), f.Eq(f.Add(x, y), f.IntLit(3))};
  // x == y and y < x contradict the frame; two distinct elements holding x and y do not.
  const std::vector<Term> disjuncts = {
      f.Eq(x, y), f.Lt(y, x), f.And({f.Neq(a, b), f.Eq(field(a), x), f.Eq(field(b), y)})};
  for (size_t i = 0; i + 1 < disjuncts.size(); ++i) {
    std::vector<Term> alone = {disjuncts[i]};
    alone.insert(alone.end(), frame.begin(), frame.end());
    EXPECT_EQ(Check(alone), SolveResult::kUnsat) << disjuncts[i]->ToString();
  }
  for (const std::vector<Term>& query : DisjunctiveQueries(f, disjuncts, frame)) {
    SCOPED_TRACE(query.front()->ToString());
    ASSERT_EQ(Check(query), SolveResult::kSat);
    EXPECT_TRUE(ModelSatisfies(query)) << last_model.ToString();
  }
}

TEST_P(SolverTest, DisjunctiveGoalUnsatInEveryDisjunct) {
  Term x = f.Const("x", IntSort());
  Term y = f.Const("y", IntSort());
  Term a = f.Const("a", f.RefSort(0));
  Term b = f.Const("b", f.RefSort(0));
  Term data = f.Const("data", f.ArraySort(f.RefSort(0), f.TupleSort({IntSort()})));
  auto field = [&](Term at) { return f.Proj(f.Select(data, at), 0); };
  const std::vector<Term> frame = {f.Lt(x, y), f.Eq(f.Add(x, y), f.IntLit(3))};
  // The last disjunct needs search to refute: equal elements hold equal fields.
  const std::vector<Term> disjuncts = {f.Eq(x, y), f.Lt(y, x),
                                       f.And({f.Eq(a, b), f.Neq(field(a), field(b))})};
  for (const std::vector<Term>& query : DisjunctiveQueries(f, disjuncts, frame)) {
    SCOPED_TRACE(query.front()->ToString());
    EXPECT_EQ(Check(query), SolveResult::kUnsat);
  }
}

TEST_P(SolverTest, TimeoutReturnsUnknown) {
  // A formula engineered to be hard: many int unknowns with only a global constraint that
  // cannot be pruned locally, under a small work budget.
  std::vector<Term> xs;
  Term sum = f.IntLit(0);
  for (int i = 0; i < 24; ++i) {
    Term x = f.Const("x" + std::to_string(i), IntSort());
    xs.push_back(x);
    sum = f.Add(sum, f.Mul(x, x));
  }
  options.budget.max_nodes = 2000;
  options.max_int_domain = 8;
  // sum of squares == 9999 is unsatisfiable over the small domain but requires exhausting
  // a large space; with the small budget the solver must give up.
  SolveResult r = Check({f.Eq(sum, f.IntLit(9999)), f.Lt(xs[0], xs[1])});
  EXPECT_EQ(r, SolveResult::kUnknown);
}

// The node budget is an exact work count, read from no clock: a query whose search ends
// after N nodes decides the same at max_nodes = N and gives up at N - 1. A disjunctive
// goal's branches share the budget, so there N is their sum. Nodes are the model
// finder's unit, so this runs on dfs alone.
TEST(SolverTest, NodeBudgetIsExact) {
  TermFactory f;
  std::vector<Term> xs;
  Term sum = f.IntLit(0);
  for (int i = 0; i < 4; ++i) {
    xs.push_back(f.Const("x" + std::to_string(i), IntSort()));
    sum = f.Add(sum, f.Mul(xs.back(), xs.back()));
  }
  // Over the harvested domains, 2 is a sum of four squares (1 + 1 + 0 + 0) and 9999 is
  // not: one search finds a witness, the other exhausts the space. The disjunctive goal
  // runs both, one branch after the other.
  auto sum_is = [&](int64_t target) { return f.Eq(sum, f.IntLit(target)); };
  const Term ordered = f.Lt(xs[0], xs[1]);
  const std::vector<std::vector<Term>> queries = {{sum_is(2), ordered},
                                                   {sum_is(9999), ordered},
                                                   {f.Or(sum_is(9999), sum_is(2)), ordered}};
  for (const std::vector<Term>& query : queries) {
    SCOPED_TRACE(query.front()->ToString());
    // The verdict under `max_nodes`, and the nodes the search took.
    auto solve = [&](uint64_t max_nodes) {
      SolverOptions options;
      options.budget.max_nodes = max_nodes;
      std::unique_ptr<SolverBackend> backend = MakeBackend(options);
      const SolveResult r = backend->Check(f, query);
      return std::make_pair(r, backend->stats().nodes_visited);
    };
    const auto [decided, n] = solve(SolverOptions{}.budget.max_nodes);
    ASSERT_NE(decided, SolveResult::kUnknown);
    ASSERT_GT(n, 1u);
    EXPECT_EQ(solve(n), std::make_pair(decided, n));
    EXPECT_EQ(solve(n - 1).first, SolveResult::kUnknown);
  }
}

TEST_P(SolverTest, ModelIsReturnedAndConsistent) {
  Term x = f.Const("x", IntSort());
  Term p = f.Const("p", BoolSort());
  ASSERT_EQ(Check({f.Eq(x, f.IntLit(7)), p}), SolveResult::kSat);
  EXPECT_EQ(last_model.values.at("x"), "7");
  EXPECT_EQ(last_model.values.at("p"), "true");
}

TEST_P(SolverTest, CommutativityStyleQuery) {
  // A miniature commutativity check: two increments commute (unsat = no counterexample),
  // increment and assignment do not (sat = counterexample exists).
  Sort rs = f.RefSort(0);
  Sort obj = f.TupleSort({IntSort()});
  Term data = f.Const("data", f.ArraySort(rs, obj));
  Term r1 = f.Const("r1", rs);
  Term r2 = f.Const("r2", rs);

  auto incr = [&](Term d, Term at) {
    return f.Store(d, at, f.MkTuple({f.Add(f.Proj(f.Select(d, at), 0), f.IntLit(1))}));
  };
  auto assign = [&](Term d, Term at, Term v) { return f.Store(d, at, f.MkTuple({v})); };

  // incr;incr vs incr;incr (different order, same ops): always equal.
  Term ab = incr(incr(data, r1), r2);
  Term ba = incr(incr(data, r2), r1);
  Term var = f.NewBoundVar(rs);
  Term differs = f.Not(f.Forall(var, f.Eq(f.Select(ab, var), f.Select(ba, var))));
  EXPECT_EQ(Check({differs}), SolveResult::kUnsat);

  // incr;assign vs assign;incr: differs when r1 == r2.
  Term arg = f.Const("v", IntSort());
  Term pq = assign(incr(data, r1), r2, arg);
  Term qp = incr(assign(data, r2, arg), r1);
  Term var2 = f.NewBoundVar(rs);
  Term differs2 = f.Not(f.Forall(var2, f.Eq(f.Select(pq, var2), f.Select(qp, var2))));
  EXPECT_EQ(Check({differs2}), SolveResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(Backends, SolverTest,
                         ::testing::Values(Procedure::kDfs, Procedure::kZ3),
                         [](const ::testing::TestParamInfo<Procedure>& info) {
                           return std::string(ProcedureName(info.param));
                         });

// Parameterized sweep: solver scope sizes behave consistently, on every backend.
class ScopeSweepTest : public ::testing::TestWithParam<std::tuple<int, Procedure>> {};

TEST_P(ScopeSweepTest, PigeonholePrinciple) {
  // k+1 pairwise distinct refs never fit in a scope of k; k do.
  auto [k, procedure] = GetParam();
  if (procedure == Procedure::kZ3 && Z3Oracle() == nullptr) {
    GTEST_SKIP() << "built without Z3";
  }
  TermFactory f;
  SolverOptions options;
  options.scope = Scope(k);
  options.backend = FactoryFor(procedure);
  std::vector<Term> refs;
  for (int i = 0; i <= k; ++i) {
    refs.push_back(f.Const("r" + std::to_string(i), f.RefSort(0)));
  }
  std::unique_ptr<SolverBackend> backend = MakeBackend(options);
  EXPECT_EQ(backend->Check(f, {f.Distinct(refs)}), SolveResult::kUnsat);
  refs.pop_back();
  std::unique_ptr<SolverBackend> backend2 = MakeBackend(options);
  EXPECT_EQ(backend2->Check(f, {f.Distinct(refs)}), SolveResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, ScopeSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(Procedure::kDfs, Procedure::kZ3)),
    [](const ::testing::TestParamInfo<std::tuple<int, Procedure>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) +
             ProcedureName(std::get<1>(info.param));
    });

// --- Incremental solving ------------------------------------------------------------------

// A backend that has already decided a query over a shared frame answers the next one
// exactly like a fresh instance fed the same goal-first conjunction: same verdict, same
// model, byte for byte. The second Check must also report ground-cache reuse for the
// frame roots the first one grounded.
TEST(IncrementalBackendTest, SecondCheckMatchesAFreshBackend) {
  TermFactory f;
  SolverOptions options;

  Sort rs = f.RefSort(0);
  Sort obj = f.TupleSort({rs, IntSort()});
  Term data = f.Const("data", f.ArraySort(rs, obj));
  Term ids = f.Const("ids", f.SetSort(rs));
  Term v = f.NewBoundVar(rs);
  Term wf = f.Forall(v, f.Eq(f.Proj(f.Select(data, v), 0), v));
  Term x = f.Const("x", rs);
  Term y = f.Const("y", rs);
  Term both_in = f.And(f.Member(x, ids), f.Member(y, ids));
  Term same_pk = f.Eq(f.Proj(f.Select(data, x), 0), f.Proj(f.Select(data, y), 0));

  std::unique_ptr<SolverBackend> inc = MakeBackend(options);
  EXPECT_EQ(inc->Check(f, {same_pk, f.Neq(x, y), wf, both_in}), SolveResult::kUnsat);
  const std::vector<Term> query = {f.Eq(x, y), wf, both_in};
  SolveResult r = inc->Check(f, query);
  ASSERT_EQ(r, SolveResult::kSat);
  EXPECT_GT(inc->stats().incremental_reuse_hits, 0u);

  std::unique_ptr<SolverBackend> fresh = MakeBackend(options);
  ASSERT_EQ(fresh->Check(f, query), r);
  EXPECT_EQ(fresh->stats().incremental_reuse_hits, 0u);
  EXPECT_EQ(fresh->model().ToString(), inc->model().ToString());
}

}  // namespace
}  // namespace noctua::smt
