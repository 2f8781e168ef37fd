// Finite-scope grounding: expands every quantifier and aggregate over the scope's
// domains, producing a quantifier-free term whose only irreducible leaves are *ground
// atoms* — scalar constants, `Select(array_const, ground_index)` cells, and
// `Proj(cell, field)` tuple slots (TermData::is_ground_atom, judged at interning) — and
// the bound variables of the array lambdas grounding leaves in place (Grounder::Ground).
//
// This is the Kodkod/Alloy move: with Ref domains of size k fixed, first-order structure
// is compiled away, and the solver's search happens by substituting ground atoms with
// literals and letting the term factory's simplifier (constant folding, linear arithmetic
// normalization, complementary-literal detection) collapse the residual formula.
#ifndef SRC_SMT_GROUND_H_
#define SRC_SMT_GROUND_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/smt/eval.h"  // for Scope
#include "src/smt/term.h"

namespace noctua::smt {

class Grounder {
 public:
  Grounder(TermFactory* factory, const Scope& scope)
      : f_(factory), scope_(scope), memo_(*factory) {}

  // Expands every quantifier and aggregate in `t` over the scope. Array lambdas are not
  // expanded: Select beta-reduces a lambda it reads, but a lambda no Select reads directly
  // (the array under a Store, as in the grounded queries of every evaluated app) survives
  // grounding with its bound variable. The model finder beta-reduces it once search fixes
  // the indices above it; the Z3 oracle expands it over the index domain.
  Term Ground(Term t);

  // Ground atoms of a grounded term, in deterministic first-occurrence order:
  // scalar constants, Select(const, ground index), Proj(Select(const, ground index), i).
  // `seen` is the walk's scratch; it is cleared first.
  static void CollectAtoms(Term grounded, TermMap& seen, std::vector<Term>* atoms);

  // Number of binder nodes this grounder expanded over their domains (memoized re-visits
  // of the same binder term do not recount). Observability reports this as
  // "smt.ground_expansions".
  uint64_t binders_expanded() const { return binders_expanded_; }

 private:
  // Domain elements of a Ref or Pair sort as literal terms.
  std::vector<Term> DomainElements(Sort sort);
  Term GroundBinder(Term t);

  TermFactory* f_;
  Scope scope_;
  ScratchMap memo_;
  uint64_t binders_expanded_ = 0;
};

// Grounds every assertion over `g`'s scope and flattens top-level conjunctions into
// `out` (one conjunct per entry, literal-true conjuncts dropped), so each conjunct can
// prune or propagate independently. Returns false — leaving `out` meaningless — when
// some conjunct grounded to literal false, i.e. the conjunction is trivially unsat.
//
// Every backend preprocesses its query through this one helper: identical grounding is
// one of the two legs (with ValueDomains) that cross-backend verdict identity stands on.
bool GroundAndFlatten(Grounder& g, TermFactory& f, const std::vector<Term>& assertions,
                      std::vector<Term>* out);

// A Grounder that persists across Checks of one backend instance, plus a per-root cache
// of flattened conjuncts. The verifier's pair sessions assert a stable frame (axioms,
// shared path definitions) across several queries on one backend; with this class the
// frame's binders are expanded once and every later Check serves the frame roots from
// the cache, grounding only the fresh per-query goals. Composing the per-root results
// reproduces GroundAndFlatten exactly (same conjuncts, same order, same infeasibility
// rule), which keeps the cross-backend identity contract intact.
//
// The cache is keyed on term identity, which is only meaningful within one TermFactory:
// when Ground is called with a different factory the whole state is rebuilt from
// scratch. The scope is fixed at the first call per factory (backends never change
// scope mid-life).
class IncrementalGrounder {
 public:
  // Grounds `assertions`, appending flattened conjuncts to `out` (append-only; `out` is
  // not cleared). Returns false when some conjunct is literal false, like
  // GroundAndFlatten. `reuse_hits` (optional) is incremented once per root served from
  // the cache; `binders_expanded` (optional) receives the number of binder expansions
  // this call actually performed (cache hits contribute zero).
  bool Ground(TermFactory& f, const Scope& scope, const std::vector<Term>& assertions,
              std::vector<Term>* out, uint64_t* reuse_hits, uint64_t* binders_expanded);

 private:
  struct Entry {
    std::vector<Term> conjuncts;
    bool feasible = true;
  };
  const TermFactory* factory_ = nullptr;
  std::unique_ptr<Grounder> grounder_;
  std::unordered_map<Term, Entry> roots_;
};

// Renders a ground atom for model reporting: "c", "c[1]", "c[(0,1)]", "c[1].2". Every
// backend names model entries through this one function so models are comparable.
std::string GroundAtomName(Term atom);

// Multi-atom substitution with rebuild through the factory (simplifications re-fire).
// A subterm whose atom signature misses `mask` is returned as it is, without a lookup,
// so `mask` must hold the signature bits of every assigned atom that can occur in `t`;
// an all-ones mask skips only atom-free subterms. Note that substituting a Ref-valued
// atom can *materialize* new ground atoms (assigning x := #0 turns Select(data, x) into
// the cell Select(data, #0)), so callers must iterate with the full assignment trail
// until a fixpoint is reached — or use SubstFixpoint.
Term SubstGround(TermFactory& f, Term t, const TermMap& values, uint64_t mask, TermMap& memo);

// Substitutes until no assigned atom remains reachable; a run of 16 rounds without
// reaching the fixpoint is a fatal error. The first round prunes by `first_mask`, which
// need only cover the assigned atoms `t` itself can contain; the later rounds prune by
// `mask`, which must cover all of `values`, since a materialized atom may be any of them.
// `memo` may be shared across calls with the same `values`.
Term SubstFixpoint(TermFactory& f, Term t, const TermMap& values, uint64_t first_mask,
                   uint64_t mask, TermMap& memo);

// First ground atom in DFS order, memoized (nullptr when the term contains none). This is
// the model finder's branching heuristic: it decides atoms that survive in simplified
// residuals, never don't-care atoms the simplifier already collapsed away.
Term FindFirstAtom(Term t, TermMap& memo);

}  // namespace noctua::smt

#endif  // SRC_SMT_GROUND_H_
