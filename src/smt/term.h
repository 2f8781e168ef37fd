// Hash-consed SMT term DAG and term factory for the Noctua verification backend.
//
// The term language is first-order logic over the sorts in sort.h, extended with a small
// family of *finite binders* (lambda-arrays, bounded quantifiers, and aggregates over Ref
// or Pair domains). Because every binder ranges over a finite scope at solve time, the
// evaluator can expand them exactly; this is what lets the encoder express query-set
// semantics (filter / relation image / orderby / aggregate) compositionally — the key to
// covering more database semantics than an orderless key-value encoding (paper §4.2).
//
// Construction goes through TermFactory, which (1) hash-conses so structurally equal terms
// are pointer-equal, and (2) applies algebraic simplification eagerly in the smart
// constructors (constant folding, short-circuiting, select-over-store, etc.).
#ifndef SRC_SMT_TERM_H_
#define SRC_SMT_TERM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/smt/sort.h"

namespace noctua::smt {

enum class TermKind : uint8_t {
  // Leaves.
  kConst,     // free constant; str_payload = name
  kBoundVar,  // binder-scoped variable; int_payload = unique binder id
  kBoolLit,   // int_payload = 0/1
  kIntLit,    // int_payload = value
  kStrLit,    // str_payload = value
  kRefLit,    // int_payload = element index within the scope (used by models/tests)

  // Boolean connectives.
  kAnd,
  kOr,
  kNot,
  kImplies,  // children [a, b]
  kIte,      // children [cond, then, else]; any sort
  kEq,       // children [a, b]; sorts must match
  kDistinct, // pairwise distinct children

  // Integer arithmetic and comparisons.
  kAdd,
  kSub,  // children [a, b]
  kMul,
  kNeg,  // children [a]
  kLt,
  kLe,

  // Strings.
  kConcat,

  // Tuples.
  kMkTuple,  // children are the field values
  kProj,     // children [tuple]; int_payload = field index

  // Arrays (sets are arrays to Bool).
  kConstArray,   // children [default value]; sort fixed at construction
  kStore,        // children [array, index, value]
  kSelect,       // children [array, index]
  kArrayLambda,  // children [body]; int_payload = bound var id; sort = Array(idx, body sort)

  // Pairs.
  kMkPair,  // children [fst, snd]
  kFst,
  kSnd,

  // Finite binders over Ref/Pair domains. int_payload = bound var id; binder_sort = the
  // domain the variable ranges over.
  kForall,     // children [body: Bool]
  kExists,     // children [body: Bool]
  kCount,      // children [cond: Bool] -> Int                 |{x | cond}|
  kSum,        // children [cond: Bool, value: Int] -> Int     sum of value over {x | cond}
  kMinAgg,     // children [cond: Bool, value: Int] -> Int     min (0 if the set is empty)
  kMaxAgg,     // children [cond: Bool, value: Int] -> Int     max (0 if the set is empty)
  kArgExtreme, // children [cond: Bool, key: Int] -> Ref       member minimizing/maximizing
               // key; int_payload2 = 0 for min (first), 1 for max (last); the scope's
               // element 0 if the set is empty
};

class TermData;
using Term = const TermData*;  // owned by the factory; valid for the factory's lifetime

class TermData {
 public:
  TermKind kind() const { return kind_; }
  const Sort& sort() const { return sort_; }
  const std::vector<Term>& children() const { return children_; }
  Term child(size_t i) const { return children_[i]; }
  int64_t int_payload() const { return int_payload_; }
  int64_t int_payload2() const { return int_payload2_; }
  const std::string& str_payload() const { return str_payload_; }
  const Sort& binder_sort() const { return binder_sort_; }
  bool has_bound_var() const { return has_bound_var_; }
  uint64_t hash() const { return hash_; }
  uint64_t id() const { return id_; }

  // True for a *ground atom*, a leaf of the solvers' search (see ground.h): a scalar
  // constant (not array- or tuple-sorted), a non-tuple cell Select(const, ground index),
  // or a tuple slot Proj(Select(const, ground index), i).
  bool is_ground_atom() const { return is_ground_atom_; }
  // The atom signature: one bit per ground atom occurring in this term, the atom setting
  // bit (id & 63). A term whose signature shares no bit with an atom's contains no
  // occurrence of that atom; a shared bit may be a collision. The substitution helpers
  // (ground.h) skip, as unchanged, every subterm whose signature misses the bits of the
  // atoms being substituted.
  uint64_t atom_sig() const { return atom_sig_; }

  bool IsBoolLit(bool v) const {
    return kind_ == TermKind::kBoolLit && (int_payload_ != 0) == v;
  }
  bool IsLiteral() const {
    return kind_ == TermKind::kBoolLit || kind_ == TermKind::kIntLit ||
           kind_ == TermKind::kStrLit || kind_ == TermKind::kRefLit;
  }

  std::string ToString() const;

 private:
  friend class TermFactory;
  TermData() = default;

  TermKind kind_;
  Sort sort_;
  std::vector<Term> children_;
  int64_t int_payload_ = 0;
  int64_t int_payload2_ = 0;
  std::string str_payload_;
  Sort binder_sort_;          // domain sort for binder kinds / index for kArrayLambda
  bool has_bound_var_ = false;  // true if any kBoundVar occurs underneath (binders strip
                                // their own variable)
  bool is_ground_atom_ = false;
  uint64_t atom_sig_ = 0;
  uint64_t hash_ = 0;
  uint64_t id_ = 0;  // creation index, used for deterministic ordering
};

// Builds, interns and owns terms.
//
// Threading contract: a TermFactory is NOT thread-safe and is never shared. Each
// verification check constructs its own factory (and Encoder and Solver on top of it),
// so concurrent verification workers are lock-free by construction — hash-consing state,
// term ids, and the interning table are all worker-private. Term ids are creation
// indices, so two workers building isomorphic queries produce identically-shaped DAGs.
class TermFactory {
 public:
  TermFactory();
  ~TermFactory();
  TermFactory(const TermFactory&) = delete;
  TermFactory& operator=(const TermFactory&) = delete;

  // --- Leaves ---------------------------------------------------------------------------
  Term Const(const std::string& name, const Sort& sort);
  Term BoolLit(bool v);
  Term IntLit(int64_t v);
  Term StrLit(const std::string& v);
  Term RefLit(const Sort& ref_sort, int64_t index);
  Term True() { return BoolLit(true); }
  Term False() { return BoolLit(false); }

  // Creates a fresh bound variable of the given sort for use with the binder
  // constructors below. Each call returns a distinct variable.
  Term NewBoundVar(const Sort& sort);

  // --- Boolean --------------------------------------------------------------------------
  Term And(std::vector<Term> xs);
  Term And(Term a, Term b) { return And(std::vector<Term>{a, b}); }
  Term Or(std::vector<Term> xs);
  Term Or(Term a, Term b) { return Or(std::vector<Term>{a, b}); }
  Term Not(Term a);
  Term Implies(Term a, Term b);
  Term Ite(Term cond, Term then_t, Term else_t);
  Term Eq(Term a, Term b);
  Term Neq(Term a, Term b) { return Not(Eq(a, b)); }
  Term Distinct(std::vector<Term> xs);

  // --- Integers -------------------------------------------------------------------------
  Term Add(Term a, Term b);
  Term Sub(Term a, Term b);
  Term Mul(Term a, Term b);
  Term Neg(Term a);
  Term Lt(Term a, Term b);
  Term Le(Term a, Term b);
  Term Gt(Term a, Term b) { return Lt(b, a); }
  Term Ge(Term a, Term b) { return Le(b, a); }

  // --- Strings --------------------------------------------------------------------------
  Term Concat(Term a, Term b);

  // --- Tuples ---------------------------------------------------------------------------
  Term MkTuple(std::vector<Term> fields);
  Term Proj(Term tuple, int64_t index);
  // Returns a tuple equal to `tuple` with field `index` replaced by `value` (SOIR setf).
  Term TupleWith(Term tuple, int64_t index, Term value);

  // --- Arrays / sets --------------------------------------------------------------------
  Term ConstArray(const Sort& index_sort, Term default_value);
  Term Store(Term array, Term index, Term value);
  Term Select(Term array, Term index);
  // ArrayLambda binds `var` (from NewBoundVar) in `body`; the result maps each domain
  // element d to body[var := d].
  Term ArrayLambda(Term var, Term body);

  Term EmptySet(const Sort& index_sort) { return ConstArray(index_sort, False()); }
  Term FullSet(const Sort& index_sort) { return ConstArray(index_sort, True()); }
  Term Member(Term elem, Term set) { return Select(set, elem); }
  Term SetAdd(Term set, Term elem) { return Store(set, elem, True()); }
  Term SetRemove(Term set, Term elem) { return Store(set, elem, False()); }
  Term SetUnion(Term a, Term b);
  Term SetIntersect(Term a, Term b);
  Term SetDifference(Term a, Term b);
  Term SetSubset(Term a, Term b);
  Term SetIsEmpty(Term set);
  Term SetEq(Term a, Term b);

  // --- Pairs ----------------------------------------------------------------------------
  Term MkPair(Term fst, Term snd);
  Term Fst(Term pair);
  Term Snd(Term pair);

  // --- Finite binders -------------------------------------------------------------------
  Term Forall(Term var, Term body);
  Term Exists(Term var, Term body);
  Term Count(Term var, Term cond);
  Term Sum(Term var, Term cond, Term value);
  Term MinAgg(Term var, Term cond, Term value);
  Term MaxAgg(Term var, Term cond, Term value);
  // The element of {x | cond} whose `key` is smallest (want_max=false) or largest.
  Term ArgExtreme(Term var, Term cond, Term key, bool want_max);

  // Number of terms created (for tests and benchmarks).
  size_t size() const { return all_terms_.size(); }

  // Number of Intern calls that found a structurally identical existing term — i.e. how
  // often hash-consing (and the simplifications that canonicalize into it) deduplicated
  // work. Monotonic over the factory's lifetime; observability reports it as
  // "smt.simplify_hits".
  uint64_t intern_hits() const { return intern_hits_; }

  // Interns the bound variable with a specific id (used when rebuilding binders during
  // substitution). Not for general use — prefer NewBoundVar.
  Term InternBoundVar(const Sort& sort, int64_t id);

 private:
  Term Intern(TermKind kind, Sort sort, std::vector<Term> children, int64_t int_payload,
              int64_t int_payload2, std::string str_payload, Sort binder_sort);
  Term MakeBinder(TermKind kind, Term var, std::vector<Term> bodies, Sort result_sort,
                  int64_t payload2 = 0);
  // Linear normal form support (see term.cc): sa*a + sb*b flattened and canonicalized.
  void DecomposeLinear(Term t, int64_t scale, std::map<Term, int64_t>& coeffs,
                       int64_t& constant);
  Term BuildLinear(const std::map<Term, int64_t>& coeffs, int64_t constant);
  Term Linear(Term a, int64_t sa, Term b, int64_t sb);

  std::unordered_map<uint64_t, std::vector<std::unique_ptr<TermData>>> buckets_;
  std::vector<TermData*> all_terms_;
  int64_t next_bound_var_ = 0;
  uint64_t intern_hits_ = 0;
};

// True if `t` contains a free bound variable whose id differs from `self_id`.
bool HasOtherBoundVar(Term t, int64_t self_id);

// Capture-free substitution of bound variable `var_id` by `value` in `body`, rebuilding
// nodes through the factory so simplifications re-fire (beta reduction).
Term SubstituteBoundVar(TermFactory& f, Term body, int64_t var_id, Term value);

// Rebuilds `t` with new children through the factory's smart constructors.
Term RebuildTerm(TermFactory& f, Term t, std::vector<Term> kids);
Term RebuildBinder(TermFactory& f, Term t, std::vector<Term> kids);

}  // namespace noctua::smt

#endif  // SRC_SMT_TERM_H_
