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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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
  Sort sort() const { return sort_; }
  std::span<const Term> children() const { return {children_, num_children_}; }
  Term child(size_t i) const { return children_[i]; }
  int64_t int_payload() const { return int_payload_; }
  int64_t int_payload2() const { return int_payload2_; }
  std::string_view str_payload() const { return {str_payload_, str_size_}; }
  Sort binder_sort() const { return binder_sort_; }
  bool has_bound_var() const { return has_bound_var_; }
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
  bool has_bound_var_ = false;  // true if any kBoundVar occurs underneath (binders strip
                                // their own variable)
  bool is_ground_atom_ = false;
  uint32_t num_children_ = 0;
  Sort sort_ = nullptr;
  Sort binder_sort_ = nullptr;  // domain sort for binder kinds / index for kArrayLambda
  const Term* children_ = nullptr;  // children and string payload follow the node in the
  const char* str_payload_ = nullptr;  // factory's storage
  size_t str_size_ = 0;
  int64_t int_payload_ = 0;
  int64_t int_payload2_ = 0;
  uint64_t atom_sig_ = 0;
  uint64_t id_ = 0;  // creation index, used for deterministic ordering
};

// A map keyed by the terms of one factory: a vector indexed by term id (ids are creation
// indices, so they are dense), each slot stamped with the generation that wrote it. A
// probe reads one slot; Clear starts a new generation in O(1), so one map serves many
// short-lived uses (a memo per search node) without reallocating. Ids are unique only
// within one factory, so keys from two factories must not meet in one generation.
class TermMap {
 public:
  // The value stored for `key`, or nullptr when `key` is absent. A stored nullptr is a
  // present key (FindFirstAtom memoizes "no atom" that way).
  const Term* Find(Term key) const {
    const size_t i = key->id();
    return i < slots_.size() && slots_[i].stamp == stamp_ ? &slots_[i].value : nullptr;
  }
  // Stores `value` for `key`, replacing any previous value.
  void Set(Term key, Term value) {
    const size_t i = key->id();
    if (i >= slots_.size()) {
      slots_.resize(std::max(i + 1, 2 * slots_.size()));
    }
    slots_[i] = Slot{value, stamp_};
  }
  void Erase(Term key) {
    const size_t i = key->id();
    if (i < slots_.size()) {
      slots_[i].stamp = 0;
    }
  }
  // Forgets every entry.
  void Clear() {
    if (++stamp_ == 0) {  // wrapped: no stale slot may carry the new stamp
      for (Slot& s : slots_) {
        s.stamp = 0;
      }
      stamp_ = 1;
    }
  }

 private:
  struct Slot {
    Term value = nullptr;
    uint32_t stamp = 0;  // 0 is never current
  };
  std::vector<Slot> slots_;
  uint32_t stamp_ = 1;
};

// The new children of one node being rebuilt: inline for up to eight (every fixed-arity
// kind), on the heap beyond that (wide And/Or, Distinct, tuples).
class ChildBuffer {
 public:
  explicit ChildBuffer(size_t n) : size_(n) {
    if (n > kInline) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  ChildBuffer(const ChildBuffer&) = delete;
  ChildBuffer& operator=(const ChildBuffer&) = delete;

  Term& operator[](size_t i) { return data_[i]; }
  std::span<const Term> span() const { return {data_, size_}; }

 private:
  static constexpr size_t kInline = 8;
  Term inline_[kInline];
  std::vector<Term> heap_;
  Term* data_ = inline_;
  size_t size_;
};

// Builds, interns and owns terms, and the composite sorts they carry.
//
// Threading contract: a TermFactory is NOT thread-safe and is never shared. Each
// verifier PairSession runs the pair's three queries in a factory of its own (with an
// Encoder and a solver backend on top of it); once the session ends, the factory is
// Reset and may serve a later session, never two at once. Everything a factory touches
// while building a term is its own: the interning tables, term ids, the blocks holding
// terms, children and payloads, its composite sorts, and its scratch maps. The only
// memory it shares with other workers is the scalar sorts, which it reads and never
// writes. So concurrent verification workers take no lock and write no shared cache
// line. Term ids are creation indices, so two workers building isomorphic queries produce
// identically-shaped DAGs.
class TermFactory {
 public:
  TermFactory();
  ~TermFactory();
  TermFactory(const TermFactory&) = delete;
  TermFactory& operator=(const TermFactory&) = delete;

  // Forgets every term and composite sort, so the factory behaves exactly like a newly
  // constructed one (ids restart at 0), but keeps its memory: the blocks, the intern
  // tables and the scratch maps serve the next terms without new allocations. Every term
  // and sort it made is invalid afterwards, and no ScratchMap may be on lease.
  void Reset();

  // --- Sorts ----------------------------------------------------------------------------
  // Interned: equal sorts from one factory are pointer-equal. The scalar sorts are the
  // free functions BoolSort(), IntSort() and StringSort() (sort.h).
  Sort RefSort(int model_id);
  Sort PairSort(Sort ref1, Sort ref2);
  Sort TupleSort(std::span<const Sort> fields);
  Sort TupleSort(std::initializer_list<Sort> fields) {
    return TupleSort(std::span<const Sort>(fields.begin(), fields.size()));
  }
  Sort ArraySort(Sort index, Sort element);
  Sort SetSort(Sort index) { return ArraySort(index, BoolSort()); }

  // --- Leaves ---------------------------------------------------------------------------
  Term Const(std::string_view name, Sort sort);
  Term BoolLit(bool v);
  Term IntLit(int64_t v);
  Term StrLit(std::string_view v);
  Term RefLit(Sort ref_sort, int64_t index);
  Term True() { return BoolLit(true); }
  Term False() { return BoolLit(false); }

  // Creates a fresh bound variable of the given sort for use with the binder
  // constructors below. Each call returns a distinct variable.
  Term NewBoundVar(Sort sort);

  // --- Boolean --------------------------------------------------------------------------
  Term And(std::span<const Term> xs);
  Term And(std::initializer_list<Term> xs) {
    return And(std::span<const Term>(xs.begin(), xs.size()));
  }
  Term And(Term a, Term b) { return And({a, b}); }
  Term Or(std::span<const Term> xs);
  Term Or(std::initializer_list<Term> xs) {
    return Or(std::span<const Term>(xs.begin(), xs.size()));
  }
  Term Or(Term a, Term b) { return Or({a, b}); }
  Term Not(Term a);
  Term Implies(Term a, Term b);
  Term Ite(Term cond, Term then_t, Term else_t);
  Term Eq(Term a, Term b);
  Term Neq(Term a, Term b) { return Not(Eq(a, b)); }
  Term Distinct(std::span<const Term> xs);
  Term Distinct(std::initializer_list<Term> xs) {
    return Distinct(std::span<const Term>(xs.begin(), xs.size()));
  }

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
  Term MkTuple(std::span<const Term> fields);
  Term MkTuple(std::initializer_list<Term> fields) {
    return MkTuple(std::span<const Term>(fields.begin(), fields.size()));
  }
  Term Proj(Term tuple, int64_t index);
  // Returns a tuple equal to `tuple` with field `index` replaced by `value` (SOIR setf).
  Term TupleWith(Term tuple, int64_t index, Term value);

  // --- Arrays / sets --------------------------------------------------------------------
  Term ConstArray(Sort index_sort, Term default_value);
  Term Store(Term array, Term index, Term value);
  Term Select(Term array, Term index);
  // ArrayLambda binds `var` (from NewBoundVar) in `body`; the result maps each domain
  // element d to body[var := d].
  Term ArrayLambda(Term var, Term body);

  Term EmptySet(Sort index_sort) { return ConstArray(index_sort, False()); }
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
  size_t size() const { return num_terms_; }

  // Number of Intern calls that found a structurally identical existing term — i.e. how
  // often hash-consing (and the simplifications that canonicalize into it) deduplicated
  // work. Monotonic over the factory's lifetime; observability reports it as
  // "smt.simplify_hits".
  uint64_t intern_hits() const { return intern_hits_; }

  // Interns the bound variable with a specific id (used when rebuilding binders during
  // substitution). Not for general use — prefer NewBoundVar.
  Term InternBoundVar(Sort sort, int64_t id);

 private:
  friend class ScratchMap;

  // Returns the existing term with these parts or creates it. A hit allocates nothing.
  Term Intern(TermKind kind, Sort sort, std::span<const Term> children, int64_t int_payload,
              int64_t int_payload2, std::string_view str_payload, Sort binder_sort);
  Term Intern(TermKind kind, Sort sort, std::initializer_list<Term> children,
              int64_t int_payload, int64_t int_payload2, std::string_view str_payload,
              Sort binder_sort) {
    return Intern(kind, sort, std::span<const Term>(children.begin(), children.size()),
                  int_payload, int_payload2, str_payload, binder_sort);
  }
  Sort InternSort(SortKind kind, int model_id, std::span<const Sort> children);
  // Bump allocation from the factory's blocks, 8-byte aligned; freed with the factory.
  void* Allocate(size_t bytes);
  // Moves allocation on to the next kept block, or a new one, with room for `bytes`.
  void NextBlock(size_t bytes);
  // And/Or: flattens `xs` into junct_scratch_, dropping `unit` literals and duplicates.
  // Returns false when `xs` holds the absorbing literal or a complementary pair.
  bool GatherJuncts(std::span<const Term> xs, TermKind kind, bool unit);
  Term MakeBinder(TermKind kind, Term var, std::initializer_list<Term> bodies,
                  Sort result_sort, int64_t payload2 = 0);
  // Linear normal form support (see term.cc): sa*a + sb*b flattened and canonicalized.
  void DecomposeLinear(Term t, int64_t scale, std::map<Term, int64_t>& coeffs,
                       int64_t& constant);
  Term BuildLinear(const std::map<Term, int64_t>& coeffs, int64_t constant);
  Term Linear(Term a, int64_t sa, Term b, int64_t sb);

  // Open-addressing intern tables (linear probing, power-of-two capacity, at most half
  // full) over the factory's terms and composite sorts. A slot keeps the low half of its
  // entry's hash, and the generation that wrote it: a slot of an older generation is
  // empty, so Reset empties both tables in O(1).
  template <typename T>
  struct InternSlot {
    uint32_t hash = 0;
    uint32_t generation = 0;  // 0 is never current
    T* entry = nullptr;
  };
  std::vector<InternSlot<TermData>> terms_;
  std::vector<InternSlot<SortData>> sorts_;
  uint32_t generation_ = 1;
  size_t num_terms_ = 0;
  size_t num_sorts_ = 0;
  // Storage of the factory's terms (with their children and payloads) and sorts. Reset
  // keeps the blocks; the first `blocks_in_use_` hold the current generation.
  struct Block {
    std::unique_ptr<std::byte[]> bytes;
    size_t size;
  };
  std::vector<Block> blocks_;
  size_t blocks_in_use_ = 0;
  std::byte* block_next_ = nullptr;
  std::byte* block_end_ = nullptr;
  size_t next_block_bytes_ = size_t{64} << 10;
  // And/Or's flattened operands and MkTuple's field sorts.
  std::vector<Term> junct_scratch_;
  std::vector<Sort> sort_scratch_;
  // ScratchMaps not on lease, with their storage; `leased_maps_` counts the others.
  std::vector<TermMap> spare_maps_;
  size_t leased_maps_ = 0;
  int64_t next_bound_var_ = 0;
  uint64_t intern_hits_ = 0;
};

// A TermMap on lease from a factory: empty when the lease starts, handed back with its
// storage when it ends. The factory keeps returned maps (across Reset too) for its next
// leases, so the per-search and per-call maps of a whole verification run reuse a few
// allocations. A lease must end before its factory is Reset or destroyed.
class ScratchMap {
 public:
  explicit ScratchMap(TermFactory& f);
  ~ScratchMap();
  ScratchMap(const ScratchMap&) = delete;
  ScratchMap& operator=(const ScratchMap&) = delete;

  TermMap& operator*() { return map_; }
  TermMap* operator->() { return &map_; }

 private:
  TermFactory& f_;
  TermMap map_;
};

// True if `t` contains a free bound variable whose id differs from `self_id`.
bool HasOtherBoundVar(Term t, int64_t self_id);

// Capture-free substitution of bound variable `var_id` by `value` in `body`, rebuilding
// nodes through the factory so simplifications re-fire (beta reduction).
Term SubstituteBoundVar(TermFactory& f, Term body, int64_t var_id, Term value);

// Rebuilds `t` with new children through the factory's smart constructors.
Term RebuildTerm(TermFactory& f, Term t, std::span<const Term> kids);

}  // namespace noctua::smt

#endif  // SRC_SMT_TERM_H_
