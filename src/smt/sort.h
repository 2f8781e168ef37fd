// SMT sorts for the Noctua verification backend.
//
// The verifier encodes database state with the paper's order-aware array-based encoding
// (Table 2): every model state is a triple (ids, data, order). The sorts needed are:
//
//   Bool / Int / String        scalar sorts (Float and Datetime map to Int, see encoder)
//   Ref(m)                     the ID sort of model m — finite-scope uninterpreted sort
//   Pair(m1, m2)               an association in a relation between models m1 and m2
//   Tuple(fields...)           object data (one component per model field)
//   Array(index, element)      index is Ref or Pair; used for `data`, `order` and —
//                              with Bool elements — for sets (`ids`, relation states)
//
// Sets are deliberately represented as Arrays to Bool: this keeps the term language small
// and makes the finite-domain evaluator trivial (a set value is a bitmask over the scope).
#ifndef SRC_SMT_SORT_H_
#define SRC_SMT_SORT_H_

#include <cstdint>
#include <span>
#include <string>

namespace noctua::smt {

enum class SortKind : uint8_t {
  kBool,
  kInt,
  kString,
  kRef,    // model_id identifies which model's ID space
  kPair,   // children: two Ref sorts
  kTuple,  // children: field sorts
  kArray,  // children: [index sort, element sort]
};

class SortData;
// Sorts are interned, immutable values, so sort equality is pointer equality: `==` on two
// Sorts of one TermFactory is structural equality. The three scalar sorts are
// process-wide constants that are only ever read; the composite sorts (Ref, Pair, Tuple,
// Array) are interned by the TermFactory that builds them (term.h) and live as long as it
// does. Handling a sort therefore writes no memory another verifier worker can see.
using Sort = const SortData*;

class SortData {
 public:
  SortKind kind() const { return kind_; }
  int model_id() const { return model_id_; }
  std::span<const Sort> children() const { return {children_, num_children_}; }
  // Structural hash, fixed when the sort is interned.
  uint64_t hash() const { return hash_; }

  bool is_bool() const { return kind_ == SortKind::kBool; }
  bool is_int() const { return kind_ == SortKind::kInt; }
  bool is_string() const { return kind_ == SortKind::kString; }
  bool is_ref() const { return kind_ == SortKind::kRef; }
  bool is_pair() const { return kind_ == SortKind::kPair; }
  bool is_tuple() const { return kind_ == SortKind::kTuple; }
  bool is_array() const { return kind_ == SortKind::kArray; }

  // Array accessors (only valid for kArray).
  Sort index_sort() const { return children_[0]; }
  Sort element_sort() const { return children_[1]; }

  // True for Array(_, Bool), the representation of sets.
  bool is_set() const { return is_array() && children_[1]->is_bool(); }

  // True for sorts over which the evaluator can enumerate all values given a scope
  // (Ref and Pair). These are the only legal binder/index sorts.
  bool is_finite_domain() const { return is_ref() || is_pair(); }

  std::string ToString() const;

 private:
  friend class TermFactory;
  friend Sort BoolSort();
  friend Sort IntSort();
  friend Sort StringSort();

  constexpr SortData(SortKind kind, int model_id, const Sort* children, uint32_t num_children,
                     uint64_t hash)
      : kind_(kind),
        num_children_(num_children),
        model_id_(model_id),
        children_(children),
        hash_(hash) {}

  static const SortData kBool;
  static const SortData kInt;
  static const SortData kString;

  SortKind kind_;
  uint32_t num_children_;
  int model_id_;  // only meaningful for kRef
  const Sort* children_;
  uint64_t hash_;
};

inline constexpr SortData SortData::kBool{SortKind::kBool, -1, nullptr, 0, 0x9ae16a3b2f90404fULL};
inline constexpr SortData SortData::kInt{SortKind::kInt, -1, nullptr, 0, 0xc3a5c85c97cb3127ULL};
inline constexpr SortData SortData::kString{SortKind::kString, -1, nullptr, 0,
                                            0xb492b66fbe98f273ULL};

// The scalar sorts. Ref, Pair, Tuple, Array and Set sorts come from
// TermFactory::RefSort and its siblings.
inline Sort BoolSort() { return &SortData::kBool; }
inline Sort IntSort() { return &SortData::kInt; }
inline Sort StringSort() { return &SortData::kString; }

}  // namespace noctua::smt

#endif  // SRC_SMT_SORT_H_
