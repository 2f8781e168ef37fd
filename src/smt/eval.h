// Finite-domain, three-valued term evaluation for the Noctua bounded model finder.
//
// The solver (solver.h) searches for a counterexample by enumerating assignments to
// *atoms* — the scalar unknowns obtained by decomposing every free constant of the
// formula: a scalar constant is one atom; an Array<Ref,Tuple> constant contributes one
// atom per (scope element, tuple field); a set constant one Bool atom per element, etc.
//
// Evaluation is three-valued: unassigned atoms evaluate to Unknown, and connectives
// short-circuit (And with a false child is false regardless of Unknowns). This is what
// lets the DFS prune most of the exponential assignment space.
#ifndef SRC_SMT_EVAL_H_
#define SRC_SMT_EVAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/smt/term.h"

namespace noctua::smt {

// The finite scope: how many distinct IDs every model's Ref sort ranges over, one size
// for all models.
class Scope {
 public:
  explicit Scope(int size = 2) : size_(size) {}

  // Elements of every Ref sort.
  int size() const { return size_; }

  // Number of elements in the domain of a Ref or Pair sort.
  int DomainSize(const Sort& sort) const;

 private:
  int size_;
};

// A ground (or partially-ground) value. Composite values may contain Unknown leaves.
class Value {
 public:
  enum class Kind : uint8_t { kUnknown, kBool, kInt, kString, kRef, kPair, kTuple, kArray };

  Value() : kind_(Kind::kUnknown) {}
  static Value Unknown() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t v);
  static Value Str(std::string s);
  static Value Ref(int64_t index);
  static Value Pair(int64_t fst, int64_t snd);
  static Value Tuple(std::vector<Value> fields);
  static Value Array(std::vector<Value> elements);

  Kind kind() const { return kind_; }
  bool is_unknown() const { return kind_ == Kind::kUnknown; }
  bool is_known() const { return kind_ != Kind::kUnknown; }

  bool bool_v() const;
  int64_t int_v() const;        // also the index for kRef
  const std::string& str_v() const;
  int64_t pair_fst() const;
  int64_t pair_snd() const;
  const std::vector<Value>& elements() const;  // kTuple fields or kArray elements
  std::vector<Value>& mutable_elements();

  // True if no Unknown occurs anywhere inside.
  bool FullyKnown() const;

  // Three-valued structural equality: nullopt when it cannot be decided yet.
  static std::optional<bool> Equal(const Value& a, const Value& b);

  std::string ToString() const;

 private:
  Kind kind_;
  bool b_ = false;
  int64_t i_ = 0;
  int64_t j_ = 0;  // second component of kPair
  std::string s_;
  std::vector<Value> elems_;
};

// One scalar unknown of the search. `base` is the free constant it came from; `index` is
// the domain element for array-typed constants (-1 otherwise); `field` the tuple field
// (-1 otherwise).
struct Atom {
  Term base = nullptr;
  int32_t index = -1;
  int32_t field = -1;
  Sort sort;  // scalar sort: Bool, Int, String, or Ref

  std::string Name() const;
};

// Decomposes the free constants of a set of terms into atoms, in deterministic
// first-occurrence order.
class AtomTable {
 public:
  AtomTable(const Scope& scope, const std::vector<Term>& roots);

  const std::vector<Atom>& atoms() const { return atoms_; }
  size_t size() const { return atoms_.size(); }

  // Atom id lookup; returns -1 if the (const, index, field) triple is not an atom.
  int Find(Term base, int32_t index, int32_t field) const;

  // All free constants found, in first-occurrence order.
  const std::vector<Term>& constants() const { return consts_; }

 private:
  void AddConstant(const Scope& scope, Term c);
  void AddAtom(Term base, int32_t index, int32_t field, const Sort& sort);

  std::vector<Atom> atoms_;
  std::vector<Term> consts_;
  struct KeyHash {
    size_t operator()(const std::tuple<Term, int32_t, int32_t>& k) const;
  };
  std::unordered_map<std::tuple<Term, int32_t, int32_t>, int, KeyHash> by_key_;
};

// Evaluates terms under a (possibly partial) atom assignment. Construct once per
// assignment state; evaluation results are memoized across Eval calls for terms that do
// not mention bound variables.
class Evaluator {
 public:
  Evaluator(const Scope& scope, const AtomTable& atoms, const std::vector<Value>& assignment);

  Value Eval(Term t);

 private:
  Value EvalRec(Term t);
  Value EvalConst(Term t);
  Value EvalBinder(Term t);
  // Enumerates the domain of `sort` as Values (Ref indices or Pairs).
  std::vector<Value> DomainElements(const Sort& sort) const;

  const Scope& scope_;
  const AtomTable& atoms_;
  const std::vector<Value>& assignment_;
  std::unordered_map<Term, Value> memo_;
  std::unordered_map<int64_t, Value> env_;  // bound var id -> value
};

}  // namespace noctua::smt

#endif  // SRC_SMT_EVAL_H_
