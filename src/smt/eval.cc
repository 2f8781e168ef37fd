#include "src/smt/eval.h"

#include <algorithm>

#include "src/support/check.h"

namespace noctua::smt {

// --- Scope --------------------------------------------------------------------------------

int Scope::DomainSize(const Sort& sort) const {
  if (sort->is_ref()) {
    return RefSize(sort->model_id());
  }
  if (sort->is_pair()) {
    return RefSize(sort->children()[0]->model_id()) * RefSize(sort->children()[1]->model_id());
  }
  NOCTUA_UNREACHABLE("domain size of non-finite sort");
}

// --- Value --------------------------------------------------------------------------------

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.b_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.i_ = i;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.s_ = std::move(s);
  return v;
}

Value Value::Ref(int64_t index) {
  Value v;
  v.kind_ = Kind::kRef;
  v.i_ = index;
  return v;
}

Value Value::Pair(int64_t fst, int64_t snd) {
  Value v;
  v.kind_ = Kind::kPair;
  v.i_ = fst;
  v.j_ = snd;
  return v;
}

Value Value::Tuple(std::vector<Value> fields) {
  Value v;
  v.kind_ = Kind::kTuple;
  v.elems_ = std::move(fields);
  return v;
}

Value Value::Array(std::vector<Value> elements) {
  Value v;
  v.kind_ = Kind::kArray;
  v.elems_ = std::move(elements);
  return v;
}

bool Value::bool_v() const {
  NOCTUA_DCHECK(kind_ == Kind::kBool);
  return b_;
}

int64_t Value::int_v() const {
  NOCTUA_DCHECK(kind_ == Kind::kInt || kind_ == Kind::kRef);
  return i_;
}

const std::string& Value::str_v() const {
  NOCTUA_DCHECK(kind_ == Kind::kString);
  return s_;
}

int64_t Value::pair_fst() const {
  NOCTUA_DCHECK(kind_ == Kind::kPair);
  return i_;
}

int64_t Value::pair_snd() const {
  NOCTUA_DCHECK(kind_ == Kind::kPair);
  return j_;
}

const std::vector<Value>& Value::elements() const {
  NOCTUA_DCHECK(kind_ == Kind::kTuple || kind_ == Kind::kArray);
  return elems_;
}

std::vector<Value>& Value::mutable_elements() {
  NOCTUA_DCHECK(kind_ == Kind::kTuple || kind_ == Kind::kArray);
  return elems_;
}

bool Value::FullyKnown() const {
  switch (kind_) {
    case Kind::kUnknown:
      return false;
    case Kind::kTuple:
    case Kind::kArray:
      for (const Value& e : elems_) {
        if (!e.FullyKnown()) {
          return false;
        }
      }
      return true;
    default:
      return true;
  }
}

std::optional<bool> Value::Equal(const Value& a, const Value& b) {
  if (a.is_unknown() || b.is_unknown()) {
    return std::nullopt;
  }
  NOCTUA_CHECK_MSG(a.kind_ == b.kind_, "comparing values of different kinds");
  switch (a.kind_) {
    case Kind::kBool:
      return a.b_ == b.b_;
    case Kind::kInt:
    case Kind::kRef:
      return a.i_ == b.i_;
    case Kind::kString:
      return a.s_ == b.s_;
    case Kind::kPair:
      return a.i_ == b.i_ && a.j_ == b.j_;
    case Kind::kTuple:
    case Kind::kArray: {
      NOCTUA_CHECK(a.elems_.size() == b.elems_.size());
      bool any_unknown = false;
      for (size_t i = 0; i < a.elems_.size(); ++i) {
        std::optional<bool> eq = Equal(a.elems_[i], b.elems_[i]);
        if (!eq.has_value()) {
          any_unknown = true;
        } else if (!*eq) {
          return false;
        }
      }
      if (any_unknown) {
        return std::nullopt;
      }
      return true;
    }
    case Kind::kUnknown:
      return std::nullopt;
  }
  NOCTUA_UNREACHABLE("bad value kind");
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kUnknown:
      return "?";
    case Kind::kBool:
      return b_ ? "true" : "false";
    case Kind::kInt:
      return std::to_string(i_);
    case Kind::kString:
      return "\"" + s_ + "\"";
    case Kind::kRef:
      return "#" + std::to_string(i_);
    case Kind::kPair:
      return "(#" + std::to_string(i_) + ",#" + std::to_string(j_) + ")";
    case Kind::kTuple:
    case Kind::kArray: {
      std::string out = kind_ == Kind::kTuple ? "(" : "[";
      for (size_t i = 0; i < elems_.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        out += elems_[i].ToString();
      }
      return out + (kind_ == Kind::kTuple ? ")" : "]");
    }
  }
  NOCTUA_UNREACHABLE("bad value kind");
}

// --- Atom / AtomTable ---------------------------------------------------------------------

std::string Atom::Name() const {
  std::string n(base->str_payload());
  if (index >= 0) {
    n += "[" + std::to_string(index) + "]";
  }
  if (field >= 0) {
    n += "." + std::to_string(field);
  }
  return n;
}

size_t AtomTable::KeyHash::operator()(const std::tuple<Term, int32_t, int32_t>& k) const {
  size_t h = std::hash<Term>()(std::get<0>(k));
  h ^= static_cast<size_t>(std::get<1>(k) + 7) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<size_t>(std::get<2>(k) + 13) * 0xff51afd7ed558ccdULL;
  return h;
}

AtomTable::AtomTable(const Scope& scope, const std::vector<Term>& roots) {
  // Collect free constants in deterministic first-occurrence (DFS) order.
  std::unordered_map<Term, bool> seen;
  std::vector<Term> stack(roots.rbegin(), roots.rend());
  // Iterative DFS preserving left-to-right order requires an explicit worklist walk.
  std::vector<Term> order;
  auto walk = [&](Term root, auto&& self) -> void {
    if (seen.count(root)) {
      return;
    }
    seen[root] = true;
    if (root->kind() == TermKind::kConst) {
      order.push_back(root);
      return;
    }
    for (Term c : root->children()) {
      self(c, self);
    }
  };
  for (Term r : roots) {
    walk(r, walk);
  }
  for (Term c : order) {
    AddConstant(scope, c);
  }
}

void AtomTable::AddConstant(const Scope& scope, Term c) {
  consts_.push_back(c);
  const Sort& s = c->sort();
  if (s->is_array()) {
    int n = scope.DomainSize(s->index_sort());
    const Sort& elem = s->element_sort();
    if (elem->is_tuple()) {
      for (int i = 0; i < n; ++i) {
        for (size_t f = 0; f < elem->children().size(); ++f) {
          AddAtom(c, i, static_cast<int32_t>(f), elem->children()[f]);
        }
      }
    } else {
      for (int i = 0; i < n; ++i) {
        AddAtom(c, i, -1, elem);
      }
    }
  } else if (s->is_tuple()) {
    for (size_t f = 0; f < s->children().size(); ++f) {
      AddAtom(c, -1, static_cast<int32_t>(f), s->children()[f]);
    }
  } else {
    AddAtom(c, -1, -1, s);
  }
}

void AtomTable::AddAtom(Term base, int32_t index, int32_t field, const Sort& sort) {
  NOCTUA_CHECK_MSG(!sort->is_array() && !sort->is_tuple(),
                   "nested composite constants are not supported by the encoder");
  int id = static_cast<int>(atoms_.size());
  atoms_.push_back(Atom{base, index, field, sort});
  by_key_[{base, index, field}] = id;
}

int AtomTable::Find(Term base, int32_t index, int32_t field) const {
  auto it = by_key_.find({base, index, field});
  return it == by_key_.end() ? -1 : it->second;
}

// --- Evaluator ----------------------------------------------------------------------------

Evaluator::Evaluator(const Scope& scope, const AtomTable& atoms,
                     const std::vector<Value>& assignment)
    : scope_(scope), atoms_(atoms), assignment_(assignment) {}

Value Evaluator::Eval(Term t) { return EvalRec(t); }

std::vector<Value> Evaluator::DomainElements(const Sort& sort) const {
  std::vector<Value> out;
  if (sort->is_ref()) {
    int n = scope_.RefSize(sort->model_id());
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
      out.push_back(Value::Ref(i));
    }
  } else if (sort->is_pair()) {
    int n1 = scope_.RefSize(sort->children()[0]->model_id());
    int n2 = scope_.RefSize(sort->children()[1]->model_id());
    out.reserve(static_cast<size_t>(n1) * n2);
    for (int i = 0; i < n1; ++i) {
      for (int j = 0; j < n2; ++j) {
        out.push_back(Value::Pair(i, j));
      }
    }
  } else {
    NOCTUA_UNREACHABLE("domain of non-finite sort");
  }
  return out;
}

Value Evaluator::EvalConst(Term t) {
  const Sort& s = t->sort();
  auto atom_value = [&](int32_t index, int32_t field) -> Value {
    int id = atoms_.Find(t, index, field);
    if (id < 0 || id >= static_cast<int>(assignment_.size())) {
      return Value::Unknown();
    }
    return assignment_[id];
  };
  if (s->is_array()) {
    int n = scope_.DomainSize(s->index_sort());
    const Sort& elem = s->element_sort();
    std::vector<Value> elems;
    elems.reserve(n);
    for (int i = 0; i < n; ++i) {
      if (elem->is_tuple()) {
        std::vector<Value> fields;
        fields.reserve(elem->children().size());
        for (size_t f = 0; f < elem->children().size(); ++f) {
          fields.push_back(atom_value(i, static_cast<int32_t>(f)));
        }
        elems.push_back(Value::Tuple(std::move(fields)));
      } else {
        elems.push_back(atom_value(i, -1));
      }
    }
    return Value::Array(std::move(elems));
  }
  if (s->is_tuple()) {
    std::vector<Value> fields;
    fields.reserve(s->children().size());
    for (size_t f = 0; f < s->children().size(); ++f) {
      fields.push_back(atom_value(-1, static_cast<int32_t>(f)));
    }
    return Value::Tuple(std::move(fields));
  }
  return atom_value(-1, -1);
}

// Converts a Pair or Ref value to its linear index in the domain enumeration; returns -1
// if the value is unknown.
namespace {
int64_t DomainIndex(const Scope& scope, const Sort& sort, const Value& v) {
  if (v.is_unknown()) {
    return -1;
  }
  if (sort->is_ref()) {
    return v.int_v();
  }
  int n2 = scope.RefSize(sort->children()[1]->model_id());
  return v.pair_fst() * n2 + v.pair_snd();
}
}  // namespace

Value Evaluator::EvalBinder(Term t) {
  const Sort& dom = t->binder_sort();
  int64_t var_id = t->int_payload();
  std::vector<Value> elems = DomainElements(dom);
  auto with_env = [&](const Value& e, Term body) -> Value {
    auto saved = env_.find(var_id);
    Value old;
    bool had = saved != env_.end();
    if (had) {
      old = saved->second;
    }
    env_[var_id] = e;
    Value r = EvalRec(body);
    if (had) {
      env_[var_id] = old;
    } else {
      env_.erase(var_id);
    }
    return r;
  };

  switch (t->kind()) {
    case TermKind::kForall: {
      bool unknown = false;
      for (const Value& e : elems) {
        Value b = with_env(e, t->child(0));
        if (b.is_unknown()) {
          unknown = true;
        } else if (!b.bool_v()) {
          return Value::Bool(false);
        }
      }
      return unknown ? Value::Unknown() : Value::Bool(true);
    }
    case TermKind::kExists: {
      bool unknown = false;
      for (const Value& e : elems) {
        Value b = with_env(e, t->child(0));
        if (b.is_unknown()) {
          unknown = true;
        } else if (b.bool_v()) {
          return Value::Bool(true);
        }
      }
      return unknown ? Value::Unknown() : Value::Bool(false);
    }
    case TermKind::kArrayLambda: {
      std::vector<Value> out;
      out.reserve(elems.size());
      for (const Value& e : elems) {
        out.push_back(with_env(e, t->child(0)));
      }
      return Value::Array(std::move(out));
    }
    case TermKind::kCount: {
      int64_t count = 0;
      for (const Value& e : elems) {
        Value b = with_env(e, t->child(0));
        if (b.is_unknown()) {
          return Value::Unknown();
        }
        if (b.bool_v()) {
          ++count;
        }
      }
      return Value::Int(count);
    }
    case TermKind::kSum:
    case TermKind::kMinAgg:
    case TermKind::kMaxAgg: {
      int64_t acc = 0;
      bool first = true;
      for (const Value& e : elems) {
        Value b = with_env(e, t->child(0));
        if (b.is_unknown()) {
          return Value::Unknown();
        }
        if (!b.bool_v()) {
          continue;
        }
        Value v = with_env(e, t->child(1));
        if (v.is_unknown()) {
          return Value::Unknown();
        }
        int64_t x = v.int_v();
        if (t->kind() == TermKind::kSum) {
          acc += x;
        } else if (first) {
          acc = x;
        } else if (t->kind() == TermKind::kMinAgg) {
          acc = std::min(acc, x);
        } else {
          acc = std::max(acc, x);
        }
        first = false;
      }
      return Value::Int(acc);  // empty-set aggregates yield 0 by convention
    }
    case TermKind::kArgExtreme: {
      bool want_max = t->int_payload2() != 0;
      bool found = false;
      int64_t best_key = 0;
      Value best_elem;
      for (const Value& e : elems) {
        Value b = with_env(e, t->child(0));
        if (b.is_unknown()) {
          return Value::Unknown();
        }
        if (!b.bool_v()) {
          continue;
        }
        Value k = with_env(e, t->child(1));
        if (k.is_unknown()) {
          return Value::Unknown();
        }
        int64_t key = k.int_v();
        if (!found || (want_max ? key > best_key : key < best_key)) {
          found = true;
          best_key = key;
          best_elem = e;
        }
      }
      if (!found) {
        return dom->is_ref() ? Value::Ref(0) : Value::Pair(0, 0);
      }
      return best_elem;
    }
    default:
      NOCTUA_UNREACHABLE("not a binder kind");
  }
}

Value Evaluator::EvalRec(Term t) {
  bool memoizable = !t->has_bound_var();
  if (memoizable) {
    auto it = memo_.find(t);
    if (it != memo_.end()) {
      return it->second;
    }
  }
  Value result;
  switch (t->kind()) {
    case TermKind::kConst:
      result = EvalConst(t);
      break;
    case TermKind::kBoundVar: {
      auto it = env_.find(t->int_payload());
      NOCTUA_CHECK_MSG(it != env_.end(), "unbound variable during evaluation");
      result = it->second;
      break;
    }
    case TermKind::kBoolLit:
      result = Value::Bool(t->int_payload() != 0);
      break;
    case TermKind::kIntLit:
      result = Value::Int(t->int_payload());
      break;
    case TermKind::kStrLit:
      result = Value::Str(std::string(t->str_payload()));
      break;
    case TermKind::kRefLit:
      result = Value::Ref(t->int_payload());
      break;
    case TermKind::kAnd: {
      bool unknown = false;
      result = Value::Bool(true);
      for (Term c : t->children()) {
        Value v = EvalRec(c);
        if (v.is_unknown()) {
          unknown = true;
        } else if (!v.bool_v()) {
          result = Value::Bool(false);
          unknown = false;
          break;
        }
      }
      if (unknown) {
        result = Value::Unknown();
      }
      break;
    }
    case TermKind::kOr: {
      bool unknown = false;
      result = Value::Bool(false);
      for (Term c : t->children()) {
        Value v = EvalRec(c);
        if (v.is_unknown()) {
          unknown = true;
        } else if (v.bool_v()) {
          result = Value::Bool(true);
          unknown = false;
          break;
        }
      }
      if (unknown) {
        result = Value::Unknown();
      }
      break;
    }
    case TermKind::kNot: {
      Value v = EvalRec(t->child(0));
      result = v.is_unknown() ? Value::Unknown() : Value::Bool(!v.bool_v());
      break;
    }
    case TermKind::kImplies: {
      Value a = EvalRec(t->child(0));
      if (a.is_known() && !a.bool_v()) {
        result = Value::Bool(true);
        break;
      }
      Value b = EvalRec(t->child(1));
      if (b.is_known() && b.bool_v()) {
        result = Value::Bool(true);
      } else if (a.is_known() && b.is_known()) {
        result = Value::Bool(!a.bool_v() || b.bool_v());
      } else {
        result = Value::Unknown();
      }
      break;
    }
    case TermKind::kIte: {
      Value c = EvalRec(t->child(0));
      if (c.is_known()) {
        result = EvalRec(t->child(c.bool_v() ? 1 : 2));
      } else {
        Value a = EvalRec(t->child(1));
        Value b = EvalRec(t->child(2));
        std::optional<bool> eq = Value::Equal(a, b);
        result = (eq.has_value() && *eq) ? a : Value::Unknown();
      }
      break;
    }
    case TermKind::kEq: {
      std::optional<bool> eq = Value::Equal(EvalRec(t->child(0)), EvalRec(t->child(1)));
      result = eq.has_value() ? Value::Bool(*eq) : Value::Unknown();
      break;
    }
    case TermKind::kDistinct: {
      std::vector<Value> vs;
      vs.reserve(t->children().size());
      for (Term c : t->children()) {
        vs.push_back(EvalRec(c));
      }
      bool unknown = false;
      result = Value::Bool(true);
      for (size_t i = 0; i < vs.size() && result.is_known() && result.bool_v(); ++i) {
        for (size_t j = i + 1; j < vs.size(); ++j) {
          std::optional<bool> eq = Value::Equal(vs[i], vs[j]);
          if (!eq.has_value()) {
            unknown = true;
          } else if (*eq) {
            result = Value::Bool(false);
            unknown = false;
            break;
          }
        }
      }
      if (unknown) {
        result = Value::Unknown();
      }
      break;
    }
    case TermKind::kAdd:
    case TermKind::kSub:
    case TermKind::kMul: {
      Value a = EvalRec(t->child(0));
      // 0 * x == 0 even when x is unknown.
      if (t->kind() == TermKind::kMul && a.is_known() && a.int_v() == 0) {
        result = Value::Int(0);
        break;
      }
      Value b = EvalRec(t->child(1));
      if (t->kind() == TermKind::kMul && b.is_known() && b.int_v() == 0) {
        result = Value::Int(0);
        break;
      }
      if (a.is_unknown() || b.is_unknown()) {
        result = Value::Unknown();
      } else if (t->kind() == TermKind::kAdd) {
        result = Value::Int(a.int_v() + b.int_v());
      } else if (t->kind() == TermKind::kSub) {
        result = Value::Int(a.int_v() - b.int_v());
      } else {
        result = Value::Int(a.int_v() * b.int_v());
      }
      break;
    }
    case TermKind::kNeg: {
      Value a = EvalRec(t->child(0));
      result = a.is_unknown() ? Value::Unknown() : Value::Int(-a.int_v());
      break;
    }
    case TermKind::kLt:
    case TermKind::kLe: {
      Value a = EvalRec(t->child(0));
      Value b = EvalRec(t->child(1));
      if (a.is_unknown() || b.is_unknown()) {
        result = Value::Unknown();
      } else if (t->kind() == TermKind::kLt) {
        result = Value::Bool(a.int_v() < b.int_v());
      } else {
        result = Value::Bool(a.int_v() <= b.int_v());
      }
      break;
    }
    case TermKind::kConcat: {
      Value a = EvalRec(t->child(0));
      Value b = EvalRec(t->child(1));
      if (a.is_unknown() || b.is_unknown()) {
        result = Value::Unknown();
      } else {
        result = Value::Str(a.str_v() + b.str_v());
      }
      break;
    }
    case TermKind::kMkTuple: {
      std::vector<Value> fields;
      fields.reserve(t->children().size());
      for (Term c : t->children()) {
        fields.push_back(EvalRec(c));
      }
      result = Value::Tuple(std::move(fields));
      break;
    }
    case TermKind::kProj: {
      Value v = EvalRec(t->child(0));
      result = v.is_unknown() ? Value::Unknown() : v.elements()[t->int_payload()];
      break;
    }
    case TermKind::kConstArray: {
      Value d = EvalRec(t->child(0));
      int n = scope_.DomainSize(t->sort()->index_sort());
      result = Value::Array(std::vector<Value>(n, d));
      break;
    }
    case TermKind::kStore: {
      Value a = EvalRec(t->child(0));
      Value i = EvalRec(t->child(1));
      Value v = EvalRec(t->child(2));
      if (a.is_unknown() || i.is_unknown()) {
        result = Value::Unknown();
      } else {
        int64_t idx = DomainIndex(scope_, t->sort()->index_sort(), i);
        std::vector<Value> elems = a.elements();
        elems[idx] = v;
        result = Value::Array(std::move(elems));
      }
      break;
    }
    case TermKind::kSelect: {
      Value a = EvalRec(t->child(0));
      Value i = EvalRec(t->child(1));
      if (a.is_unknown()) {
        result = Value::Unknown();
      } else if (i.is_unknown()) {
        // All elements equal and known -> the select is that value regardless of index.
        const std::vector<Value>& es = a.elements();
        bool all_eq = !es.empty();
        for (size_t k = 1; k < es.size() && all_eq; ++k) {
          std::optional<bool> eq = Value::Equal(es[0], es[k]);
          all_eq = eq.has_value() && *eq;
        }
        result = (all_eq && !es.empty() && es[0].is_known()) ? es[0] : Value::Unknown();
      } else {
        int64_t idx = DomainIndex(scope_, t->child(0)->sort()->index_sort(), i);
        result = a.elements()[idx];
      }
      break;
    }
    case TermKind::kMkPair: {
      Value a = EvalRec(t->child(0));
      Value b = EvalRec(t->child(1));
      if (a.is_unknown() || b.is_unknown()) {
        result = Value::Unknown();
      } else {
        result = Value::Pair(a.int_v(), b.int_v());
      }
      break;
    }
    case TermKind::kFst: {
      Value p = EvalRec(t->child(0));
      result = p.is_unknown() ? Value::Unknown() : Value::Ref(p.pair_fst());
      break;
    }
    case TermKind::kSnd: {
      Value p = EvalRec(t->child(0));
      result = p.is_unknown() ? Value::Unknown() : Value::Ref(p.pair_snd());
      break;
    }
    case TermKind::kForall:
    case TermKind::kExists:
    case TermKind::kArrayLambda:
    case TermKind::kCount:
    case TermKind::kSum:
    case TermKind::kMinAgg:
    case TermKind::kMaxAgg:
    case TermKind::kArgExtreme:
      result = EvalBinder(t);
      break;
  }
  if (memoizable) {
    memo_.emplace(t, result);
  }
  return result;
}

}  // namespace noctua::smt
