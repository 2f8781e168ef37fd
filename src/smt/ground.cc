#include "src/smt/ground.h"

#include <algorithm>

#include "src/support/check.h"

namespace noctua::smt {

std::vector<Term> Grounder::DomainElements(Sort sort) {
  std::vector<Term> out;
  if (sort->is_ref()) {
    int n = scope_.RefSize(sort->model_id());
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
      out.push_back(f_->RefLit(sort, i));
    }
  } else if (sort->is_pair()) {
    Sort s1 = sort->children()[0];
    Sort s2 = sort->children()[1];
    int n1 = scope_.RefSize(s1->model_id());
    int n2 = scope_.RefSize(s2->model_id());
    out.reserve(static_cast<size_t>(n1) * n2);
    for (int i = 0; i < n1; ++i) {
      for (int j = 0; j < n2; ++j) {
        out.push_back(f_->MkPair(f_->RefLit(s1, i), f_->RefLit(s2, j)));
      }
    }
  } else {
    NOCTUA_UNREACHABLE("domain of non-finite sort");
  }
  return out;
}

Term Grounder::GroundBinder(Term t) {
  ++binders_expanded_;
  int64_t var_id = t->int_payload();
  Sort dom = t->binder_sort();
  std::vector<Term> elems = DomainElements(dom);

  // Instantiates body child `c` at domain element `e` and grounds the result (the body
  // may contain nested binders).
  auto inst = [&](size_t c, Term e) {
    return Ground(SubstituteBoundVar(*f_, t->child(c), var_id, e));
  };

  switch (t->kind()) {
    case TermKind::kForall: {
      std::vector<Term> parts;
      parts.reserve(elems.size());
      for (Term e : elems) {
        parts.push_back(inst(0, e));
      }
      return f_->And(std::move(parts));
    }
    case TermKind::kExists: {
      std::vector<Term> parts;
      parts.reserve(elems.size());
      for (Term e : elems) {
        parts.push_back(inst(0, e));
      }
      return f_->Or(std::move(parts));
    }
    case TermKind::kCount: {
      Term acc = f_->IntLit(0);
      for (Term e : elems) {
        acc = f_->Add(acc, f_->Ite(inst(0, e), f_->IntLit(1), f_->IntLit(0)));
      }
      return acc;
    }
    case TermKind::kSum: {
      Term acc = f_->IntLit(0);
      for (Term e : elems) {
        acc = f_->Add(acc, f_->Ite(inst(0, e), inst(1, e), f_->IntLit(0)));
      }
      return acc;
    }
    case TermKind::kMinAgg:
    case TermKind::kMaxAgg: {
      bool is_min = t->kind() == TermKind::kMinAgg;
      Term acc = f_->IntLit(0);       // empty aggregates yield 0 by convention
      Term found = f_->False();
      for (Term e : elems) {
        Term cond = inst(0, e);
        Term val = inst(1, e);
        Term better = is_min ? f_->Lt(val, acc) : f_->Lt(acc, val);
        Term take = f_->And(cond, f_->Or(f_->Not(found), better));
        acc = f_->Ite(take, val, acc);
        found = f_->Or(found, cond);
      }
      return acc;
    }
    case TermKind::kArgExtreme: {
      bool want_max = t->int_payload2() != 0;
      NOCTUA_CHECK(!elems.empty());
      Term acc = elems[0];            // empty sets yield element 0 by convention
      Term acc_key = f_->IntLit(0);
      Term found = f_->False();
      for (Term e : elems) {
        Term cond = inst(0, e);
        Term key = inst(1, e);
        // Strict improvement keeps the earliest element on ties (matching the evaluator).
        Term better = want_max ? f_->Lt(acc_key, key) : f_->Lt(key, acc_key);
        Term take = f_->And(cond, f_->Or(f_->Not(found), better));
        acc = f_->Ite(take, e, acc);
        acc_key = f_->Ite(take, key, acc_key);
        found = f_->Or(found, cond);
      }
      return acc;
    }
    case TermKind::kArrayLambda:
      // Ground never hands a lambda here: it grounds a lambda's body in place.
      NOCTUA_UNREACHABLE("array lambda expanded as a binder");
    default:
      NOCTUA_UNREACHABLE("not a binder");
  }
}

Term Grounder::Ground(Term t) {
  if (!t->has_bound_var()) {
    if (const Term* done = memo_->Find(t)) {
      return *done;
    }
  }
  Term result;
  switch (t->kind()) {
    case TermKind::kForall:
    case TermKind::kExists:
    case TermKind::kCount:
    case TermKind::kSum:
    case TermKind::kMinAgg:
    case TermKind::kMaxAgg:
    case TermKind::kArgExtreme:
      result = GroundBinder(t);
      break;
    default: {
      if (t->children().empty()) {
        result = t;
        break;
      }
      ChildBuffer kids(t->children().size());
      bool changed = false;
      for (size_t i = 0; i < t->children().size(); ++i) {
        kids[i] = Ground(t->child(i));
        changed = changed || kids[i] != t->child(i);
      }
      result = changed ? RebuildTerm(*f_, t, kids.span()) : t;
      break;
    }
  }
  if (!t->has_bound_var()) {
    memo_->Set(t, result);
  }
  return result;
}

void Grounder::CollectAtoms(Term grounded, TermMap& seen, std::vector<Term>* atoms) {
  seen.Clear();
  auto walk = [&](Term t, auto&& self) -> void {
    if (seen.Find(t) != nullptr) {
      return;
    }
    seen.Set(t, t);
    if (t->is_ground_atom()) {
      atoms->push_back(t);
      return;
    }
    for (Term c : t->children()) {
      self(c, self);
    }
  };
  walk(grounded, walk);
}

bool GroundAndFlatten(Grounder& g, TermFactory& f, const std::vector<Term>& assertions,
                      std::vector<Term>* out) {
  for (Term a : assertions) {
    Term ground = g.Ground(f.And(a, f.True()));  // And() normalizes/flattens
    if (ground->kind() == TermKind::kAnd) {
      for (Term c : ground->children()) {
        out->push_back(c);
      }
    } else {
      out->push_back(ground);
    }
  }
  for (Term a : *out) {
    if (a->IsBoolLit(false)) {
      return false;
    }
  }
  out->erase(std::remove_if(out->begin(), out->end(),
                            [](Term a) { return a->IsBoolLit(true); }),
             out->end());
  return true;
}

bool IncrementalGrounder::Ground(TermFactory& f, const Scope& scope,
                                 const std::vector<Term>& assertions, std::vector<Term>* out,
                                 uint64_t* reuse_hits, uint64_t* binders_expanded) {
  if (factory_ != &f) {
    // Term identity is per-factory: a new factory invalidates everything.
    factory_ = &f;
    grounder_ = std::make_unique<Grounder>(&f, scope);
    roots_.clear();
  }
  const uint64_t before = grounder_->binders_expanded();
  bool feasible = true;
  for (Term a : assertions) {
    auto it = roots_.find(a);
    if (it == roots_.end()) {
      Entry e;
      e.feasible = GroundAndFlatten(*grounder_, f, {a}, &e.conjuncts);
      it = roots_.emplace(a, std::move(e)).first;
    } else if (reuse_hits != nullptr) {
      ++*reuse_hits;
    }
    if (!it->second.feasible) {
      feasible = false;
    } else {
      out->insert(out->end(), it->second.conjuncts.begin(), it->second.conjuncts.end());
    }
  }
  if (binders_expanded != nullptr) {
    *binders_expanded += grounder_->binders_expanded() - before;
  }
  return feasible;
}

std::string GroundAtomName(Term atom) {
  switch (atom->kind()) {
    case TermKind::kConst:
      return std::string(atom->str_payload());
    case TermKind::kSelect: {
      Term idx = atom->child(1);
      std::string i = idx->kind() == TermKind::kRefLit
                          ? std::to_string(idx->int_payload())
                          : "(" + std::to_string(idx->child(0)->int_payload()) + "," +
                                std::to_string(idx->child(1)->int_payload()) + ")";
      return GroundAtomName(atom->child(0)) + "[" + i + "]";
    }
    case TermKind::kProj:
      return GroundAtomName(atom->child(0)) + "." + std::to_string(atom->int_payload());
    default:
      return atom->ToString();
  }
}

Term SubstGround(TermFactory& f, Term t, const TermMap& values, uint64_t mask, TermMap& memo) {
  if ((t->atom_sig() & mask) == 0) {
    return t;
  }
  if (const Term* v = values.Find(t)) {
    return *v;
  }
  if (t->children().empty()) {
    return t;
  }
  if (const Term* done = memo.Find(t)) {
    return *done;
  }
  ChildBuffer kids(t->children().size());
  bool changed = false;
  for (size_t i = 0; i < t->children().size(); ++i) {
    kids[i] = SubstGround(f, t->child(i), values, mask, memo);
    changed = changed || kids[i] != t->child(i);
  }
  Term result = changed ? RebuildTerm(f, t, kids.span()) : t;
  // The rebuilt term may expose an assigned atom (e.g. a fresh Select cell).
  if (const Term* v = values.Find(result)) {
    result = *v;
  }
  memo.Set(t, result);
  return result;
}

Term SubstFixpoint(TermFactory& f, Term t, const TermMap& values, uint64_t first_mask,
                   uint64_t mask, TermMap& memo) {
  uint64_t round_mask = first_mask;
  for (int round = 1;; ++round) {
    Term r = SubstGround(f, t, values, round_mask, memo);
    if (r == t) {
      return r;
    }
    // Fatal rather than silent: the caller would keep an assigned atom in a residual, and
    // the DFS's one-bit first rounds would never substitute it.
    NOCTUA_CHECK_MSG(round < 16, "substitution did not reach a fixpoint in 16 rounds");
    t = r;
    round_mask = mask;
  }
}

Term FindFirstAtom(Term t, TermMap& memo) {
  if (const Term* done = memo.Find(t)) {
    return *done;
  }
  Term found = nullptr;
  if (t->is_ground_atom()) {
    found = t;
  } else {
    for (Term c : t->children()) {
      found = FindFirstAtom(c, memo);
      if (found != nullptr) {
        break;
      }
    }
  }
  memo.Set(t, found);
  return found;
}

}  // namespace noctua::smt
