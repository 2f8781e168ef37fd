#include "src/smt/solver.h"

#include <algorithm>
#include <set>

#include "src/smt/ground.h"
#include "src/support/check.h"
#include "src/support/stopwatch.h"

namespace noctua::smt {

std::string SmtModel::ToString() const {
  std::string out;
  for (const auto& [name, value] : values) {
    out += "  " + name + " = " + value + "\n";
  }
  return out;
}

void ValueDomains::Harvest(const std::vector<Term>& roots, int max_int_domain,
                           TermMap& seen) {
  std::set<int64_t> ints;
  std::set<std::string> strings;
  seen.Clear();
  std::vector<Term> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    Term t = stack.back();
    stack.pop_back();
    if (seen.Find(t) != nullptr) {
      continue;
    }
    seen.Set(t, t);
    if (t->kind() == TermKind::kIntLit) {
      ints.insert(t->int_payload());
    } else if (t->kind() == TermKind::kStrLit) {
      strings.emplace(t->str_payload());
    }
    for (Term c : t->children()) {
      stack.push_back(c);
    }
  }

  // Integer domain: every literal plus its neighbors (enough to cross any < / <= / ==
  // threshold in the formula), plus 0 and 1 so "fresh" quantities exist.
  std::set<int64_t> dom;
  dom.insert(0);
  dom.insert(1);
  for (int64_t v : ints) {
    dom.insert(v);
    dom.insert(v - 1);
    dom.insert(v + 1);
  }
  int_domain_.assign(dom.begin(), dom.end());
  if (static_cast<int>(int_domain_.size()) > max_int_domain) {
    // Keep the values closest to zero: thresholds in application code are small, and
    // small counterexamples are the ones we expect to exist.
    std::sort(int_domain_.begin(), int_domain_.end(), [](int64_t a, int64_t b) {
      int64_t aa = a < 0 ? -a : a;
      int64_t bb = b < 0 ? -b : b;
      return aa != bb ? aa < bb : a < b;
    });
    int_domain_.resize(max_int_domain);
    std::sort(int_domain_.begin(), int_domain_.end());
  }

  // String domain: every literal of the formula, then two fresh symbols distinct from
  // all of them. Neither part may be cut: a literal the formula equates an atom to, and a
  // value outside every literal, must both stay reachable, or `x == "g"` and
  // `x != "a" && ... && x != "f"` would come back unsat.
  string_domain_.assign(strings.begin(), strings.end());
  string_domain_.push_back("!fresh_a");
  string_domain_.push_back("!fresh_b");
}

std::vector<Term> ValueDomains::LiteralsFor(TermFactory& f, const Scope& scope,
                                            Term atom) const {
  Sort sort = atom->sort();
  std::vector<Term> out;
  if (sort->is_bool()) {
    out = {f.False(), f.True()};
  } else if (sort->is_int()) {
    out.reserve(int_domain_.size());
    for (int64_t v : int_domain_) {
      out.push_back(f.IntLit(v));
    }
  } else if (sort->is_string()) {
    out.reserve(string_domain_.size());
    for (const std::string& s : string_domain_) {
      out.push_back(f.StrLit(s));
    }
  } else if (sort->is_ref()) {
    int n = scope.RefSize(sort->model_id());
    out.reserve(n);
    for (int i = 0; i < n; ++i) {
      out.push_back(f.RefLit(sort, i));
    }
  } else {
    NOCTUA_UNREACHABLE("atom of composite sort");
  }
  return out;
}

void SymmetryBreaker::Analyze(const std::vector<Term>& raw,
                              const std::vector<Term>& grounded, const Scope& scope,
                              TermMap& seen) {
  groups_.clear();
  position_.clear();

  // Models whose elements the RAW assertions distinguish by name: an explicit element
  // literal, or an ArgExtreme binder (its grounding breaks key ties by element order and
  // yields element 0 for empty sets — both element-order dependent, so permuting
  // elements is not an automorphism of the grounded formula). Judged before grounding:
  // grounding itself introduces element literals everywhere.
  std::set<int> dirty;
  auto mark_sort = [&](Sort s) {
    if (s->is_ref()) {
      dirty.insert(s->model_id());
    } else if (s->is_pair()) {
      dirty.insert(s->children()[0]->model_id());
      dirty.insert(s->children()[1]->model_id());
    }
  };
  seen.Clear();
  std::vector<Term> stack(raw.begin(), raw.end());
  while (!stack.empty()) {
    Term t = stack.back();
    stack.pop_back();
    if (t == nullptr || seen.Find(t) != nullptr) {
      continue;
    }
    seen.Set(t, t);
    if (t->kind() == TermKind::kRefLit || t->kind() == TermKind::kArgExtreme) {
      mark_sort(t->sort());
    }
    for (Term c : t->children()) {
      stack.push_back(c);
    }
  }

  // Governed constants: the scalar Ref-sorted ground constants of every clean model with
  // at least two interchangeable elements, in deterministic first-occurrence order.
  std::vector<Term> atoms;
  for (Term g : grounded) {
    Grounder::CollectAtoms(g, seen, &atoms);
  }
  TermMap& taken = seen;  // the walks are done: the scratch now holds the constants taken
  taken.Clear();
  std::map<int, std::vector<Term>> per_model;
  for (Term a : atoms) {
    if (a->kind() != TermKind::kConst || !a->sort()->is_ref()) {
      continue;
    }
    int m = a->sort()->model_id();
    if (dirty.count(m) != 0 || scope.RefSize(m) < 2) {
      continue;
    }
    if (taken.Find(a) != nullptr) {
      continue;
    }
    taken.Set(a, a);
    per_model[m].push_back(a);
  }
  for (auto& [m, consts] : per_model) {
    Group g;
    g.model_id = m;
    g.consts = std::move(consts);
    for (size_t rank = 0; rank < g.consts.size(); ++rank) {
      position_[g.consts[rank]] = {static_cast<int>(groups_.size()), static_cast<int>(rank)};
    }
    groups_.push_back(std::move(g));
  }
}

int SymmetryBreaker::MaxAllowedIndex(Term atom,
                                     const std::function<int(Term)>& value_of) const {
  auto it = position_.find(atom);
  if (it == position_.end()) {
    return -1;
  }
  const auto [group_idx, rank] = it->second;
  if (rank == 0) {
    return 0;  // the group leader is pinned to element 0
  }
  const Group& g = groups_[static_cast<size_t>(group_idx)];
  int bound = -1;
  for (int j = 0; j < rank; ++j) {
    int v = value_of(g.consts[static_cast<size_t>(j)]);
    // An unassigned predecessor is bounded by its own canonical ceiling j (c_j <= j in
    // every value-precedence-canonical assignment), which keeps the bound sound for
    // partial assignments: no canonical completion is ever pruned.
    bound = std::max(bound, v >= 0 ? v : j);
  }
  return bound + 1;
}

SolveResult Solver::CheckSat(TermFactory& f, const std::vector<Term>& raw_assertions) {
  Stopwatch watch;
  stats_ = SolverStats{};
  model_.values.clear();

  // Ground all binders over the finite scope, then flatten top-level conjunctions so each
  // conjunct prunes independently. With incremental solving on, roots seen by an earlier
  // CheckSat on this Solver (the verifier's stable per-pair frame) are served from the
  // persistent cache instead of re-expanded.
  std::vector<Term> pending;
  bool feasible;
  if (options_.incremental) {
    feasible = inc_ground_.Ground(f, options_.scope, raw_assertions, &pending,
                                  &stats_.incremental_reuse_hits, &stats_.binders_expanded);
  } else {
    Grounder grounder(&f, options_.scope);
    feasible = GroundAndFlatten(grounder, f, raw_assertions, &pending);
    stats_.binders_expanded = grounder.binders_expanded();
  }
  stats_.ground_seconds = watch.ElapsedSeconds();
  if (!feasible) {
    stats_.seconds = watch.ElapsedSeconds();
    return SolveResult::kUnsat;
  }

  // Scratch keyed by the factory's terms, on lease for this call: the domain and
  // symmetry walks, the branching memo, the saved phases, the assignment trail, and the
  // per-node substitution memo.
  ScratchMap walk(f);
  ScratchMap atom_memo(f);
  ScratchMap saved_phase(f);
  ScratchMap trail_map(f);
  ScratchMap memo(f);

  // Domains and symmetry are judged on the whole query, before the goal is split below:
  // every branch searches the same values, and prunes by the same canonical order.
  domains_.Harvest(pending, options_.max_int_domain, *walk);

  SymmetryBreaker symmetry;
  if (options_.symmetry) {
    symmetry.Analyze(raw_assertions, pending, options_.scope, *walk);
  }

  std::map<std::string, std::string>& model_values = model_.values;
  std::vector<std::pair<Term, Term>> assigned;  // (atom, literal) trail; also in trail_map

  struct Frame {
    Term atom;
    std::vector<Term> domain;
    size_t next_value = 0;
    std::vector<Term> pending;  // residual assertions before this frame's assignment
    uint64_t trail_mask = 0;    // signature bits of the trail's atoms, this one included
  };

  auto pick_atom = [&](const std::vector<Term>& ps) -> Term {
    for (Term a : ps) {
      Term atom = FindFirstAtom(a, *atom_memo);
      if (atom != nullptr) {
        return atom;
      }
    }
    return nullptr;
  };

  // Builds one frame's candidate list: the shared domain, truncated to the symmetry
  // breaker's lex-leader bound (Ref literals come in element order, so truncating by
  // index IS the value-precedence cut), with the saved phase rotated to the front.
  // Phase saving (saved_phase) is conflict-guided assignment ordering: the last value of
  // an atom that did NOT immediately conflict is tried first when the atom is re-decided
  // on another branch — backtracking over an unrelated decision usually leaves it viable.
  auto make_domain = [&](Term atom) {
    std::vector<Term> dom = domains_.LiteralsFor(f, options_.scope, atom);
    if (symmetry.active() && atom->sort()->is_ref()) {
      int ub = symmetry.MaxAllowedIndex(atom, [&](Term c) -> int {
        const Term* v = trail_map->Find(c);
        if (v == nullptr || (*v)->kind() != TermKind::kRefLit) {
          return -1;
        }
        return static_cast<int>((*v)->int_payload());
      });
      if (ub >= 0 && static_cast<size_t>(ub) + 1 < dom.size()) {
        stats_.symmetry_pruned += dom.size() - (static_cast<size_t>(ub) + 1);
        dom.resize(static_cast<size_t>(ub) + 1);
      }
    }
    if (const Term* phase = saved_phase->Find(atom)) {
      auto pos = std::find(dom.begin(), dom.end(), *phase);
      if (pos != dom.end() && pos != dom.begin()) {
        std::rotate(dom.begin(), pos, pos + 1);
      }
    }
    return dom;
  };

  auto record_model = [&]() {
    for (const auto& [atom, value] : assigned) {
      model_values[GroundAtomName(atom)] = value->ToString();
    }
  };

  // One depth-first search over `residuals`, charged against the query's one node
  // budget. It starts from an empty trail and, unless it finds a model or runs out of
  // budget, pops every frame it pushed and so leaves the trail empty again.
  auto search = [&](std::vector<Term> residuals) -> SolveResult {
    Term first = pick_atom(residuals);
    NOCTUA_CHECK_MSG(first != nullptr, "undecided ground assertion without atoms");
    stats_.num_atoms = std::max<size_t>(stats_.num_atoms, 1);

    std::vector<Frame> stack;
    stack.push_back(Frame{first, make_domain(first), 0, std::move(residuals),
                          first->atom_sig()});
    while (!stack.empty()) {
      if (++stats_.nodes_visited > options_.budget.max_nodes) {
        return SolveResult::kUnknown;
      }
      Frame& frame = stack.back();
      if (frame.next_value >= frame.domain.size()) {
        if (!assigned.empty() && assigned.back().first == frame.atom) {
          trail_map->Erase(assigned.back().first);
          assigned.pop_back();
        }
        stack.pop_back();
        continue;
      }
      Term value = frame.domain[frame.next_value++];
      if (!assigned.empty() && assigned.back().first == frame.atom) {
        assigned.back().second = value;
      } else {
        assigned.emplace_back(frame.atom, value);
      }
      trail_map->Set(frame.atom, value);

      // Substitute and simplify every residual assertion. The residuals are fixpoints of
      // the trail without this frame's atom, so the first round looks for that atom's
      // signature bit alone. The confirming rounds take the whole trail's bits: assigning
      // a Ref atom can materialize array cells that earlier frames already fixed.
      memo->Clear();
      std::vector<Term> next_pending;
      bool conflict = false;
      for (Term a : frame.pending) {
        ++stats_.evaluations;
        Term r = SubstFixpoint(f, a, *trail_map, frame.atom->atom_sig(), frame.trail_mask,
                               *memo);
        if (r->IsBoolLit(false)) {
          conflict = true;
          break;
        }
        if (r->IsBoolLit(true)) {
          continue;
        }
        if (r->kind() == TermKind::kAnd) {
          for (Term c : r->children()) {
            next_pending.push_back(c);
          }
        } else {
          next_pending.push_back(r);
        }
      }
      if (conflict) {
        continue;
      }
      saved_phase->Set(frame.atom, value);
      if (next_pending.empty()) {
        record_model();
        return SolveResult::kSat;
      }
      Term next_atom = pick_atom(next_pending);
      NOCTUA_CHECK_MSG(next_atom != nullptr, "undecided residual without atoms");
      stats_.num_atoms = std::max(stats_.num_atoms, stack.size() + 1);
      stack.push_back(Frame{next_atom, make_domain(next_atom), 0, std::move(next_pending),
                            frame.trail_mask | next_atom->atom_sig()});
    }
    return SolveResult::kUnsat;
  };

  if (pending.empty()) {
    stats_.seconds = watch.ElapsedSeconds();
    return SolveResult::kSat;  // trivially true
  }

  // The first residual is the negated goal (the checker passes it first). When it is a
  // disjunction, each disjunct gets a search of its own beside the other residuals, in
  // child order: the query is sat exactly when one branch is, and a branch never
  // enumerates the other disjuncts' regions. Splitting is sound for whatever conjunct
  // comes first; the goal is the one worth splitting. One level only; the saved phases
  // carry over from branch to branch.
  std::vector<Term> disjuncts;
  const Term goal = pending.front();
  if (goal->kind() == TermKind::kOr) {
    disjuncts.assign(goal->children().begin(), goal->children().end());
  } else if (goal->kind() == TermKind::kNot && goal->child(0)->kind() == TermKind::kAnd) {
    for (Term c : goal->child(0)->children()) {
      disjuncts.push_back(f.Not(c));
    }
  } else {
    disjuncts.push_back(goal);
  }
  SolveResult result = SolveResult::kUnsat;
  for (Term d : disjuncts) {
    std::vector<Term> branch = pending;
    branch.front() = d;
    result = search(std::move(branch));
    if (result != SolveResult::kUnsat) {
      break;
    }
  }
  stats_.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace noctua::smt
