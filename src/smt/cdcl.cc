#include "src/smt/cdcl.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/smt/eval.h"
#include "src/smt/ground.h"
#include "src/support/check.h"
#include "src/support/stopwatch.h"

namespace noctua::smt {

// ---------------------------------------------------------------------------
// CdclSearch: the propositional core.
// ---------------------------------------------------------------------------

int CdclSearch::NewVar() {
  int v = num_vars();
  value_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(-1);
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.emplace_back();  // positive literal 2v
  watches_.emplace_back();  // negative literal 2v+1
  return v;
}

int CdclSearch::LitValue(int lit) const {
  int8_t v = value_[VarOf(lit)];
  if (v < 0) {
    return -1;
  }
  return (v == 1) != IsNeg(lit) ? 1 : 0;
}

void CdclSearch::AddClause(std::vector<int> lits, bool removable) {
  NOCTUA_CHECK_MSG(decision_level() == 0, "AddClause is a level-0 operation");
  if (unsat_) {
    return;
  }
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<int> kept;
  kept.reserve(lits.size());
  for (size_t i = 0; i < lits.size(); ++i) {
    // Sorted order puts 2v next to 2v+1: a tautology makes the clause vacuous.
    if (i + 1 < lits.size() && lits[i + 1] == Negate(lits[i])) {
      return;
    }
    int lv = LitValue(lits[i]);
    if (lv == 1) {
      return;  // satisfied at level 0
    }
    if (lv == -1) {
      kept.push_back(lits[i]);
    }
    // level-0 false literals are dropped
  }
  if (kept.empty()) {
    unsat_ = true;
    return;
  }
  if (kept.size() == 1) {
    if (!Enqueue(kept[0], -1)) {
      unsat_ = true;
    }
    return;
  }
  AttachClause(std::move(kept), removable);
}

void CdclSearch::AddEncodingClause(std::vector<int> lits) {
  NOCTUA_CHECK_MSG(lits.size() >= 2, "encoding clause must have >= 2 literals");
  for (int lit : lits) {
    NOCTUA_CHECK_MSG(LitValue(lit) == -1, "encoding clause over an assigned literal");
  }
  AttachClause(std::move(lits));
}

int CdclSearch::AttachClause(std::vector<int> lits, bool removable) {
  int ci = static_cast<int>(clauses_.size());
  watches_[lits[0]].push_back(ci);
  watches_[lits[1]].push_back(ci);
  clauses_.push_back(Clause{std::move(lits), removable, removable ? cla_inc_ : 0.0});
  return ci;
}

bool CdclSearch::Enqueue(int lit, int reason_clause) {
  int lv = LitValue(lit);
  if (lv == 0) {
    return false;
  }
  if (lv == 1) {
    return true;
  }
  int v = VarOf(lit);
  value_[v] = IsNeg(lit) ? 0 : 1;
  level_[v] = decision_level();
  reason_[v] = reason_clause;
  trail_.push_back(lit);
  ++nodes_;
  return true;
}

int CdclSearch::Propagate() {
  while (qhead_ < trail_.size()) {
    int p = trail_[qhead_++];  // p just became true...
    int fl = Negate(p);        // ...so fl just became false
    std::vector<int>& wl = watches_[fl];
    size_t i = 0;
    size_t j = 0;
    int conflict = -1;
    for (; i < wl.size(); ++i) {
      int ci = wl[i];
      std::vector<int>& c = clauses_[ci].lits;
      // Keep the falsified watch at position 1.
      if (c[0] == fl) {
        std::swap(c[0], c[1]);
      }
      if (LitValue(c[0]) == 1) {
        wl[j++] = ci;  // satisfied by the other watch
        continue;
      }
      bool moved = false;
      for (size_t k = 2; k < c.size(); ++k) {
        if (LitValue(c[k]) != 0) {
          std::swap(c[1], c[k]);
          watches_[c[1]].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) {
        continue;  // watch migrated to the non-false literal
      }
      wl[j++] = ci;  // all other literals false: unit or conflict
      if (LitValue(c[0]) == 0) {
        conflict = ci;
        ++i;
        break;
      }
      Enqueue(c[0], ci);
    }
    while (i < wl.size()) {
      wl[j++] = wl[i++];
    }
    wl.resize(j);
    if (conflict != -1) {
      qhead_ = trail_.size();  // drain: the conflict invalidates pending propagation
      return conflict;
    }
  }
  return -1;
}

void CdclSearch::Decide(int lit) {
  NOCTUA_CHECK_MSG(LitValue(lit) == -1, "deciding an assigned literal");
  trail_lim_.push_back(static_cast<int>(trail_.size()));
  Enqueue(lit, -1);
}

void CdclSearch::BacktrackTo(int level) {
  if (decision_level() <= level) {
    return;
  }
  size_t keep = static_cast<size_t>(trail_lim_[level]);
  for (size_t i = trail_.size(); i > keep; --i) {
    int v = VarOf(trail_[i - 1]);
    value_[v] = -1;
    reason_[v] = -1;
  }
  trail_.resize(keep);
  trail_lim_.resize(level);
  qhead_ = keep;
}

void CdclSearch::BumpVar(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) {
      a *= 1e-100;
    }
    var_inc_ *= 1e-100;
  }
}

void CdclSearch::BumpClause(int ci) {
  Clause& c = clauses_[ci];
  if (!c.removable) {
    return;  // only removable clauses compete for DB slots
  }
  c.activity += cla_inc_;
  if (c.activity > 1e100) {
    for (Clause& cl : clauses_) {
      cl.activity *= 1e-100;
    }
    cla_inc_ *= 1e-100;
  }
}

CdclSearch::Conflict CdclSearch::Analyze(const std::vector<int>& conflict_lits) {
  const int clevel = decision_level();
  NOCTUA_CHECK_MSG(clevel > 0, "conflict analysis at level 0");
  std::vector<int> learned{0};  // slot 0 is the asserting literal, filled below
  int counter = 0;
  int p = -1;
  size_t idx = trail_.size();
  const std::vector<int>* reason_lits = &conflict_lits;
  // Resolve backwards along the trail until exactly one literal of the current decision
  // level remains: the first unique implication point.
  for (;;) {
    for (int q : *reason_lits) {
      if (q == p) {
        continue;  // the implied literal of p's reason clause
      }
      int v = VarOf(q);
      if (seen_[v] == 0 && level_[v] > 0) {
        seen_[v] = 1;
        BumpVar(v);
        if (level_[v] == clevel) {
          ++counter;
        } else {
          learned.push_back(q);
        }
      }
    }
    do {
      --idx;
    } while (seen_[VarOf(trail_[idx])] == 0);
    p = trail_[idx];
    seen_[VarOf(p)] = 0;
    --counter;
    if (counter == 0) {
      break;
    }
    int rc = reason_[VarOf(p)];
    NOCTUA_CHECK_MSG(rc >= 0, "non-UIP current-level literal without a reason");
    BumpClause(rc);  // the clause earned its keep: shield it from DB reduction
    reason_lits = &clauses_[rc].lits;
  }
  learned[0] = Negate(p);
  Conflict result;
  if (learned.size() > 1) {
    // Move the highest-level remaining literal to slot 1: it defines the backjump level
    // and must hold a watch so backtracking past it re-wakes the clause.
    size_t mi = 1;
    for (size_t k = 2; k < learned.size(); ++k) {
      if (level_[VarOf(learned[k])] > level_[VarOf(learned[mi])]) {
        mi = k;
      }
    }
    std::swap(learned[1], learned[mi]);
    result.backjump_level = level_[VarOf(learned[1])];
  }
  for (size_t k = 1; k < learned.size(); ++k) {
    seen_[VarOf(learned[k])] = 0;
  }
  result.learned = std::move(learned);
  var_inc_ /= 0.95;   // decay: recent conflicts weigh more
  cla_inc_ /= 0.999;  // clause activities decay slower — DB reduction looks further back
  return result;
}

void CdclSearch::ResolveConflict(const std::vector<int>& conflict_lits) {
  ++conflicts_;
  Conflict c = Analyze(conflict_lits);
  BacktrackTo(c.backjump_level);
  ++learned_;
  if (c.learned.size() == 1) {
    bool ok = Enqueue(c.learned[0], -1);
    NOCTUA_CHECK_MSG(ok, "asserting literal false after backjump");
  } else {
    int ci = AttachClause(std::move(c.learned), /*removable=*/true);
    bool ok = Enqueue(clauses_[ci].lits[0], ci);
    NOCTUA_CHECK_MSG(ok, "asserting literal false after backjump");
  }
}

void CdclSearch::ConfigureRestarts(uint64_t unit, std::function<void()> on_restart) {
  restart_unit_ = unit;
  on_restart_ = std::move(on_restart);
  conflicts_at_restart_ = conflicts_;
}

namespace {

// The Luby sequence 1,1,2,1,1,2,4,1,... (0-indexed), the classic universal restart
// schedule: total work within a constant factor of any fixed schedule.
uint64_t LubySeq(uint64_t x) {
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) / 2;
    --seq;
    x %= size;
  }
  return uint64_t{1} << seq;
}

}  // namespace

void CdclSearch::MaybeRestart() {
  if (restart_unit_ == 0 || unsat_) {
    return;
  }
  if (conflicts_ - conflicts_at_restart_ < LubySeq(restarts_) * restart_unit_) {
    return;
  }
  BacktrackTo(0);
  ++restarts_;
  conflicts_at_restart_ = conflicts_;
  ReduceDb();
  if (on_restart_) {
    on_restart_();  // learned clauses survive; the hook may inject more at level 0
  }
}

void CdclSearch::ReduceDb() {
  NOCTUA_CHECK_MSG(decision_level() == 0, "DB reduction is a level-0 operation");
  // Reasons of level-0 assignments must survive: Analyze may still walk them.
  std::vector<char> is_reason(clauses_.size(), 0);
  for (int lit : trail_) {
    int rc = reason_[VarOf(lit)];
    if (rc >= 0) {
      is_reason[static_cast<size_t>(rc)] = 1;
    }
  }
  std::vector<int> candidates;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    const Clause& c = clauses_[i];
    if (c.removable && c.lits.size() > 2 && is_reason[i] == 0) {
      candidates.push_back(static_cast<int>(i));
    }
  }
  // Reduce only once the removable set is worth the rebuild; keep the busier half.
  constexpr size_t kReduceMin = 200;
  if (candidates.size() < kReduceMin) {
    return;
  }
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    double aa = clauses_[static_cast<size_t>(a)].activity;
    double bb = clauses_[static_cast<size_t>(b)].activity;
    return aa != bb ? aa < bb : a > b;  // least active first; newer dropped on ties
  });
  std::vector<char> drop(clauses_.size(), 0);
  size_t n_drop = candidates.size() / 2;
  for (size_t i = 0; i < n_drop; ++i) {
    drop[static_cast<size_t>(candidates[i])] = 1;
  }
  std::vector<int> remap(clauses_.size(), -1);
  std::vector<Clause> kept;
  kept.reserve(clauses_.size() - n_drop);
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (drop[i] == 0) {
      remap[i] = static_cast<int>(kept.size());
      kept.push_back(std::move(clauses_[i]));
    }
  }
  clauses_ = std::move(kept);
  for (std::vector<int>& wl : watches_) {
    wl.clear();
  }
  for (size_t i = 0; i < clauses_.size(); ++i) {
    // Watch positions 0/1 are maintained in place by propagation, so re-watching the
    // same positions reproduces the exact watch state the surviving clauses had.
    watches_[clauses_[i].lits[0]].push_back(static_cast<int>(i));
    watches_[clauses_[i].lits[1]].push_back(static_cast<int>(i));
  }
  for (size_t v = 0; v < reason_.size(); ++v) {
    if (reason_[v] >= 0) {
      reason_[v] = remap[static_cast<size_t>(reason_[v])];
      NOCTUA_CHECK_MSG(reason_[v] >= 0, "DB reduction dropped a live reason clause");
    }
  }
  forgotten_ += n_drop;
}

int CdclSearch::PickBranchVar() const {
  int best = -1;
  for (int v = 0; v < num_vars(); ++v) {
    if (value_[v] < 0 && (best == -1 || activity_[v] > activity_[best])) {
      best = v;
    }
  }
  return best;
}

SolveResult CdclSearch::Solve(const std::function<TheoryResult()>& theory,
                              const std::function<bool()>& budget) {
  if (unsat_) {
    return SolveResult::kUnsat;
  }
  for (;;) {
    int confl = Propagate();
    if (confl != -1) {
      if (decision_level() == 0) {
        unsat_ = true;
        return SolveResult::kUnsat;
      }
      BumpClause(confl);
      // ResolveConflict may attach clauses (invalidating references into clauses_), so
      // hand it a copy of the conflicting literals.
      ResolveConflict(std::vector<int>(clauses_[confl].lits));
      MaybeRestart();
      continue;
    }
    if (budget && budget()) {
      return SolveResult::kUnknown;
    }
    if (theory) {
      TheoryResult tr = theory();
      if (tr.verdict == TheoryVerdict::kSat) {
        return SolveResult::kSat;
      }
      if (tr.verdict == TheoryVerdict::kConsistent && tr.decision >= 0) {
        Decide(tr.decision);
        continue;
      }
      if (tr.verdict == TheoryVerdict::kConflict) {
        // The nogood is false under the current assignment, but its literals may all
        // live below the current level; analysis requires a current-level literal, so
        // first backjump to the deepest level the nogood mentions.
        int maxl = 0;
        for (int q : tr.nogood) {
          maxl = std::max(maxl, level_[VarOf(q)]);
        }
        if (tr.nogood.empty() || maxl == 0) {
          unsat_ = true;  // falsified by level-0 facts alone
          return SolveResult::kUnsat;
        }
        BacktrackTo(maxl);
        ResolveConflict(tr.nogood);
        MaybeRestart();
        continue;
      }
    }
    int v = PickBranchVar();
    if (v == -1) {
      // Complete conflict-free assignment. With a theory hook this is unreachable in
      // practice (a total assignment evaluates every assertion to a known value, so the
      // hook answers kSat or kConflict), but it is the sat condition for pure SAT.
      return SolveResult::kSat;
    }
    // Always try "true" first: for the direct [atom = value] encoding a positive decision
    // fixes an atom and lets exactly-one clauses propagate the siblings false.
    Decide(PosLit(v));
  }
}

// ---------------------------------------------------------------------------
// CdclBackend: lazy direct encoding + substitute-and-simplify theory.
// ---------------------------------------------------------------------------

namespace {

// Renames elements a <-> b of `model`'s Ref sort throughout `t`, rebuilding through the
// factory's smart constructors (hash-consing keeps unchanged subterms shared). For a
// symmetry-clean model this renaming is an automorphism of the grounded formula, so the
// image of an entailed nogood is itself entailed.
Term PermuteRefs(TermFactory& f, Term t, int model, int a, int b) {
  if (t->kind() == TermKind::kRefLit) {
    if (t->sort()->is_ref() && t->sort()->model_id() == model) {
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
  ChildBuffer kids(t->children().size());
  bool changed = false;
  for (size_t i = 0; i < t->children().size(); ++i) {
    kids[i] = PermuteRefs(f, t->child(i), model, a, b);
    changed = changed || kids[i] != t->child(i);
  }
  return changed ? RebuildTerm(f, t, kids.span()) : t;
}

}  // namespace

SolveResult CdclBackend::DoCheck(TermFactory& factory, const std::vector<Term>& assertions) {
  Stopwatch watch;
  stats_ = SolverStats{};
  model_.values.clear();
  const Budget& budget = options_.budget;
  Deadline deadline = budget.timeout_seconds > 0 && !budget.deterministic
                          ? Deadline::AfterSeconds(budget.timeout_seconds)
                          : Deadline::Never();

  std::vector<Term> pending;
  bool feasible;
  if (IncrementalEnabled(options_)) {
    feasible = inc_ground_.Ground(factory, options_.scope, assertions, &pending,
                                  &stats_.incremental_reuse_hits, &stats_.binders_expanded);
  } else {
    Grounder grounder(&factory, options_.scope);
    feasible = GroundAndFlatten(grounder, factory, assertions, &pending);
    stats_.binders_expanded = grounder.binders_expanded();
  }
  if (!feasible) {
    stats_.seconds = watch.ElapsedSeconds();
    return SolveResult::kUnsat;
  }
  if (pending.empty()) {
    stats_.seconds = watch.ElapsedSeconds();
    return SolveResult::kSat;
  }

  // Scratch keyed by the factory's terms, on lease for this call: the domain and
  // symmetry walks, and the theory's assignment, substitution memo and branching memo.
  ScratchMap walk(factory);
  ScratchMap values(factory);
  ScratchMap memo(factory);
  ScratchMap atom_memo(factory);

  ValueDomains domains;
  domains.Harvest(pending, options_.max_int_domain, options_.max_string_domain, *walk);

  SymmetryBreaker symmetry;
  if (SymmetryEnabled(options_)) {
    symmetry.Analyze(assertions, pending, options_.scope, *walk);
  }

  // Per-assertion support approximation: the constants an assertion mentions. Every atom
  // that can influence its residual — including array cells materialized mid-search —
  // has its base constant in this set, so nogoods quantify over assigned atoms with a
  // mentioned base, never the whole registry.
  std::vector<std::unordered_set<Term>> consts_of(pending.size());
  for (size_t ai = 0; ai < pending.size(); ++ai) {
    std::unordered_set<Term> seen;
    std::vector<Term> stack{pending[ai]};
    while (!stack.empty()) {
      Term t = stack.back();
      stack.pop_back();
      if (!seen.insert(t).second) {
        continue;
      }
      if (t->kind() == TermKind::kConst) {
        consts_of[ai].insert(t);
      }
      for (Term c : t->children()) {
        stack.push_back(c);
      }
    }
  }
  auto base_const = [](Term atom) {
    while (atom->kind() != TermKind::kConst) {
      atom = atom->child(0);
    }
    return atom;
  };

  // Lazy direct encoding: atoms get their variable block (one per candidate value, tied
  // by exactly-one clauses) the first time they survive in a residual. An atom with a
  // single candidate value gets no variables at all — it is a fact, substituted always.
  CdclSearch search;
  std::vector<Term> atom_terms;            // discovered atoms, first-appearance order
  std::vector<std::vector<Term>> lits_of;  // atom id -> candidate literal terms
  std::vector<std::vector<int>> vars_of;   // atom id -> variable block ({} for facts)
  std::unordered_map<Term, int> atom_id;
  std::vector<std::pair<Term, Term>> forced;  // the facts, as a standing substitution
  // Variable -> (atom id, value index): the decode table the symmetric-nogood multiplier
  // uses to lift propositional nogood literals back to [atom = value] facts.
  std::vector<std::pair<int, int>> var_origin;

  auto ensure_atom = [&](Term atom) -> int {
    auto it = atom_id.find(atom);
    if (it != atom_id.end()) {
      return it->second;
    }
    int id = static_cast<int>(atom_terms.size());
    atom_id.emplace(atom, id);
    atom_terms.push_back(atom);
    std::vector<Term> lits = domains.LiteralsFor(factory, options_.scope, atom);
    std::vector<int> block;
    if (lits.size() == 1) {
      forced.emplace_back(atom, lits[0]);
    } else {
      block.reserve(lits.size());
      std::vector<int> alo;
      alo.reserve(lits.size());
      for (size_t j = 0; j < lits.size(); ++j) {
        int v = search.NewVar();
        block.push_back(v);
        alo.push_back(CdclSearch::PosLit(v));
        var_origin.emplace_back(id, static_cast<int>(j));
      }
      // At least one value, at most one value (pairwise; domains are bounded and small).
      search.AddEncodingClause(std::move(alo));
      for (size_t j = 0; j < block.size(); ++j) {
        for (size_t k = j + 1; k < block.size(); ++k) {
          search.AddEncodingClause(
              {CdclSearch::NegLit(block[j]), CdclSearch::NegLit(block[k])});
        }
      }
    }
    lits_of.push_back(std::move(lits));
    vars_of.push_back(std::move(block));
    return id;
  };

  // Symmetry reduction, propositional form. The governed Ref constants of each clean
  // model get their variable blocks eagerly (at level 0, where AddClause is legal) and
  // value-precedence canonicity is compiled to clauses:
  //   * rank 0 is pinned to element #0 (unit);
  //   * rank t can never exceed element #t (units excluding v > t);
  //   * rank t taking element v >= 2 requires some earlier rank to have taken v-1
  //     (v = 1 is subsumed: rank 0 already holds element #0).
  // These clauses are not formula-entailed — they select the lex-leader representative of
  // each model orbit — so they are input (irremovable) clauses, and the learned clauses
  // that resolve against them must never be permuted (see the nogood multiplier below).
  if (symmetry.active()) {
    for (const SymmetryBreaker::Group& g : symmetry.groups()) {
      std::vector<int> blocks;  // flattened [rank][value] -> var, rank-major
      size_t width = 0;
      for (Term c : g.consts) {
        int id = ensure_atom(c);
        if (vars_of[id].empty()) {
          blocks.clear();
          break;  // a forced constant breaks the rank numbering; skip the group
        }
        width = vars_of[id].size();
        blocks.insert(blocks.end(), vars_of[id].begin(), vars_of[id].end());
      }
      if (blocks.empty()) {
        continue;
      }
      auto var_at = [&](size_t rank, size_t v) { return blocks[rank * width + v]; };
      size_t ranks = g.consts.size();
      search.AddClause({CdclSearch::PosLit(var_at(0, 0))});
      stats_.symmetry_pruned += width - 1;
      for (size_t t = 1; t < ranks; ++t) {
        for (size_t v = t + 1; v < width; ++v) {
          search.AddClause({CdclSearch::NegLit(var_at(t, v))});
          ++stats_.symmetry_pruned;
        }
        for (size_t v = 2; v <= t && v < width; ++v) {
          std::vector<int> precede{CdclSearch::NegLit(var_at(t, v))};
          for (size_t j = 0; j < t; ++j) {
            precede.push_back(CdclSearch::PosLit(var_at(j, v - 1)));
          }
          search.AddClause(std::move(precede));
          ++stats_.symmetry_pruned;
        }
      }
    }
  }

  // The symmetric-nogood multiplier: every theory nogood is formula-entailed, and a
  // transposition of a clean model's elements is a formula automorphism, so the permuted
  // image of a nogood is also entailed — queue it and inject at the next restart (level
  // 0, where AddClause is legal). Only theory nogoods qualify: clauses learned by Analyze
  // may resolve against the canonicity clauses above, which are NOT symmetric.
  std::vector<std::vector<int>> sym_queue;
  constexpr size_t kMaxSymNogood = 8;
  constexpr size_t kMaxSymQueue = 256;
  auto queue_symmetric_images = [&](const std::vector<int>& nogood) {
    if (!symmetry.active() || nogood.empty() || nogood.size() > kMaxSymNogood) {
      return;
    }
    for (const SymmetryBreaker::Group& g : symmetry.groups()) {
      int k = options_.scope.RefSize(g.model_id);
      for (int a = 0; a < k && sym_queue.size() < kMaxSymQueue; ++a) {
        for (int b = a + 1; b < k && sym_queue.size() < kMaxSymQueue; ++b) {
          std::vector<int> image;
          image.reserve(nogood.size());
          bool ok = true;
          bool changed = false;
          for (int lit : nogood) {
            int var = CdclSearch::VarOf(lit);
            auto [aid, vidx] = var_origin[var];
            Term patom = PermuteRefs(factory, atom_terms[aid], g.model_id, a, b);
            Term pval = PermuteRefs(factory, lits_of[aid][vidx], g.model_id, a, b);
            if (patom == atom_terms[aid] && pval == lits_of[aid][vidx]) {
              image.push_back(lit);
              continue;
            }
            changed = true;
            int pid = ensure_atom(patom);
            const std::vector<int>& pblock = vars_of[pid];
            const std::vector<Term>& plits = lits_of[pid];
            size_t pj = plits.size();
            for (size_t j = 0; j < plits.size(); ++j) {
              if (plits[j] == pval) {
                pj = j;
                break;
              }
            }
            if (pblock.empty() || pj == plits.size()) {
              ok = false;  // permuted fact, or value outside the permuted atom's domain
              break;
            }
            image.push_back(CdclSearch::NegLit(pblock[pj]));
          }
          if (ok && changed) {
            sym_queue.push_back(std::move(image));
          }
        }
      }
    }
  };

  // The lazy theory: substitute every atom the propositional state has fixed into the
  // assertions and let the simplifier collapse the residuals. Literal false => nogood
  // over the assigned support atoms; all literal true => model found; otherwise suggest
  // deciding the first atom surviving in the first open residual (the model finder's
  // branching rule, which never touches atoms the simplifier eliminated).
  auto theory = [&]() -> TheoryResult {
    for (;;) {
      // The assertions are substituted from scratch, so every round may meet any atom:
      // the mask covers every assigned atom.
      uint64_t mask = 0;
      values->Clear();
      for (const auto& [atom, lit] : forced) {
        values->Set(atom, lit);
        mask |= atom->atom_sig();
      }
      for (size_t i = 0; i < atom_terms.size(); ++i) {
        const std::vector<int>& block = vars_of[i];
        for (size_t j = 0; j < block.size(); ++j) {
          if (search.value(block[j]) == 1) {
            values->Set(atom_terms[i], lits_of[i][j]);
            mask |= atom_terms[i]->atom_sig();
            break;
          }
        }
      }
      memo->Clear();
      atom_memo->Clear();
      Term branch_atom = nullptr;
      bool all_true = true;
      for (size_t ai = 0; ai < pending.size(); ++ai) {
        ++stats_.evaluations;
        Term r = SubstFixpoint(factory, pending[ai], *values, mask, mask, *memo);
        if (r->IsBoolLit(true)) {
          continue;
        }
        if (r->IsBoolLit(false)) {
          TheoryResult out;
          out.verdict = TheoryVerdict::kConflict;
          for (size_t i = 0; i < atom_terms.size(); ++i) {
            const std::vector<int>& block = vars_of[i];
            if (block.empty() || consts_of[ai].count(base_const(atom_terms[i])) == 0) {
              continue;
            }
            for (size_t j = 0; j < block.size(); ++j) {
              if (search.value(block[j]) == 1) {
                out.nogood.push_back(CdclSearch::NegLit(block[j]));
                break;
              }
            }
          }
          queue_symmetric_images(out.nogood);
          return out;
        }
        all_true = false;
        if (branch_atom == nullptr) {
          branch_atom = FindFirstAtom(r, *atom_memo);
          NOCTUA_CHECK_MSG(branch_atom != nullptr, "undecided residual without atoms");
        }
      }
      if (all_true) {
        return TheoryResult{TheoryVerdict::kSat, {}, -1};
      }
      int id = ensure_atom(branch_atom);
      if (vars_of[id].empty()) {
        continue;  // a fact joined `forced`: substitute it and re-simplify
      }
      for (int var : vars_of[id]) {
        if (search.value(var) == -1) {
          TheoryResult out;
          out.decision = CdclSearch::PosLit(var);
          return out;
        }
      }
      NOCTUA_UNREACHABLE("open residual atom with no decidable value");
    }
  };

  auto over_budget = [&]() {
    return search.nodes() > budget.max_nodes || deadline.Expired();
  };

  // Luby restarts with activity-based DB reduction; the restart hook drains the queued
  // symmetric nogood images (removable: the reducer may forget them again).
  search.ConfigureRestarts(100, [&]() {
    for (std::vector<int>& cl : sym_queue) {
      search.AddClause(std::move(cl), /*removable=*/true);
    }
    sym_queue.clear();
  });

  SolveResult result = search.Solve(theory, over_budget);
  stats_.nodes_visited = search.nodes();
  stats_.num_atoms = atom_terms.size();
  stats_.conflicts = search.conflicts();
  stats_.learned_clauses = search.learned_clauses();
  stats_.restarts = search.restarts();
  stats_.clauses_forgotten = search.clauses_forgotten();
  if (result == SolveResult::kSat) {
    for (size_t i = 0; i < atom_terms.size(); ++i) {
      const std::vector<int>& block = vars_of[i];
      for (size_t j = 0; j < block.size(); ++j) {
        if (search.value(block[j]) == 1) {
          model_.values[GroundAtomName(atom_terms[i])] = lits_of[i][j]->ToString();
          break;
        }
      }
    }
    for (const auto& [atom, lit] : forced) {
      model_.values[GroundAtomName(atom)] = lit->ToString();
    }
  }
  stats_.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace noctua::smt
