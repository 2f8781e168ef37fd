// The Z3 oracle's encoding. A grounded query is quantifier-free, and every sort it uses
// has a finite shape once the scope is fixed, so each value expands into a fixed list of
// scalar Z3 terms (its parts):
//
//   * a Bool, Int or String is one part; a Ref is an Int in [0, k);
//   * a pair is its two Refs, a tuple its fields' parts in field order, an array its
//     elements' parts in domain order (the grounder's order of Ref and Pair elements);
//   * Select and Store at a symbolic index become ite chains over the index domain;
//   * an ArrayLambda, which grounding leaves in place, is its body at every element.
//
// A free constant expands into one leaf per ground atom, restricted to the atom's
// harvested domain, so Z3 searches exactly the assignments dfs does. Leaves are named by
// GroundAtomName, which is how models come back in dfs's spelling.
#include "tests/z3_oracle.h"

#include <z3++.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/smt/ground.h"
#include "src/support/check.h"
#include "src/support/stopwatch.h"

namespace noctua::smt {
namespace {

// A value's scalar terms, in layout order.
using Parts = std::vector<z3::expr>;

class Encoder {
 public:
  Encoder(z3::context& ctx, TermFactory& f, const Scope& scope, const ValueDomains& domains)
      : ctx_(ctx), f_(f), scope_(scope), domains_(domains) {}

  struct Leaf {
    Term atom;  // the ground atom the leaf stands for
    z3::expr e;
  };
  // Every leaf made so far, and the facts restricting each to its domain.
  const std::vector<Leaf>& leaves() const { return leaves_; }
  const std::vector<z3::expr>& restrictions() const { return restrictions_; }

  Parts Encode(Term t) {
    if (t->has_bound_var()) {
      return EncodeNode(t);  // depends on the bound variables' current elements
    }
    auto it = memo_.find(t);
    if (it == memo_.end()) {
      it = memo_.emplace(t, EncodeNode(t)).first;
    }
    return it->second;
  }

 private:
  size_t Width(Sort s) const {
    if (s->is_pair()) {
      return 2;
    }
    if (s->is_tuple()) {
      size_t w = 0;
      for (Sort field : s->children()) {
        w += Width(field);
      }
      return w;
    }
    if (s->is_array()) {
      return Size(s->index_sort()) * Width(s->element_sort());
    }
    return 1;
  }

  size_t Size(Sort index) const { return static_cast<size_t>(scope_.DomainSize(index)); }

  // Element j of a Ref or Pair domain, as the grounder enumerates it.
  Term Element(Sort index, size_t j) {
    if (index->is_ref()) {
      return f_.RefLit(index, static_cast<int64_t>(j));
    }
    Sort s1 = index->children()[0];
    Sort s2 = index->children()[1];
    const size_t n2 = static_cast<size_t>(scope_.RefSize(s2->model_id()));
    return f_.MkPair(f_.RefLit(s1, static_cast<int64_t>(j / n2)),
                     f_.RefLit(s2, static_cast<int64_t>(j % n2)));
  }

  // The position of a literal index in its domain; nullopt for a symbolic one.
  std::optional<size_t> ConstIndex(const Parts& idx, Sort index) const {
    int64_t v[2] = {0, 0};
    for (size_t k = 0; k < idx.size(); ++k) {
      if (!idx[k].is_numeral_i64(v[k])) {
        return std::nullopt;
      }
    }
    if (index->is_ref()) {
      return static_cast<size_t>(v[0]);
    }
    const int64_t n2 = scope_.RefSize(index->children()[1]->model_id());
    return static_cast<size_t>(v[0] * n2 + v[1]);
  }

  z3::expr Equal(const Parts& a, const Parts& b) {
    z3::expr_vector eqs(ctx_);
    for (size_t k = 0; k < a.size(); ++k) {
      eqs.push_back(a[k] == b[k]);
    }
    return eqs.size() == 1 ? eqs[0] : z3::mk_and(eqs);
  }

  static Parts Slice(const Parts& p, size_t from, size_t width) {
    auto first = p.begin() + static_cast<long>(from);
    return Parts(first, first + static_cast<long>(width));
  }

  Parts Select(const Parts& array, const Parts& idx, Sort array_sort) {
    Sort index = array_sort->index_sort();
    const size_t w = Width(array_sort->element_sort());
    if (std::optional<size_t> j = ConstIndex(idx, index)) {
      return Slice(array, *j * w, w);
    }
    // The index ranges over the domain, so the last element needs no test.
    const size_t n = Size(index);
    Parts out = Slice(array, (n - 1) * w, w);
    for (size_t j = n - 1; j-- > 0;) {
      z3::expr at = Equal(idx, Encode(Element(index, j)));
      for (size_t k = 0; k < w; ++k) {
        out[k] = z3::ite(at, array[j * w + k], out[k]);
      }
    }
    return out;
  }

  Parts Store(Parts array, const Parts& idx, const Parts& value, Sort array_sort) {
    Sort index = array_sort->index_sort();
    const size_t w = Width(array_sort->element_sort());
    std::optional<size_t> only = ConstIndex(idx, index);
    for (size_t j = 0; j < Size(index); ++j) {
      if (only.has_value() && *only != j) {
        continue;
      }
      std::optional<z3::expr> at;
      if (!only.has_value()) {
        at = Equal(idx, Encode(Element(index, j)));
      }
      for (size_t k = 0; k < w; ++k) {
        z3::expr& cell = array[j * w + k];
        cell = at.has_value() ? z3::ite(*at, value[k], cell) : value[k];
      }
    }
    return array;
  }

  // Appends the leaves of a constant, or of a cell or field of one, in layout order.
  void Expand(Term t, Parts* out) {
    Sort s = t->sort();
    if (s->is_array()) {
      for (size_t j = 0; j < Size(s->index_sort()); ++j) {
        Expand(f_.Select(t, Element(s->index_sort(), j)), out);
      }
    } else if (s->is_tuple()) {
      for (size_t i = 0; i < s->children().size(); ++i) {
        Expand(f_.Proj(t, static_cast<int64_t>(i)), out);
      }
    } else if (s->is_pair()) {
      Expand(f_.Fst(t), out);
      Expand(f_.Snd(t), out);
    } else {
      out->push_back(NewLeaf(t));
    }
  }

  z3::expr NewLeaf(Term atom) {
    Sort s = atom->sort();
    const std::string name = "a" + std::to_string(leaves_.size());
    z3::expr e = s->is_bool()     ? ctx_.bool_const(name.c_str())
                 : s->is_string() ? ctx_.string_const(name.c_str())
                                  : ctx_.int_const(name.c_str());
    if (s->is_ref()) {
      restrictions_.push_back(0 <= e && e < scope_.RefSize(s->model_id()));
    } else if (!s->is_bool()) {
      z3::expr_vector in(ctx_);
      if (s->is_int()) {
        for (int64_t v : domains_.ints()) {
          in.push_back(e == ctx_.int_val(v));
        }
      } else {
        for (const std::string& v : domains_.strings()) {
          in.push_back(e == ctx_.string_val(v.data(), static_cast<unsigned>(v.size())));
        }
      }
      restrictions_.push_back(z3::mk_or(in));
    }
    leaves_.push_back(Leaf{atom, e});
    return e;
  }

  Parts EncodeNode(Term t) {
    auto scalar = [&](size_t i) { return Encode(t->child(i))[0]; };
    switch (t->kind()) {
      case TermKind::kConst: {
        Parts out;
        Expand(t, &out);
        return out;
      }
      case TermKind::kBoundVar:
        return env_.at(t->int_payload());
      case TermKind::kBoolLit:
        return {ctx_.bool_val(t->int_payload() != 0)};
      case TermKind::kIntLit:
      case TermKind::kRefLit:
        return {ctx_.int_val(t->int_payload())};
      case TermKind::kStrLit: {
        std::string_view s = t->str_payload();
        return {ctx_.string_val(s.data(), static_cast<unsigned>(s.size()))};
      }
      case TermKind::kAnd:
      case TermKind::kOr: {
        z3::expr_vector xs(ctx_);
        for (size_t i = 0; i < t->children().size(); ++i) {
          xs.push_back(scalar(i));
        }
        return {t->kind() == TermKind::kAnd ? z3::mk_and(xs) : z3::mk_or(xs)};
      }
      case TermKind::kNot:
        return {!scalar(0)};
      case TermKind::kIte: {
        z3::expr cond = scalar(0);
        Parts out = Encode(t->child(1));
        Parts other = Encode(t->child(2));
        for (size_t k = 0; k < out.size(); ++k) {
          out[k] = z3::ite(cond, out[k], other[k]);
        }
        return out;
      }
      case TermKind::kEq:
        return {Equal(Encode(t->child(0)), Encode(t->child(1)))};
      case TermKind::kDistinct: {
        std::vector<Parts> xs;
        for (Term c : t->children()) {
          xs.push_back(Encode(c));
        }
        z3::expr_vector apart(ctx_);
        for (size_t i = 0; i < xs.size(); ++i) {
          for (size_t j = i + 1; j < xs.size(); ++j) {
            apart.push_back(!Equal(xs[i], xs[j]));
          }
        }
        return {z3::mk_and(apart)};
      }
      case TermKind::kAdd:
        return {scalar(0) + scalar(1)};
      case TermKind::kMul:
        return {scalar(0) * scalar(1)};
      case TermKind::kLt:
        return {scalar(0) < scalar(1)};
      case TermKind::kConcat:
        return {z3::concat(scalar(0), scalar(1))};
      case TermKind::kMkTuple:
      case TermKind::kMkPair: {
        Parts out;
        for (Term c : t->children()) {
          Parts p = Encode(c);
          out.insert(out.end(), p.begin(), p.end());
        }
        return out;
      }
      case TermKind::kProj: {
        Sort tuple = t->child(0)->sort();
        size_t from = 0;
        for (int64_t i = 0; i < t->int_payload(); ++i) {
          from += Width(tuple->children()[static_cast<size_t>(i)]);
        }
        return Slice(Encode(t->child(0)), from, Width(t->sort()));
      }
      case TermKind::kFst:
        return Slice(Encode(t->child(0)), 0, 1);
      case TermKind::kSnd:
        return Slice(Encode(t->child(0)), 1, 1);
      case TermKind::kConstArray: {
        Parts value = Encode(t->child(0));
        Parts out;
        for (size_t j = 0; j < Size(t->sort()->index_sort()); ++j) {
          out.insert(out.end(), value.begin(), value.end());
        }
        return out;
      }
      case TermKind::kSelect:
        return Select(Encode(t->child(0)), Encode(t->child(1)), t->child(0)->sort());
      case TermKind::kStore:
        return Store(Encode(t->child(0)), Encode(t->child(1)), Encode(t->child(2)),
                     t->sort());
      case TermKind::kArrayLambda: {
        Sort index = t->binder_sort();
        Parts out;
        for (size_t j = 0; j < Size(index); ++j) {
          env_.insert_or_assign(t->int_payload(), Encode(Element(index, j)));
          Parts body = Encode(t->child(0));
          out.insert(out.end(), body.begin(), body.end());
        }
        env_.erase(t->int_payload());
        return out;
      }
      default:
        // Quantifiers and aggregates do not survive grounding, and the factory never
        // interns Implies, Sub, Neg or Le: it rewrites them into the kinds above.
        NOCTUA_UNREACHABLE("no encoding for " + t->ToString());
    }
  }

  z3::context& ctx_;
  TermFactory& f_;
  const Scope& scope_;
  const ValueDomains& domains_;
  std::unordered_map<Term, Parts> memo_;
  std::unordered_map<int64_t, Parts> env_;  // bound variable id -> its current element
  std::vector<Leaf> leaves_;
  std::vector<z3::expr> restrictions_;
};

// A model value in dfs's spelling: 7, true, #1, "s".
std::string Spell(const z3::expr& v, Sort sort) {
  if (sort->is_bool()) {
    return v.is_true() ? "true" : "false";
  }
  if (sort->is_string()) {
    return "\"" + v.get_string() + "\"";
  }
  const std::string n = std::to_string(v.get_numeral_int64());
  return sort->is_ref() ? "#" + n : n;
}

class Z3OracleBackend : public SolverBackend {
 public:
  explicit Z3OracleBackend(const SolverOptions& options) : options_(options) {}

  const char* name() const override { return "z3"; }
  const SmtModel& model() const override { return model_; }
  const SolverStats& stats() const override { return stats_; }

  SolveResult Check(TermFactory& f, const std::vector<Term>& assertions) override {
    Stopwatch watch;
    stats_ = SolverStats{};
    model_.values.clear();
    std::vector<Term> pending;
    Grounder grounder(&f, options_.scope);
    const bool feasible = GroundAndFlatten(grounder, f, assertions, &pending);
    stats_.binders_expanded = grounder.binders_expanded();
    stats_.ground_seconds = watch.ElapsedSeconds();
    if (!feasible) {
      stats_.seconds = watch.ElapsedSeconds();
      return SolveResult::kUnsat;
    }
    ValueDomains domains;
    {
      ScratchMap walk(f);
      domains.Harvest(pending, options_.max_int_domain, *walk);
    }

    // The context is made on the first Check, so naming a backend costs nothing.
    if (ctx_ == nullptr) {
      ctx_ = std::make_unique<z3::context>();
    }
    z3::solver solver(*ctx_, z3::solver::simple());
    Encoder enc(*ctx_, f, options_.scope, domains);
    for (Term a : pending) {
      solver.add(enc.Encode(a)[0]);
    }
    for (const z3::expr& r : enc.restrictions()) {
      solver.add(r);
    }
    // The node budget is spent as Z3's resource limit, a count of its own work steps
    // that reads no clock and starts no timer thread, so the verdict is the query's alone.
    // An rlimit of 0 means no limit, so the smallest budget Z3 is given is 1.
    z3::params limit(*ctx_);
    limit.set("rlimit", static_cast<unsigned>(std::clamp<uint64_t>(
                            options_.budget.max_nodes, 1, std::numeric_limits<unsigned>::max())));
    solver.set(limit);
    const z3::check_result r = solver.check();
    stats_.num_atoms = enc.leaves().size();
    if (r == z3::sat) {
      z3::model m = solver.get_model();
      for (const Encoder::Leaf& leaf : enc.leaves()) {
        model_.values[GroundAtomName(leaf.atom)] =
            Spell(m.eval(leaf.e, true), leaf.atom->sort());
      }
    }
    stats_.seconds = watch.ElapsedSeconds();
    return r == z3::sat     ? SolveResult::kSat
           : r == z3::unsat ? SolveResult::kUnsat
                            : SolveResult::kUnknown;
  }

 private:
  SolverOptions options_;
  std::unique_ptr<z3::context> ctx_;
  SmtModel model_;
  SolverStats stats_;
};

}  // namespace

std::unique_ptr<SolverBackend> MakeZ3Oracle(const SolverOptions& options) {
  return std::make_unique<Z3OracleBackend>(options);
}

}  // namespace noctua::smt
