// A bounded model finder: the production decision procedure behind the SolverBackend
// interface (backend.h).
//
// This plays the role Z3 plays in the paper. The verifier's checking rules are refutation
// queries — "is there a database state and arguments that break commutativity /
// invalidate a precondition?" — and real counterexamples to such properties are small
// (the small-scope hypothesis; every conflict in the paper's case studies is exhibited
// with at most two objects per model). The solver therefore searches all assignments over
// a finite scope:
//
//   * Ref sorts range over k elements per model (Scope).
//   * Int atoms range over a domain harvested from the formula's integer literals
//     (each literal ±1, plus 0 and 1) — sufficient to cross any comparison threshold.
//   * String atoms range over the formula's string literals plus two fresh symbols distinct
//     from all of them.
//   * Bool atoms range over {false, true}.
//
// Search is depth-first over atoms (the decomposed scalar unknowns, see eval.h) with
// three-valued evaluation for pruning: after each assignment, pending assertions are
// re-evaluated; any definitely-false assertion prunes the subtree, and assertions that
// become definitely-true are dropped from deeper levels.
//
// Re-evaluation is substitute-and-simplify (SubstFixpoint, ground.h), pruned by atom
// signatures (term.h): a subterm whose signature misses every bit being substituted is
// kept as it is, unvisited. A frame's residual assertions are fixpoints of the trail
// above it, so they hold no assigned atom, and the first round after assigning an atom
// looks for that atom's bit alone. Only the confirming rounds, which catch atoms that
// assigning a Ref atom materializes, take the whole trail's bits. The results are the
// unpruned ones term for term, and SolverStats::evaluations still counts one per residual
// assertion per node, however little of it the pruned walk visits.
//
// kSat means a counterexample was found (the check FAILS); kUnsat means the property holds
// within the scope; kUnknown means the node budget (budget.h) was exhausted, which the
// verifier treats conservatively (restrict the pair), as the paper treats its 2 s Z3
// timeout. The budget counts search nodes, not seconds, so the verdict never depends on
// machine speed or load.
#ifndef SRC_SMT_SOLVER_H_
#define SRC_SMT_SOLVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/smt/budget.h"
#include "src/smt/eval.h"
#include "src/smt/ground.h"
#include "src/smt/term.h"

namespace noctua::smt {

enum class SolveResult { kSat, kUnsat, kUnknown };

const char* SolveResultName(SolveResult r);

// A satisfying assignment, reported atom-by-atom (atom names encode the constant, domain
// index and tuple field, e.g. "S0_User_data[1].2"). Only atoms the search actually
// decided appear; everything else is unconstrained.
struct SmtModel {
  std::map<std::string, std::string> values;

  std::string ToString() const;
};

struct SolverStats {
  // Search nodes (DFS assignments): the unit Budget's max_nodes is charged against.
  uint64_t nodes_visited = 0;
  uint64_t evaluations = 0;
  double seconds = 0;
  size_t num_atoms = 0;
  // Binder expansions performed while grounding this query's assertions.
  uint64_t binders_expanded = 0;
  // Root assertions whose grounding this Check served from the backend's persistent
  // ground cache instead of re-expanding (incremental solving, see IncrementalGrounder).
  uint64_t incremental_reuse_hits = 0;
  // Work removed by lex-leader symmetry reduction: candidate values dropped from DFS
  // frames.
  uint64_t symmetry_pruned = 0;
};

class SolverBackend;
struct SolverOptions;
// Builds a decision procedure for SolverOptions::backend (see MakeBackend, backend.h).
using BackendFactory = std::unique_ptr<SolverBackend> (*)(const SolverOptions&);

struct SolverOptions {
  Scope scope{2};
  Budget budget;
  int max_int_domain = 8;
  // The decision procedure that answers checks: nullptr is the model finder ("dfs"), the
  // one production solver. Tests plug in the Z3 oracle (tests/z3_oracle.h) here.
  BackendFactory backend = nullptr;
  // Lex-leader symmetry reduction over the k interchangeable instances of each model
  // sort, and reuse of grounding work across Checks on one backend instance. Both are
  // verdict-preserving; tests and benches turn them off to run the unoptimized model
  // finder as a reference.
  bool symmetry = true;
  bool incremental = true;
};

// The finite value space one query's search ranges over, harvested from the query's own
// literals. Every backend MUST build its candidate values through this class: the model
// finder's agreement with the Z3 oracle (tests/z3_oracle.h) relies on both deciding
// satisfiability over identical domains.
class ValueDomains {
 public:
  // Harvests int/string literals from the grounded assertions and assembles the bounded
  // domains described in the header comment. `seen` is the walk's scratch.
  void Harvest(const std::vector<Term>& roots, int max_int_domain, TermMap& seen);

  const std::vector<int64_t>& ints() const { return int_domain_; }
  const std::vector<std::string>& strings() const { return string_domain_; }

  // Candidate value literals for one ground atom term (the DFS substitution search).
  std::vector<Term> LiteralsFor(TermFactory& f, const Scope& scope, Term atom) const;

 private:
  std::vector<int64_t> int_domain_;
  std::vector<std::string> string_domain_;
};

// Lex-leader symmetry reduction over the k interchangeable elements of each model's Ref
// sort (the ROADMAP's DPOR move applied to value symmetry). A query never distinguishes
// the elements of a Ref sort by name unless an assertion mentions a concrete element —
// an explicit kRefLit, or a kArgExtreme binder (whose grounding breaks ties by element
// order and picks element 0 for empty sets). For every *clean* model sort the full
// symmetric group acts on satisfying assignments: permuting element names in every
// Ref-valued atom and simultaneously relocating the array cells they index maps models
// to models. It therefore suffices to search value-precedence canonical assignments of
// the sort's scalar Ref constants c_0, c_1, ... (in deterministic first-occurrence
// order): c_0 = #0, and c_t <= 1 + max_{j<t} c_j. Every orbit contains such a
// representative (sort the used element names by first use), so pruning the rest is
// verdict-preserving.
//
// Cleanliness is judged on the RAW pre-grounding assertions: after grounding, element
// literals are everywhere by construction, which is exactly why the check must happen
// before.
class SymmetryBreaker {
 public:
  // Computes dirty models from `raw`, then collects the governed scalar Ref constants
  // per clean model from the grounded conjuncts' atoms (first-occurrence order). `seen`
  // is the walks' scratch.
  void Analyze(const std::vector<Term>& raw, const std::vector<Term>& grounded,
               const Scope& scope, TermMap& seen);

  bool active() const { return !groups_.empty(); }

  struct Group {
    int model_id = -1;
    std::vector<Term> consts;  // governed scalar Ref constants, precedence order
  };
  const std::vector<Group>& groups() const { return groups_; }

  // Largest element index `atom` may be assigned under value precedence, given the
  // current assignment of its predecessors: `value_of` returns a predecessor's assigned
  // element index, or -1 while unassigned (an unassigned c_j is bounded by its canonical
  // ceiling j, which keeps the bound sound for partial assignments). Returns -1 when
  // `atom` is not a governed constant (no restriction).
  int MaxAllowedIndex(Term atom, const std::function<int(Term)>& value_of) const;

 private:
  std::unordered_map<Term, std::pair<int, int>> position_;  // const -> (group idx, rank)
  std::vector<Group> groups_;
};

class Solver {
 public:
  explicit Solver(SolverOptions options) : options_(std::move(options)) {}

  // Decides satisfiability of the conjunction of `assertions`. The factory must be the
  // one that created the terms; grounding and substitute-and-simplify build new terms
  // through it.
  SolveResult CheckSat(TermFactory& factory, const std::vector<Term>& assertions);

  // Valid after CheckSat returned kSat.
  const SmtModel& model() const { return model_; }
  const SolverStats& stats() const { return stats_; }
  const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
  SmtModel model_;
  SolverStats stats_;
  ValueDomains domains_;
  // Survives across CheckSat calls: repeated queries over a shared frame (the verifier's
  // pair sessions) re-ground only their fresh roots. Only used when incremental solving
  // is enabled; otherwise every call builds a throwaway Grounder.
  IncrementalGrounder inc_ground_;
};

}  // namespace noctua::smt

#endif  // SRC_SMT_SOLVER_H_
