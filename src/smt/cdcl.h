// A CDCL-style ground SAT backend: the second decision procedure behind SolverBackend.
//
// Where the bounded model finder (solver.h) searches by substituting atoms into the term
// DAG and letting the simplifier prune, this backend compiles the same finite question to
// clauses and runs conflict-driven clause learning over them:
//
//   * The query is grounded through GroundAndFlatten and its free constants decomposed
//     into scalar atoms (AtomTable), exactly as the evaluator sees them.
//   * Each atom gets one boolean variable per candidate value from ValueDomains — the
//     direct encoding [atom = value] — tied together by exactly-one clauses.
//   * The term-level structure of the assertions is NOT compiled to clauses. It stays a
//     lazy theory: at every propagation fixpoint the assigned atoms are substituted into
//     the assertions and the term factory's simplifier collapses the residual (the same
//     substitute-and-simplify move the model finder makes — which is what lets algebraic
//     identities like S+x+y = S+y+x prove themselves without search). An assertion whose
//     residual is literal false contributes a *nogood* (the negation of the assigned
//     support atoms) learned like any conflict clause; a residual that is still open
//     yields a decision suggestion — its first surviving atom — so the search only ever
//     branches on atoms the simplifier could not eliminate.
//   * Atoms are encoded lazily, on first appearance in a residual: substituting a Ref
//     atom can materialize new array-cell atoms, so the variable blocks grow mid-search.
//
// CdclSearch is the propositional core — two-watched-literal unit propagation, first-UIP
// conflict analysis, VSIDS-style activities, backjumping — exposed separately so unit
// tests can drive propagation and learning on hand-built formulas.
#ifndef SRC_SMT_CDCL_H_
#define SRC_SMT_CDCL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/smt/backend.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"

namespace noctua::smt {

// What the lazy theory says about the current propositional fixpoint.
enum class TheoryVerdict : uint8_t {
  kSat,         // every assertion is definitely true: a model is found
  kConsistent,  // nothing definitely false yet: keep deciding
  kConflict,    // some assertion is definitely false: learn the nogood
};

struct TheoryResult {
  TheoryVerdict verdict = TheoryVerdict::kConsistent;
  // For kConflict: a clause (over search literals) that is false under the current
  // assignment and in every other state that repeats the same support assignment.
  std::vector<int> nogood;
  // For kConsistent: the literal the theory wants decided next (-1 for none). The lazy
  // backend points at the first value of the first atom surviving in an open residual;
  // Solve prefers it over the activity heuristic.
  int decision = -1;
};

// The propositional CDCL core. Literal encoding: variable v yields literals 2v (positive)
// and 2v+1 (negative). Public primitives (NewVar/AddClause/Decide/Propagate/Analyze/
// BacktrackTo) exist so tests can exercise the machinery piecewise; Solve drives them.
//
// Determinism: given the same variables, clauses, and hook behavior, the search makes
// identical decisions (activity ties break toward the smallest variable), so verdicts are
// machine-independent under a node-only budget.
class CdclSearch {
 public:
  static int PosLit(int var) { return var << 1; }
  static int NegLit(int var) { return (var << 1) | 1; }
  static int VarOf(int lit) { return lit >> 1; }
  static bool IsNeg(int lit) { return (lit & 1) != 0; }
  static int Negate(int lit) { return lit ^ 1; }

  // Returns the new variable's index.
  int NewVar();
  int num_vars() const { return static_cast<int>(value_.size()); }

  // Adds an input clause. Must be called at decision level 0: literals already false at
  // level 0 are dropped, satisfied clauses are discarded, duplicates and tautologies are
  // handled. An empty (or contradicted-unit) result marks the instance unsat.
  // `removable` marks a derived (entailed) clause the DB reducer may later forget; input
  // clauses that define the problem must stay irremovable.
  void AddClause(std::vector<int> lits, bool removable = false);

  // Adds a clause whose literals are ALL unassigned (checked), at any decision level —
  // the lazy encoder's entry point for the exactly-one clauses of an atom discovered
  // mid-search, whose variables are necessarily fresh. Size must be >= 2.
  void AddEncodingClause(std::vector<int> lits);

  // Propagates to fixpoint. Returns the index of a conflicting clause, or -1.
  int Propagate();

  // Starts a new decision level and asserts `lit`. The literal must be unassigned.
  void Decide(int lit);

  struct Conflict {
    // Learned clause; the asserting literal is learned[0] and (when size > 1) the
    // highest-level other literal is learned[1].
    std::vector<int> learned;
    // Level to backjump to before asserting learned[0].
    int backjump_level = 0;
  };

  // First-UIP conflict analysis over a clause whose literals are all false under the
  // current assignment, at least one of them at the current (non-zero) decision level.
  Conflict Analyze(const std::vector<int>& conflict_lits);

  // Undoes all assignments above `level`.
  void BacktrackTo(int level);

  // -1 unassigned, 0 false, 1 true.
  int value(int var) const { return value_[var]; }
  int LitValue(int lit) const;
  int LevelOf(int var) const { return level_[var]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  bool unsat() const { return unsat_; }

  // Decisions + propagations: the unit Budget::max_nodes is charged against.
  uint64_t nodes() const { return nodes_; }
  uint64_t conflicts() const { return conflicts_; }
  uint64_t learned_clauses() const { return learned_; }
  uint64_t restarts() const { return restarts_; }
  uint64_t clauses_forgotten() const { return forgotten_; }

  // Enables Luby restarts: after luby(r+1) * `unit` conflicts since the last restart the
  // search backjumps to level 0, reduces the learned-clause DB by activity (keeping
  // binaries, input/encoding clauses, and reasons of level-0 assignments), and invokes
  // `on_restart` (may be null) — the hook the lazy backend uses to inject symmetric
  // images of theory nogoods at a level where AddClause is legal. `unit` == 0 disables
  // restarts (the default, which leaves pure-SAT unit tests bit-for-bit unchanged).
  void ConfigureRestarts(uint64_t unit, std::function<void()> on_restart = nullptr);

  // Unassigned variable with the highest activity (ties toward the smallest index), or
  // -1 when every variable is assigned.
  int PickBranchVar() const;

  // The CDCL loop. `theory` (may be null for pure SAT) is consulted at every conflict-free
  // propagation fixpoint; `budget` (may be null) is polled once per loop iteration and
  // aborts the search with kUnknown when it returns true.
  SolveResult Solve(const std::function<TheoryResult()>& theory,
                    const std::function<bool()>& budget);

 private:
  // Appends a clause and attaches watches on lits[0] and lits[1]. Size must be >= 2.
  int AttachClause(std::vector<int> lits, bool removable = false);
  // Assigns `lit` true with `reason_clause` (-1 for decisions / level-0 facts). Returns
  // false iff `lit` is already false.
  bool Enqueue(int lit, int reason_clause);
  void BumpVar(int var);
  void BumpClause(int ci);
  // Analyze + backtrack + learn + assert for a falsified clause at the current level.
  void ResolveConflict(const std::vector<int>& conflict_lits);
  // Restart when the Luby schedule says so: backjump to 0, reduce the DB, run the hook.
  void MaybeRestart();
  // Drops the least-active half of the removable clauses (keeping binaries and reasons
  // of level-0 assignments), rebuilding watches and remapping reasons. Level 0 only.
  void ReduceDb();

  struct Clause {
    std::vector<int> lits;
    bool removable = false;   // learned / injected: the DB reducer may drop it
    double activity = 0.0;    // bumped when the clause participates in conflict analysis
  };

  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;  // literal -> clause indices watching it
  std::vector<int8_t> value_;              // per var: -1 / 0 / 1
  std::vector<int> level_;                 // per var: assignment level
  std::vector<int> reason_;                // per var: implying clause index or -1
  std::vector<double> activity_;           // per var: VSIDS score
  std::vector<char> seen_;                 // per var: Analyze scratch
  std::vector<int> trail_;                 // assigned literals in order
  std::vector<int> trail_lim_;             // trail size at each decision level
  size_t qhead_ = 0;                       // propagation frontier into trail_
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  bool unsat_ = false;
  uint64_t nodes_ = 0;
  uint64_t conflicts_ = 0;
  uint64_t learned_ = 0;
  uint64_t restart_unit_ = 0;              // 0 = restarts disabled
  uint64_t restarts_ = 0;
  uint64_t forgotten_ = 0;
  uint64_t conflicts_at_restart_ = 0;
  std::function<void()> on_restart_;
};

// The SolverBackend adapter: grounds, encodes atoms directly, and runs CdclSearch with
// the three-valued Evaluator as the lazy theory.
class CdclBackend : public SolverBackend {
 public:
  explicit CdclBackend(SolverOptions options) : options_(std::move(options)) {}

  const char* name() const override { return "cdcl"; }
  const SmtModel& model() const override { return model_; }
  const SolverStats& stats() const override { return stats_; }

 protected:
  SolveResult DoCheck(TermFactory& factory, const std::vector<Term>& assertions) override;

 private:
  SolverOptions options_;
  SmtModel model_;
  SolverStats stats_;
  // Persistent ground cache: repeated Checks over a stable frame (the verifier's pair
  // sessions) re-ground only their fresh roots. Used when incremental solving is on.
  IncrementalGrounder inc_ground_;
};

}  // namespace noctua::smt

#endif  // SRC_SMT_CDCL_H_
