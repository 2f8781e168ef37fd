// The verifier <-> solver boundary: an abstract decision-procedure interface.
//
// The paper treats its solver as a black box behind a fixed query shape (assert a
// refutation query, ask sat/unsat under a budget, read a counterexample model). This
// header makes that boundary explicit: the verifier never names a concrete procedure.
// Production has exactly one, the bounded model finder ("dfs", solver.h). The Z3 oracle
// (tests/z3_oracle.h), a test-support library, sits behind the same interface and is the
// independent reference the cross-backend tests compare dfs against.
//
// Construction happens in exactly one place — MakeBackend — so every call site (verifier,
// tests, benches) picks its procedure through SolverOptions::backend rather than naming a
// concrete class.
//
// Soundness contract: all backends decide the *same* finite question. Each one
// preprocesses its query through GroundAndFlatten (identical grounding) and draws
// candidate values from ValueDomains (identical domains), so for any query that no
// backend abandons (kUnknown), all backends must return the same verdict. Models may
// differ — a satisfiable query can have many witnesses — but sat/unsat may not. The
// cross-backend tests check this invariant on every evaluated app.
//
// Solver tallies have one route: a backend records its work in stats(), and the verifier
// flushes that into the obs registry after every Check (verifier/checker.cc). Every
// Check returns on the thread that called it, so nothing else needs a counter.
#ifndef SRC_SMT_BACKEND_H_
#define SRC_SMT_BACKEND_H_

#include <memory>
#include <vector>

#include "src/smt/budget.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"
#include "src/support/check.h"

namespace noctua::smt {

// One decision procedure. Usage:
//
//   auto backend = MakeBackend(options);
//   backend->AssertAll(assertions);
//   SolveResult r = backend->Check(factory);
//   if (r == SolveResult::kSat) { ... backend->model() ... }
//
// Backends are single-use per Check in spirit but reusable in practice: Check decides the
// conjunction of everything asserted so far and may be called again after further
// Asserts. The factory passed to Check must be the one that created the asserted terms.
// Like TermFactory, a backend instance is not thread-safe; create one per thread.
//
// Incremental use: Push opens an assertion frame, Pop discards everything asserted since
// the matching Push. The verifier asserts one pair's common frame (axioms, shared path
// definitions) at level zero, then solves each query direction as Push / Assert(negated
// goal) / Check / Pop on the same backend instance. With incremental solving on, the
// model finder's persistent ground cache makes the repeated frame essentially free; with
// it off, every Check re-grounds its whole assertion stack.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  void Assert(Term t) { assertions_.push_back(t); }
  void AssertAll(const std::vector<Term>& ts) {
    assertions_.insert(assertions_.end(), ts.begin(), ts.end());
  }
  // Alias of Assert, matching the incremental-API naming used alongside Push/Pop.
  void AddAssertion(Term t) { Assert(t); }
  const std::vector<Term>& assertions() const { return assertions_; }

  // Opens an assertion frame: Pop removes every assertion added since the matching Push.
  void Push() { frames_.push_back(assertions_.size()); }
  void Pop() {
    NOCTUA_CHECK_MSG(!frames_.empty(), "SolverBackend::Pop without matching Push");
    assertions_.resize(frames_.back());
    frames_.pop_back();
  }
  size_t num_frames() const { return frames_.size(); }
  // Clears all assertions and frames; grounding caches inside the backend survive.
  void ResetAssertions() {
    assertions_.clear();
    frames_.clear();
  }

  // Decides satisfiability of the conjunction of all asserted terms. Assertions from the
  // innermost frame are passed to the procedure first: the newest frame holds the
  // (negated) per-query goal, and goal-first ordering is a search heuristic — the
  // solver's atom selection is then driven by what can actually refute the property.
  SolveResult Check(TermFactory& factory) {
    if (frames_.empty()) {
      return DoCheck(factory, assertions_);
    }
    std::vector<Term> ordered;
    ordered.reserve(assertions_.size());
    size_t end = assertions_.size();
    for (size_t i = frames_.size(); i-- > 0;) {
      ordered.insert(ordered.end(), assertions_.begin() + static_cast<long>(frames_[i]),
                     assertions_.begin() + static_cast<long>(end));
      end = frames_[i];
    }
    ordered.insert(ordered.end(), assertions_.begin(),
                   assertions_.begin() + static_cast<long>(end));
    return DoCheck(factory, ordered);
  }

  // Stable lower-case identifier ("dfs", "z3"): the tag verdict caches and reports use.
  virtual const char* name() const = 0;

  // Valid after Check returned kSat.
  virtual const SmtModel& model() const = 0;
  virtual const SolverStats& stats() const = 0;

 protected:
  virtual SolveResult DoCheck(TermFactory& factory, const std::vector<Term>& assertions) = 0;

 private:
  std::vector<Term> assertions_;
  std::vector<size_t> frames_;  // start index of each open Push frame
};

// THE factory: the only place backends are constructed. Returns the model finder when
// options.backend is null, else what options.backend builds.
std::unique_ptr<SolverBackend> MakeBackend(const SolverOptions& options);

}  // namespace noctua::smt

#endif  // SRC_SMT_BACKEND_H_
