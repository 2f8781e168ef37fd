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

namespace noctua::smt {

// One decision procedure. Usage:
//
//   auto backend = MakeBackend(options);
//   SolveResult r = backend->Check(factory, assertions);
//   if (r == SolveResult::kSat) { ... backend->model() ... }
//
// Each Check decides one query, passed whole; nothing carries over between Checks but
// the procedure's caches. The model finder keeps the grounding of every root it has seen
// (IncrementalGrounder), so a pair session asking its queries of one backend grounds
// their shared roots once. The factory passed to Check must be the one that created the
// terms. Like TermFactory, a backend instance is not thread-safe; create one per thread.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  // Decides satisfiability of the conjunction of `assertions`. Their order is a search
  // heuristic: callers pass the (negated) goal first, so the solver's atom selection is
  // driven by what can actually refute the property.
  virtual SolveResult Check(TermFactory& factory, const std::vector<Term>& assertions) = 0;

  // Stable lower-case identifier ("dfs", "z3"): the tag verdict caches and reports use.
  virtual const char* name() const = 0;

  // Valid after Check returned kSat.
  virtual const SmtModel& model() const = 0;
  virtual const SolverStats& stats() const = 0;
};

// THE factory: the only place backends are constructed. Returns the model finder when
// options.backend is null, else what options.backend builds.
std::unique_ptr<SolverBackend> MakeBackend(const SolverOptions& options);

}  // namespace noctua::smt

#endif  // SRC_SMT_BACKEND_H_
