// Search budgets and backend selection, shared by every solver backend.
//
// Budget is the one struct all backends interpret identically: a wall-clock deadline, a
// node ceiling, and a determinism switch that trades the deadline for machine-independent
// verdicts. BackendKind names the decision procedures that can sit behind the
// SolverBackend interface (backend.h); kAuto defers the choice to the NOCTUA_SOLVER
// environment variable so deployments flip backends without recompiling.
#ifndef SRC_SMT_BUDGET_H_
#define SRC_SMT_BUDGET_H_

#include <cstdint>
#include <string>

namespace noctua::smt {

// How much work one satisfiability check may spend before giving up with kUnknown.
// Exceeding the budget is conservative, never unsound: the verifier restricts the pair.
struct Budget {
  // Wall-clock limit per check (the paper's 2s timeout). <= 0 disables the deadline.
  double timeout_seconds = 2.0;
  // Search-node ceiling. A "node" is one unit of backend work: a DFS assignment for the
  // bounded model finder, a decision or propagation for the CDCL backend. Every backend
  // counts nodes, so this bound means the same thing whichever one answers.
  uint64_t max_nodes = 50'000'000;
  // Bound the search by max_nodes only, ignoring the wall clock. Searches are
  // deterministic given the term DAG, so with this set the verdict is too — independent
  // of machine speed, CPU contention, or how many verification workers run alongside.
  // Used by tests that assert byte-identical verdicts across thread counts and backends.
  bool deterministic = false;
};

enum class BackendKind : uint8_t {
  kAuto,  // resolve from NOCTUA_SOLVER, defaulting to kDfs
  kDfs,   // the bounded model finder: DFS over atoms with three-valued pruning
  kCdcl,  // ground SAT: unit propagation, watched literals, first-UIP learning
};

// Tri-state switch for an individual solver optimization. kAuto defers to the matching
// NOCTUA_* environment knob (which itself defaults to on); kOn/kOff pin the choice in
// code regardless of the environment. Both hot-path optimizations added on top of the
// backends — symmetry reduction and incremental grounding — are verdict-preserving, so
// the toggles exist for A/B measurement and bisection, not for correctness escape
// hatches.
enum class Toggle : uint8_t { kAuto, kOn, kOff };

// Strict parse of a toggle value: exactly "on" or "off". Returns false — leaving *out
// untouched — on anything else, including "auto", "1", "true".
bool ParseToggle(const std::string& value, Toggle* out);

// NOCTUA_SYMMETRY / NOCTUA_INCREMENTAL with the NOCTUA_THREADS parsing discipline: an
// unset variable means on, "on"/"off" are honored, and anything else is rejected with a
// one-shot stderr warning and treated as on (fail-fast on typos, never silently
// absorbed).
bool SymmetryFromEnv();
bool IncrementalFromEnv();

// Lower-case knob value, e.g. "dfs"; "auto" for kAuto.
const char* BackendKindName(BackendKind k);

// Strict parse of a backend name ("dfs" or "cdcl"); returns false — leaving
// *out untouched — on anything else, including "auto" (the sentinel is not a knob value).
bool ParseBackendKind(const std::string& name, BackendKind* out);

// The backend NOCTUA_SOLVER selects, with the NOCTUA_THREADS parsing discipline: an
// unset variable means kDfs, a valid name is honored, and anything else is rejected with
// a one-shot stderr warning rather than silently absorbed (fail-fast on typos).
BackendKind BackendKindFromEnv();

// Resolves kAuto through BackendKindFromEnv; concrete kinds pass through.
BackendKind ResolveBackendKind(BackendKind k);

}  // namespace noctua::smt

#endif  // SRC_SMT_BUDGET_H_
