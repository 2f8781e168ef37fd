// Search budgets, shared by every solver backend.
//
// Budget is the one struct all backends interpret identically: a wall-clock deadline, a
// node ceiling, and a determinism switch that trades the deadline for machine-independent
// verdicts.
#ifndef SRC_SMT_BUDGET_H_
#define SRC_SMT_BUDGET_H_

#include <cstdint>

namespace noctua::smt {

// How much work one satisfiability check may spend before giving up with kUnknown.
// Exceeding the budget is conservative, never unsound: the verifier restricts the pair.
struct Budget {
  // Wall-clock limit per check (the paper's 2s timeout). <= 0 disables the deadline.
  double timeout_seconds = 2.0;
  // Search-node ceiling: one node is one DFS assignment of the bounded model finder.
  uint64_t max_nodes = 50'000'000;
  // Bound the search by max_nodes only, ignoring the wall clock. Searches are
  // deterministic given the term DAG, so with this set the verdict is too — independent
  // of machine speed, CPU contention, or how many verification workers run alongside.
  // Used by tests that assert byte-identical verdicts across thread counts and backends.
  bool deterministic = false;
};

}  // namespace noctua::smt

#endif  // SRC_SMT_BUDGET_H_
