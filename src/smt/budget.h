// Search budgets, shared by every solver backend.
//
// Budget is the one struct all backends interpret identically: a work ceiling, counted in
// search nodes and never read from a clock, so a verdict is a function of the query alone,
// on any machine, under any load and at any thread count.
#ifndef SRC_SMT_BUDGET_H_
#define SRC_SMT_BUDGET_H_

#include <cstdint>

namespace noctua::smt {

// How much work one satisfiability check may spend before giving up with kUnknown.
// Exceeding the budget is conservative, never unsound: the verifier restricts the pair.
struct Budget {
  // Search-node ceiling: one node is one DFS assignment of the bounded model finder. The
  // Z3 oracle spends it as Z3's deterministic resource limit (rlimit).
  uint64_t max_nodes = 50'000'000;
  // No code reads this: max_nodes is the only bound. Kept only because
  // perfbench/cold_batch.cc and perfbench/main.cc still assign it.
  bool deterministic = false;
};

}  // namespace noctua::smt

#endif  // SRC_SMT_BUDGET_H_
