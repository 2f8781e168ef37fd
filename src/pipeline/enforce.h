// Bridges the analysis pipeline's output to the runtime enforcement layer: turns a
// verifier RestrictionReport into the endpoint-level ConflictTable that the simulator's
// LeaseCoordinator enforces and the trace checker validates against.
//
// This is the closing of the loop promised in the roadmap: the statically computed
// restriction set is no longer just a number in a table — it is the live input to a
// coordination protocol, and its correctness is observable (drop a restriction and the
// trace checker finds the resulting cycle; keep it intact and the chaos grid stays
// violation-free).
#ifndef SRC_PIPELINE_ENFORCE_H_
#define SRC_PIPELINE_ENFORCE_H_

#include "src/repl/simulator.h"
#include "src/verifier/report.h"

namespace noctua {

// The computed restriction set lifted to HTTP endpoints (view names), as a runtime
// conflict table. Exactly the lifting Simulator deployments coordinate with (the
// paper's §6.5 simplification: endpoint-level, not path-level, restrictions).
repl::ConflictTable EnforcementTable(const verifier::RestrictionReport& report);

}  // namespace noctua

#endif  // SRC_PIPELINE_ENFORCE_H_
