// Discrete-event geo-replication simulator for the end-to-end experiment (paper §6.5,
// Figures 10 and 11).
//
// The deployment mirrors the paper's: N sites (3 in the experiment), each holding a full
// database replica, plus a centralized coordination service that admits an operation
// only when no conflicting operation is active. Under PoR consistency the conflict
// relation is the restriction set computed by the verifier, lifted to HTTP endpoints
// (the paper's simplification: "we did not use the full analysis results, but only
// consider the HTTP endpoints"); under the strong consistency (SC) baseline the table is
// total (`ConflictTable::SetTotal`), so every request — including read-only ones — is
// coordinated and conflicts with every other.
//
// Requests are issued by closed-loop clients at each site. Uncoordinated reads execute
// locally and immediately. Coordinated requests acquire admission from the coordination
// service, execute locally, and their effects propagate asynchronously to the other
// replicas, where the extracted SOIR path is re-executed (operation replication, §2.1).
//
// The coordination service is always `LeaseCoordinator` (coord.h), and every run speaks
// one hardened protocol over the links `SimOptions::faults` describes: admission, release
// and effect messages carry capped exponential-backoff retries and op-id idempotent
// dedup; propagated effects carry per-origin sequence numbers consumed through a
// gap-detecting apply queue; effect delivery is acked per replica and the coordination
// entry is held until every live replica acked (preserving the single global order of
// conflicting operations); crashed replicas freeze their state, their locks are reclaimed
// by lease expiry or fenced away by the restart epoch, and on restart they catch up from
// the committed-effect log via anti-entropy before serving clients again. Periodic
// anti-entropy also heals deliveries that exhausted their retries, and a final quiescence
// sync closes any remaining gaps before the convergence check. The default FaultPlan is
// the paper's perfect network — fixed cross-site latency, lossless delivery, no
// failures — and injects nothing, but the same protocol runs.
#ifndef SRC_REPL_SIMULATOR_H_
#define SRC_REPL_SIMULATOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/repl/coord.h"
#include "src/repl/fault.h"
#include "src/repl/trace_check.h"
#include "src/repl/workload.h"
#include "src/soir/interp.h"

namespace noctua::repl {

// Pairs of endpoint names that must not run concurrently.
class ConflictTable {
 public:
  void AddPair(const std::string& a, const std::string& b);
  bool Conflicts(const std::string& a, const std::string& b) const;
  // Strong consistency: everything conflicts (overrides the pair set), and the simulator
  // coordinates every request under it, reads included.
  void SetTotal(bool total) { total_ = total; }
  bool total() const { return total_; }
  size_t size() const { return pairs_.size(); }
  // Removes one pair (order-insensitive); true when it was present. The mutation knob
  // for oracle testing: dropping a computed restriction must be detected downstream.
  bool RemovePair(const std::string& a, const std::string& b);
  // Canonicalized pair set (each pair stored with first <= second).
  const std::set<std::pair<std::string, std::string>>& pairs() const { return pairs_; }

 private:
  std::set<std::pair<std::string, std::string>> pairs_;
  bool total_ = false;
};

// What a run varies. The deployment's shape (3 sites of 8 clients, 1 ms between sites)
// and the protocol's timers are constants in simulator.cc.
struct SimOptions {
  double duration_ms = 2000;
  double write_ratio = 0.5;
  uint64_t seed = 42;

  // --- Fault injection -----------------------------------------------------------------
  FaultPlan faults;  // what goes wrong; default: perfect network

  // --- Coordination service (see src/repl/coord.h) -------------------------------------
  // Tuning of the sharded lease-based LeaseCoordinator that admits every coordinated
  // request: shards, lease length, degradation budget, service-cost model, outages.
  EnforceOptions enforce;
};

// Counter definitions (the accounting contract relied on by tests and benches):
//   * completed_requests — requests that finished at their origin: committed ones plus
//     guard failures. The throughput basis.
//   * aborted_requests — the guard-failure (HTTP 4xx) subset of completed_requests.
//     Their latency is EXCLUDED from avg/p99_latency_ms: the latency statistics describe
//     successful responses only, so an abort-heavy workload cannot silently skew them.
//   * timed_out_requests / crash_lost_requests — requests that never completed (admission
//     retries exhausted, or in flight on a replica when it crashed). Disjoint from
//     completed_requests.
struct SimResult {
  uint64_t completed_requests = 0;
  uint64_t committed_writes = 0;
  uint64_t aborted_requests = 0;  // guard failures (HTTP 4xx)
  double duration_ms = 0;
  double avg_latency_ms = 0;  // mean user-perceived latency of successful requests
  double p99_latency_ms = 0;  // 99th percentile of the same distribution
  bool converged = false;  // replicas reached the same state after quiescence

  // --- Protocol / fault / recovery counters ---------------------------------------------
  // Under the default (zero) FaultPlan no message is dropped or duplicated and no
  // replica crashes. messages_sent and retransmissions still count: every coordinated
  // request speaks the protocol, and a queued admission re-sends every backoff period.
  uint64_t timed_out_requests = 0;   // gave up after kMaxRetries admission attempts
  uint64_t crash_lost_requests = 0;  // in-flight requests killed by a replica crash
  uint64_t messages_sent = 0;        // transmissions, including retries and dup copies
  uint64_t messages_dropped = 0;     // lost to link faults, outages, or down replicas
  uint64_t messages_duplicated = 0;  // extra copies created by faulty links
  uint64_t retransmissions = 0;      // timeout-driven resends
  uint64_t duplicates_ignored = 0;   // deliveries discarded by op-id / seq-number dedup
  uint64_t effect_gaps_buffered = 0; // out-of-order effects parked by the apply queue
  uint64_t effects_replayed = 0;     // effects applied via anti-entropy / catch-up sync
  uint64_t ack_giveups = 0;          // per-replica effect delivery abandoned (crash)
  uint64_t replica_crashes = 0;
  uint64_t replica_recoveries = 0;
  // Omniscient safety check, independent of the coordinator's own bookkeeping: the
  // number of conflicting operation pairs whose [grant, release) windows overlapped.
  // Must be zero — a non-zero value means the protocol let restriction-set-conflicting
  // operations run concurrently.
  uint64_t conflict_violations = 0;

  // --- Coordination-service counters ---------------------------------------------------
  // lease_expiries, fencing_rejections, lease_laps and fence_held_effects stay zero
  // under the default FaultPlan; degradations can occur whenever an admission waits in
  // a queue past `enforce.degrade_after_retries` backoff periods.
  uint64_t lease_acquires = 0;      // admission registrations the coordinator accepted
  uint64_t lease_grants = 0;        // grants issued (including idempotent re-sends)
  uint64_t lease_expiries = 0;      // registrations reaped by lease expiry / fencing
  uint64_t fencing_rejections = 0;  // stale-epoch messages the coordinator rejected
  uint64_t degradations = 0;        // ops that fell back to the exclusive latch
  uint64_t lock_waits = 0;          // times an op queued on a busy pair-lock
  uint64_t fence_held_effects = 0;  // watermarked effects parked until log coverage
  uint64_t fence_log_syncs = 0;     // fenced grants that synced with the log pre-execute
  uint64_t lease_laps = 0;          // origin-side lease checks that failed at execute

  // Recorded per-site apply history; feed to CheckTrace with the *full* restriction set
  // to validate the run offline.
  ExecutionTrace trace;

  double ThroughputOpsPerSec() const {
    return duration_ms > 0 ? completed_requests / (duration_ms / 1000.0) : 0;
  }
};

class Simulator {
 public:
  Simulator(const soir::Schema& schema, const std::vector<soir::CodePath>& paths,
            ConflictTable conflicts, SimOptions options);

  SimResult Run();

 private:
  struct Site;
  const soir::Schema& schema_;
  const std::vector<soir::CodePath>& paths_;
  ConflictTable conflicts_;
  SimOptions options_;
};

}  // namespace noctua::repl

#endif  // SRC_REPL_SIMULATOR_H_
