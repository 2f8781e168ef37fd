// Sharded lease-based coordination service: the runtime *enforcement* of a computed
// restriction set, and the simulator's only admission path.
//
// The paper's §6.5 deployment admits a write only when no conflicting operation is
// active. This class is a protocol a real deployment could run to do that, as a
// deterministic state machine driven by the simulator's event loop. Every simulated
// history, Figures 10/11 included, comes from it:
//
//   * One **pair-lock** per restricted endpoint pair (E, F), hashed to one of
//     `num_shards` lock shards. A pair-lock is a two-mode group lock: any number of
//     E-operations may hold it concurrently, or any number of F-operations, but never
//     both — exactly the mutual exclusion the restriction (E, F) demands and nothing
//     more. A self-pair (E, E) degenerates to a mutex over E's operations.
//   * **Batched, ordered acquisition.** An operation on endpoint E needs every pair-lock
//     whose pair contains E. Locks are acquired one at a time in a global canonical
//     order (shard index, then pair name), and an operation only ever waits for a lock
//     *later* in that order than everything it already holds — the classic total-order
//     argument: no wait cycle, no deadlock. Waiters queue FIFO per lock, so no
//     starvation either.
//   * **Leases with expiry.** Every registration (queued or granted) carries a lease
//     deadline; the origin renews it while its operation is still running. A crashed or
//     partitioned holder stops renewing and its locks are reaped by ExpireDue — the
//     service's only failure detector. An expired-but-alive holder is the
//     honest failure mode: the coordinator moved on, and any resulting anomaly is the
//     trace checker's job to catch.
//   * **Epoch fencing.** Each site carries an epoch, bumped on restart. The service
//     tracks the highest epoch seen per site and rejects messages from older
//     incarnations (counted in stats().fencing_rejections); observing a *newer* epoch
//     immediately revokes every holding of the site's previous incarnation, so a
//     restarted replica can never be blocked by its own pre-crash ghosts.
//   * **Degradation to strong consistency.** When an origin has retried admission past
//     its backoff budget (an unreachable shard, or a queue wait that long: the origin
//     cannot tell them apart), it re-requests in degraded mode: the
//     operation is granted the service-global exclusive latch (compatible with nothing
//     that holds or wants any pair-lock) instead of its fine-grained locks. Strictly
//     stronger than any restriction set, hence always safe — the cost is serial
//     execution for that operation, which is the documented trade.
//
// Everything is deterministic: no clocks, no threads, no randomness. Time comes in as
// `now` arguments from the simulator, so a (plan, seed) pair replays bit-for-bit.
#ifndef SRC_REPL_COORD_H_
#define SRC_REPL_COORD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace noctua::repl {

class ConflictTable;

// Tuning of the coordination service, carried inside SimOptions.
// The renewal period and the service-cost model are constants in simulator.cc.
struct EnforceOptions {
  int num_shards = 4;       // lock shards; pair-locks hash across them
  double lease_ms = 80.0;   // lease duration granted per registration/renewal
  int degrade_after_retries = 6;    // admission attempts before degrading to exclusive

  // One lock shard's request queue unreachable during [start_ms, end_ms): admissions
  // and renewals routed to it are lost. Whole-service outages stay in FaultPlan.
  struct ShardOutage {
    int shard = 0;
    double start_ms = 0;
    double end_ms = 0;
  };
  std::vector<ShardOutage> shard_outages;

  bool ShardDown(int shard, double t_ms) const {
    for (const ShardOutage& o : shard_outages) {
      if (o.shard == shard && t_ms >= o.start_ms && t_ms < o.end_ms) {
        return true;
      }
    }
    return false;
  }
};

class LeaseCoordinator {
 public:
  struct Options {
    int num_shards = 4;
    double lease_ms = 80.0;
  };

  // The conflict table must outlive the coordinator. Pair-locks are materialized lazily
  // (first operation that needs one), so total-mode tables and syntactic
  // over-approximations work without enumerating the pair universe.
  LeaseCoordinator(const ConflictTable& conflicts, Options options);

  // Result of processing one service-side message or an expiry sweep.
  struct Outcome {
    bool fenced = false;            // message rejected: stale epoch
    bool renewed = false;           // Renew found a live registration and extended it
    std::vector<int64_t> granted;   // ops that became fully granted (send them grants)
    std::vector<int64_t> expired;   // ops revoked (lease ran out or epoch fenced away)
  };

  struct Stats {
    uint64_t acquires = 0;            // admission registrations accepted
    uint64_t grants = 0;              // grants issued (including re-sent)
    uint64_t expiries = 0;            // registrations reaped by lease expiry / fencing
    uint64_t fencing_rejections = 0;  // stale-epoch messages rejected
    uint64_t degradations = 0;        // ops granted via the exclusive latch
    uint64_t lock_waits = 0;          // times an op queued on a busy pair-lock
  };

  // Registers (or re-registers after an expiry) an admission for `op` on `endpoint`
  // from `site` at `epoch`; advances lock acquisition as far as possible. Idempotent:
  // an already-active op gets its grant re-sent (`granted` contains it again).
  // `degraded` requests the exclusive latch instead of fine-grained pair-locks.
  Outcome Acquire(int64_t op, const std::string& endpoint, int site, int64_t epoch,
                  double now, bool degraded);

  // Releases everything `op` holds and wakes whatever that unblocks. Releasing an
  // unknown (already expired / already released) op is a harmless no-op — release must
  // be idempotent under duplicated and re-sent messages.
  Outcome Release(int64_t op, int site, int64_t epoch, double now);

  // Extends `op`'s lease to now + lease_ms. Unknown ops are ignored.
  Outcome Renew(int64_t op, int site, int64_t epoch, double now);

  // Reaps every registration whose lease deadline is <= now; returns the reaped ops in
  // `expired` and any newly unblocked waiters in `granted`.
  Outcome ExpireDue(double now);

  // Shard an endpoint's admission traffic is routed to (for shard-outage modelling).
  int HomeShard(const std::string& endpoint) const;
  // Number of pair-locks an op on `endpoint` must take (the grant-cost multiplier).
  size_t NumLocks(const std::string& endpoint) const;

  bool IsActive(int64_t op) const;
  const Stats& stats() const { return stats_; }

 private:
  // Canonical identity of one pair-lock: shard first so acquisition order follows the
  // shard layout, then the pair name for a total order within a shard.
  struct LockKey {
    int shard = 0;
    std::string a;  // endpoint pair, a <= b
    std::string b;
    bool operator<(const LockKey& o) const {
      if (shard != o.shard) return shard < o.shard;
      if (a != o.a) return a < o.a;
      return b < o.b;
    }
  };

  struct Lock {
    // Which endpoint's operations currently hold the lock ("" when free). A self-pair
    // lock (a == b) additionally allows at most one holder.
    std::string side;
    std::set<int64_t> holders;
    std::deque<int64_t> waiters;  // FIFO; only the front may proceed
  };

  struct Registration {
    int64_t op = 0;
    std::string endpoint;
    int site = 0;
    int64_t epoch = 0;
    bool degraded = false;
    std::vector<LockKey> keys;  // sorted; acquired in order
    size_t next_key = 0;        // keys[0, next_key) are held
    bool active = false;        // fully granted
    bool queued = false;        // parked in wait_key's FIFO
    LockKey wait_key;
    double deadline = 0;        // lease expiry
  };

  bool Fenced(int site, int64_t epoch, Outcome* out);
  // Tries to advance `reg` through its remaining keys; returns true when fully granted.
  bool Advance(Registration* reg);
  // Frees everything `reg` holds and pulls it out of wait queues, then wakes waiters.
  void Drop(Registration* reg, Outcome* out);
  // Re-runs the wait queue of `key` after capacity was freed.
  void WakeWaiters(const LockKey& key, Outcome* out);
  bool LockCompatible(const Lock& lock, const Registration& reg) const;
  // Epilogue of every public entry point: filters revoked grants out of `out` and, when
  // NOCTUA_COORD_SELFCHECK=1, audits the full lock/registration state.
  Outcome Finish(Outcome out, const char* where) const;
  // Aborts (with the offending call site) if the service state is inconsistent: an
  // active registration not holding all its locks, a queued flag without a queue entry,
  // or two active registrations on conflicting endpoints.
  void SelfCheck(const char* where) const;
  std::vector<LockKey> KeysFor(const std::string& endpoint) const;
  bool ExclusiveLatchFree() const;
  void TryGrantDegraded(Outcome* out);

  const ConflictTable& conflicts_;
  Options options_;
  std::map<LockKey, Lock> locks_;
  std::map<int64_t, Registration> regs_;
  std::map<int, int64_t> site_epochs_;  // highest epoch seen per site
  size_t holding_regs_ = 0;             // registrations holding >= 1 lock or active
  int64_t degraded_active_ = -1;        // op currently holding the exclusive latch
  std::deque<int64_t> degraded_queue_;  // ops waiting for the latch
  Stats stats_;
};

}  // namespace noctua::repl

#endif  // SRC_REPL_COORD_H_
