#include "src/repl/simulator.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "src/obs/obs.h"
#include "src/support/check.h"

namespace noctua::repl {

void ConflictTable::AddPair(const std::string& a, const std::string& b) {
  pairs_.insert({std::min(a, b), std::max(a, b)});
}

bool ConflictTable::Conflicts(const std::string& a, const std::string& b) const {
  if (total_) {
    return true;
  }
  return pairs_.count({std::min(a, b), std::max(a, b)}) != 0;
}

bool ConflictTable::RemovePair(const std::string& a, const std::string& b) {
  return pairs_.erase({std::min(a, b), std::max(a, b)}) != 0;
}

namespace {

enum class EventKind : uint8_t {
  kClientIssue,      // a client issues its next request
  kAdmitArrive,      // admission request reaches the coordinator
  kGrantArrive,      // admission grant reaches the origin site
  kExecute,          // request executes at its origin site
  kEffectArrive,     // a propagated effect reaches a remote replica
  kEffectAckArrive,  // a replica's apply-ack reaches the origin
  kReleaseArrive,    // release reaches the coordinator
  kReleaseAckArrive, // the coordinator's release-ack reaches the origin
  kRetryTimer,       // origin-local retransmission timer
  kCrash,            // a replica fails
  kRestart,          // a failed replica comes back and catches up
  kAntiEntropy,      // periodic background sync applies missed effects from the log
  kRenewArrive,      // a lease renewal reaches the coordination service
  kRenewAckArrive,   // the coordinator's renewal confirmation reaches the origin
  kLeaseRenewTimer,  // origin-local renewal period while its op is still running
  kLeaseExpiryCheck, // service-side sweep for overdue leases
};

// Retransmission stages, carried in retry-timer events.
enum : uint8_t { kStageAdmit = 0, kStageEffect = 1, kStageRelease = 2 };

// Origin-side protocol state of one request.
enum class Phase : uint8_t {
  kAwaitGrant,       // admission sent, waiting for the grant
  kExecuting,        // grant received (or uncoordinated), execution scheduled
  kAwaitAcks,        // executed, waiting for per-replica effect acks
  kAwaitReleaseAck,  // release sent, waiting for the coordinator's ack
  kDone,
  kGivenUp,  // admission retries exhausted; the client moved on
};

struct PendingOp {
  int64_t id = 0;
  int site = 0;
  int client = 0;
  Request request;
  double issued_at = 0;
  bool coordinated = false;
  Phase phase = Phase::kAwaitGrant;
  bool dead = false;          // origin crashed while the request was in flight
  int64_t effect_seq = -1;    // per-origin sequence number of the committed effect
  // Fence watermark carried by a grant issued after a lease reclamation: no replica may
  // apply this op's effect until it has applied every global-log entry below it.
  int64_t effect_prereq = 0;
  // Origin-side conservative lease validity: every admit/renew SEND extends this by
  // lease_ms. The coordinator extends from the message's *arrival*, never earlier, so
  // this deadline lower-bounds the service's — executing past it is never safe.
  double lease_deadline = 0;
  int interval = -1;          // index into the omniscient grant/release interval list
  bool interval_open = false; // an omniscient [grant, release) window is open
  // Enforcement: the origin-site epoch the request was issued under (fencing identity)
  // and whether its admission degraded to the exclusive latch.
  int64_t epoch = 0;
  bool degraded = false;
  int home_shard = 0;
  int admit_attempts = 0;
  int release_attempts = 0;
  std::map<int, int> effect_attempts;  // per target replica
  std::set<int> await_acks;
  std::set<int> acked;
};

struct Event {
  double time = 0;
  EventKind kind = EventKind::kClientIssue;
  int64_t op = -1;
  int site = -1;    // kClientIssue/kEffectArrive/kEffectAckArrive/kCrash/...: subject site
  int client = -1;  // kClientIssue
  uint8_t stage = 0;  // kRetryTimer
  int attempt = 0;    // kRetryTimer
  // kRenewArrive/kRenewAckArrive: send time of the renewal being confirmed. The origin
  // may only extend its conservative lease deadline from this, never from a send.
  double stamp = 0;
  // Deterministic tie-breaking.
  int64_t seq = 0;

  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

// One committed effect in global commit order. Replica catch-up replays this log, which
// respects both per-origin sequence order and the coordinator's serialization of
// conflicting operations.
struct LogRecord {
  int64_t op = 0;
  int origin = 0;
  int64_t seq = 0;
};

// [grant, release) window of one coordinated request, recorded by the omniscient safety
// checker independently of the coordinator's own bookkeeping.
struct GrantInterval {
  double granted_at = 0;
  double released_at = 0;
  std::string endpoint;
  int64_t op = -1;
};

}  // namespace

struct Simulator::Site {
  orm::Database db;
  bool down = false;
  int64_t epoch = 0;  // bumped at every restart; fences pre-crash incarnations
  int64_t next_effect_seq = 0;             // numbering of effects this site originates
  std::vector<int64_t> expected;           // next seq expected from each origin
  std::vector<std::map<int64_t, int64_t>> gap_buffer;  // origin -> seq -> op id
  size_t log_scan = 0;                     // prefix of the global log known applied here
  size_t log_covered = 0;                  // prefix of the global log applied (any path)
  std::set<int64_t> live_ops;              // in-flight requests originated here
  explicit Site(const soir::Schema* schema, int num_sites)
      : db(schema), expected(num_sites, 0), gap_buffer(num_sites) {}
};

Simulator::Simulator(const soir::Schema& schema, const std::vector<soir::CodePath>& paths,
                     ConflictTable conflicts, SimOptions options)
    : schema_(schema), paths_(paths), conflicts_(std::move(conflicts)), options_(options) {}

SimResult Simulator::Run() {
  obs::ScopedSpan run_span("simulate", obs::kCatSim);
  soir::Interp interp(schema_);
  WorkloadGenerator workload(schema_, paths_, options_.write_ratio, options_.seed);
  // All fault decisions draw from a dedicated stream, so a fault plan never perturbs the
  // workload's randomness.
  Rng fault_rng(options_.seed ^ 0xFA017BADC0FFEEULL);

  // Replicas: identical seeded initial state, per-site striped ID allocation.
  std::vector<Site> sites;
  sites.reserve(options_.num_sites);
  orm::Database seeded(&schema_);
  WorkloadGenerator::SeedDatabase(&seeded, options_.seed_rows_per_model, options_.seed);
  for (int i = 0; i < options_.num_sites; ++i) {
    sites.emplace_back(&schema_, options_.num_sites);
    sites.back().db = seeded;
    sites.back().db.StripeNewIds(i, options_.num_sites);
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::map<int64_t, PendingOp> ops;
  int64_t next_op = 0;
  int64_t next_seq = 0;

  std::vector<LogRecord> log;
  std::vector<GrantInterval> intervals;
  // Data-plane fencing watermark. Ack-held release guarantees that a conflicting
  // successor executes only after its predecessor's effect reached every live replica;
  // lease expiry, epoch fencing, and ack give-ups all bypass that handshake, so the
  // reclaimed holder's effect may still be in flight when the successor runs. Each
  // reclamation raises this watermark to the current log tail, and every later grant
  // carries it as a prerequisite: replicas apply the fenced effect only after covering
  // the log below the watermark, restoring the cross-site order the acks would have.
  int64_t fence_watermark = 0;

  SimResult result;
  std::vector<double> latencies;  // successful requests only (see SimResult contract)
  const int coordinator_site = 0;
  result.trace.Clear(options_.num_sites);
  LeaseCoordinator coord(conflicts_, LeaseCoordinator::Options{options_.enforce.num_shards,
                                                               options_.enforce.lease_ms});

  auto coord_delay = [&](int site) {
    return site == coordinator_site ? 0.0 : options_.cross_site_latency_ms;
  };
  auto push = [&](double time, EventKind kind, int64_t op, int site = -1, int client = -1,
                  uint8_t stage = 0, int attempt = 0, double stamp = 0) {
    queue.push(Event{time, kind, op, site, client, stage, attempt, stamp, next_seq++});
  };
  // Quiescence bound: no new transmissions once the drain grace expires, so retry chains
  // terminate and the event queue empties even under persistent faults.
  auto can_send = [&](double now) {
    return now <= options_.duration_ms + options_.drain_grace_ms;
  };
  auto backoff = [&](int attempts) {
    double t = options_.retry_timeout_ms;
    for (int i = 1; i < attempts; ++i) {
      t = std::min(t * options_.retry_backoff, options_.retry_timeout_cap_ms);
    }
    return std::min(t, options_.retry_timeout_cap_ms);
  };
  // Sends one protocol message over a (possibly faulty) link and schedules its arrivals.
  // `from`/`to` use kCoordinatorEndpoint for the coordination service side.
  auto transmit = [&](double now, int from, int to, double base_delay, EventKind kind,
                      int64_t op, int site_field = -1, double stamp = 0) {
    ++result.messages_sent;
    const LinkFaults& lf = options_.faults.LinkFor(from, to);
    MessageFate fate = options_.faults.SampleFate(lf, &fault_rng);
    if (fate.dropped) {
      ++result.messages_dropped;
      return;
    }
    if (fate.copies > 1) {
      ++result.messages_duplicated;
    }
    for (int copy = 0; copy < fate.copies; ++copy) {
      double extra = options_.faults.SampleExtraDelay(lf, &fault_rng);
      push(now + base_delay + extra, kind, op, site_field, -1, 0, 0, stamp);
    }
  };

  auto record_grant = [&](PendingOp& op, double now) {
    op.interval = static_cast<int>(intervals.size());
    op.interval_open = true;
    intervals.push_back({now, std::numeric_limits<double>::infinity(),
                         op.request.path->view_name, op.id});
  };
  auto record_release = [&](PendingOp& op, double now) {
    if (op.interval >= 0 && op.interval_open) {
      intervals[op.interval].released_at = now;
      op.interval_open = false;
    }
  };

  // Processes what one coordinator call produced: grants travel back to their origins
  // (paying the service-cost model), revocations close their omniscient windows, and
  // every armed lease gets an expiry sweep scheduled. Fencing rejections are counted by
  // the coordinator's own stats, copied into the result at the end of the run.
  auto handle_coord_outcome = [&](const LeaseCoordinator::Outcome& out, double now) {
    if (!out.expired.empty()) {
      // Locks were reclaimed without the release handshake; anything the dead holders
      // committed is at or below the current log tail, so grants from here on must not
      // let their effects overtake it anywhere.
      fence_watermark = static_cast<int64_t>(log.size());
    }
    for (int64_t id : out.expired) {
      record_release(ops.at(id), now);
    }
    for (int64_t id : out.granted) {
      PendingOp& gop = ops.at(id);
      gop.effect_prereq = std::max(gop.effect_prereq, fence_watermark);
      if (!gop.interval_open) {
        record_grant(gop, now);
      }
      double cost =
          options_.enforce.acquire_overhead_ms +
          options_.enforce.per_lock_overhead_ms *
              static_cast<double>(gop.degraded
                                      ? 1
                                      : coord.NumLocks(gop.request.path->view_name));
      transmit(now, kCoordinatorEndpoint, gop.site, coord_delay(gop.site) + cost,
               EventKind::kGrantArrive, gop.id);
      push(now + options_.enforce.lease_ms + 0.001, EventKind::kLeaseExpiryCheck, -1);
    }
  };

  auto start_release = [&](PendingOp& op, double now) {
    op.phase = Phase::kAwaitReleaseAck;
    op.release_attempts = 1;
    transmit(now, op.site, kCoordinatorEndpoint, coord_delay(op.site),
             EventKind::kReleaseArrive, op.id);
    push(now + backoff(op.release_attempts), EventKind::kRetryTimer, op.id, -1, -1,
         kStageRelease, op.release_attempts);
  };

  // Applies one committed effect at a replica and advances its per-origin cursor.
  auto apply_record = [&](int s, const PendingOp& op) {
    interp.Apply(*op.request.path, op.request.args, &sites[s].db);
    result.trace.site_order[s].push_back(op.id);
  };
  // Replays every logged effect the site has not applied yet, in global commit order.
  // This is the anti-entropy / crash catch-up path; the log respects per-origin sequence
  // order and the coordinator's serialization of conflicting operations.
  auto catch_up = [&](int s) {
    Site& site = sites[s];
    for (size_t i = site.log_scan; i < log.size(); ++i) {
      const LogRecord& rec = log[i];
      if (rec.origin == s) {
        continue;  // own writes were applied at execution time
      }
      int64_t& expected = site.expected[rec.origin];
      if (rec.seq < expected) {
        continue;  // already applied via direct delivery
      }
      NOCTUA_CHECK_MSG(rec.seq == expected, "commit log has a per-origin gap");
      apply_record(s, ops.at(rec.op));
      ++expected;
      ++result.effects_replayed;
    }
    site.log_scan = log.size();
    // Buffered out-of-order deliveries below the cursor are now stale.
    for (int o = 0; o < options_.num_sites; ++o) {
      std::erase_if(site.gap_buffer[o],
                    [&](const auto& e) { return e.first < site.expected[o]; });
    }
  };

  // True once replica `s` has applied every global-log entry below `watermark`. Fenced
  // effects stay parked until then; the covered prefix only ever advances, so the check
  // resumes where it left off.
  auto fence_covered = [&](int s, int64_t watermark) {
    if (watermark <= 0) {
      return true;
    }
    Site& site = sites[s];
    while (site.log_covered < log.size()) {
      const LogRecord& rec = log[site.log_covered];
      if (rec.origin != s && rec.seq >= site.expected[rec.origin]) {
        break;
      }
      ++site.log_covered;
    }
    return static_cast<int64_t>(site.log_covered) >= watermark;
  };
  // Apply loop: drains every origin's buffer to a fixpoint, because applying one
  // origin's effect can advance the log coverage a fenced effect from a *different*
  // origin was waiting on.
  auto drain_site = [&](int s, double now) {
    Site& site = sites[s];
    bool progress = true;
    while (progress) {
      progress = false;
      for (int o = 0; o < options_.num_sites; ++o) {
        auto& buffer = site.gap_buffer[o];
        for (auto it = buffer.find(site.expected[o]); it != buffer.end();
             it = buffer.find(site.expected[o])) {
          PendingOp& next = ops.at(it->second);
          if (!fence_covered(s, next.effect_prereq)) {
            break;
          }
          apply_record(s, next);
          ++site.expected[o];
          transmit(now, s, o, options_.cross_site_latency_ms,
                   EventKind::kEffectAckArrive, next.id, s);
          buffer.erase(it);
          progress = true;
        }
      }
    }
  };
  // In-order delivery of one direct effect message at replica `s`, with idempotent
  // seq-based dedup and gap buffering. Acks every applied or already-applied effect.
  auto deliver_effect = [&](int s, PendingOp& op, double now) {
    Site& site = sites[s];
    int origin = op.site;
    int64_t& expected = site.expected[origin];
    if (op.effect_seq < expected) {
      ++result.duplicates_ignored;
      // Re-ack: the origin may have missed the first ack.
      transmit(now, s, origin, options_.cross_site_latency_ms, EventKind::kEffectAckArrive,
               op.id, s);
      return;
    }
    if (op.effect_seq > expected || !fence_covered(s, op.effect_prereq)) {
      auto [_, inserted] = site.gap_buffer[origin].insert({op.effect_seq, op.id});
      if (inserted) {
        if (op.effect_seq == expected) {
          ++result.fence_held_effects;  // in order, but fenced below the watermark
        } else {
          ++result.effect_gaps_buffered;
        }
      } else {
        ++result.duplicates_ignored;
      }
      return;
    }
    apply_record(s, op);
    ++expected;
    transmit(now, s, origin, options_.cross_site_latency_ms, EventKind::kEffectAckArrive,
             op.id, s);
    drain_site(s, now);
  };

  for (int s = 0; s < options_.num_sites; ++s) {
    for (int c = 0; c < options_.clients_per_site; ++c) {
      push(0.0, EventKind::kClientIssue, -1, s, c);
    }
  }
  for (const CrashSchedule& crash : options_.faults.crashes) {
    NOCTUA_CHECK(crash.site >= 0 && crash.site < options_.num_sites);
    push(crash.at_ms, EventKind::kCrash, -1, crash.site);
    push(crash.restart_ms, EventKind::kRestart, -1, crash.site);
  }
  for (int s = 0; s < options_.num_sites; ++s) {
    push(options_.anti_entropy_interval_ms, EventKind::kAntiEntropy, -1, s);
  }

  while (!queue.empty()) {
    Event ev = queue.top();
    queue.pop();
    if (ev.time > options_.duration_ms && ev.kind == EventKind::kClientIssue) {
      continue;  // stop issuing; drain in-flight work
    }
    switch (ev.kind) {
      case EventKind::kClientIssue: {
        if (sites[ev.site].down) {
          break;  // the replica is down; its clients respawn on restart
        }
        PendingOp op;
        op.id = next_op++;
        op.site = ev.site;
        op.client = ev.client;
        op.request = workload.Next(&sites[ev.site].db);
        op.issued_at = ev.time;
        // SC (a total table) coordinates reads too; PoR coordinates writes only.
        op.coordinated = conflicts_.total() || op.request.is_write;
        ops[op.id] = std::move(op);
        PendingOp& ref = ops.at(next_op - 1);
        ref.epoch = sites[ref.site].epoch;
        sites[ref.site].live_ops.insert(ref.id);
        if (ref.coordinated) {
          ref.home_shard = coord.HomeShard(ref.request.path->view_name);
          ref.admit_attempts = 1;
          // Sound once a grant arrives: every admit was sent at or after now, so any
          // admission the service processed renewed the lease past this.
          ref.lease_deadline = ev.time + options_.enforce.lease_ms;
          // The renew chain runs from admission, covering the queued wait too; confirmed
          // renewals are the only thing that extends the deadline later.
          push(ev.time + options_.enforce.renew_interval_ms, EventKind::kLeaseRenewTimer,
               ref.id);
          transmit(ev.time, ref.site, kCoordinatorEndpoint, coord_delay(ref.site),
                   EventKind::kAdmitArrive, ref.id);
          push(ev.time + backoff(ref.admit_attempts), EventKind::kRetryTimer, ref.id, -1, -1,
               kStageAdmit, ref.admit_attempts);
        } else {
          ref.phase = Phase::kExecuting;
          push(ev.time + options_.local_exec_ms, EventKind::kExecute, ref.id);
        }
        break;
      }
      case EventKind::kAdmitArrive: {
        if (options_.faults.CoordinatorDown(ev.time)) {
          ++result.messages_dropped;  // the service processes nothing during an outage
          break;
        }
        PendingOp& op = ops.at(ev.op);
        // No op.dead shortcut here: a real service cannot see origin death. A dead op's
        // registration is fenced by its successor epoch or reaped by its lease.
        if (!op.degraded && options_.enforce.ShardDown(op.home_shard, ev.time)) {
          ++result.messages_dropped;  // this lock shard's request queue is down
          break;
        }
        LeaseCoordinator::Outcome out = coord.Acquire(
            op.id, op.request.path->view_name, op.site, op.epoch, ev.time, op.degraded);
        handle_coord_outcome(out, ev.time);
        push(ev.time + options_.enforce.lease_ms + 0.001, EventKind::kLeaseExpiryCheck, -1);
        break;
      }
      case EventKind::kGrantArrive: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead) {
          break;
        }
        if (sites[op.site].down) {
          ++result.messages_dropped;
          break;
        }
        if (op.phase == Phase::kAwaitGrant) {
          op.phase = Phase::kExecuting;
          obs::Observe(obs::Hist::kLeaseAcquireMicros,
                       static_cast<uint64_t>((ev.time - op.issued_at) * 1000.0));
          // The renew chain has been running since admission; no new one here.
          push(ev.time + options_.local_exec_ms, EventKind::kExecute, op.id);
        } else if (op.phase == Phase::kGivenUp) {
          // The client moved on; free the coordination entry.
          if (can_send(ev.time)) {
            transmit(ev.time, op.site, kCoordinatorEndpoint, coord_delay(op.site),
                     EventKind::kReleaseArrive, op.id);
          }
        } else {
          ++result.duplicates_ignored;  // duplicated grant: never execute twice
        }
        break;
      }
      case EventKind::kExecute: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead) {
          break;
        }
        if (op.coordinated && ev.time > op.lease_deadline) {
          // The conservative lease deadline has passed: the coordinator may have
          // reclaimed the locks and granted a conflicting successor, so executing now
          // would break the serialization. Go back to admission — if the registration
          // is in fact still live, the idempotent re-acquire renews it and re-grants.
          ++result.lease_laps;
          if (op.admit_attempts >= options_.max_retries || !can_send(ev.time)) {
            op.phase = Phase::kGivenUp;
            ++result.timed_out_requests;
            sites[op.site].live_ops.erase(op.id);
            push(ev.time, EventKind::kClientIssue, -1, op.site, op.client);
            break;
          }
          op.phase = Phase::kAwaitGrant;
          ++op.admit_attempts;
          ++result.retransmissions;
          transmit(ev.time, op.site, kCoordinatorEndpoint, coord_delay(op.site),
                   EventKind::kAdmitArrive, op.id);
          push(ev.time + backoff(op.admit_attempts), EventKind::kRetryTimer, op.id, -1,
               -1, kStageAdmit, op.admit_attempts);
          break;
        }
        if (op.effect_prereq > 0 && !fence_covered(op.site, op.effect_prereq)) {
          // A fenced grant: sync with the commit log before writing, so a reclaimed
          // predecessor's effect is visible at the origin before this op overwrites it.
          catch_up(op.site);
          ++result.fence_log_syncs;
        }
        bool committed = interp.Run(*op.request.path, op.request.args, &sites[op.site].db);
        double done = ev.time;
        ++result.completed_requests;
        if (!committed) {
          ++result.aborted_requests;
        } else {
          latencies.push_back(done - op.issued_at);
        }
        sites[op.site].live_ops.erase(op.id);  // the client got its response
        if (op.request.is_write && committed) {
          ++result.committed_writes;
          op.effect_seq = sites[op.site].next_effect_seq++;
          result.trace.ops.push_back(
              {op.id, op.request.path->view_name, op.site, op.effect_seq});
          result.trace.site_order[op.site].push_back(op.id);
          log.push_back({op.id, op.site, op.effect_seq});
          // Propagate the effect to every remote replica (asynchronous).
          for (int s = 0; s < options_.num_sites; ++s) {
            if (s != op.site) {
              op.await_acks.insert(s);
              op.effect_attempts[s] = 1;
              transmit(ev.time, op.site, s, options_.cross_site_latency_ms,
                       EventKind::kEffectArrive, op.id, s);
              push(ev.time + backoff(1), EventKind::kRetryTimer, op.id, s, -1, kStageEffect,
                   1);
            }
          }
        }
        if (op.coordinated) {
          // The coordination entry is held until every live replica acked the effect, so
          // conflicting operations apply in a single global order at all sites.
          if (op.await_acks.empty()) {
            start_release(op, ev.time);
          } else {
            op.phase = Phase::kAwaitAcks;
          }
        } else {
          op.phase = Phase::kDone;
        }
        // Closed loop: the client issues its next request.
        push(ev.time, EventKind::kClientIssue, -1, op.site, op.client);
        break;
      }
      case EventKind::kEffectArrive: {
        // Remote replicas apply the propagated mutations; guards were validated at the
        // origin (paper §2.1). Deliberately no `op.dead` check: a committed effect is
        // durable state even if its origin crashed afterwards.
        if (sites[ev.site].down) {
          ++result.messages_dropped;
          break;
        }
        deliver_effect(ev.site, ops.at(ev.op), ev.time);
        break;
      }
      case EventKind::kEffectAckArrive: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead) {
          break;
        }
        if (sites[op.site].down) {
          ++result.messages_dropped;
          break;
        }
        if (!op.acked.insert(ev.site).second) {
          ++result.duplicates_ignored;
          break;
        }
        op.await_acks.erase(ev.site);
        if (op.phase == Phase::kAwaitAcks && op.await_acks.empty()) {
          start_release(op, ev.time);
        }
        break;
      }
      case EventKind::kReleaseArrive: {
        if (options_.faults.CoordinatorDown(ev.time)) {
          ++result.messages_dropped;
          break;
        }
        PendingOp& op = ops.at(ev.op);
        if (!op.degraded && options_.enforce.ShardDown(op.home_shard, ev.time)) {
          ++result.messages_dropped;
          break;
        }
        LeaseCoordinator::Outcome out = coord.Release(op.id, op.site, op.epoch, ev.time);
        if (!out.fenced) {
          record_release(op, ev.time);
        }
        handle_coord_outcome(out, ev.time);
        // Release is idempotent; ack every copy so the origin can stop retrying.
        if (!out.fenced && can_send(ev.time)) {
          transmit(ev.time, kCoordinatorEndpoint, op.site, coord_delay(op.site),
                   EventKind::kReleaseAckArrive, op.id);
        }
        break;
      }
      case EventKind::kReleaseAckArrive: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead || sites[op.site].down) {
          break;
        }
        if (op.phase == Phase::kAwaitReleaseAck) {
          op.phase = Phase::kDone;
        } else {
          ++result.duplicates_ignored;
        }
        break;
      }
      case EventKind::kRetryTimer: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead) {
          break;
        }
        switch (ev.stage) {
          case kStageAdmit: {
            if (op.phase != Phase::kAwaitGrant || ev.attempt != op.admit_attempts) {
              break;  // the grant arrived, or a newer retry chain took over
            }
            if (!op.degraded && op.admit_attempts >= options_.enforce.degrade_after_retries) {
              // The backoff budget for fine-grained admission is spent (typically a
              // downed lock shard): degrade this op to the service-global exclusive
              // latch — strong consistency for one op beats giving up.
              op.degraded = true;
            }
            if (op.admit_attempts >= options_.max_retries || !can_send(ev.time)) {
              op.phase = Phase::kGivenUp;
              ++result.timed_out_requests;
              sites[op.site].live_ops.erase(op.id);
              // Best-effort release in case a grant was issued and lost in transit.
              if (can_send(ev.time)) {
                transmit(ev.time, op.site, kCoordinatorEndpoint, coord_delay(op.site),
                         EventKind::kReleaseArrive, op.id);
              }
              // The client observes a timeout error and moves on.
              push(ev.time, EventKind::kClientIssue, -1, op.site, op.client);
              break;
            }
            ++op.admit_attempts;
            ++result.retransmissions;
            transmit(ev.time, op.site, kCoordinatorEndpoint, coord_delay(op.site),
                     EventKind::kAdmitArrive, op.id);
            push(ev.time + backoff(op.admit_attempts), EventKind::kRetryTimer, op.id, -1,
                 -1, kStageAdmit, op.admit_attempts);
            break;
          }
          case kStageEffect: {
            int target = ev.site;
            if (op.acked.count(target) || !op.await_acks.count(target) ||
                ev.attempt != op.effect_attempts[target]) {
              break;
            }
            if (op.effect_attempts[target] >= options_.max_retries ||
                !can_send(ev.time)) {
              // The replica is unreachable (typically crashed): release anyway; the
              // catch-up log replays this effect in order before it serves again.
              ++result.ack_giveups;
              // The release below skips the full ack handshake, so successors must not
              // overtake this effect at the replica that never acked it.
              fence_watermark = static_cast<int64_t>(log.size());
              op.await_acks.erase(target);
              if (op.phase == Phase::kAwaitAcks && op.await_acks.empty()) {
                start_release(op, ev.time);
              }
              break;
            }
            ++op.effect_attempts[target];
            ++result.retransmissions;
            transmit(ev.time, op.site, target, options_.cross_site_latency_ms,
                     EventKind::kEffectArrive, op.id, target);
            push(ev.time + backoff(op.effect_attempts[target]), EventKind::kRetryTimer,
                 op.id, target, -1, kStageEffect, op.effect_attempts[target]);
            break;
          }
          case kStageRelease: {
            if (op.phase != Phase::kAwaitReleaseAck ||
                ev.attempt != op.release_attempts) {
              break;
            }
            if (op.release_attempts >= options_.max_retries || !can_send(ev.time)) {
              op.phase = Phase::kDone;  // assume the coordinator processed one release
              break;
            }
            ++op.release_attempts;
            ++result.retransmissions;
            transmit(ev.time, op.site, kCoordinatorEndpoint, coord_delay(op.site),
                     EventKind::kReleaseArrive, op.id);
            push(ev.time + backoff(op.release_attempts), EventKind::kRetryTimer, op.id,
                 -1, -1, kStageRelease, op.release_attempts);
            break;
          }
        }
        break;
      }
      case EventKind::kCrash: {
        Site& site = sites[ev.site];
        if (site.down) {
          break;
        }
        site.down = true;
        ++result.replica_crashes;
        for (int64_t id : site.live_ops) {
          // Requests still awaiting a grant or execution are lost with the process.
          PendingOp& op = ops.at(id);
          op.dead = true;
          if (op.phase == Phase::kAwaitGrant || op.phase == Phase::kExecuting) {
            ++result.crash_lost_requests;
          }
        }
        site.live_ops.clear();
        // Executed-but-unreleased requests also died; their origin will never send the
        // release, so mark the whole cohort dead. Their locks are reclaimed by lease
        // expiry, or fenced away by the restart epoch.
        for (auto& [id, op] : ops) {
          if (op.site == ev.site && op.phase != Phase::kDone &&
              op.phase != Phase::kGivenUp) {
            op.dead = true;
          }
        }
        break;
      }
      case EventKind::kRestart: {
        Site& site = sites[ev.site];
        if (!site.down) {
          break;
        }
        site.down = false;
        ++site.epoch;  // the new incarnation; the coordinator fences the old one away
        ++result.replica_recoveries;
        // Anti-entropy catch-up: replay every missed effect in commit order before
        // serving clients again (restart-from-disk plus log sync).
        catch_up(ev.site);
        double ready = ev.time + options_.cross_site_latency_ms;  // sync round trip
        for (int c = 0; c < options_.clients_per_site; ++c) {
          push(ready, EventKind::kClientIssue, -1, ev.site, c);
        }
        break;
      }
      case EventKind::kAntiEntropy: {
        if (ev.time > options_.duration_ms + options_.drain_grace_ms) {
          break;  // stop the background schedule so the queue can drain
        }
        if (!sites[ev.site].down) {
          catch_up(ev.site);
        }
        push(ev.time + options_.anti_entropy_interval_ms, EventKind::kAntiEntropy, -1,
             ev.site);
        break;
      }
      case EventKind::kLeaseRenewTimer: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead || sites[op.site].down || !can_send(ev.time)) {
          break;  // the chain dies with the op / the horizon
        }
        if (op.phase != Phase::kAwaitGrant && op.phase != Phase::kExecuting &&
            op.phase != Phase::kAwaitAcks) {
          break;  // release is on its way; let the lease lapse if that gets lost
        }
        transmit(ev.time, op.site, kCoordinatorEndpoint, coord_delay(op.site),
                 EventKind::kRenewArrive, op.id, -1, ev.time);
        push(ev.time + options_.enforce.renew_interval_ms, EventKind::kLeaseRenewTimer,
             op.id);
        break;
      }
      case EventKind::kRenewArrive: {
        if (options_.faults.CoordinatorDown(ev.time)) {
          ++result.messages_dropped;
          break;
        }
        PendingOp& op = ops.at(ev.op);
        if (!op.degraded && options_.enforce.ShardDown(op.home_shard, ev.time)) {
          ++result.messages_dropped;
          break;
        }
        LeaseCoordinator::Outcome out = coord.Renew(op.id, op.site, op.epoch, ev.time);
        handle_coord_outcome(out, ev.time);
        if (out.renewed && can_send(ev.time)) {
          // Confirm with the renewal's original send time: the origin extends its
          // conservative deadline from that stamp, which the service's own extension
          // (taken at arrival, never earlier) is guaranteed to dominate.
          transmit(ev.time, kCoordinatorEndpoint, op.site, coord_delay(op.site),
                   EventKind::kRenewAckArrive, op.id, -1, ev.stamp);
        }
        break;
      }
      case EventKind::kRenewAckArrive: {
        PendingOp& op = ops.at(ev.op);
        if (op.dead || sites[op.site].down) {
          break;
        }
        op.lease_deadline =
            std::max(op.lease_deadline, ev.stamp + options_.enforce.lease_ms);
        break;
      }
      case EventKind::kLeaseExpiryCheck: {
        if (options_.faults.CoordinatorDown(ev.time) && can_send(ev.time)) {
          // The whole service is out; its failure detector resumes afterwards.
          push(ev.time + options_.retry_timeout_ms, EventKind::kLeaseExpiryCheck, -1);
          break;
        }
        LeaseCoordinator::Outcome out = coord.ExpireDue(ev.time);
        handle_coord_outcome(out, ev.time);
        break;
      }
    }
  }

  // Quiescence sync: faults have stopped; anti-entropy finishes healing every replica
  // (including one that crashed and never restarted inside the horizon) before the
  // convergence verdict.
  for (int s = 0; s < options_.num_sites; ++s) {
    catch_up(s);
  }

  result.duration_ms = options_.duration_ms;
  if (!latencies.empty()) {
    double total = 0;
    for (double l : latencies) {
      total += l;
    }
    result.avg_latency_ms = total / latencies.size();
    std::sort(latencies.begin(), latencies.end());
    size_t idx = (latencies.size() * 99 + 99) / 100;  // ceil(0.99 n)
    result.p99_latency_ms = latencies[std::min(idx, latencies.size()) - 1];
  }

  // Omniscient safety check: sweep the [grant, release) windows and count overlapping
  // conflicting pairs. Independent of the coordinator's own dedup/eviction bookkeeping,
  // so protocol bugs (double grants, leaked entries) show up here.
  std::vector<int> order(intervals.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return intervals[a].granted_at != intervals[b].granted_at
               ? intervals[a].granted_at < intervals[b].granted_at
               : a < b;
  });
  std::vector<int> open;
  for (int i : order) {
    std::erase_if(open, [&](int j) {
      return intervals[j].released_at <= intervals[i].granted_at;
    });
    for (int j : open) {
      if (conflicts_.Conflicts(intervals[i].endpoint, intervals[j].endpoint)) {
        ++result.conflict_violations;
      }
    }
    open.push_back(i);
  }

  std::set<int> order_models;
  for (const soir::CodePath& p : paths_) {
    std::set<int> m = soir::OrderRelevantModels(p);
    order_models.insert(m.begin(), m.end());
  }
  result.converged = true;
  for (int s = 1; s < options_.num_sites; ++s) {
    result.converged = result.converged && sites[0].db.SameState(sites[s].db, order_models);
  }

  const LeaseCoordinator::Stats& cs = coord.stats();
  result.lease_acquires = cs.acquires;
  result.lease_grants = cs.grants;
  result.lease_expiries = cs.expiries;
  result.fencing_rejections = cs.fencing_rejections;
  result.degradations = cs.degradations;
  result.lock_waits = cs.lock_waits;

  if (obs::Enabled()) {
    // One-shot flush of the run's message/fault/recovery counters — the event loop
    // itself carries no instrumentation.
    obs::Add(obs::Counter::kSimRequestsCompleted, result.completed_requests);
    obs::Add(obs::Counter::kSimMessagesSent, result.messages_sent);
    obs::Add(obs::Counter::kSimMessagesDropped, result.messages_dropped);
    obs::Add(obs::Counter::kSimRetransmissions, result.retransmissions);
    obs::Add(obs::Counter::kSimDuplicatesIgnored, result.duplicates_ignored);
    obs::Add(obs::Counter::kSimEffectsReplayed, result.effects_replayed);
    obs::Add(obs::Counter::kSimReplicaCrashes, result.replica_crashes);
    obs::Add(obs::Counter::kSimReplicaRecoveries, result.replica_recoveries);
    obs::Add(obs::Counter::kSimConflictViolations, result.conflict_violations);
    obs::Add(obs::Counter::kSimLeaseAcquires, result.lease_acquires);
    obs::Add(obs::Counter::kSimLeaseExpiries, result.lease_expiries);
    obs::Add(obs::Counter::kSimFencingRejections, result.fencing_rejections);
    obs::Add(obs::Counter::kSimDegradations, result.degradations);
    obs::Add(obs::Counter::kSimFenceHeldEffects, result.fence_held_effects);
    run_span.Arg("requests", result.completed_requests);
    run_span.Arg("messages", result.messages_sent);
    run_span.Arg("converged", result.converged ? 1 : 0);
  }
  return result;
}

}  // namespace noctua::repl
