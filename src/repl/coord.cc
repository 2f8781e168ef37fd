#include "src/repl/coord.h"

#include <algorithm>

#include "src/repl/simulator.h"
#include "src/support/check.h"
#include "src/support/env.h"

namespace noctua::repl {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Dropping one registration can wake a second one that the same sweep then also drops
// (e.g. two ghosts of one fenced cohort queued on the same lock). Such an op must not
// be reported as granted — its grant was revoked within the same service step.
void StripRevoked(LeaseCoordinator::Outcome* out) {
  if (out->expired.empty() || out->granted.empty()) {
    return;
  }
  std::erase_if(out->granted, [&](int64_t op) {
    return std::find(out->expired.begin(), out->expired.end(), op) != out->expired.end();
  });
}

bool SelfCheckEnabled() {
  static const bool enabled = env::FlagSet("NOCTUA_COORD_SELFCHECK");
  return enabled;
}

}  // namespace

LeaseCoordinator::LeaseCoordinator(const ConflictTable& conflicts, Options options)
    : conflicts_(conflicts), options_(options) {
  NOCTUA_CHECK(options_.num_shards >= 1);
  NOCTUA_CHECK(options_.lease_ms > 0);
}

int LeaseCoordinator::HomeShard(const std::string& endpoint) const {
  return static_cast<int>(Fnv1a(endpoint) % static_cast<uint64_t>(options_.num_shards));
}

std::vector<LeaseCoordinator::LockKey> LeaseCoordinator::KeysFor(
    const std::string& endpoint) const {
  std::vector<LockKey> keys;
  if (conflicts_.total()) {
    // Strong consistency: one global exclusive pair-lock shared by every endpoint.
    keys.push_back({0, "*", "*"});
    return keys;
  }
  for (const auto& [a, b] : conflicts_.pairs()) {
    if (a == endpoint || b == endpoint) {
      int shard = static_cast<int>(Fnv1a(a + "|" + b) %
                                   static_cast<uint64_t>(options_.num_shards));
      keys.push_back({shard, a, b});
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

size_t LeaseCoordinator::NumLocks(const std::string& endpoint) const {
  return KeysFor(endpoint).size();
}

bool LeaseCoordinator::IsActive(int64_t op) const {
  auto it = regs_.find(op);
  return it != regs_.end() && it->second.active;
}

double LeaseCoordinator::NextDeadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& [_, reg] : regs_) {
    next = std::min(next, reg.deadline);
  }
  return next;
}

bool LeaseCoordinator::LockCompatible(const Lock& lock, const Registration& reg) const {
  if (lock.holders.empty()) {
    return true;
  }
  if (lock.side.empty()) {  // exclusive (self-pair or total-mode) lock held
    return false;
  }
  return lock.side == reg.endpoint;
}

bool LeaseCoordinator::ExclusiveLatchFree() const {
  return degraded_active_ == -1 && holding_regs_ == 0;
}

bool LeaseCoordinator::Advance(Registration* reg) {
  // A degraded registration has no fine-grained keys; advancing it would grant it
  // instantly and bypass the latch. Callers must route it through TryGrantDegraded.
  NOCTUA_CHECK(!reg->degraded);
  const bool latch_pending = degraded_active_ != -1 || !degraded_queue_.empty();
  while (reg->next_key < reg->keys.size()) {
    // New arrivals hold their first acquisition while a degraded op needs the exclusive
    // latch; ops already in line (queued) or already holding locks drain normally, so
    // the latch is reached without deadlock and without starving the degraded op.
    if (reg->next_key == 0 && !reg->queued && latch_pending) {
      return false;
    }
    const LockKey& key = reg->keys[reg->next_key];
    Lock& lock = locks_[key];
    const bool self_pair = key.a == key.b;
    bool at_front = reg->queued && !lock.waiters.empty() && lock.waiters.front() == reg->op;
    if (reg->queued && !at_front) {
      return false;  // queued here (or elsewhere) but not first in line
    }
    if (!LockCompatible(lock, *reg) || (!reg->queued && !lock.waiters.empty())) {
      if (!reg->queued) {
        lock.waiters.push_back(reg->op);
        reg->queued = true;
        reg->wait_key = key;
        ++stats_.lock_waits;
      }
      return false;
    }
    if (at_front) {
      lock.waiters.pop_front();
      reg->queued = false;
    }
    if (reg->next_key == 0) {
      ++holding_regs_;
    }
    lock.holders.insert(reg->op);
    lock.side = self_pair ? std::string() : reg->endpoint;
    ++reg->next_key;
  }
  reg->active = true;
  return true;
}

void LeaseCoordinator::WakeWaiters(const LockKey& key, Outcome* out) {
  for (;;) {
    auto lit = locks_.find(key);
    if (lit == locks_.end() || lit->second.waiters.empty()) {
      return;
    }
    int64_t front = lit->second.waiters.front();
    auto rit = regs_.find(front);
    if (rit == regs_.end()) {
      lit->second.waiters.pop_front();  // stale entry of a dropped registration
      continue;
    }
    if (rit->second.degraded) {
      // A registration that switched to the degraded path never waits in a pair-lock
      // queue; its entry here is stale. Never Advance it — with its key list cleared,
      // Advance would grant it instantly, bypassing the exclusive latch.
      lit->second.waiters.pop_front();
      continue;
    }
    if (Advance(&rit->second)) {
      ++stats_.grants;
      out->granted.push_back(front);
      // Advance dequeues the front itself when it passes through this lock; if it
      // became active without doing so (e.g. its key list no longer includes this
      // lock), drop the entry here — the loop must always make progress.
      lit = locks_.find(key);
      if (lit != locks_.end() && !lit->second.waiters.empty() &&
          lit->second.waiters.front() == front) {
        lit->second.waiters.pop_front();
      }
      continue;  // the next waiter may be compatible too (same side joins)
    }
    if (rit->second.queued && !(rit->second.wait_key < key) &&
        !(key < rit->second.wait_key)) {
      return;  // front is still blocked right here; FIFO order holds everyone behind
    }
    // Front no longer waits at this lock (advanced past it and re-queued later in its
    // order, or switched to the degraded path): drop the stale entry and keep waking.
    if (!lit->second.waiters.empty() && lit->second.waiters.front() == front) {
      lit->second.waiters.pop_front();
    }
  }
}

void LeaseCoordinator::Drop(Registration* reg, Outcome* out) {
  if (reg->degraded) {
    if (degraded_active_ == reg->op) {
      degraded_active_ = -1;
    } else {
      std::erase(degraded_queue_, reg->op);
    }
  }
  if (reg->queued) {
    auto lit = locks_.find(reg->wait_key);
    if (lit != locks_.end()) {
      std::erase(lit->second.waiters, reg->op);
    }
    reg->queued = false;
  }
  bool held_any = reg->next_key > 0;
  std::vector<LockKey> to_wake;
  for (size_t i = 0; i < reg->next_key; ++i) {
    const LockKey& key = reg->keys[i];
    Lock& lock = locks_.at(key);
    lock.holders.erase(reg->op);
    if (lock.holders.empty()) {
      lock.side.clear();
    }
    to_wake.push_back(key);
  }
  reg->next_key = 0;
  reg->active = false;
  if (held_any) {
    NOCTUA_CHECK(holding_regs_ > 0);
    --holding_regs_;
  }
  for (const LockKey& key : to_wake) {
    WakeWaiters(key, out);
  }
  TryGrantDegraded(out);
}

void LeaseCoordinator::TryGrantDegraded(Outcome* out) {
  while (degraded_active_ == -1 && !degraded_queue_.empty() && holding_regs_ == 0) {
    int64_t op = degraded_queue_.front();
    auto it = regs_.find(op);
    if (it == regs_.end()) {
      degraded_queue_.pop_front();
      continue;
    }
    degraded_queue_.pop_front();
    degraded_active_ = op;
    it->second.active = true;
    ++stats_.grants;
    ++stats_.degradations;
    out->granted.push_back(op);
    return;
  }
  if (degraded_active_ == -1 && degraded_queue_.empty()) {
    // The latch cleared: resume every arrival that was held at its first lock.
    std::vector<int64_t> stalled;
    for (auto& [op, reg] : regs_) {
      if (!reg.active && !reg.degraded && !reg.queued && reg.next_key == 0 &&
          !reg.keys.empty()) {
        stalled.push_back(op);
      }
    }
    for (int64_t op : stalled) {
      auto it = regs_.find(op);
      if (it != regs_.end() && Advance(&it->second)) {
        ++stats_.grants;
        out->granted.push_back(op);
      }
    }
  }
}

LeaseCoordinator::Outcome LeaseCoordinator::Finish(Outcome out, const char* where) const {
  StripRevoked(&out);
  SelfCheck(where);
  return out;
}

void LeaseCoordinator::SelfCheck(const char* where) const {
  if (!SelfCheckEnabled()) {
    return;
  }
  for (const auto& [op, reg] : regs_) {
    if (reg.degraded) {
      NOCTUA_CHECK_MSG(!reg.active || degraded_active_ == op,
                       where << ": degraded op " << op << " active without the latch");
      continue;
    }
    if (reg.active) {
      NOCTUA_CHECK_MSG(reg.next_key == reg.keys.size(),
                       where << ": op " << op << " active holding " << reg.next_key << "/"
                             << reg.keys.size() << " locks");
    }
    for (size_t i = 0; i < reg.next_key; ++i) {
      auto lit = locks_.find(reg.keys[i]);
      NOCTUA_CHECK_MSG(lit != locks_.end() && lit->second.holders.count(op) > 0,
                       where << ": op " << op << " not in holders of its held lock " << i);
    }
    if (reg.queued) {
      auto lit = locks_.find(reg.wait_key);
      bool present =
          lit != locks_.end() &&
          std::find(lit->second.waiters.begin(), lit->second.waiters.end(), op) !=
              lit->second.waiters.end();
      NOCTUA_CHECK_MSG(present,
                       where << ": op " << op << " queued flag without a queue entry");
    }
  }
  // A registration waits in at most one queue at a time; a second entry means a drop
  // or wake path left one behind (the stale-waiter leak that double-grants a lock
  // once the op's flags say it is safe to queue or advance again).
  std::map<int64_t, int> entries;
  for (const auto& [key, lock] : locks_) {
    for (int64_t op : lock.waiters) {
      if (regs_.count(op) > 0) {
        NOCTUA_CHECK_MSG(++entries[op] == 1, where << ": op " << op
                                                   << " queued in more than one place");
      }
    }
  }
  for (auto a = regs_.begin(); a != regs_.end(); ++a) {
    if (!a->second.active) {
      continue;
    }
    for (auto b = std::next(a); b != regs_.end(); ++b) {
      if (!b->second.active) {
        continue;
      }
      NOCTUA_CHECK_MSG(
          !conflicts_.Conflicts(a->second.endpoint, b->second.endpoint),
          where << ": conflicting ops " << a->first << " (" << a->second.endpoint
                << ") and " << b->first << " (" << b->second.endpoint << ") both active");
    }
  }
}

bool LeaseCoordinator::Fenced(int site, int64_t epoch, Outcome* out) {
  int64_t& current = site_epochs_[site];
  if (epoch < current) {
    ++stats_.fencing_rejections;
    out->fenced = true;
    return true;
  }
  if (epoch > current) {
    current = epoch;
    // A newer incarnation announced itself: every holding of the site's previous
    // incarnations is a ghost. Revoke immediately rather than waiting for the lease.
    std::vector<int64_t> stale;
    for (const auto& [op, reg] : regs_) {
      if (reg.site == site && reg.epoch < epoch) {
        stale.push_back(op);
      }
    }
    for (int64_t op : stale) {
      auto node = regs_.extract(op);  // out of the map before Drop's rescan can see it
      Drop(&node.mapped(), out);
      ++stats_.expiries;
      out->expired.push_back(op);
    }
  }
  return false;
}

LeaseCoordinator::Outcome LeaseCoordinator::Acquire(int64_t op, const std::string& endpoint,
                                                    int site, int64_t epoch, double now,
                                                    bool degraded) {
  Outcome out;
  if (Fenced(site, epoch, &out)) {
    return Finish(std::move(out), "Acquire");
  }
  auto it = regs_.find(op);
  if (it != regs_.end()) {
    Registration& reg = it->second;
    reg.deadline = now + options_.lease_ms;  // any contact from the origin renews
    if (degraded && !reg.degraded && !reg.active) {
      // The origin gave up on a shard and switched modes: restart as degraded. The
      // flag flips before Drop so the wake/stall rescan inside Drop cannot re-advance
      // this registration through its fine-grained locks.
      reg.degraded = true;
      Drop(&reg, &out);
      reg.keys.clear();
      degraded_queue_.push_back(op);
      TryGrantDegraded(&out);
      return Finish(std::move(out), "Acquire/upgrade");
    }
    if (reg.active) {
      // Retransmitted admission after a lost grant: grants are idempotent, re-send.
      ++stats_.grants;
      out.granted.push_back(op);
    }
    return Finish(std::move(out), "Acquire/dedup");
  }
  Registration reg;
  reg.op = op;
  reg.endpoint = endpoint;
  reg.site = site;
  reg.epoch = epoch;
  reg.degraded = degraded;
  reg.deadline = now + options_.lease_ms;
  if (!degraded) {
    reg.keys = KeysFor(endpoint);
  }
  ++stats_.acquires;
  Registration& stored = regs_.emplace(op, std::move(reg)).first->second;
  if (stored.degraded) {
    degraded_queue_.push_back(op);
    TryGrantDegraded(&out);
  } else if (Advance(&stored)) {
    ++stats_.grants;
    out.granted.push_back(op);
  }
  return Finish(std::move(out), "Acquire/register");
}

LeaseCoordinator::Outcome LeaseCoordinator::Release(int64_t op, int site, int64_t epoch,
                                                    double now) {
  (void)now;
  Outcome out;
  if (Fenced(site, epoch, &out)) {
    return Finish(std::move(out), "Release");
  }
  auto it = regs_.find(op);
  if (it == regs_.end()) {
    return Finish(std::move(out), "Release");  // already released or expired: idempotent
  }
  // Extract before Drop: Drop ends in a wake/stall rescan over regs_, and a discarded
  // registration left in the map during its own Drop looks exactly like a stalled
  // arrival (inactive, unqueued, holding nothing) — the rescan would re-queue or even
  // re-grant it, leaking a waiter entry or lock holding that outlives the erase.
  auto node = regs_.extract(it);
  Drop(&node.mapped(), &out);
  return Finish(std::move(out), "Release");
}

LeaseCoordinator::Outcome LeaseCoordinator::Renew(int64_t op, int site, int64_t epoch,
                                                  double now) {
  Outcome out;
  if (Fenced(site, epoch, &out)) {
    return Finish(std::move(out), "Renew");
  }
  auto it = regs_.find(op);
  if (it != regs_.end()) {
    it->second.deadline = now + options_.lease_ms;
    // Only a confirmed extension may be acknowledged: the origin's conservative
    // deadline advances on this ack, so acking a renewal that extended nothing (the
    // registration is gone) would let the origin believe in a reclaimed lease.
    out.renewed = true;
  }
  return Finish(std::move(out), "Renew");
}

LeaseCoordinator::Outcome LeaseCoordinator::ExpireDue(double now) {
  Outcome out;
  std::vector<int64_t> due;
  for (const auto& [op, reg] : regs_) {
    if (reg.deadline <= now) {
      due.push_back(op);
    }
  }
  for (int64_t op : due) {
    auto it = regs_.find(op);
    if (it == regs_.end()) {
      continue;
    }
    auto node = regs_.extract(it);  // out of the map before Drop's rescan can see it
    Drop(&node.mapped(), &out);
    ++stats_.expiries;
    out.expired.push_back(op);
  }
  return Finish(std::move(out), "ExpireDue");
}

}  // namespace noctua::repl
