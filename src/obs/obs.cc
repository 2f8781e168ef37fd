#include "src/obs/obs.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/obs/json.h"
#include "src/support/check.h"

namespace noctua::obs {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// One finished span as recorded by its owning thread. Fixed-size args keep the append
// allocation-free except for the name string.
struct RawSpan {
  std::string name;
  const char* cat = nullptr;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  uint64_t trace = 0;
  size_t num_args = 0;
  std::pair<const char*, uint64_t> args[ScopedSpan::kMaxSpanArgs];
};

// Per-thread span sink. The owning thread appends under `mu`; the only other locker is
// the end-of-run snapshot, so the lock is uncontended while recording (this is what
// keeps concurrent workers from serializing on a shared buffer).
struct ThreadBuffer {
  std::mutex mu;
  std::vector<RawSpan> spans;
  int tid = 0;
};

struct HistState {
  std::atomic<uint64_t> buckets[kHistBuckets];
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> min{UINT64_MAX};
  std::atomic<uint64_t> max{0};
  // The first kHistReservoir samples verbatim (slot = pre-increment count), for exact
  // small-count percentiles. A live read may catch a slot whose value store is still in
  // flight (reads 0, clamped to min by the summary) — exact once recording quiesces.
  std::atomic<uint64_t> reservoir[kHistReservoir];
};

// One labeled row's state, guarded by Registry::label_mu — labeled probes fire at
// per-request rate, so a mutex (and plain fields) beats per-row atomics here.
struct LabeledHistState {
  uint64_t buckets[kHistBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = UINT64_MAX;
  uint64_t max = 0;
  std::vector<uint64_t> reservoir;  // first kHistReservoir samples
};

using LabelTuple = std::tuple<std::string, std::string, std::string>;  // tenant, app, mode

struct Registry {
  std::atomic<bool> enabled{false};
  // The installed collector's ObsOptions::retain_spans.
  std::atomic<bool> retain_spans{true};
  // Bumped on every install so a thread's cached buffer from a previous run is never
  // written into the current one.
  std::atomic<uint64_t> generation{0};
  std::atomic<int64_t> epoch_us{0};

  std::mutex mu;  // guards buffers, next_tid, active
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
  bool active = false;  // a Collector object is installed (recording or stopped)

  std::atomic<uint64_t> counters[static_cast<size_t>(Counter::kNumCounters)];
  HistState hists[static_cast<size_t>(Hist::kNumHists)];

  // Labeled rows, keyed by (metric index, label tuple). Guarded by label_mu; reset at
  // collector install like everything else. label_tuples enforces the cardinality cap.
  std::mutex label_mu;
  std::map<std::pair<uint8_t, LabelTuple>, uint64_t> labeled_counters;
  std::map<std::pair<uint8_t, LabelTuple>, LabeledHistState> labeled_hists;
  std::set<LabelTuple> label_tuples;
};

Registry& Reg() {
  static Registry* r = new Registry();  // leaked: recording may outlive static dtors
  return *r;
}

struct TlsSlot {
  std::shared_ptr<ThreadBuffer> buf;
  uint64_t gen = 0;
};

thread_local TlsSlot tls_slot;

// The calling thread's buffer for the current recording generation, registering it on
// first use; nullptr when collection raced off.
ThreadBuffer* CurrentBuffer() {
  Registry& reg = Reg();
  uint64_t gen = reg.generation.load(std::memory_order_acquire);
  if (tls_slot.gen != gen || tls_slot.buf == nullptr) {
    std::lock_guard<std::mutex> lk(reg.mu);
    if (!reg.enabled.load(std::memory_order_relaxed)) {
      return nullptr;
    }
    tls_slot.buf = std::make_shared<ThreadBuffer>();
    tls_slot.buf->tid = reg.next_tid++;
    reg.buffers.push_back(tls_slot.buf);
    tls_slot.gen = gen;
  }
  return tls_slot.buf.get();
}

void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Percentile summary over one histogram snapshot. Exact (sorted reservoir,
// nearest-rank) while every sample is still in the reservoir; past that, linear
// interpolation inside the bucket holding the rank, clamped to the observed [min, max]
// — so a single-valued histogram stays exact at any count, and a p99 never snaps to a
// power-of-two bucket edge. Shared by the atomic (process-wide) and mutex-guarded
// (labeled) histogram states.
HistSummary SummarizeCounts(const uint64_t counts[kHistBuckets], uint64_t count,
                            uint64_t sum, uint64_t min, uint64_t max,
                            std::vector<uint64_t> reservoir) {
  HistSummary out;
  out.count = count;
  out.sum = sum;
  out.min = count == 0 ? 0 : min;
  out.max = max;
  if (count == 0) {
    return out;
  }
  auto rank_of = [&](double q) -> uint64_t {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
    return std::clamp<uint64_t>(rank, 1, count);
  };
  if (count <= reservoir.size()) {
    std::sort(reservoir.begin(), reservoir.begin() + static_cast<ptrdiff_t>(count));
    auto exact = [&](double q) { return reservoir[rank_of(q) - 1]; };
    out.p50 = exact(0.50);
    out.p95 = exact(0.95);
    out.p99 = exact(0.99);
    return out;
  }
  auto percentile = [&](double q) -> uint64_t {
    uint64_t rank = rank_of(q);
    uint64_t seen = 0;
    for (size_t b = 0; b < kHistBuckets; ++b) {
      if (seen + counts[b] >= rank && counts[b] > 0) {
        uint64_t lo = HistBucketLowerBound(b);
        // Inclusive upper value of bucket b; the top bucket's nominal bound would
        // overflow, so it (like every bucket) is capped at the observed max below.
        uint64_t hi = b == 0 ? 0 : (b >= 64 ? max : lo * 2 - 1);
        double frac =
            static_cast<double>(rank - seen) / static_cast<double>(counts[b]);
        uint64_t v = lo + static_cast<uint64_t>(static_cast<double>(hi - lo) * frac);
        return std::clamp(v, out.min, out.max);
      }
      seen += counts[b];
    }
    return out.max;
  };
  out.p50 = percentile(0.50);
  out.p95 = percentile(0.95);
  out.p99 = percentile(0.99);
  return out;
}

// Snapshot + summary of one histogram's live atomics. Shared by the end-of-run
// Collector::Stop path and the mid-recording LiveHistogram path.
HistSummary SummarizeHist(const HistState& hs) {
  uint64_t counts[kHistBuckets];
  for (size_t b = 0; b < kHistBuckets; ++b) {
    counts[b] = hs.buckets[b].load(std::memory_order_relaxed);
  }
  uint64_t count = hs.count.load(std::memory_order_relaxed);
  std::vector<uint64_t> reservoir(std::min<uint64_t>(count, kHistReservoir));
  for (size_t i = 0; i < reservoir.size(); ++i) {
    reservoir[i] = hs.reservoir[i].load(std::memory_order_relaxed);
  }
  return SummarizeCounts(counts, count, hs.sum.load(std::memory_order_relaxed),
                         hs.min.load(std::memory_order_relaxed),
                         hs.max.load(std::memory_order_relaxed), std::move(reservoir));
}

// The calling thread's request-scoped trace context ({0, nullptr} outside a request).
thread_local TraceContext tls_trace;

}  // namespace

// ---------------------------------------------------------------------------------------
// Names

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kPairsChecked:
      return "verifier.pairs_checked";
    case Counter::kPairsPrefiltered:
      return "verifier.pairs_prefiltered";
    case Counter::kSolverChecks:
      return "verifier.solver_checks";
    case Counter::kCacheHits:
      return "verifier.cache_hits";
    case Counter::kCacheMisses:
      return "verifier.cache_misses";
    case Counter::kCacheReplayed:
      return "verifier.cache_replayed";
    case Counter::kCacheEvictions:
      return "verifier.cache_evictions";
    case Counter::kVerifierTimeouts:
      return "verifier.timeouts";
    case Counter::kVerifierUnsupported:
      return "verifier.unsupported";
    case Counter::kPoolSteals:
      return "pool.steals";
    case Counter::kSolverNodes:
      return "smt.solver_nodes";
    case Counter::kSolverAssignments:
      return "smt.solver_assignments";
    case Counter::kGroundExpansions:
      return "smt.ground_expansions";
    case Counter::kSimplifyHits:
      return "smt.simplify_hits";
    case Counter::kSolverIncrementalReuse:
      return "solver.incremental_reuse_hits";
    case Counter::kSolverSymmetryPruned:
      return "solver.symmetry_pruned_nodes";
    case Counter::kEndpointsAnalyzed:
      return "analyzer.endpoints_analyzed";
    case Counter::kPairsReplayed:
      return "incremental.pairs_replayed";
    case Counter::kPairsComputed:
      return "incremental.pairs_computed";
    case Counter::kParanoiaRechecks:
      return "incremental.paranoia_rechecks";
    case Counter::kArtifactLoads:
      return "incremental.artifact_loads";
    case Counter::kArtifactLoadFailures:
      return "incremental.artifact_load_failures";
    case Counter::kArtifactSaves:
      return "incremental.artifact_saves";
    case Counter::kArtifactSaveFailures:
      return "incremental.artifact_save_failures";
    case Counter::kSimRequestsCompleted:
      return "sim.requests_completed";
    case Counter::kSimMessagesSent:
      return "sim.messages_sent";
    case Counter::kSimMessagesDropped:
      return "sim.messages_dropped";
    case Counter::kSimRetransmissions:
      return "sim.retransmissions";
    case Counter::kSimDuplicatesIgnored:
      return "sim.duplicates_ignored";
    case Counter::kSimEffectsReplayed:
      return "sim.effects_replayed";
    case Counter::kSimReplicaCrashes:
      return "sim.replica_crashes";
    case Counter::kSimReplicaRecoveries:
      return "sim.replica_recoveries";
    case Counter::kSimConflictViolations:
      return "sim.conflict_violations";
    case Counter::kSimLeaseAcquires:
      return "sim.lease_acquires";
    case Counter::kSimLeaseExpiries:
      return "sim.lease_expiries";
    case Counter::kSimFencingRejections:
      return "sim.fencing_rejections";
    case Counter::kSimDegradations:
      return "sim.degradations";
    case Counter::kSimFenceHeldEffects:
      return "sim.fence_held_effects";
    case Counter::kServiceRequests:
      return "service.requests";
    case Counter::kServiceRequestsOk:
      return "service.requests_ok";
    case Counter::kServiceRequestsFailed:
      return "service.requests_failed";
    case Counter::kServiceRejected:
      return "service.rejected";
    case Counter::kServiceVerdicts:
      return "service.verdicts";
    case Counter::kNumCounters:
      break;
  }
  return "?";
}

const char* HistName(Hist h) {
  switch (h) {
    case Hist::kPairMicros:
      return "verifier.pair_micros";
    case Hist::kEncodeMicros:
      return "verifier.encode_micros";
    case Hist::kSolveMicros:
      return "smt.solve_micros";
    case Hist::kGroundMicros:
      return "smt.ground_micros";
    case Hist::kSolverNodesPerQuery:
      return "smt.solver_nodes_per_query";
    case Hist::kSolverAssignmentsPerQuery:
      return "smt.solver_assignments_per_query";
    case Hist::kGroundExpansionsPerQuery:
      return "smt.ground_expansions_per_query";
    case Hist::kLeaseAcquireMicros:
      return "sim.lease_acquire_micros";
    case Hist::kServiceRequestMicros:
      return "service.request_micros";
    case Hist::kServiceQueueWaitMicros:
      return "service.queue_wait_micros";
    case Hist::kServiceHandleMicros:
      return "service.handle_micros";
    case Hist::kEngineLockWaitMicros:
      return "pipeline.engine_lock_wait_micros";
    case Hist::kNumHists:
      break;
  }
  return "?";
}

// ---------------------------------------------------------------------------------------
// Recording entry points

bool Enabled() { return Reg().enabled.load(std::memory_order_acquire); }

bool Active() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  return reg.active;
}

uint64_t LiveCounter(Counter c) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return 0;
  }
  return reg.counters[static_cast<size_t>(c)].load(std::memory_order_relaxed);
}

HistSummary LiveHistogram(Hist h) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return HistSummary{};
  }
  return SummarizeHist(reg.hists[static_cast<size_t>(h)]);
}

HistBucketCounts LiveHistogramBuckets(Hist h) {
  HistBucketCounts out{};
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return out;
  }
  const HistState& hs = reg.hists[static_cast<size_t>(h)];
  for (size_t b = 0; b < kHistBuckets; ++b) {
    out.buckets[b] = hs.buckets[b].load(std::memory_order_relaxed);
  }
  out.count = hs.count.load(std::memory_order_relaxed);
  out.sum = hs.sum.load(std::memory_order_relaxed);
  return out;
}

void Add(Counter c, uint64_t delta) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return;
  }
  reg.counters[static_cast<size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
}

size_t HistBucketFor(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

uint64_t HistBucketLowerBound(size_t b) {
  return b == 0 ? 0 : uint64_t{1} << (b - 1);
}

void Observe(Hist h, uint64_t value) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return;
  }
  HistState& hs = reg.hists[static_cast<size_t>(h)];
  hs.buckets[HistBucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  uint64_t n = hs.count.fetch_add(1, std::memory_order_relaxed);
  if (n < kHistReservoir) {
    hs.reservoir[n].store(value, std::memory_order_relaxed);
  }
  hs.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(hs.min, value);
  AtomicMax(hs.max, value);
}

// ---------------------------------------------------------------------------------------
// Labeled metrics

namespace {

// Resolves a label set to its stored tuple under the cardinality cap: a tuple beyond
// the first kMaxLabelSets distinct ones folds its tenant/app into kLabelOverflow so an
// adversarial tenant-name stream cannot grow the registry without bound. The mode
// dimension survives the fold — it is a closed set chosen by the code, not the caller.
// Caller holds reg.label_mu.
LabelTuple ResolveLabels(Registry& reg, const MetricLabels& labels) {
  LabelTuple tuple{labels.tenant, labels.app, labels.mode};
  auto it = reg.label_tuples.find(tuple);
  if (it != reg.label_tuples.end()) {
    return tuple;
  }
  if (reg.label_tuples.size() >= kMaxLabelSets) {
    tuple = LabelTuple{kLabelOverflow, kLabelOverflow, labels.mode};
  }
  reg.label_tuples.insert(tuple);
  return tuple;
}

}  // namespace

void AddLabeled(Counter c, const MetricLabels& labels, uint64_t delta) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed) || delta == 0) {
    return;
  }
  std::lock_guard<std::mutex> lk(reg.label_mu);
  LabelTuple tuple = ResolveLabels(reg, labels);
  reg.labeled_counters[{static_cast<uint8_t>(c), std::move(tuple)}] += delta;
}

void ObserveLabeled(Hist h, const MetricLabels& labels, uint64_t value) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lk(reg.label_mu);
  LabelTuple tuple = ResolveLabels(reg, labels);
  LabeledHistState& hs = reg.labeled_hists[{static_cast<uint8_t>(h), std::move(tuple)}];
  hs.buckets[HistBucketFor(value)] += 1;
  if (hs.count < kHistReservoir) {
    hs.reservoir.push_back(value);
  }
  hs.count += 1;
  hs.sum += value;
  hs.min = std::min(hs.min, value);
  hs.max = std::max(hs.max, value);
}

std::vector<LabeledCounterRow> LiveLabeledCounters() {
  std::vector<LabeledCounterRow> out;
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return out;
  }
  std::lock_guard<std::mutex> lk(reg.label_mu);
  out.reserve(reg.labeled_counters.size());
  for (const auto& [key, value] : reg.labeled_counters) {
    LabeledCounterRow row;
    row.labels = MetricLabels{std::get<0>(key.second), std::get<1>(key.second),
                              std::get<2>(key.second)};
    row.counter = static_cast<Counter>(key.first);
    row.value = value;
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<LabeledHistRow> LiveLabeledHistograms() {
  std::vector<LabeledHistRow> out;
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) {
    return out;
  }
  std::lock_guard<std::mutex> lk(reg.label_mu);
  out.reserve(reg.labeled_hists.size());
  for (const auto& [key, hs] : reg.labeled_hists) {
    LabeledHistRow row;
    row.labels = MetricLabels{std::get<0>(key.second), std::get<1>(key.second),
                              std::get<2>(key.second)};
    row.hist = static_cast<Hist>(key.first);
    row.summary =
        SummarizeCounts(hs.buckets, hs.count, hs.sum, hs.min, hs.max, hs.reservoir);
    for (size_t b = 0; b < kHistBuckets; ++b) {
      row.buckets.buckets[b] = hs.buckets[b];
    }
    row.buckets.count = hs.count;
    row.buckets.sum = hs.sum;
    out.push_back(std::move(row));
  }
  return out;
}

// ---------------------------------------------------------------------------------------
// Trace context

TraceContext CurrentTraceContext() { return tls_trace; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) : saved_(tls_trace) {
  tls_trace = ctx;
}

ScopedTraceContext::ScopedTraceContext(uint64_t trace, TraceCapture* capture)
    : ScopedTraceContext(TraceContext{trace, capture}) {}

ScopedTraceContext::~ScopedTraceContext() { tls_trace = saved_; }

int64_t SteadyNowMicros() { return NowMicros(); }

void TraceCapture::Record(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(ev);
}

std::vector<TraceEvent> TraceCapture::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

void RecordSpan(const char* name, const char* category, int64_t start_us,
                int64_t end_us) {
  if (!Enabled()) {
    return;
  }
  const TraceContext ctx = tls_trace;
  const bool retain = Reg().retain_spans.load(std::memory_order_relaxed);
  if (!retain && ctx.capture == nullptr) {
    return;
  }
  ThreadBuffer* buf = CurrentBuffer();
  if (buf == nullptr) {
    return;
  }
  int64_t ts = start_us - Reg().epoch_us.load(std::memory_order_relaxed);
  if (retain) {
    std::lock_guard<std::mutex> lk(buf->mu);
    buf->spans.push_back(RawSpan{});
    RawSpan& s = buf->spans.back();
    s.name = name;
    s.cat = category;
    s.ts_us = ts;
    s.dur_us = end_us - start_us;
    s.trace = ctx.trace;
  }
  if (ctx.capture != nullptr) {
    TraceEvent ev;
    ev.name = name;
    ev.category = category;
    ev.ts_us = ts;
    ev.dur_us = end_us - start_us;
    ev.tid = buf->tid;
    ev.trace = ctx.trace;
    ctx.capture->Record(ev);
  }
}

// ---------------------------------------------------------------------------------------
// ScopedSpan

ScopedSpan::ScopedSpan(const char* name, const char* category) {
  if (!Enabled()) {
    return;
  }
  name_ = name;
  Start(category);
}

ScopedSpan::ScopedSpan(std::string name, const char* category) {
  if (!Enabled() || name.empty()) {
    return;
  }
  name_ = std::move(name);
  Start(category);
}

void ScopedSpan::Start(const char* category) {
  category_ = category;
  start_us_ = NowMicros();
  active_ = true;
}

void ScopedSpan::Arg(const char* key, uint64_t value) {
  if (!active_ || num_args_ >= kMaxSpanArgs) {
    return;
  }
  args_[num_args_++] = {key, value};
}

ScopedSpan::~ScopedSpan() {
  if (!active_ || !Enabled()) {
    return;  // collection stopped while the span was open: drop it
  }
  const TraceContext ctx = tls_trace;
  const bool retain = Reg().retain_spans.load(std::memory_order_relaxed);
  if (!retain && ctx.capture == nullptr) {
    return;  // nothing keeps this span
  }
  // The buffer is registered even when spans are not retained: it numbers the thread
  // (TraceEvent::tid) for the capture.
  ThreadBuffer* buf = CurrentBuffer();
  if (buf == nullptr) {
    return;
  }
  int64_t end_us = NowMicros();
  int64_t ts = start_us_ - Reg().epoch_us.load(std::memory_order_relaxed);
  if (ctx.capture != nullptr) {
    // Feed the request-scoped capture before the name is moved into the raw span.
    TraceEvent ev;
    ev.name = name_;
    ev.category = category_;
    ev.ts_us = ts;
    ev.dur_us = end_us - start_us_;
    ev.tid = buf->tid;
    ev.trace = ctx.trace;
    ev.args.assign(args_, args_ + num_args_);
    ctx.capture->Record(ev);
  }
  if (!retain) {
    return;
  }
  std::lock_guard<std::mutex> lk(buf->mu);
  buf->spans.push_back(RawSpan{});
  RawSpan& s = buf->spans.back();
  s.name = std::move(name_);
  s.cat = category_;
  s.ts_us = ts;
  s.dur_us = end_us - start_us_;
  s.trace = ctx.trace;
  s.num_args = num_args_;
  for (size_t i = 0; i < num_args_; ++i) {
    s.args[i] = args_[i];
  }
}

// ---------------------------------------------------------------------------------------
// Collector

Collector::Collector(ObsOptions options) : options_(std::move(options)) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  NOCTUA_CHECK_MSG(!reg.active,
                   "a noctua::obs::Collector is already installed — one recording "
                   "session at a time");
  reg.active = true;
  reg.buffers.clear();
  reg.next_tid = 1;
  for (auto& c : reg.counters) {
    c.store(0, std::memory_order_relaxed);
  }
  for (auto& h : reg.hists) {
    for (auto& b : h.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
    h.min.store(UINT64_MAX, std::memory_order_relaxed);
    h.max.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> llk(reg.label_mu);
    reg.labeled_counters.clear();
    reg.labeled_hists.clear();
    reg.label_tuples.clear();
  }
  reg.retain_spans.store(options_.retain_spans, std::memory_order_relaxed);
  reg.epoch_us.store(NowMicros(), std::memory_order_relaxed);
  reg.generation.fetch_add(1, std::memory_order_release);
  reg.enabled.store(true, std::memory_order_release);
}

Collector::~Collector() {
  Stop();
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.active = false;
  reg.buffers.clear();
}

void Collector::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  Registry& reg = Reg();
  reg.enabled.store(false, std::memory_order_release);

  std::lock_guard<std::mutex> lk(reg.mu);
  for (const auto& buf : reg.buffers) {
    std::lock_guard<std::mutex> blk(buf->mu);
    for (RawSpan& s : buf->spans) {
      TraceEvent ev;
      ev.name = std::move(s.name);
      ev.category = s.cat;
      ev.ts_us = s.ts_us;
      ev.dur_us = s.dur_us;
      ev.tid = buf->tid;
      ev.trace = s.trace;
      ev.args.assign(s.args, s.args + s.num_args);
      events_.push_back(std::move(ev));
    }
    buf->spans.clear();
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });

  for (size_t i = 0; i < static_cast<size_t>(Counter::kNumCounters); ++i) {
    counters_[i] = reg.counters[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < static_cast<size_t>(Hist::kNumHists); ++i) {
    hists_[i] = SummarizeHist(reg.hists[i]);
  }
}

const std::vector<TraceEvent>& Collector::events() const {
  NOCTUA_CHECK_MSG(stopped_, "Collector::events() before Stop()");
  return events_;
}

uint64_t Collector::counter(Counter c) const {
  NOCTUA_CHECK_MSG(stopped_, "Collector::counter() before Stop()");
  return counters_[static_cast<size_t>(c)];
}

HistSummary Collector::histogram(Hist h) const {
  NOCTUA_CHECK_MSG(stopped_, "Collector::histogram() before Stop()");
  return hists_[static_cast<size_t>(h)];
}

std::set<std::string> Collector::SpanCategories() const {
  std::set<std::string> cats;
  for (const TraceEvent& ev : events()) {
    cats.insert(ev.category);
  }
  return cats;
}

// ---------------------------------------------------------------------------------------
// Export

void WriteJson(JsonWriter& w, const HistSummary& s) {
  w.BeginObject().Key("count").Uint(s.count).Key("sum").Uint(s.sum);
  w.Key("min").Uint(s.min).Key("max").Uint(s.max);
  w.Key("p50").Uint(s.p50).Key("p95").Uint(s.p95).Key("p99").Uint(s.p99).EndObject();
}

namespace {

// The Chrome trace-event document of `events`, shared by both exporters. A request's
// capture passes its external `trace_id`, stamped into every event's args and into
// otherData; a collector passes none and its `counters` instead, and gets thread-name
// metadata rows, numeric trace ids in args, and its nonzero counters in otherData.
void WriteTraceDocument(JsonWriter& w, const std::vector<TraceEvent>& events,
                        const std::string* trace_id, const uint64_t* counters) {
  w.BeginObject().Key("traceEvents").BeginArray();
  std::set<int> tids;
  for (const TraceEvent& ev : events) {
    tids.insert(ev.tid);
    w.BeginObject().Key("name").String(ev.name).Key("cat").String(ev.category);
    w.Key("ph").String("X").Key("ts").Int(ev.ts_us).Key("dur").Int(ev.dur_us);
    w.Key("pid").Int(1).Key("tid").Int(ev.tid);
    if (trace_id != nullptr || ev.trace != 0 || !ev.args.empty()) {
      w.Key("args").BeginObject();
      if (trace_id != nullptr) {
        w.Key("trace_id").String(*trace_id);
      } else if (ev.trace != 0) {
        w.Key("trace").Uint(ev.trace);
      }
      for (const auto& [key, value] : ev.args) {
        w.Key(key).Uint(value);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  if (trace_id == nullptr) {
    // Thread-name metadata so Perfetto labels the rows.
    for (int tid : tids) {
      w.BeginObject().Key("name").String("thread_name").Key("ph").String("M");
      w.Key("pid").Int(1).Key("tid").Int(tid).Key("args").BeginObject().Key("name");
      w.String(tid == 1 ? std::string("main") : "worker-" + std::to_string(tid));
      w.EndObject().EndObject();
    }
  }
  w.EndArray().Key("displayTimeUnit").String("ms").Key("otherData").BeginObject();
  if (trace_id != nullptr) {
    w.Key("trace_id").String(*trace_id);
  } else {
    w.Key("counters").BeginObject();
    for (size_t i = 0; i < static_cast<size_t>(Counter::kNumCounters); ++i) {
      if (counters[i] != 0) {
        w.Key(CounterName(static_cast<Counter>(i))).Uint(counters[i]);
      }
    }
    w.EndObject();
  }
  w.EndObject().EndObject();
}

}  // namespace

std::string TraceCapture::ChromeTraceJson(const std::string& trace_id) const {
  JsonWriter w;
  ChromeTraceJson(w, trace_id);
  return w.Take();
}

void TraceCapture::ChromeTraceJson(JsonWriter& w, const std::string& trace_id) const {
  std::vector<TraceEvent> evs = Snapshot();
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  WriteTraceDocument(w, evs, &trace_id, nullptr);
}

std::string Collector::ChromeTraceJson() const {
  JsonWriter w;
  WriteTraceDocument(w, events(), nullptr, counters_);
  return w.Take();
}

bool Collector::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << ChromeTraceJson() << "\n";
  return static_cast<bool>(out);
}

}  // namespace noctua::obs
