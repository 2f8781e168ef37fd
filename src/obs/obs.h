// Observability for the Noctua stack: scoped spans, typed counters, and log-scale
// histograms feeding a process-wide collector that exports Chrome trace-event JSON
// (loadable in chrome://tracing and Perfetto) and a structured RunReport.
//
// Design contract:
//
//   * Zero cost when off. Every entry point — span construction, Add, Observe — starts
//     with one relaxed atomic load of the global enabled flag and returns immediately
//     when collection is off: no clock read, no allocation, no lock. Call sites that
//     would pay to *build* an argument (a dynamic span name, a derived value) must guard
//     with obs::Enabled() themselves.
//   * Thread-safe by per-thread buffering. Each recording thread appends span events to
//     its own buffer under a buffer-local mutex that is uncontended in steady state (the
//     only other locker is the end-of-run snapshot), so concurrent verification workers
//     never serialize on a shared sink. Counters and histogram buckets are plain
//     relaxed atomics.
//   * One collector at a time. A Collector installs itself as the process-global sink
//     (resetting counters and buffers), records until Stop(), and then exposes the
//     snapshot. Engine::Run owns this wiring when PipelineOptions::obs.enabled is set,
//     and the service daemon installs one that retains no spans (ObsOptions::
//     retain_spans); nothing else in the library installs collectors, it only feeds
//     whatever is active.
//
// Instrumentation is fed at aggregation points (end of a check, end of a run), never in
// per-node inner loops — the solver counts its own nodes and the checker flushes the
// totals, so the hot DFS stays untouched.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace noctua::obs {

class JsonWriter;  // src/obs/json.h

// ---------------------------------------------------------------------------------------
// Options

struct ObsOptions {
  // Master switch. False (the default) keeps every probe at its one-atomic-load fast
  // path; nothing is recorded and no report is built.
  bool enabled = false;
  // When non-empty, the collector writes Chrome trace-event JSON here at the end of the
  // run ("" = keep the trace in memory only).
  std::string trace_out = {};
  // Keep every finished span until Stop(), for events(), the trace file and the
  // RunReport. False keeps none, so a long-lived recorder stays bounded: counters and
  // histograms still record, and spans still reach an active TraceCapture.
  bool retain_spans = true;
};

// ---------------------------------------------------------------------------------------
// Span categories (the Chrome-trace "cat" field). A fixed taxonomy, not free-form
// strings, so traces from different runs aggregate cleanly.

inline constexpr const char* kCatPipeline = "pipeline";        // whole-stage phases
inline constexpr const char* kCatAnalyze = "analyze";          // symbolic path exploration
inline constexpr const char* kCatVerify = "verify";            // restriction-set assembly
inline constexpr const char* kCatPair = "pair";                // one unordered pair
inline constexpr const char* kCatEncode = "encode";            // SMT query construction
inline constexpr const char* kCatSolve = "solve";              // bounded model finder
inline constexpr const char* kCatCache = "cache";              // verdict-cache probes
inline constexpr const char* kCatIncremental = "incremental";  // artifact store I/O
inline constexpr const char* kCatSim = "sim";                  // geo-replication simulator
inline constexpr const char* kCatService = "service";          // daemon request handling

// ---------------------------------------------------------------------------------------
// Typed counters. Monotonic uint64 sums over one collector run.

enum class Counter : uint8_t {
  // Verifier pair loop.
  kPairsChecked,
  kPairsPrefiltered,
  kSolverChecks,
  kCacheHits,
  kCacheMisses,
  kCacheReplayed,
  kCacheEvictions,
  kVerifierTimeouts,     // pair verdicts (commutativity or semantic) that ran out of budget
  kVerifierUnsupported,  // ... that hit a construct the encoder does not support
  // Nothing increments this: the pool has no steals since it hands out one shared
  // cursor. Kept only because perfbench/common.cc still reports it as pool.steals.
  kPoolSteals,
  // SMT backend (flushed once per solver query).
  kSolverNodes,
  kSolverAssignments,
  kGroundExpansions,
  kSimplifyHits,
  kSolverIncrementalReuse,
  kSolverSymmetryPruned,
  // Analyzer / incremental engine.
  kEndpointsAnalyzed,
  kPairsReplayed,
  kPairsComputed,
  kParanoiaRechecks,
  kArtifactLoads,
  kArtifactLoadFailures,
  kArtifactSaves,
  kArtifactSaveFailures,
  // Geo-replication simulator (flushed once per Run).
  kSimRequestsCompleted,
  kSimMessagesSent,
  kSimMessagesDropped,
  kSimRetransmissions,
  kSimDuplicatesIgnored,
  kSimEffectsReplayed,
  kSimReplicaCrashes,
  kSimReplicaRecoveries,
  kSimConflictViolations,
  // Runtime enforcement (lease coordinator; flushed once per Run).
  kSimLeaseAcquires,
  kSimLeaseExpiries,
  kSimFencingRejections,
  kSimDegradations,
  kSimFenceHeldEffects,
  // Noctua-as-a-service daemon (src/service).
  kServiceRequests,          // requests admitted and executed
  kServiceRequestsOk,        // ... that completed successfully
  kServiceRequestsFailed,    // ... that failed (bad input, engine error)
  kServiceRejected,          // requests refused by admission control (503)
  kServiceVerdicts,          // pair verdicts served, labeled by source when labeled
  kNumCounters,  // sentinel
};

// Dotted metric name, e.g. "verifier.pairs_checked", "smt.solver_nodes", "sim.messages_sent".
const char* CounterName(Counter c);

// Adds `delta` to counter `c` of the active collector; no-op when collection is off.
void Add(Counter c, uint64_t delta = 1);

// ---------------------------------------------------------------------------------------
// Log-scale histograms. Bucket b >= 1 holds values in [2^(b-1), 2^b); bucket 0 holds
// exactly {0}. 65 buckets (0 plus one per bit width) cover the full uint64 range, so
// Observe never clips.

enum class Hist : uint8_t {
  kPairMicros,               // wall time of one non-prefiltered pair (both rules)
  kEncodeMicros,             // wall time of building one pair session's encoding
  kSolveMicros,              // wall time of one solver query
  kGroundMicros,             // ... of its grounding alone (a part of kSolveMicros)
  kSolverNodesPerQuery,      // DFS nodes of one solver query
  kSolverAssignmentsPerQuery,  // substitute-and-simplify evaluations of one query
  kGroundExpansionsPerQuery,   // binder expansions of one query's grounding
  kLeaseAcquireMicros,         // simulated admission-to-grant latency of one lease
  kServiceRequestMicros,       // end-to-end wall time of one admitted service request
  kServiceQueueWaitMicros,     // admission-to-dequeue wait of one admitted request
  kServiceHandleMicros,        // worker execution time of one request (excludes the wait)
  kEngineLockWaitMicros,       // one Engine::Run's wait for the engine lock
  kNumHists,  // sentinel
};

const char* HistName(Hist h);

// Records one sample; no-op when collection is off.
void Observe(Hist h, uint64_t value);

inline constexpr size_t kHistBuckets = 65;

// Bucket index of a value (0 for 0, otherwise bit_width). Exposed for tests.
size_t HistBucketFor(uint64_t value);
// Smallest value that lands in bucket `b` (0 for bucket 0, else 2^(b-1)).
uint64_t HistBucketLowerBound(size_t b);

// The first kHistReservoir samples of every histogram are additionally kept verbatim,
// so percentiles of small-count histograms (service latencies: one sample per request)
// are EXACT, not bucket-quantized. Past the reservoir, percentiles interpolate linearly
// inside the bucket containing the rank (clamped to [min, max]) instead of reporting
// the bucket lower bound — a p99 can no longer jump 2x just by crossing a bucket edge.
inline constexpr size_t kHistReservoir = 256;

// Summary of one histogram after a run. Percentiles are exact while count <=
// kHistReservoir and intra-bucket interpolations afterwards (see above).
struct HistSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;

  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
};

// Writes `s` as {"count", "sum", "min", "max", "p50", "p95", "p99"}: the shape of a
// histogram in `/metrics` and in RunReport::ToJson.
void WriteJson(JsonWriter& w, const HistSummary& s);

// ---------------------------------------------------------------------------------------
// Spans

// True while a collector is recording. The one-load fast-path gate; also the guard call
// sites use before building dynamic span names.
bool Enabled();

// True while a collector object is installed (it may have been stopped already). Used by
// Pipeline to avoid installing a nested collector when a bench already owns one.
bool Active();

// Live (mid-recording) reads of the active recording session. Unlike
// Collector::counter/histogram, these do NOT require Stop(): a long-lived daemon
// serving /metrics reads them while its collector keeps recording. Values are
// relaxed-atomic snapshots — monotonic between reads of one session, zero when no
// collector is recording.
uint64_t LiveCounter(Counter c);
HistSummary LiveHistogram(Hist h);

// Raw per-bucket snapshot of one live histogram, for exposition formats that need the
// full distribution (Prometheus cumulative _bucket series), not just a summary.
struct HistBucketCounts {
  uint64_t buckets[kHistBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
};
HistBucketCounts LiveHistogramBuckets(Hist h);

// ---------------------------------------------------------------------------------------
// Labeled metrics. The same counters/histograms, broken down by a fixed low-cardinality
// label tuple so a multi-tenant daemon can answer "which tenant is slow". Three
// dimensions only — tenant, app, and a per-metric third value ("mode"): cold/warm for
// request metrics, the verdict source (computed/replayed/prefiltered) for
// service.verdicts. Cardinality is bounded: past kMaxLabelSets distinct tuples, new
// tuples fold into {kLabelOverflow, kLabelOverflow, mode} instead of growing the
// registry without limit. Entry points are zero-cost when collection is off (one
// relaxed load); when on they take a registry mutex — they belong on per-request
// aggregation points, never in per-pair inner loops.

struct MetricLabels {
  std::string tenant;
  std::string app;
  std::string mode;
};

inline constexpr size_t kMaxLabelSets = 256;
inline constexpr const char* kLabelOverflow = "_other";

// No-ops when collection is off; AddLabeled also drops delta == 0 (no empty rows).
void AddLabeled(Counter c, const MetricLabels& labels, uint64_t delta = 1);
void ObserveLabeled(Hist h, const MetricLabels& labels, uint64_t value);

struct LabeledCounterRow {
  MetricLabels labels;
  Counter counter = Counter::kNumCounters;
  uint64_t value = 0;
};
struct LabeledHistRow {
  MetricLabels labels;
  Hist hist = Hist::kNumHists;
  HistSummary summary;
  HistBucketCounts buckets;
};

// Mid-recording snapshots of every labeled row, in deterministic (metric, labels)
// order; empty when no collector is recording.
std::vector<LabeledCounterRow> LiveLabeledCounters();
std::vector<LabeledHistRow> LiveLabeledHistograms();

// RAII span: records [construction, destruction) into the active collector's buffer for
// this thread. Constructing with collection off is free (no clock read). Up to
// kMaxSpanArgs numeric arguments can be attached; they export as the Chrome-trace
// "args" object (e.g. per-pair solver counters).
class ScopedSpan {
 public:
  static constexpr size_t kMaxSpanArgs = 4;

  // Static-name form: safe to call unguarded on hot paths.
  ScopedSpan(const char* name, const char* category);
  // Dynamic-name form: callers should only build `name` under obs::Enabled().
  ScopedSpan(std::string name, const char* category);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a numeric argument (dropped beyond kMaxSpanArgs or when inactive).
  void Arg(const char* key, uint64_t value);

  bool active() const { return active_; }

 private:
  void Start(const char* category);

  std::string name_;
  const char* category_ = nullptr;
  int64_t start_us_ = 0;
  bool active_ = false;
  size_t num_args_ = 0;
  std::pair<const char*, uint64_t> args_[kMaxSpanArgs];
};

// One finished span, as exported. `tid` is a small per-thread index assigned in
// registration order (the calling thread of the collector is tid 1). `trace` is the
// request-scoped trace the span was recorded under (0 = none).
struct TraceEvent {
  std::string name;
  const char* category = nullptr;
  int64_t ts_us = 0;   // start, microseconds since collector install
  int64_t dur_us = 0;  // duration, microseconds
  int tid = 0;
  uint64_t trace = 0;
  std::vector<std::pair<const char*, uint64_t>> args;
};

// ---------------------------------------------------------------------------------------
// Request-scoped trace context. A service request gets one context for its lifetime;
// every span closed while the context is installed is stamped with its trace id, and —
// when the request asked for an inline trace — also copied into its TraceCapture, so
// the request's spans form one extractable tree even though they interleave with other
// requests' spans in the shared per-thread buffers. The context is thread-local;
// AnalyzeRestrictions re-installs the submitting thread's context inside every pool
// task, so per-pair verify spans inherit the request that scheduled them.

// A per-request span sink. Thread-safe: pool workers append concurrently; the owner
// snapshots after the request's spans have all closed (the ParallelFor barrier plus the
// request scope guarantee quiescence). Recording requires an active collector — the
// capture rides the same Enabled() gate as every other probe.
class TraceCapture {
 public:
  void Record(const TraceEvent& ev);
  // Events sorted by start timestamp.
  std::vector<TraceEvent> Snapshot() const;
  // Chrome trace-event JSON of the captured tree: {"traceEvents": [...]}, with the
  // request's external trace id injected into every event's args (string-valued) and
  // echoed in otherData. Loadable by chrome://tracing and Perfetto. The second form
  // writes the same document as the next value of `w`.
  std::string ChromeTraceJson(const std::string& trace_id) const;
  void ChromeTraceJson(JsonWriter& w, const std::string& trace_id) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

struct TraceContext {
  uint64_t trace = 0;               // 0 = no request context
  TraceCapture* capture = nullptr;  // optional inline-trace sink
};

// The calling thread's current context ({0, nullptr} when none). Cheap: two
// thread-local reads; safe to call with collection off.
TraceContext CurrentTraceContext();

// RAII: installs `ctx` as the calling thread's context, restoring the previous one on
// destruction. Used by the service worker (request scope) and by pool tasks
// (propagation of the submitter's context).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ScopedTraceContext(uint64_t trace, TraceCapture* capture);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

// Steady-clock now in microseconds — the timestamp domain RecordSpan expects. Callers
// stamp a moment (e.g. admission enqueue) and later record the finished interval.
int64_t SteadyNowMicros();

// Records an already-measured span [start_us, end_us) (SteadyNowMicros domain) into the
// active collector and the current trace context, exactly as if a ScopedSpan had lived
// that long on this thread. For intervals that cannot be an RAII scope — queue wait
// starts on the reader thread and ends on the worker. No-op when collection is off.
void RecordSpan(const char* name, const char* category, int64_t start_us, int64_t end_us);

// ---------------------------------------------------------------------------------------
// Collector

// Owns one recording session: installs itself as the process-global sink on
// construction (fatal if another collector is already installed), records until Stop(),
// and exposes the snapshot afterwards. Stop() is idempotent and also runs from the
// destructor. Counters and buffers are reset at install, so two consecutive runs never
// bleed into each other.
class Collector {
 public:
  explicit Collector(ObsOptions options);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Disables recording and snapshots events, counters, and histograms. Must be called
  // (directly or via the destructor) after all recording threads have quiesced — for the
  // pipeline that is guaranteed by ParallelFor's completion barrier.
  void Stop();

  // Everything below requires Stop() to have run.
  const std::vector<TraceEvent>& events() const;
  uint64_t counter(Counter c) const;
  HistSummary histogram(Hist h) const;
  // Distinct span categories seen, e.g. {"analyze", "encode", "solve", "cache"}.
  std::set<std::string> SpanCategories() const;

  // Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit": "ms",
  // "otherData": {"counters": {...}}}. Loadable by chrome://tracing and Perfetto.
  std::string ChromeTraceJson() const;
  // Writes ChromeTraceJson to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  ObsOptions options_;
  bool stopped_ = false;
  std::vector<TraceEvent> events_;
  uint64_t counters_[static_cast<size_t>(Counter::kNumCounters)] = {};
  HistSummary hists_[static_cast<size_t>(Hist::kNumHists)] = {};
};

}  // namespace noctua::obs

#endif  // SRC_OBS_OBS_H_
