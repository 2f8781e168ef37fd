// Tests for the observability layer: histogram bucket math (exact reservoir
// percentiles, intra-bucket interpolation), counter/histogram aggregation, labeled
// per-tenant metrics with the cardinality cap, request-scoped trace contexts and
// capture (also under a collector that retains no spans), concurrent span recording
// through the worker pool (the TSan target), Chrome-trace export parsed back through
// the bundled JSON parser, the JSON writer's escaping, nesting and byte spelling,
// Prometheus text exposition and its checker, the structured event log, the RunReport
// built from a real pipeline run, the order of a store-backed run's phases around the
// engine lock, the solver probes (grounding time, undecided verdicts), and the verdict
// cache's per-shard statistics and bounded eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/obs/json.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/obs/prom.h"
#include "src/obs/report.h"
#include "src/pipeline/engine.h"
#include "src/support/thread_pool.h"
#include "src/verifier/cache.h"
#include "src/verifier/report.h"

namespace noctua::obs {
namespace {

// -----------------------------------------------------------------------------
// Histogram bucket math

TEST(HistBuckets, BoundariesArePowersOfTwo) {
  EXPECT_EQ(HistBucketFor(0), 0u);
  EXPECT_EQ(HistBucketFor(1), 1u);
  EXPECT_EQ(HistBucketFor(2), 2u);
  EXPECT_EQ(HistBucketFor(3), 2u);
  EXPECT_EQ(HistBucketFor(4), 3u);
  EXPECT_EQ(HistBucketFor(7), 3u);
  EXPECT_EQ(HistBucketFor(8), 4u);
  // Every bucket's lower bound maps back into that bucket, and the value just below it
  // lands one bucket earlier.
  for (size_t b = 1; b < kHistBuckets; ++b) {
    uint64_t lo = HistBucketLowerBound(b);
    EXPECT_EQ(HistBucketFor(lo), b) << "bucket " << b;
    EXPECT_EQ(HistBucketFor(lo - 1), b - 1) << "bucket " << b;
  }
}

TEST(HistBuckets, FullUint64RangeFits) {
  // bit_width(UINT64_MAX) == 64, so the top value must land inside the array, not one
  // past it.
  EXPECT_LT(HistBucketFor(UINT64_MAX), kHistBuckets);
  EXPECT_EQ(HistBucketFor(UINT64_MAX), 64u);
  EXPECT_EQ(HistBucketFor(uint64_t{1} << 63), 64u);
  EXPECT_EQ(HistBucketFor((uint64_t{1} << 63) - 1), 63u);
}

TEST(HistBuckets, ObserveExtremesDoesNotCorrupt) {
  Collector collector(ObsOptions{.enabled = true});
  Observe(Hist::kSolverNodesPerQuery, 0);
  Observe(Hist::kSolverNodesPerQuery, UINT64_MAX);
  collector.Stop();
  HistSummary s = collector.histogram(Hist::kSolverNodesPerQuery);
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, UINT64_MAX);
}

TEST(HistBuckets, SmallCountPercentilesAreExact) {
  Collector collector(ObsOptions{.enabled = true});
  // 100 samples: 98 at 100, 2 at 5000. Count <= kHistReservoir, so the summary reports
  // exact nearest-rank percentiles from the sample reservoir — NOT bucket lower bounds
  // (64 / 4096 here); a service histogram with one sample per request never quantizes.
  for (int i = 0; i < 98; ++i) {
    Observe(Hist::kPairMicros, 100);
  }
  Observe(Hist::kPairMicros, 5000);
  Observe(Hist::kPairMicros, 5000);
  collector.Stop();
  HistSummary s = collector.histogram(Hist::kPairMicros);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 98u * 100 + 2 * 5000);
  EXPECT_EQ(s.min, 100u);
  EXPECT_EQ(s.max, 5000u);
  EXPECT_EQ(s.p50, 100u);
  EXPECT_EQ(s.p95, 100u);
  EXPECT_EQ(s.p99, 5000u);
  EXPECT_DOUBLE_EQ(s.Mean(), (98.0 * 100 + 2 * 5000) / 100.0);
}

TEST(HistBuckets, LargeCountPercentilesInterpolateWithinBuckets) {
  Collector collector(ObsOptions{.enabled = true});
  // 512 samples (past the reservoir): 400 at 100 (bucket [64, 128)), 112 at 5000
  // (bucket [4096, 8192)). Percentiles interpolate linearly inside the bucket holding
  // the rank and clamp to the observed [min, max].
  for (int i = 0; i < 400; ++i) {
    Observe(Hist::kPairMicros, 100);
  }
  for (int i = 0; i < 112; ++i) {
    Observe(Hist::kPairMicros, 5000);
  }
  collector.Stop();
  HistSummary s = collector.histogram(Hist::kPairMicros);
  EXPECT_EQ(s.count, 512u);
  EXPECT_EQ(s.min, 100u);
  EXPECT_EQ(s.max, 5000u);
  // Rank 256 of 512 falls 256/400 of the way through [64, 127]: 64 + 63 * 0.64 = 104 —
  // close to the true 100, never the old bucket-floor 64.
  EXPECT_EQ(s.p50, 104u);
  // p95/p99 ranks land in the sparse top bucket; the interpolated value clamps to the
  // observed max instead of overshooting toward 8191.
  EXPECT_EQ(s.p95, 5000u);
  EXPECT_EQ(s.p99, 5000u);
}

TEST(HistBuckets, SingleValuedHistogramStaysExactPastReservoir) {
  Collector collector(ObsOptions{.enabled = true});
  for (int i = 0; i < 300; ++i) {
    Observe(Hist::kPairMicros, 100);
  }
  collector.Stop();
  HistSummary s = collector.histogram(Hist::kPairMicros);
  EXPECT_EQ(s.count, 300u);
  // The [min, max] clamp keeps a constant-valued histogram exact at any count.
  EXPECT_EQ(s.p50, 100u);
  EXPECT_EQ(s.p95, 100u);
  EXPECT_EQ(s.p99, 100u);
}

// -----------------------------------------------------------------------------
// Enabled/disabled gating

TEST(Gating, NothingRecordsWithoutCollector) {
  ASSERT_FALSE(Enabled());
  ASSERT_FALSE(Active());
  // All no-ops; the collector installed afterwards must start from zero.
  Add(Counter::kPairsChecked, 41);
  Observe(Hist::kPairMicros, 7);
  {
    ScopedSpan span("orphan", kCatPair);
    EXPECT_FALSE(span.active());
  }
  Collector collector(ObsOptions{.enabled = true});
  EXPECT_TRUE(Enabled());
  EXPECT_TRUE(Active());
  collector.Stop();
  EXPECT_FALSE(Enabled());
  EXPECT_EQ(collector.counter(Counter::kPairsChecked), 0u);
  EXPECT_EQ(collector.histogram(Hist::kPairMicros).count, 0u);
  EXPECT_TRUE(collector.events().empty());
}

TEST(Gating, EmptyDynamicNameIsInactive) {
  Collector collector(ObsOptions{.enabled = true});
  {
    // The Enabled-gated dynamic-name pattern: when collection is off the call site
    // passes "", which must record nothing even while a collector runs.
    ScopedSpan span(std::string(), kCatAnalyze);
    EXPECT_FALSE(span.active());
    span.Arg("ignored", 1);
  }
  collector.Stop();
  EXPECT_TRUE(collector.events().empty());
}

TEST(Gating, ConsecutiveCollectorsDoNotBleed) {
  {
    Collector first(ObsOptions{.enabled = true});
    Add(Counter::kSolverChecks, 5);
    { ScopedSpan span("first-run", kCatVerify); }
    first.Stop();
    EXPECT_EQ(first.counter(Counter::kSolverChecks), 5u);
    EXPECT_EQ(first.events().size(), 1u);
  }
  Collector second(ObsOptions{.enabled = true});
  second.Stop();
  EXPECT_EQ(second.counter(Counter::kSolverChecks), 0u);
  EXPECT_TRUE(second.events().empty());
}

// -----------------------------------------------------------------------------
// Concurrent recording (run under TSan in CI)

TEST(ConcurrentSpans, PoolWorkersRecordIndependently) {
  constexpr size_t kTasks = 256;
  Collector collector(ObsOptions{.enabled = true});
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [](size_t i) {
    ScopedSpan span(Enabled() ? "task-" + std::to_string(i) : std::string(), kCatPair);
    span.Arg("index", i);
    Add(Counter::kPairsChecked);
    Observe(Hist::kPairMicros, i + 1);
  });
  collector.Stop();

  EXPECT_EQ(collector.counter(Counter::kPairsChecked), kTasks);
  EXPECT_EQ(collector.histogram(Hist::kPairMicros).count, kTasks);
  const std::vector<TraceEvent>& events = collector.events();
  ASSERT_EQ(events.size(), kTasks);
  // Every task's span survived exactly once, with its arg intact, stamped with a
  // positive thread index; the merged stream is sorted by start time.
  std::set<std::string> names;
  for (const TraceEvent& ev : events) {
    names.insert(ev.name);
    EXPECT_GT(ev.tid, 0);
    EXPECT_GE(ev.ts_us, 0);
    EXPECT_GE(ev.dur_us, 0);
    ASSERT_EQ(ev.args.size(), 1u);
    EXPECT_STREQ(ev.args[0].first, "index");
  }
  EXPECT_EQ(names.size(), kTasks);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.ts_us < b.ts_us;
                             }));
}

TEST(ConcurrentSpans, CountersAccumulateAcrossThreads) {
  Collector collector(ObsOptions{.enabled = true});
  ThreadPool pool(4);
  pool.ParallelFor(1000, [](size_t) { Add(Counter::kSolverNodes, 3); });
  collector.Stop();
  EXPECT_EQ(collector.counter(Counter::kSolverNodes), 3000u);
}

// -----------------------------------------------------------------------------
// Labeled metrics: per-tenant breakdown with a bounded label registry

TEST(LabeledMetrics, RowsBreakDownByTenantAppMode) {
  Collector collector(ObsOptions{.enabled = true});
  AddLabeled(Counter::kServiceRequestsOk, {"alice", "Todo", "cold"}, 1);
  AddLabeled(Counter::kServiceRequestsOk, {"alice", "Todo", "cold"}, 2);
  AddLabeled(Counter::kServiceRequestsOk, {"bob", "Todo", "warm"}, 1);
  ObserveLabeled(Hist::kServiceHandleMicros, {"alice", "Todo", "cold"}, 150);
  ObserveLabeled(Hist::kServiceHandleMicros, {"alice", "Todo", "cold"}, 250);

  std::vector<LabeledCounterRow> counters = LiveLabeledCounters();
  ASSERT_EQ(counters.size(), 2u);
  // Deterministic (metric, labels) order: alice before bob.
  EXPECT_EQ(counters[0].labels.tenant, "alice");
  EXPECT_EQ(counters[0].labels.app, "Todo");
  EXPECT_EQ(counters[0].labels.mode, "cold");
  EXPECT_EQ(counters[0].counter, Counter::kServiceRequestsOk);
  EXPECT_EQ(counters[0].value, 3u);  // 1 + 2 merged into one row
  EXPECT_EQ(counters[1].labels.tenant, "bob");
  EXPECT_EQ(counters[1].value, 1u);

  std::vector<LabeledHistRow> hists = LiveLabeledHistograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].hist, Hist::kServiceHandleMicros);
  EXPECT_EQ(hists[0].summary.count, 2u);
  EXPECT_EQ(hists[0].summary.sum, 400u);
  EXPECT_EQ(hists[0].summary.min, 150u);
  EXPECT_EQ(hists[0].summary.max, 250u);
  EXPECT_EQ(hists[0].summary.p50, 150u);  // exact: both samples in the reservoir
  EXPECT_EQ(hists[0].buckets.count, 2u);
  collector.Stop();
}

TEST(LabeledMetrics, DisabledAndZeroDeltaRecordNothing) {
  ASSERT_FALSE(Enabled());
  AddLabeled(Counter::kServiceRequestsOk, {"alice", "Todo", "cold"}, 5);  // no collector
  EXPECT_TRUE(LiveLabeledCounters().empty());

  Collector collector(ObsOptions{.enabled = true});
  AddLabeled(Counter::kServiceRequestsOk, {"alice", "Todo", "cold"}, 0);  // empty delta
  EXPECT_TRUE(LiveLabeledCounters().empty());
  collector.Stop();
  // After Stop the live view is empty again even though rows could exist.
  EXPECT_TRUE(LiveLabeledCounters().empty());
  EXPECT_TRUE(LiveLabeledHistograms().empty());
}

TEST(LabeledMetrics, CardinalityFoldsIntoOverflowTuple) {
  Collector collector(ObsOptions{.enabled = true});
  for (size_t i = 0; i < kMaxLabelSets; ++i) {
    AddLabeled(Counter::kServiceRequests, {"t" + std::to_string(i), "app", "cold"}, 1);
  }
  // The registry is at capacity: fresh tenants fold into {_other, _other, mode}; the
  // mode dimension survives (it is a closed set chosen by code, not by callers).
  AddLabeled(Counter::kServiceRequests, {"fresh1", "app", "cold"}, 1);
  AddLabeled(Counter::kServiceRequests, {"fresh2", "app", "cold"}, 1);
  AddLabeled(Counter::kServiceRequests, {"fresh3", "app", "warm"}, 1);

  std::vector<LabeledCounterRow> rows = LiveLabeledCounters();
  collector.Stop();
  uint64_t overflow_cold = 0, overflow_warm = 0;
  size_t named = 0;
  for (const LabeledCounterRow& row : rows) {
    if (row.labels.tenant == kLabelOverflow) {
      EXPECT_EQ(row.labels.app, kLabelOverflow);
      (row.labels.mode == "cold" ? overflow_cold : overflow_warm) = row.value;
    } else {
      ++named;
      EXPECT_EQ(row.value, 1u);
    }
  }
  EXPECT_EQ(named, kMaxLabelSets);
  EXPECT_EQ(overflow_cold, 2u);  // fresh1 + fresh2 merged
  EXPECT_EQ(overflow_warm, 1u);
  // No named row for the folded tenants exists anywhere.
  for (const LabeledCounterRow& row : rows) {
    EXPECT_NE(row.labels.tenant.rfind("fresh", 0), 0u) << row.labels.tenant;
  }
}

// -----------------------------------------------------------------------------
// Request-scoped trace context and capture

TEST(TraceContext, SpansAreStampedAndCaptured) {
  Collector collector(ObsOptions{.enabled = true});
  TraceCapture capture;
  {
    ScopedTraceContext scope(42, &capture);
    ScopedSpan span("req", kCatService);
  }
  { ScopedSpan span("outside", kCatService); }  // context restored: unstamped
  collector.Stop();

  ASSERT_EQ(collector.events().size(), 2u);
  for (const TraceEvent& ev : collector.events()) {
    EXPECT_EQ(ev.trace, ev.name == "req" ? 42u : 0u) << ev.name;
  }
  // The capture saw exactly the in-context span.
  std::vector<TraceEvent> captured = capture.Snapshot();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].name, "req");
  EXPECT_EQ(captured[0].trace, 42u);
}

TEST(TraceContext, NestedScopesRestoreOuterContext) {
  EXPECT_EQ(CurrentTraceContext().trace, 0u);
  EXPECT_EQ(CurrentTraceContext().capture, nullptr);
  {
    ScopedTraceContext outer(1, nullptr);
    EXPECT_EQ(CurrentTraceContext().trace, 1u);
    {
      TraceCapture capture;
      ScopedTraceContext inner(2, &capture);
      EXPECT_EQ(CurrentTraceContext().trace, 2u);
      EXPECT_EQ(CurrentTraceContext().capture, &capture);
    }
    EXPECT_EQ(CurrentTraceContext().trace, 1u);
    EXPECT_EQ(CurrentTraceContext().capture, nullptr);
  }
  EXPECT_EQ(CurrentTraceContext().trace, 0u);
}

TEST(TraceContext, RecordSpanBackfillsMeasuredInterval) {
  Collector collector(ObsOptions{.enabled = true});
  TraceCapture capture;
  {
    ScopedTraceContext scope(7, &capture);
    // Queue-wait pattern: the interval was stamped elsewhere (reader thread) and is
    // recorded after the fact on this thread.
    int64_t start = SteadyNowMicros();
    RecordSpan("queue_wait", kCatService, start, start + 800);
  }
  collector.Stop();
  ASSERT_EQ(collector.events().size(), 1u);
  const TraceEvent& ev = collector.events()[0];
  EXPECT_EQ(ev.name, "queue_wait");
  EXPECT_STREQ(ev.category, kCatService);
  EXPECT_EQ(ev.dur_us, 800);
  EXPECT_EQ(ev.trace, 7u);
  ASSERT_EQ(capture.Snapshot().size(), 1u);
  EXPECT_EQ(capture.Snapshot()[0].dur_us, 800);
}

TEST(TraceContext, NothingRecordsWithoutCollector) {
  ASSERT_FALSE(Enabled());
  TraceCapture capture;
  ScopedTraceContext scope(9, &capture);
  { ScopedSpan span("dead", kCatService); }
  RecordSpan("also_dead", kCatService, 0, 100);
  EXPECT_TRUE(capture.Snapshot().empty());
}

TEST(TraceContext, PoolTasksInheritSubmitterContextWhenPropagated) {
  // The propagation idiom used by verifier::AnalyzeRestrictions: capture the context
  // before ParallelFor, re-install it inside every task.
  Collector collector(ObsOptions{.enabled = true});
  TraceCapture capture;
  {
    ScopedTraceContext scope(31, &capture);
    const TraceContext ctx = CurrentTraceContext();
    ThreadPool pool(4);
    pool.ParallelFor(64, [&ctx](size_t i) {
      ScopedTraceContext task_scope(ctx);
      ScopedSpan span(Enabled() ? "pair-" + std::to_string(i) : std::string(), kCatPair);
    });
  }
  collector.Stop();
  ASSERT_EQ(collector.events().size(), 64u);
  for (const TraceEvent& ev : collector.events()) {
    EXPECT_EQ(ev.trace, 31u) << ev.name;
  }
  EXPECT_EQ(capture.Snapshot().size(), 64u);
}

// A collector that retains no spans (the daemon's) keeps no span, so a server that
// records for as long as it runs stays bounded. Counters and histograms still record,
// and a request's TraceCapture receives every span a retaining collector's would.
TEST(RetainSpans, OffKeepsNoSpansButStillCountsAndCaptures) {
  struct Run {
    size_t events = 0;
    uint64_t pairs = 0;
    uint64_t pair_samples = 0;
    std::vector<TraceEvent> captured;
  };
  auto run = [](bool retain) {
    ObsOptions options;
    options.enabled = true;
    options.retain_spans = retain;
    Collector collector(options);
    TraceCapture capture;
    {
      ScopedTraceContext scope(11, &capture);
      const TraceContext ctx = CurrentTraceContext();
      ThreadPool pool(4);
      pool.ParallelFor(64, [&ctx](size_t i) {
        ScopedTraceContext task_scope(ctx);
        ScopedSpan span(Enabled() ? "pair-" + std::to_string(i) : std::string(), kCatPair);
        span.Arg("index", i);
        Add(Counter::kPairsChecked);
        Observe(Hist::kPairMicros, i + 1);
      });
      const int64_t start = SteadyNowMicros();
      RecordSpan("queue_wait", kCatService, start, start + 5);
    }
    { ScopedSpan outside("outside", kCatService); }  // no capture: only retention keeps it
    collector.Stop();
    Run r;
    r.events = collector.events().size();
    r.pairs = collector.counter(Counter::kPairsChecked);
    r.pair_samples = collector.histogram(Hist::kPairMicros).count;
    r.captured = capture.Snapshot();
    return r;
  };
  auto summary = [](const std::vector<TraceEvent>& events) {
    std::multiset<std::string> out;
    for (const TraceEvent& ev : events) {
      std::string line = ev.name + "/" + ev.category + "/" + std::to_string(ev.trace);
      if (ev.name == "queue_wait") {
        line += "/dur=" + std::to_string(ev.dur_us);
      }
      for (const auto& [key, value] : ev.args) {
        line += std::string("/") + key + "=" + std::to_string(value);
      }
      EXPECT_GT(ev.tid, 0) << ev.name;
      out.insert(line);
    }
    return out;
  };

  const Run kept = run(/*retain=*/true);
  const Run dropped = run(/*retain=*/false);
  EXPECT_EQ(kept.events, 66u);
  EXPECT_EQ(dropped.events, 0u);
  EXPECT_EQ(dropped.pairs, 64u);
  EXPECT_EQ(dropped.pair_samples, 64u);
  ASSERT_EQ(dropped.captured.size(), 65u);
  EXPECT_EQ(summary(dropped.captured), summary(kept.captured));
}

TEST(TraceCapture, ChromeTraceJsonInjectsExternalTraceId) {
  Collector collector(ObsOptions{.enabled = true});
  TraceCapture capture;
  {
    ScopedTraceContext scope(5, &capture);
    ScopedSpan a("first", kCatService);
    ScopedSpan b("second", kCatPipeline);
  }
  collector.Stop();

  std::string error;
  JsonPtr root = ParseJson(capture.ChromeTraceJson("req:abc"), &error);
  ASSERT_NE(root, nullptr) << error;
  EXPECT_EQ(root->Get("otherData")->Get("trace_id")->AsString(), "req:abc");
  JsonPtr events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t spans = 0;
  for (const JsonPtr& ev : events->AsArray()) {
    if (ev->Get("ph")->AsString() != "X") {
      continue;
    }
    ++spans;
    // Every span of the request carries the external id as a string arg, so a tree
    // merged into a larger trace stays filterable.
    EXPECT_EQ(ev->Get("args")->Get("trace_id")->AsString(), "req:abc");
  }
  EXPECT_EQ(spans, 2u);
}

// -----------------------------------------------------------------------------
// Chrome-trace export, parsed back with the bundled JSON parser

TEST(ChromeTrace, ExportParsesBackWithExpectedShape) {
  Collector collector(ObsOptions{.enabled = true});
  {
    ScopedSpan outer("outer \"quoted\"", kCatPipeline);
    outer.Arg("pairs", 3);
    ScopedSpan inner("inner", kCatSolve);
    inner.Arg("nodes", 42);
  }
  Add(Counter::kSolverChecks, 7);
  collector.Stop();

  std::string error;
  JsonPtr root = ParseJson(collector.ChromeTraceJson(), &error);
  ASSERT_NE(root, nullptr) << error;
  ASSERT_TRUE(root->is_object());
  EXPECT_EQ(root->Get("displayTimeUnit")->AsString(), "ms");

  JsonPtr events = root->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  size_t complete = 0, metadata = 0;
  for (const JsonPtr& ev : events->AsArray()) {
    ASSERT_TRUE(ev->is_object());
    if (ev->Get("ph")->AsString() == "M") {
      ++metadata;
      EXPECT_EQ(ev->Get("name")->AsString(), "thread_name");
      continue;
    }
    ++complete;
    EXPECT_EQ(ev->Get("ph")->AsString(), "X");
    EXPECT_TRUE(ev->Get("ts")->is_number());
    EXPECT_TRUE(ev->Get("dur")->is_number());
    EXPECT_TRUE(ev->Get("pid")->is_number());
    EXPECT_TRUE(ev->Get("tid")->is_number());
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_GE(metadata, 1u);  // at least the recording thread's name

  // The escaped span name round-trips, and args survive as numbers.
  bool found_outer = false;
  for (const JsonPtr& ev : events->AsArray()) {
    if (ev->Get("name")->AsString() == "outer \"quoted\"") {
      found_outer = true;
      EXPECT_EQ(ev->Get("cat")->AsString(), "pipeline");
      JsonPtr args = ev->Get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->Get("pairs")->AsDouble(), 3.0);
    }
  }
  EXPECT_TRUE(found_outer);

  // Non-zero counters export under otherData.counters.
  JsonPtr counters = root->Get("otherData")->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Get("verifier.solver_checks")->AsDouble(), 7.0);
}

TEST(JsonParser, AcceptsAndRejects) {
  std::string error;
  JsonPtr v = ParseJson(R"({"a": [1, 2.5, -3e2], "b": {"nested": "x\nA"}, "c": true, "d": null})", &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(v->Get("a")->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v->Get("a")->AsArray()[2]->AsDouble(), -300.0);
  EXPECT_EQ(v->Get("b")->Get("nested")->AsString(), "x\nA");
  EXPECT_TRUE(v->Get("c")->AsBool());
  EXPECT_TRUE(v->Get("d")->is_null());
  EXPECT_EQ(v->Get("missing"), nullptr);

  EXPECT_EQ(ParseJson("{", &error), nullptr);
  EXPECT_EQ(ParseJson("[1, 2,]", &error), nullptr);
  EXPECT_EQ(ParseJson("{} trailing", &error), nullptr);
  EXPECT_EQ(ParseJson("\"unterminated", &error), nullptr);
}

TEST(JsonWriter, EscapedStringsRoundTripUnchanged) {
  const std::string text =
      "quote \" backslash \\ newline \n tab \t control \x01 e-acute \xc3\xa9";
  std::string error;
  JsonPtr v = ParseJson(JsonWriter().String(text).Take(), &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(v->AsString(), text);
  JsonPtr keyed = ParseJson(JsonWriter().BeginObject().Key(text).Int(7).EndObject().Take(), &error);
  ASSERT_NE(keyed, nullptr) << error;
  ASSERT_NE(keyed->Get(text), nullptr);
  EXPECT_EQ(keyed->Get(text)->AsInt(), 7);
}

TEST(JsonWriter, NestedContainersRoundTrip) {
  JsonWriter w;
  w.BeginObject().Key("empty_object").BeginObject().EndObject();
  w.Key("empty_array").BeginArray().EndArray().Key("rows").BeginArray();
  w.BeginObject().Key("tags").BeginArray().String("a").EndArray().EndObject();
  w.BeginArray().BeginArray().EndArray().BeginObject().EndObject().Int(-12).EndArray();
  w.EndArray().Key("ratio").Double(0.25, 3).EndObject();
  std::string error;
  JsonPtr v = ParseJson(w.Take(), &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_TRUE(v->Get("empty_object")->is_object() && v->Get("empty_object")->AsObject().empty());
  EXPECT_TRUE(v->Get("empty_array")->is_array() && v->Get("empty_array")->AsArray().empty());
  const std::vector<JsonPtr>& rows = v->Get("rows")->AsArray();
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0]->Get("tags")->AsArray().size(), 1u);
  EXPECT_EQ(rows[0]->Get("tags")->AsArray()[0]->AsString(), "a");
  const std::vector<JsonPtr>& inner = rows[1]->AsArray();
  ASSERT_EQ(inner.size(), 3u);
  EXPECT_TRUE(inner[0]->is_array() && inner[0]->AsArray().empty());
  EXPECT_TRUE(inner[1]->is_object() && inner[1]->AsObject().empty());
  EXPECT_EQ(inner[2]->AsInt(), -12);
  EXPECT_DOUBLE_EQ(v->Get("ratio")->AsDouble(), 0.25);
}

// The spelling every emitted document shares: ", " between members and elements, ": "
// after keys, fixed-digit doubles. CI greps the access log for `"event": "request"`.
TEST(JsonWriter, DocumentBytesArePinned) {
  JsonWriter w;
  w.BeginObject().Key("event").String("request").Key("n").Uint(3).Key("t").Double(1.5, 2);
  w.Key("ok").Bool(true).Key("rows").BeginArray().Int(-2).BeginObject().EndObject();
  w.EndArray().Key("nested").BeginObject().Key("a").BeginArray().EndArray().EndObject();
  EXPECT_EQ(w.EndObject().Take(),
            R"({"event": "request", "n": 3, "t": 1.50, "ok": true, "rows": [-2, {}], )"
            R"("nested": {"a": []}})");
  // Take leaves the writer empty, ready for the next document.
  EXPECT_EQ(w.BeginArray().String("x").EndArray().Take(), R"(["x"])");
}

// -----------------------------------------------------------------------------
// Prometheus text exposition and its checker

TEST(Prometheus, MetricNameMapping) {
  EXPECT_EQ(PrometheusMetricName("service.request_micros"),
            "noctua_service_request_micros");
  EXPECT_EQ(PrometheusMetricName("verifier.pairs_checked"),
            "noctua_verifier_pairs_checked");
}

TEST(Prometheus, ExpositionRendersLiveRegistryAndValidates) {
  Collector collector(ObsOptions{.enabled = true});
  Add(Counter::kPairsChecked, 5);
  AddLabeled(Counter::kServiceRequestsOk, {"alice", "Todo", "cold"}, 2);
  for (int i = 0; i < 3; ++i) {
    Observe(Hist::kPairMicros, 100);  // bucket [64, 128): le="127"
  }
  ObserveLabeled(Hist::kServiceHandleMicros, {"alice", "Todo", "cold"}, 1000);
  std::vector<PromSample> extras;
  extras.push_back({"noctua_service_queue_depth", "Admitted-not-started requests",
                    "gauge", {}, 4});
  std::string text = PrometheusText(extras);
  collector.Stop();

  std::string error;
  size_t series = 0;
  EXPECT_TRUE(CheckPrometheusText(text, &error, &series)) << error << "\n" << text;
  EXPECT_GT(series, 0u);
  auto has = [&](const std::string& line) {
    EXPECT_NE(text.find(line + "\n"), std::string::npos) << "missing: " << line;
  };
  has("noctua_service_queue_depth 4");
  has("noctua_verifier_pairs_checked_total 5");
  // Labeled counter rows are extra series of the same family.
  has("noctua_service_requests_ok_total{tenant=\"alice\",app=\"Todo\",mode=\"cold\"} 2");
  // Histogram: cumulative buckets with integer le bounds, closed by +Inf/_sum/_count.
  has("noctua_verifier_pair_micros_bucket{le=\"127\"} 3");
  has("noctua_verifier_pair_micros_bucket{le=\"+Inf\"} 3");
  has("noctua_verifier_pair_micros_sum 300");
  has("noctua_verifier_pair_micros_count 3");
  // Labeled histogram series carry the tenant labels plus le.
  has("noctua_service_handle_micros_bucket{tenant=\"alice\",app=\"Todo\","
      "mode=\"cold\",le=\"+Inf\"} 1");
  has("noctua_service_handle_micros_count{tenant=\"alice\",app=\"Todo\","
      "mode=\"cold\"} 1");
}

TEST(Prometheus, ExpositionSkipsEmptyFamiliesAndEscapesLabels) {
  Collector collector(ObsOptions{.enabled = true});
  AddLabeled(Counter::kServiceRequestsOk, {"al\"ice", "", "cold"}, 1);
  std::string text = PrometheusText({});
  collector.Stop();
  std::string error;
  EXPECT_TRUE(CheckPrometheusText(text, &error)) << error << "\n" << text;
  // The quote is escaped; the empty app label is omitted, not rendered as "".
  EXPECT_NE(text.find("{tenant=\"al\\\"ice\",mode=\"cold\"} 1"), std::string::npos)
      << text;
  // Untouched families do not appear at all.
  EXPECT_EQ(text.find("noctua_smt_solve_micros"), std::string::npos);
}

TEST(Prometheus, CheckerRejectsBrokenExpositions) {
  std::string error;
  // Well-formed minimal histogram passes.
  EXPECT_TRUE(CheckPrometheusText(
      "x_bucket{le=\"1\"} 2\nx_bucket{le=\"+Inf\"} 3\nx_sum 7\nx_count 3\n", &error))
      << error;
  // Non-monotone cumulative buckets.
  EXPECT_FALSE(CheckPrometheusText(
      "x_bucket{le=\"1\"} 5\nx_bucket{le=\"+Inf\"} 3\nx_sum 7\nx_count 3\n", &error));
  EXPECT_NE(error.find("non-monotone"), std::string::npos) << error;
  // Missing +Inf.
  EXPECT_FALSE(
      CheckPrometheusText("x_bucket{le=\"1\"} 2\nx_sum 7\nx_count 2\n", &error));
  // _count disagrees with the +Inf bucket.
  EXPECT_FALSE(CheckPrometheusText(
      "x_bucket{le=\"+Inf\"} 3\nx_sum 7\nx_count 2\n", &error));
  // Missing _sum.
  EXPECT_FALSE(CheckPrometheusText("x_bucket{le=\"+Inf\"} 3\nx_count 3\n", &error));
  // Malformed lines and names.
  EXPECT_FALSE(CheckPrometheusText("9bad 1\n", &error));
  EXPECT_FALSE(CheckPrometheusText("no_value\n", &error));
  EXPECT_FALSE(CheckPrometheusText("x{le=\"unterminated} 1\n", &error));
  EXPECT_FALSE(CheckPrometheusText("# FOO comment form\n", &error));
  // Comments and blank lines are fine; label sets distinguish families.
  size_t series = 0;
  EXPECT_TRUE(CheckPrometheusText("# HELP a_total help text\n# TYPE a_total counter\n"
                                  "\na_total 1\na_total{tenant=\"t\"} 1\n",
                                  &error, &series))
      << error;
  EXPECT_EQ(series, 2u);
}

// -----------------------------------------------------------------------------
// Structured event log

TEST(EventLogTest, ParseLogLevelIsExact) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  LogLevel untouched = LogLevel::kWarn;
  EXPECT_FALSE(ParseLogLevel("INFO", &untouched));
  EXPECT_FALSE(ParseLogLevel("verbose", &untouched));
  EXPECT_FALSE(ParseLogLevel("", &untouched));
  EXPECT_EQ(untouched, LogLevel::kWarn);
}

TEST(EventLogTest, WritesJsonLinesAboveConfiguredLevel) {
  std::string path =
      (std::filesystem::temp_directory_path() / "noctua_obs_test_log.jsonl").string();
  std::filesystem::remove(path);
  {
    EventLog log;
    std::string error;
    ASSERT_TRUE(log.Configure(LogLevel::kInfo, path, &error)) << error;
    EXPECT_TRUE(log.Enabled(LogLevel::kInfo));
    EXPECT_TRUE(log.Enabled(LogLevel::kError));
    EXPECT_FALSE(log.Enabled(LogLevel::kDebug));
    log.Log(LogLevel::kDebug, "dropped", {{"n", 1}});
    log.Log(LogLevel::kInfo, "request",
            {{"trace_id", std::string("ntr-1")},
             {"tenant", std::string("al\"ice")},
             {"status", 200},
             {"queue_wait_us", uint64_t{41}},
             {"ok", true},
             {"ratio", 0.5}});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // Exactly one line (the debug probe was dropped), and it is strict JSON with the
  // typed fields intact.
  std::string error;
  JsonPtr doc = ParseJson(line, &error);
  ASSERT_NE(doc, nullptr) << error << "\nline: " << line;
  EXPECT_GT(doc->Get("ts_ms")->AsDouble(), 0.0);
  EXPECT_EQ(doc->Get("level")->AsString(), "info");
  EXPECT_EQ(doc->Get("event")->AsString(), "request");
  EXPECT_EQ(doc->Get("trace_id")->AsString(), "ntr-1");
  EXPECT_EQ(doc->Get("tenant")->AsString(), "al\"ice");
  EXPECT_EQ(doc->Get("status")->AsDouble(), 200.0);
  EXPECT_EQ(doc->Get("queue_wait_us")->AsDouble(), 41.0);
  EXPECT_TRUE(doc->Get("ok")->AsBool());
  EXPECT_DOUBLE_EQ(doc->Get("ratio")->AsDouble(), 0.5);
  EXPECT_FALSE(std::getline(in, line));
  std::filesystem::remove(path);
}

TEST(EventLogTest, ConfigureFailureKeepsPreviousSink) {
  EventLog log;
  std::string error;
  EXPECT_FALSE(log.Configure(LogLevel::kInfo,
                             "/nonexistent_noctua_dir/event.log", &error));
  EXPECT_FALSE(error.empty());
  // Still usable (stderr sink, default level untouched by the failed call's file).
  log.Log(LogLevel::kDebug, "quiet", {});  // below level: no output, no crash
}

TEST(EventLogTest, RateLimiterAllowsBurstThenDenies) {
  LogRateLimiter limiter(/*per_second=*/0.0, /*burst=*/3.0);
  EXPECT_TRUE(limiter.Allow());
  EXPECT_TRUE(limiter.Allow());
  EXPECT_TRUE(limiter.Allow());
  // Bucket empty and no refill: everything further is shed.
  EXPECT_FALSE(limiter.Allow());
  EXPECT_FALSE(limiter.Allow());
}

// -----------------------------------------------------------------------------
// RunReport from a real pipeline run (the golden-report test)

TEST(RunReport, TodoPipelineProducesCoherentReport) {
  app::App app = apps::MakeTodoApp();
  PipelineOptions options;
  options.obs.enabled = true;
  const std::string store = ::testing::TempDir() + "/noctua_obs_report_store";
  std::filesystem::remove_all(store);
  // A store-less run, then a run on a fresh store; each owns its collector.
  for (const std::string& store_dir : {std::string(), store}) {
    SCOPED_TRACE(store_dir.empty() ? "store-less run" : "store-backed run");
    PipelineResult result = Engine().Run(app, options, store_dir);

    ASSERT_TRUE(result.has_report);
    const RunReport& report = result.report;
    EXPECT_EQ(report.app, app.name());
    EXPECT_GT(report.total_seconds, 0.0);
    EXPECT_EQ(report.pairs_checked, result.restrictions.pairs.size());
    EXPECT_GT(report.pairs_per_second, 0.0);
    EXPECT_GT(report.trace_events, 0u);

    // The full pipeline exercises at least the analyze/pair/solve/cache taxonomy, and a
    // store-backed run its artifact I/O as well.
    std::set<std::string> cats(report.span_categories.begin(), report.span_categories.end());
    for (const char* required : {"pipeline", "analyze", "verify", "pair", "encode",
                                 "solve", "cache"}) {
      EXPECT_TRUE(cats.count(required)) << "missing category " << required;
    }

    auto counter_value = [&](const std::string& name) -> uint64_t {
      for (const CounterRow& row : report.counters) {
        if (row.name == name) {
          return row.value;
        }
      }
      return 0;
    };
    EXPECT_EQ(counter_value("verifier.pairs_checked"), report.pairs_checked);
    EXPECT_GT(counter_value("verifier.solver_checks"), 0u);
    EXPECT_GT(counter_value("smt.solver_nodes"), 0u);
    if (!store_dir.empty()) {
      EXPECT_TRUE(cats.count("incremental")) << "missing category incremental";
      EXPECT_EQ(counter_value("incremental.artifact_saves"), 1u);
    }

    // Slow pairs: non-empty, sorted slowest-first, capped at the configured top-N.
    ASSERT_FALSE(report.slow_pairs.empty());
    EXPECT_LE(report.slow_pairs.size(), kTopSlowestPairs);
    EXPECT_TRUE(std::is_sorted(report.slow_pairs.begin(), report.slow_pairs.end(),
                               [](const SlowPair& a, const SlowPair& b) {
                                 return a.micros > b.micros;
                               }));

    // Both serializations hold together: the JSON parses back with the same app name,
    // and the table mentions every counter.
    std::string error;
    JsonPtr parsed = ParseJson(report.ToJson(), &error);
    ASSERT_NE(parsed, nullptr) << error;
    EXPECT_EQ(parsed->Get("app")->AsString(), app.name());
    EXPECT_EQ(parsed->Get("pairs_checked")->AsDouble(),
              static_cast<double>(report.pairs_checked));
    std::string table = report.ToTable();
    for (const CounterRow& row : report.counters) {
      EXPECT_NE(table.find(row.name), std::string::npos) << row.name;
    }
  }
  std::filesystem::remove_all(store);
}

TEST(RunReport, DisabledPipelineProducesNoReport) {
  app::App app = apps::MakeTodoApp();
  PipelineResult result = Engine().Run(app);
  EXPECT_FALSE(result.has_report);
  EXPECT_FALSE(Active());
}

// A store-backed run queues for the engine lock first and then analyzes and loads its
// store under it: its spans run engine_lock_wait, then analyze, then load_prior.
TEST(RunReport, StoreBackedRunRecordsItsEngineLockWait) {
  const std::string store = ::testing::TempDir() + "/noctua_obs_lock_order_store";
  std::filesystem::remove_all(store);
  Collector collector(ObsOptions{.enabled = true});
  Engine().Run(apps::MakeTodoApp(), {}, store);
  collector.Stop();
  std::map<std::string, const TraceEvent*> spans;
  for (const TraceEvent& ev : collector.events()) {
    spans.emplace(ev.name, &ev);
  }
  for (const char* name : {"analyze", "engine_lock_wait", "load_prior"}) {
    ASSERT_TRUE(spans.count(name)) << "missing span " << name;
  }
  const TraceEvent& analyze = *spans["analyze"];
  const TraceEvent& wait = *spans["engine_lock_wait"];
  EXPECT_STREQ(wait.category, kCatPipeline);
  EXPECT_LE(wait.ts_us + wait.dur_us, analyze.ts_us);
  EXPECT_LE(analyze.ts_us + analyze.dur_us, spans["load_prior"]->ts_us);
  std::filesystem::remove_all(store);
}

// Grounding is a part of every solver query: smt.ground_micros has one sample per query,
// as smt.solve_micros has, and never sums to more.
TEST(SolverProbes, GroundTimeIsAPartOfSolveTime) {
  Collector collector(ObsOptions{.enabled = true});
  Engine().Run(apps::MakeTodoApp());
  collector.Stop();
  const HistSummary solve = collector.histogram(Hist::kSolveMicros);
  const HistSummary ground = collector.histogram(Hist::kGroundMicros);
  EXPECT_GT(solve.count, 0u);
  EXPECT_EQ(ground.count, solve.count);
  EXPECT_LE(ground.sum, solve.sum);
}

// Every pair encoding a session builds is one verifier.encode_micros sample and one
// `encode` span. Both rules read a session's one encoding, so a 1-thread Zhihu run,
// whose sessions mostly run two or three queries, records fewer encodings than solver
// checks. The live registry's Prometheus text carries the histogram.
TEST(SolverProbes, EncodeHistogramHasOneSamplePerEncoding) {
  EngineConfig one_worker;
  one_worker.threads = 1;
  Collector collector(ObsOptions{.enabled = true});
  Engine(one_worker).Run(apps::MakeZhihuApp());
  const std::string text = PrometheusText({});
  collector.Stop();
  const uint64_t encodings = static_cast<uint64_t>(
      std::count_if(collector.events().begin(), collector.events().end(),
                    [](const TraceEvent& ev) { return ev.category == std::string(kCatEncode); }));
  const HistSummary encode = collector.histogram(Hist::kEncodeMicros);
  EXPECT_GT(encode.count, 0u);
  EXPECT_EQ(encode.count, encodings);
  EXPECT_LT(encode.count, collector.counter(Counter::kSolverChecks));
  EXPECT_NE(text.find("noctua_verifier_encode_micros_count " + std::to_string(encode.count) +
                      "\n"),
            std::string::npos)
      << text;
}

// The verifier counts the verdicts it could not decide. Over every Todo path, the
// read-only ones too, a default run counts none. Without the order encoding, the
// order-using paths (all read-only) are unsupported (Table 7); under a one-node budget
// the solver queries time out. Each such verdict is counted.
TEST(SolverProbes, TimeoutAndUnsupportedVerdictsAreCounted) {
  const app::App app = apps::MakeTodoApp();
  const analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(app);
  verifier::CheckerOptions defaults;
  verifier::CheckerOptions order_off;
  order_off.encoder.use_order = false;
  verifier::CheckerOptions one_node;
  one_node.solver.budget.max_nodes = 1;
  for (const verifier::CheckerOptions* options : {&defaults, &order_off, &one_node}) {
    Collector collector(ObsOptions{.enabled = true});
    const verifier::RestrictionReport report = verifier::AnalyzeRestrictions(
        verifier::Checker(app.schema(), *options), analysis.paths);
    collector.Stop();
    uint64_t timeouts = 0;
    uint64_t unsupported = 0;
    for (const verifier::PairVerdict& v : report.pairs) {
      for (verifier::CheckOutcome o : {v.commutativity, v.semantic}) {
        timeouts += o == verifier::CheckOutcome::kTimeout ? 1 : 0;
        unsupported += o == verifier::CheckOutcome::kUnsupported ? 1 : 0;
      }
    }
    EXPECT_EQ(collector.counter(Counter::kVerifierTimeouts), timeouts);
    EXPECT_EQ(collector.counter(Counter::kVerifierUnsupported), unsupported);
    EXPECT_EQ(timeouts > 0, options == &one_node);
    EXPECT_EQ(unsupported > 0, options == &order_off);
  }
}

// -----------------------------------------------------------------------------
// Verdict cache: occupancy and bounded eviction

TEST(VerdictCacheStats, OccupancyCountsEveryEntry) {
  verifier::VerdictCache cache;  // unbounded
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key-" + std::to_string(i), verifier::CheckOutcome::kPass);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_TRUE(cache.LookupEntry("key-3").has_value());
  EXPECT_FALSE(cache.LookupEntry("absent").has_value());
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(VerdictCacheStats, BoundedCacheEvictsFifo) {
  // Once the cache holds its capacity, each insert evicts the oldest entry, so the last
  // kCapacity keys inserted survive.
  constexpr size_t kCapacity = 32;
  verifier::VerdictCache cache(kCapacity);
  constexpr int kInserts = 200;
  for (int i = 0; i < kInserts; ++i) {
    cache.Insert("key-" + std::to_string(i), verifier::CheckOutcome::kPass);
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(cache.evictions(), kInserts - kCapacity);
  for (int i = 0; i < kInserts; ++i) {
    EXPECT_EQ(cache.LookupEntry("key-" + std::to_string(i)).has_value(),
              i >= kInserts - static_cast<int>(kCapacity))
        << i;
  }
}

TEST(VerdictCacheStats, DuplicateInsertKeepsExistingEntry) {
  verifier::VerdictCache cache(2);
  cache.Insert("same", verifier::CheckOutcome::kPass);
  cache.Insert("same", verifier::CheckOutcome::kFail);
  EXPECT_EQ(cache.size(), 1u);
  auto entry = cache.LookupEntry("same");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->outcome, verifier::CheckOutcome::kPass);
  // The duplicate took no place in the eviction order: two more keys evict only "same".
  cache.Insert("second", verifier::CheckOutcome::kPass);
  cache.Insert("third", verifier::CheckOutcome::kPass);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.LookupEntry("same").has_value());
}

}  // namespace
}  // namespace noctua::obs
