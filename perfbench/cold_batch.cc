// cold_batch: the developer/CI run. Each batch runs the six evaluated apps in a seeded
// order; each app gets one cold analyze+verify on a fresh Engine, exactly as
// Pipeline::Run does. Batches repeat until the run's time is up; end-to-end metrics are
// medians over batches. The traced run alternates untraced and traced batches (for the
// tracing overhead), then repeats the batch at one thread for machine-independent counts.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/pipeline/engine.h"
#include "src/support/stopwatch.h"
#include "src/verifier/checker.h"

namespace perfbench {
namespace {

using noctua::Stopwatch;
using noctua::obs::ScopedSpan;
using noctua::verifier::CheckOutcome;
using noctua::verifier::RestrictionReport;

struct NamedApp {
  std::string name;
  noctua::app::App app;
};

std::vector<NamedApp> MakeApps() {
  std::vector<NamedApp> apps;
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    apps.push_back({entry.name, entry.make()});
  }
  return apps;
}

// Set-up: build the six apps and start one engine.
double SetUpOnce() {
  Stopwatch watch;
  std::vector<NamedApp> apps = MakeApps();
  auto engine = std::make_unique<noctua::Engine>(BenchEngineConfig());
  return watch.ElapsedSeconds();
}

// What one app run leaves behind for the metrics and the correctness check.
struct AppOutcome {
  std::string app;
  double seconds = 0;
  bool correct = false;
  bool flipped = false;  // carried a budget-sensitive pair
  uint64_t timed_out = 0;
  uint64_t solver_checks = 0;
};

// One batch's outcomes plus what the traced path measures per layer.
struct Batch {
  std::vector<AppOutcome> apps;
  double wall = 0;
  double cpu = 0;
  Values layers;
};

AppOutcome Check(const NamedApp& app, double seconds, const RestrictionReport& report,
                 const std::map<std::string, Reference>& refs) {
  AppOutcome out;
  out.app = app.name;
  out.seconds = seconds;
  out.correct = MatchesReference(refs.at(app.name), report.RestrictedPairNames(), &out.flipped);
  out.timed_out = TimedOutPairs(report);
  out.solver_checks = report.stats.solver_checks;
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: %s restricted %zu pairs, which differs from the reference\n",
                 app.name.c_str(), report.num_restrictions());
  }
  return out;
}

// Untraced batch: the public one-call entry point on a fresh engine per app.
Batch RunBatch(const std::vector<NamedApp>& apps, const std::vector<size_t>& order,
               const std::map<std::string, Reference>& refs) {
  Batch batch;
  const double cpu_before = CpuSeconds();
  for (size_t i : order) {
    Stopwatch watch;
    noctua::PipelineResult result;
    {
      noctua::Engine engine(BenchEngineConfig());
      result = engine.Run(apps[i].app);
    }
    double seconds = watch.ElapsedSeconds();
    batch.wall += seconds;
    batch.apps.push_back(Check(apps[i], seconds, result.restrictions, refs));
  }
  batch.cpu = CpuSeconds() - cpu_before;
  return batch;
}

// Traced batch: the same work, split into its layer calls, each inside a benchmark span,
// with a collector recording the program's own spans and counters. `threads` pins the
// engine pool; `deterministic` swaps the 2 s wall-clock budget for the node budget, so
// every query decides and every count is machine-independent (the exact-count pass).
Batch RunTracedBatch(const std::vector<NamedApp>& apps, const std::vector<size_t>& order,
                     const std::map<std::string, Reference>& refs, int threads,
                     bool deterministic, const std::string& trace_path) {
  Batch batch;
  Values& v = batch.layers;
  double analyzer_s = 0, verifier_s = 0, busy_s = 0, duplicate = 0, timed_out = 0;
  double paths = 0, effectful = 0;
  double outcomes[4] = {0, 0, 0, 0};
  noctua::obs::Collector collector(Recording());
  const double cpu_before = CpuSeconds();
  for (size_t i : order) {
    const NamedApp& app = apps[i];
    Stopwatch watch;
    RestrictionReport report;
    {
      ScopedSpan app_span("bench.app", kCatBench);
      noctua::EngineConfig config = BenchEngineConfig();
      config.threads = threads;
      std::unique_ptr<noctua::Engine> engine;
      {
        ScopedSpan span("bench.engine_start", kCatBench);
        engine = std::make_unique<noctua::Engine>(config);
      }
      noctua::PipelineOptions options = engine->ResolveOptions({});
      options.checker.solver.budget.deterministic = deterministic;
      noctua::analyzer::AnalysisResult analysis;
      {
        ScopedSpan span("bench.analyze", kCatBench);
        Stopwatch phase;
        analysis = noctua::analyzer::AnalyzeApp(app.app, options.analyzer);
        analyzer_s += phase.ElapsedSeconds();
      }
      {
        ScopedSpan span("bench.verify", kCatBench);
        Stopwatch phase;
        noctua::verifier::Checker checker(app.app.schema(), options.checker);
        report = noctua::verifier::AnalyzeRestrictions(checker, analysis.EffectfulPaths(),
                                                       options.parallel);
        verifier_s += phase.ElapsedSeconds();
      }
      paths += static_cast<double>(analysis.paths.size());
      effectful += static_cast<double>(analysis.num_effectful);
      busy_s += report.stats.check_seconds;
      duplicate += static_cast<double>(report.stats.cache_misses) -
                   static_cast<double>(engine->verdicts().size());
    }
    double seconds = watch.ElapsedSeconds();
    batch.wall += seconds;
    batch.apps.push_back(Check(app, seconds, report, refs));
    timed_out += static_cast<double>(batch.apps.back().timed_out);
    for (const noctua::verifier::PairVerdict& pv : report.pairs) {
      for (CheckOutcome o : {pv.commutativity, pv.semantic}) {
        outcomes[static_cast<size_t>(o)] += 1;
      }
    }
  }
  batch.cpu = CpuSeconds() - cpu_before;
  collector.Stop();

  const TraceStats trace = AnalyzeTrace(collector.events());
  AddCollectorLayers(collector, trace, &v);
  v["analyzer.s"] = analyzer_s;
  v["analyzer.paths"] = paths;
  v["analyzer.effectful"] = effectful;
  v["verifier.s"] = verifier_s;
  v["verifier.busy_s"] = busy_s;
  v["verifier.tail_frac"] = verifier_s > 0 ? trace.max_pair_seconds / verifier_s : 0;
  v["verifier.outcome.pass"] = outcomes[static_cast<size_t>(CheckOutcome::kPass)];
  v["verifier.outcome.fail"] = outcomes[static_cast<size_t>(CheckOutcome::kFail)];
  v["verifier.outcome.timeout"] = outcomes[static_cast<size_t>(CheckOutcome::kTimeout)];
  v["verifier.outcome.unsupported"] = outcomes[static_cast<size_t>(CheckOutcome::kUnsupported)];
  v["cache.duplicate_solves"] = duplicate;
  v["pool.busy_frac"] = verifier_s > 0 ? busy_s / (verifier_s * threads) : 0;
  v["timed_out_pairs"] = timed_out;
  if (!trace_path.empty()) {
    std::string error;
    if (!WriteAndValidateTrace(collector.events(), 0, trace_path,
                               {"bench.app", "bench.engine_start", "bench.analyze", "bench.verify"},
                               {kCatBench, noctua::obs::kCatAnalyze, noctua::obs::kCatVerify,
                                noctua::obs::kCatPair, noctua::obs::kCatEncode,
                                noctua::obs::kCatSolve, noctua::obs::kCatCache},
                               &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      batch.layers.clear();
    }
  }
  return batch;
}

// Schedule digest: the app orders of the first 64 batches, hashed.
std::string OrderDigest(uint64_t seed, const std::vector<NamedApp>& apps) {
  uint64_t state = seed;
  std::vector<std::string> lines;
  for (int b = 0; b < 64; ++b) {
    std::string line;
    for (size_t i : SeededOrder(&state, apps.size())) {
      line += apps[i].name + " ";
    }
    lines.push_back(line);
  }
  return Hex64(PairListDigest(lines));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

}  // namespace

int RunColdBatch(const Args& args) {
  std::map<std::string, Reference> refs;
  std::string error;
  if (!LoadReferences(args.reference_dir, &refs, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.corrupt_reference) {
    refs.at("SmallBank").pairs.pop_back();
  }
  SetupTimer setup(SetUpOnce);
  setup.Burst();
  const std::vector<NamedApp> apps = MakeApps();
  PrintInfo("{\"workload\": \"cold_batch\", \"seed\": " + std::to_string(args.seed) +
            ", \"threads\": " + std::to_string(BenchThreads()) + ", \"schedule_digest\": \"" +
            OrderDigest(args.seed, apps) + "\"}");

  uint64_t order_state = args.seed;
  std::vector<Batch> batches;         // untraced
  std::vector<Batch> traced_batches;  // traced (trace mode only)
  Stopwatch phase;
  const std::string trace_path = args.work_dir + "/trace_cold_batch.json";
  do {
    std::vector<size_t> order = SeededOrder(&order_state, apps.size());
    batches.push_back(RunBatch(apps, order, refs));
    std::string progress;
    for (const AppOutcome& o : batches.back().apps) {
      progress += " " + o.app + "=" + std::to_string(o.seconds);
    }
    std::fprintf(stderr, "perfbench: batch %zu wall=%.3f cpu=%.3f%s\n", batches.size(),
                 batches.back().wall, batches.back().cpu, progress.c_str());
    if (args.trace) {
      traced_batches.push_back(
          RunTracedBatch(apps, order, refs, BenchThreads(), false, trace_path));
      if (traced_batches.back().layers.empty()) {
        return 3;  // the trace failed validation
      }
    }
    setup.Burst();
  } while (phase.ElapsedSeconds() < args.seconds);
  const double peak_rss_mb = PeakRssMb();
  const double setup_s = setup.MedianSeconds();

  // Exact-count pass (traced run only): the deterministic budget at one thread, and at
  // the full width for the speedup.
  std::vector<Batch> exact;
  if (args.trace) {
    std::vector<size_t> canonical(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
      canonical[i] = i;
    }
    exact.push_back(RunTracedBatch(apps, canonical, refs, 1, true, ""));
    exact.push_back(RunTracedBatch(apps, canonical, refs, BenchThreads(), true, ""));
  }

  uint64_t attempted = 0, failed = 0, flipped = 0;
  for (const std::vector<Batch>* set : {&batches, &traced_batches, &exact}) {
    for (const Batch& b : *set) {
      for (const AppOutcome& a : b.apps) {
        ++attempted;
        failed += a.correct ? 0 : 1;
        flipped += a.flipped ? 1 : 0;
      }
    }
  }
  PrintInfo("{\"budget_sensitive_answers\": " + std::to_string(flipped) +
            ", \"answers\": " + std::to_string(attempted) + "}");

  if (!args.trace) {
    std::vector<double> wall, cpu, zhihu, ownphotos, small, latencies, warm;
    for (const Batch& b : batches) {
      wall.push_back(b.wall);
      cpu.push_back(b.cpu);
      double small_sum = 0;
      for (const AppOutcome& a : b.apps) {
        latencies.push_back(a.seconds * 1e3);
        if (a.solver_checks == 0) {
          warm.push_back(a.seconds * 1e3);
        }
        if (a.app == "Zhihu") {
          zhihu.push_back(a.seconds);
        } else if (a.app == "OwnPhotos") {
          ownphotos.push_back(a.seconds);
        } else {
          small_sum += a.seconds;
        }
      }
      small.push_back(small_sum);
    }
    Values v;
    v["setup_s"] = setup_s;
    v["wall_s"] = Median(wall);
    v["cpu_s"] = Median(cpu);
    v["peak_rss_mb"] = peak_rss_mb;
    v["zhihu_s"] = Median(zhihu);
    v["ownphotos_s"] = Median(ownphotos);
    v["small_apps_s"] = Median(small);
    v["req_p50_ms"] = Percentile(latencies, 0.50);
    v["req_p95_ms"] = Percentile(latencies, 0.95);
    // Every cold run does solver work, so no run counts as warm; the metric falls back
    // to all runs rather than reading 0.
    v["warm_req_p95_ms"] = Percentile(warm.empty() ? latencies : warm, 0.95);
    v["throughput_rps"] = static_cast<double>(latencies.size()) / Sum(wall);
    PrintResult(EndToEndMetrics(), v, false, attempted, failed);
    return 0;
  }

  // Per-layer values: medians over the traced batches.
  Values v;
  for (const MetricSpec& spec : PerLayerMetrics()) {
    std::vector<double> samples;
    for (const Batch& b : traced_batches) {
      auto it = b.layers.find(spec.name);
      if (it != b.layers.end()) {
        samples.push_back(it->second);
      }
    }
    if (!samples.empty()) {
      v[spec.name] = Median(samples);
    }
  }
  std::vector<double> untraced_wall, traced_wall;
  for (const Batch& b : batches) {
    untraced_wall.push_back(b.wall);
  }
  for (const Batch& b : traced_batches) {
    traced_wall.push_back(b.wall);
  }
  v["trace.overhead_frac"] = Median(traced_wall) / Median(untraced_wall) - 1;

  const Values& one = exact[0].layers;
  for (const char* name : {"analyzer.paths", "verifier.pairs", "verifier.prefiltered",
                           "smt.checks", "smt.nodes", "smt.evaluations",
                           "smt.ground_expansions", "cache.hits", "cache.duplicate_solves",
                           "timed_out_pairs"}) {
    v[std::string("exact.") + name] = one.at(name);
  }
  v["pool.speedup_4v1"] = one.at("verifier.s") / exact[1].layers.at("verifier.s");
  PrintResult(PerLayerMetrics(), v, true, attempted, failed);
  return 0;
}

}  // namespace perfbench
