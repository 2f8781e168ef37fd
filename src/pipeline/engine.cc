#include "src/pipeline/engine.h"

#include <cstdio>
#include <mutex>
#include <optional>

#include "src/pipeline/session.h"
#include "src/support/env.h"
#include "src/support/stopwatch.h"

namespace noctua {

namespace {

// The verify stage with `resolved` as given; the caller holds the engine's run mutex.
verifier::RestrictionReport CheckPairs(const app::App& app,
                                       const analyzer::AnalysisResult& analysis,
                                       const PipelineOptions& resolved) {
  return verifier::AnalyzeRestrictions(verifier::Checker(app.schema(), resolved.checker),
                                       analysis.EffectfulPaths(), resolved.parallel);
}

// Takes `mu`, recording the wait as an engine_lock_wait span, a sample of the
// pipeline.engine_lock_wait_micros histogram, and its seconds in *waited.
std::unique_lock<std::mutex> LockRecordingWait(std::mutex& mu, double* waited) {
  obs::ScopedSpan span("engine_lock_wait", obs::kCatPipeline);
  Stopwatch watch;
  std::unique_lock<std::mutex> lock(mu);
  *waited = watch.ElapsedSeconds();
  obs::Observe(obs::Hist::kEngineLockWaitMicros, static_cast<uint64_t>(*waited * 1e6));
  return lock;
}

}  // namespace

EngineConfig EngineConfig::FromEnv() {
  EngineConfig config;
  config.threads = ThreadPool::DefaultThreads();
  // Verbatim, unprobed: Run/Verify never touch the artifact root (a store-backed Run is
  // handed its store directory), so an engine built for one run must not mkdir (or die
  // on) a directory it never uses. Daemons that DO persist call ProbeArtifactDir
  // (session.h) for the fail-fast create-and-probe before constructing their engine.
  if (const char* dir = env::Raw("NOCTUA_ARTIFACT_DIR")) {
    config.artifact_root = dir;
  }
  config.verdict_cache_capacity = static_cast<size_t>(
      env::NonNegativeIntOr("NOCTUA_VERDICT_CACHE", 0, env::kMaxVerdictCacheEntries));
  return config;
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<ThreadPool>(config_.threads > 0
                                             ? config_.threads
                                             : ThreadPool::DefaultThreads())),
      verdicts_(std::make_unique<verifier::VerdictCache>(config_.verdict_cache_capacity)) {}

Engine::~Engine() = default;

PipelineOptions Engine::ResolveOptions(const PipelineOptions& options) const {
  PipelineOptions o = options;
  o.parallel.pool = pool_.get();
  // The shared warm cache steps in only where the caller brought no store of its own.
  if (o.parallel.store == nullptr && o.parallel.cache) {
    o.parallel.store = verdicts_.get();
  }
  return o;
}

verifier::RestrictionReport Engine::Verify(const app::App& app,
                                           const analyzer::AnalysisResult& analysis,
                                           const PipelineOptions& options) {
  PipelineOptions o = ResolveOptions(options);
  std::lock_guard<std::mutex> lock(run_mutex_);
  return CheckPairs(app, analysis, o);
}

PipelineResult Engine::Run(const app::App& app, const PipelineOptions& options,
                           const std::string& store_dir) {
  const bool stored = !store_dir.empty();
  // Own a collector only when asked *and* nobody outer owns one already — a bench that
  // installed its own collector gets this run's spans recorded into it instead.
  std::optional<obs::Collector> collector;
  if (options.obs.enabled && !obs::Active()) {
    collector.emplace(options.obs);
  }

  Stopwatch watch;
  PipelineResult result;
  double analyze_seconds = 0;
  double lock_wait_seconds = 0;
  double verify_seconds = 0;
  {
    // One parent span for the whole engine pass, so a request-scoped trace shows the
    // phases nested under a single "engine_run" node.
    obs::ScopedSpan engine_span("engine_run", obs::kCatPipeline);
    // The lock covers the whole pass. The pool runs one ParallelFor at a time, and two
    // store-backed runs must not interleave their reads and writes of a store. Analysis
    // needs neither, but the pool's threads take every core, so an analysis running
    // beside another run's verify stage would slow both by however much they overlap.
    std::unique_lock<std::mutex> lock = LockRecordingWait(run_mutex_, &lock_wait_seconds);
    {
      obs::ScopedSpan span("analyze", obs::kCatPipeline);
      Stopwatch phase;
      result.analysis = analyzer::AnalyzeApp(app, options.analyzer);
      analyze_seconds = phase.ElapsedSeconds();
      span.Arg("paths", result.analysis.paths.size());
      span.Arg("effectful", result.analysis.num_effectful);
    }
    const Session session(store_dir);
    verifier::VerdictCache verdicts;
    bool have_prior = false;
    if (stored) {
      obs::ScopedSpan span("load_prior", obs::kCatIncremental);
      have_prior = session.LoadPrior(app, nullptr, &verdicts);
      span.Arg("loaded", have_prior ? 1 : 0);
      span.Arg("verdicts", verdicts.size());
      obs::Add(have_prior ? obs::Counter::kArtifactLoads
                          : obs::Counter::kArtifactLoadFailures);
    }
    result.cold = !have_prior;
    const size_t loaded = verdicts.size();
    {
      obs::ScopedSpan span("verify", obs::kCatPipeline);
      Stopwatch phase;
      PipelineOptions o = ResolveOptions(options);
      if (stored) {
        // The loaded verdicts replace the engine cache: unchanged pairs replay from
        // them, and the verdicts computed now join them in the saved store.
        o.parallel.store = &verdicts;
      }
      result.restrictions = CheckPairs(app, result.analysis, o);
      verify_seconds = phase.ElapsedSeconds();
      span.Arg("restrictions", result.restrictions.num_restrictions());
    }
    // A store that loaded and gained no verdict already holds what a save would write
    // (equal caches write equal bytes), so it is left as it is.
    result.artifacts_saved = stored;
    if (stored && (!have_prior || verdicts.size() != loaded)) {
      obs::ScopedSpan span("save_artifacts", obs::kCatIncremental);
      result.artifacts_saved = session.Save(app, result.analysis, verdicts);
      span.Arg("saved", result.artifacts_saved ? 1 : 0);
      obs::Add(result.artifacts_saved ? obs::Counter::kArtifactSaves
                                      : obs::Counter::kArtifactSaveFailures);
      if (!result.artifacts_saved) {
        std::fprintf(stderr,
                     "noctua: failed to save artifacts to %s — this run's results are "
                     "valid, but the next run will be cold\n",
                     store_dir.c_str());
      }
    }
  }
  // The run's own time: queueing behind other runs is the caller's latency, not this
  // run's cost.
  result.total_seconds = watch.ElapsedSeconds() - lock_wait_seconds;

  if (collector) {
    collector->Stop();
    result.has_report = true;
    result.report = obs::BuildRunReport(*collector, app.name(), result.total_seconds,
                                        analyze_seconds, verify_seconds);
    if (!options.obs.trace_out.empty() &&
        !collector->WriteChromeTrace(options.obs.trace_out)) {
      std::fprintf(stderr, "noctua: failed to write trace to %s\n",
                   options.obs.trace_out.c_str());
    }
  }
  return result;
}

bool Engine::ValidTenantName(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 128) {
    return false;
  }
  // No separators and no leading dot: "..", ".", and dotfile-shaped names are all
  // rejected, so a tenant string can never escape (or hide inside) its subtree.
  if (tenant[0] == '.') {
    return false;
  }
  for (char c : tenant) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

std::string Engine::TenantStoreDir(const std::string& tenant,
                                   const std::string& app_name) const {
  if (config_.artifact_root.empty() || !ValidTenantName(tenant) ||
      !ValidTenantName(app_name)) {
    return "";
  }
  return config_.artifact_root + "/" + tenant + "/" + app_name;
}

}  // namespace noctua
