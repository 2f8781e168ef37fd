#include "src/pipeline/engine.h"

#include <cstdio>
#include <optional>

#include "src/support/env.h"
#include "src/support/stopwatch.h"

namespace noctua {

EngineConfig EngineConfig::FromEnv() {
  env::Snapshot snap = env::CaptureSnapshot();
  EngineConfig config;
  config.threads = snap.threads;
  // Verbatim, unprobed: Run/Verify never touch the artifact root, and the throwaway
  // engines inside the static facade must not suddenly mkdir (or die on) a directory
  // the old facade never looked at. Daemons that DO persist call ArtifactDirFromEnv
  // for the fail-fast create-and-probe before constructing their engine.
  config.artifact_root = snap.artifact_dir;
  config.verdict_cache_capacity = snap.verdict_cache_capacity;
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
  // The engine pool has a fixed width; a caller that pinned a different `threads` gets
  // the classic run-local pool so the requested width is honored exactly.
  if (o.parallel.pool == nullptr &&
      (o.parallel.threads == 0 || o.parallel.threads == pool_->threads())) {
    o.parallel.pool = pool_.get();
  }
  // The shared warm cache steps in only where the old facade used an unbounded
  // run-local cache; an explicit store or a bounded run-local cache wins.
  if (o.parallel.store == nullptr && o.parallel.cache && o.parallel.cache_capacity == 0) {
    o.parallel.store = verdicts_.get();
  }
  return o;
}

verifier::RestrictionReport Engine::Verify(const app::App& app,
                                           const analyzer::AnalysisResult& analysis,
                                           const PipelineOptions& options) {
  PipelineOptions o = ResolveOptions(options);
  std::lock_guard<std::mutex> lock(run_mutex_);
  return VerifyStage(app, analysis, o);
}

PipelineResult Engine::Run(const app::App& app, const PipelineOptions& options) {
  // Own a collector only when asked *and* nobody outer owns one already — a bench that
  // installed its own collector gets this run's spans recorded into it instead.
  std::optional<obs::Collector> collector;
  if (options.obs.enabled && !obs::Active()) {
    collector.emplace(options.obs);
  }

  Stopwatch watch;
  PipelineResult result;
  double analyze_seconds = 0;
  double verify_seconds = 0;
  {
    // One parent span for the whole engine pass, so a request-scoped trace shows the
    // analyze/verify phases nested under a single "engine_run" node.
    obs::ScopedSpan engine_span("engine_run", obs::kCatPipeline);
    {
      obs::ScopedSpan span("analyze", obs::kCatPipeline);
      Stopwatch phase;
      result.analysis = analyzer::AnalyzeApp(app, options.analyzer);
      analyze_seconds = phase.ElapsedSeconds();
      span.Arg("paths", result.analysis.paths.size());
      span.Arg("effectful", result.analysis.num_effectful);
    }
    if (options.verify) {
      obs::ScopedSpan span("verify", obs::kCatPipeline);
      Stopwatch phase;
      result.restrictions = Verify(app, result.analysis, options);
      verify_seconds = phase.ElapsedSeconds();
      span.Arg("restrictions", result.restrictions.num_restrictions());
    }
  }
  result.total_seconds = watch.ElapsedSeconds();

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

IncrementalResult Engine::RunIncremental(const app::App& app, const std::string& store_dir,
                                         const IncrementalOptions& options) {
  IncrementalOptions o = options;
  // The pool and the knob resolutions carry into the session's verify stage through the
  // option structs, which the session uses as given; it installs its own loaded store,
  // overriding the engine cache injection.
  o.pipeline = ResolveOptions(o.pipeline);
  std::lock_guard<std::mutex> lock(run_mutex_);
  obs::ScopedSpan engine_span("engine_run", obs::kCatPipeline);
  Session session(store_dir);
  return session.RunIncremental(app, o);
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

// ---- The static facade, now thin wrappers over a throwaway Engine. ----

PipelineResult Pipeline::Run(const app::App& app, const PipelineOptions& options) {
  Engine engine;
  return engine.Run(app, options);
}

verifier::RestrictionReport Pipeline::Verify(const app::App& app,
                                             const analyzer::AnalysisResult& analysis,
                                             const PipelineOptions& options) {
  Engine engine;
  return engine.Verify(app, analysis, options);
}

IncrementalResult Pipeline::RunIncremental(const app::App& app,
                                           const std::string& store_dir,
                                           const IncrementalOptions& options) {
  Engine engine;
  return engine.RunIncremental(app, store_dir, options);
}

}  // namespace noctua
