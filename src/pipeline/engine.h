// The long-lived heart of Noctua-as-a-service: one Engine owns every piece of state
// the static Pipeline facade used to conjure per call or keep in process-wide globals —
// the worker pool, the renaming-invariant verdict cache, and a snapshot of every
// environment knob.
//
// Lifecycle contract:
//
//   - EngineConfig is resolved ONCE, at construction (EngineConfig::FromEnv reads
//     NOCTUA_THREADS / NOCTUA_ARTIFACT_DIR / NOCTUA_VERDICT_CACHE). A running engine
//     never consults the environment again, so a daemon's behavior cannot drift when its
//     environment does.
//   - Run/Verify/RunIncremental are safe to call from many threads: the verify stage is
//     serialized on an internal mutex because the work-stealing ThreadPool supports one
//     ParallelFor at a time. Callers queue; admission control (bounding that queue)
//     belongs to the service layer above, not here.
//   - Solver tallies are not engine state: every query flushes them into the obs
//     registry, so a run's tallies are what an obs::Collector around it records.
//   - The verdict cache is engine-owned and shared across calls AND tenants: keys are
//     canonical query fingerprints, which are app-content-addressed, so a hit is always
//     semantically valid. Tenant isolation applies to the on-disk artifact namespace
//     (TenantStoreDir), never to in-memory verdict sharing.
//
// Pipeline::Run / Verify / RunIncremental still exist and behave exactly as before —
// each is now a thin wrapper constructing a throwaway Engine from the environment.
#ifndef SRC_PIPELINE_ENGINE_H_
#define SRC_PIPELINE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/pipeline/pipeline.h"
#include "src/pipeline/session.h"
#include "src/support/thread_pool.h"
#include "src/verifier/cache.h"

namespace noctua {

// Everything an Engine resolves from the environment, captured once at construction.
// Defaults match the documented env-knob defaults, so a value-initialized config equals
// FromEnv() in a clean environment (modulo threads, which follows the hardware).
struct EngineConfig {
  // Worker-pool width including the calling thread; 0 = ThreadPool::DefaultThreads()
  // (NOCTUA_THREADS if set, else the hardware concurrency, clamped to env::kMaxThreads).
  int threads = 0;
  // Root directory for on-disk artifact stores ("" = no persistence). Tenants get
  // disjoint subtrees under it — see Engine::TenantStoreDir.
  std::string artifact_root;
  // Entry bound for the engine-owned verdict cache. 0 = unbounded — correct for the
  // throwaway per-call engines inside the Pipeline facade, which die with the run.
  // Long-lived owners must bound it or grow without limit: noctua-serve applies a
  // finite default when neither NOCTUA_VERDICT_CACHE nor --verdict-cache is given.
  size_t verdict_cache_capacity = 0;

  // Captures the environment (fail-fast on a configured-but-unusable artifact dir,
  // warn-once + fallback on malformed knobs — the same disciplines as before).
  static EngineConfig FromEnv();
};

class Engine {
 public:
  explicit Engine(EngineConfig config = EngineConfig::FromEnv());
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  const EngineConfig& config() const { return config_; }
  ThreadPool& pool() { return *pool_; }
  verifier::VerdictCache& verdicts() { return *verdicts_; }

  // The pipeline entry points, semantically identical to the static Pipeline ones but
  // running on this engine's pool and (for Run/Verify, when the caller did not
  // bring a store or a run-local cache bound) its shared verdict cache.
  PipelineResult Run(const app::App& app, const PipelineOptions& options = {});
  verifier::RestrictionReport Verify(const app::App& app,
                                     const analyzer::AnalysisResult& analysis,
                                     const PipelineOptions& options = {});
  IncrementalResult RunIncremental(const app::App& app, const std::string& store_dir,
                                   const IncrementalOptions& options = {});

  // The per-tenant artifact namespace: config.artifact_root / <tenant> / <app>. Tenant
  // names are restricted to [A-Za-z0-9._-] (no separators, no "..", must be non-empty)
  // so one tenant can never name another tenant's subtree; returns "" for an invalid
  // tenant or when the engine has no artifact root.
  std::string TenantStoreDir(const std::string& tenant, const std::string& app_name) const;

  // True iff `tenant` is acceptable to TenantStoreDir.
  static bool ValidTenantName(const std::string& tenant);

  // Copies `options` with this engine's state applied: the pool injected when the caller
  // left it null and `threads` does not demand a different width, and the engine verdict
  // cache installed as the store when the caller asked for neither a store nor a bounded
  // run-local cache. Idempotent. Exposed for tests and the service layer.
  PipelineOptions ResolveOptions(const PipelineOptions& options) const;

 private:
  EngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<verifier::VerdictCache> verdicts_;
  // Serializes verify stages: the pool supports one ParallelFor at a time.
  std::mutex run_mutex_;
};

}  // namespace noctua

#endif  // SRC_PIPELINE_ENGINE_H_
