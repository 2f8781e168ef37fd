// The long-lived heart of Noctua-as-a-service, and the one way to run the pipeline: an
// Engine owns the worker pool, the renaming-invariant verdict cache, and a snapshot of
// every environment knob, and Engine::Run analyzes and verifies an app on them, with or
// without an on-disk artifact store.
//
// Lifecycle contract:
//
//   - EngineConfig is resolved ONCE, at construction (EngineConfig::FromEnv reads
//     NOCTUA_THREADS / NOCTUA_ARTIFACT_DIR / NOCTUA_VERDICT_CACHE). A running engine
//     never consults the environment again, so a daemon's behavior cannot drift when its
//     environment does.
//   - Run/Verify are safe to call from many threads: they serialize on an internal mutex
//     because the ThreadPool runs one batch at a time (one shared cursor over one
//     dispatch order) and the verdict cache takes one writer at a time (cache.h). Run holds the mutex for its whole pass (analysis, verify and,
//     with a store, load and save), so no other run's work competes with its pool for
//     cores; the wait is its engine_lock_wait span and a sample of the
//     pipeline.engine_lock_wait_micros histogram. Callers queue; admission control
//     (bounding that queue) belongs to the service layer above, not here.
//   - Solver tallies are not engine state: every query flushes them into the obs
//     registry, so a run's tallies are what an obs::Collector around it records.
//   - The verdict cache is engine-owned and shared across calls AND tenants: keys are
//     canonical query fingerprints, which are app-content-addressed and name the
//     checker options a verdict depends on, so a hit is always semantically valid, under
//     any options. Tenant isolation applies to the on-disk artifact namespace
//     (TenantStoreDir), never to in-memory verdict sharing.
#ifndef SRC_PIPELINE_ENGINE_H_
#define SRC_PIPELINE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/pipeline/pipeline.h"
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
  // Entry bound for the engine-owned verdict cache. 0 = unbounded — correct for an
  // engine built for one run or one bench, which dies with it. Long-lived owners must
  // bound it or grow without limit: noctua-serve applies a finite default when neither
  // NOCTUA_VERDICT_CACHE nor --verdict-cache is given.
  size_t verdict_cache_capacity = 0;

  // Reads the environment once: NOCTUA_THREADS through ThreadPool::DefaultThreads,
  // NOCTUA_ARTIFACT_DIR verbatim (unprobed), NOCTUA_VERDICT_CACHE with warn-once +
  // fallback on a malformed value.
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

  // Analyzes and verifies `app` on this engine's pool. Without a store the verdicts go
  // through the engine's shared verdict cache (unless the caller brought its own store).
  // With `store_dir`, the run goes against the on-disk artifact store there (session.h):
  // it analyzes the app, loads the prior verdicts, replays them so only pairs touched
  // by the edit reach the solver, and saves the store back if the run added a verdict
  // (or loaded none). A missing or invalid store degrades to a cold run
  // (PipelineResult::cold), never to a crash or a wrong answer.
  PipelineResult Run(const app::App& app, const PipelineOptions& options = {},
                     const std::string& store_dir = "");
  // The verifier stage alone, for callers that already hold an analysis (e.g. ablations
  // re-checking the same paths under different checker options; verdict keys name the
  // options a verdict depends on, so ablations can share an engine).
  verifier::RestrictionReport Verify(const app::App& app,
                                     const analyzer::AnalysisResult& analysis,
                                     const PipelineOptions& options = {});

  // The per-tenant artifact namespace: config.artifact_root / <tenant> / <app>. Tenant
  // names are restricted to [A-Za-z0-9._-] (no separators, no "..", must be non-empty)
  // so one tenant can never name another tenant's subtree; returns "" for an invalid
  // tenant or when the engine has no artifact root.
  std::string TenantStoreDir(const std::string& tenant, const std::string& app_name) const;

  // True iff `tenant` is acceptable to TenantStoreDir.
  static bool ValidTenantName(const std::string& tenant);

  // Copies `options` with this engine's state applied: the engine pool injected, and the
  // engine verdict cache installed as the store when the caller brought none (and left
  // the cache on). Idempotent. Exposed for tests and benches.
  PipelineOptions ResolveOptions(const PipelineOptions& options) const;

 private:
  EngineConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<verifier::VerdictCache> verdicts_;
  // Serializes runs and Verify calls: the pool runs one ParallelFor at a time.
  std::mutex run_mutex_;
};

}  // namespace noctua

#endif  // SRC_PIPELINE_ENGINE_H_
