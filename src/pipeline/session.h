// Incremental analysis sessions: persistent content-addressed artifacts and O(change)
// re-verification.
//
// A Session binds the pipeline to an on-disk artifact store (one directory per app):
//
//   manifest   format version + app name + schema digests (exact and structural; the
//              load gate is the structural one, so rename-only schema edits replay)
//   schema     the serialized schema the artifacts were produced under
//   analysis   every code path + per-endpoint renaming-invariant digests
//   verdicts   the verdict cache: canonical query fingerprint -> solver outcome
//
// RunIncremental loads the prior artifacts, memoizes analysis per endpoint (handler
// fingerprint match), seeds the verifier's cache with the prior verdicts, runs the
// normal pipeline, and writes the updated artifacts back. Because verdict fingerprints
// encode everything the SMT encoding can see — canonical paths, order membership, the
// touched schema fragment — only pairs affected by the edit miss the cache and reach the
// solver; everything else replays. The emitted RestrictionReport is the same one a cold
// run would produce, with per-pair provenance (computed vs replayed) attached.
//
// Loading fails closed: a missing, truncated, corrupted, version-mismatched, or
// schema-mismatched store degrades to a cold run (IncrementalResult::cold), never to a
// crash or a wrong answer. For defense against silent corruption that still parses,
// IncrementalOptions::paranoia re-solves a seeded random sample of replayed verdicts and
// CHECK-fails on disagreement.
#ifndef SRC_PIPELINE_SESSION_H_
#define SRC_PIPELINE_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/pipeline/pipeline.h"
#include "src/verifier/cache.h"

namespace noctua {

struct IncrementalOptions {
  PipelineOptions pipeline;
  // Probability of re-solving a replayed verdict and CHECK-failing on disagreement (see
  // verifier::ParallelOptions::paranoia).
  double paranoia = 0;
  uint64_t paranoia_seed = 0;
};

struct IncrementalResult {
  PipelineResult run;
  // True when no usable prior artifact existed (first run, or the store failed
  // validation) and everything was computed from scratch.
  bool cold = false;
  // False when writing the artifacts back failed — the run's results are valid, but the
  // next run will be cold. A warning is also printed to stderr, because a persistently
  // unwritable store silently degrades every future run to a cold one.
  bool artifacts_saved = false;
  // Endpoints whose content digest differs from the prior artifact: edited ones, added
  // ones, and removed ones (renaming-invariant — a pure rename changes nothing here).
  std::vector<std::string> changed_endpoints;
  // Convenience mirrors of run.restrictions.stats / run.analysis counters.
  uint64_t pairs_replayed = 0;
  uint64_t pairs_computed = 0;
  size_t endpoints_reused = 0;
};

class Session {
 public:
  // `store_dir` is created on first save if it does not exist.
  explicit Session(std::string store_dir) : store_dir_(std::move(store_dir)) {}

  const std::string& store_dir() const { return store_dir_; }

  // One warm pipeline run against the store (see file header). Artifacts are saved back
  // after the run, so consecutive calls see each other's results. The verify stage runs
  // with `options` as given (VerifyStage); Engine::RunIncremental resolves them first.
  IncrementalResult RunIncremental(const app::App& app,
                                   const IncrementalOptions& options = {});

  // Loads and validates the store's prior artifacts for `app`. Returns false — leaving
  // outputs unspecified — unless every layer checks out: manifest version and app name,
  // stored schema round-trips to the app's exact schema digest, analysis parses and its
  // endpoint digests recompute from its paths, verdicts parse. Exposed for tests.
  bool LoadPrior(const app::App& app, analyzer::AnalysisResult* analysis,
                 verifier::VerdictCache* verdicts) const;

  // Overwrites the store with the given artifacts. Returns false on I/O failure.
  bool Save(const app::App& app, const analyzer::AnalysisResult& analysis,
            const verifier::VerdictCache& verdicts) const;

 private:
  std::string Path(const char* file) const { return store_dir_ + "/" + file; }

  std::string store_dir_;
};

// Resolves the NOCTUA_ARTIFACT_DIR environment variable into a session store directory.
// Returns "" when the variable is unset (caller runs without persistence). When it IS
// set, the directory is created if missing and probed with a throwaway write; failure of
// either is a *fatal error* with a clear message — a user who configured an artifact
// store wants warm runs, and silently degrading every run to cold is strictly worse
// than stopping.
std::string ArtifactDirFromEnv();

}  // namespace noctua

#endif  // SRC_PIPELINE_SESSION_H_
