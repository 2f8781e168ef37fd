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
// A store-backed Engine::Run (engine.h) loads the prior artifacts, memoizes analysis per
// endpoint (handler fingerprint match), seeds the verifier's cache with the prior
// verdicts, runs the normal pipeline, and writes the updated artifacts back. Because
// verdict fingerprints encode everything the SMT encoding can see — canonical paths,
// order membership, the touched schema fragment — only pairs affected by the edit miss
// the cache and reach the solver; everything else replays. The emitted
// RestrictionReport is the same one a cold run would produce, with per-pair provenance
// (computed vs replayed) attached.
//
// Loading fails closed: a missing, truncated, corrupted, version-mismatched, or
// schema-mismatched store degrades to a cold run (PipelineResult::cold), never to a
// crash or a wrong answer. For defense against silent corruption that still parses,
// verifier::ParallelOptions::paranoia re-solves a seeded random sample of replayed
// verdicts and CHECK-fails on disagreement.
#ifndef SRC_PIPELINE_SESSION_H_
#define SRC_PIPELINE_SESSION_H_

#include <string>

#include "src/analyzer/analyzer.h"
#include "src/app/app.h"
#include "src/verifier/cache.h"

namespace noctua {

class Session {
 public:
  // `store_dir` is created on first save if it does not exist.
  explicit Session(std::string store_dir) : store_dir_(std::move(store_dir)) {}

  // Loads and validates the store's prior artifacts for `app`. Returns false — leaving
  // outputs unspecified — unless every layer checks out: manifest version and app name,
  // stored schema round-trips to the app's structural schema digest, analysis parses
  // and its endpoint digests recompute from its paths, verdicts parse.
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
