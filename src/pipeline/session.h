// The on-disk artifact store behind a store-backed Engine::Run (engine.h): persistent
// verdicts and O(change) re-verification.
//
// A Session binds the pipeline to one directory per app, holding two files:
//
//   manifest   format version + app name + every endpoint's content digest
//   verdicts   the verdict cache: canonical query fingerprint -> solver outcome
//
// A store-backed run analyzes the app from scratch (analysis costs milliseconds), seeds
// the verifier's cache with the stored verdicts, and writes the union back. Replay rests
// on one argument: a verdict key encodes everything the encoder sees — both canonical
// paths, the schema fragment they reach, order membership, and the checker options that
// shape the query — so a stored verdict can only answer an unchanged query, whatever the
// edit. Only pairs an edit touched miss and reach the solver. The emitted
// RestrictionReport is the one a cold run would produce, with per-pair provenance
// (computed vs replayed) attached. The endpoint digests only say which endpoints changed
// (PipelineResult::changed_endpoints); no verdict depends on them.
//
// Loading fails closed: a missing, truncated, corrupted, or version-mismatched store
// degrades to a cold run (PipelineResult::cold), never to a crash or a wrong answer. For
// defense against silent corruption that still parses, verifier::ParallelOptions::
// paranoia re-solves a seeded random sample of replayed verdicts and CHECK-fails on
// disagreement.
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

  // Loads the store's prior artifacts for `app`: the manifest's endpoint digests into
  // `analysis->endpoint_digests` (nothing else of `analysis` is stored) and the verdicts
  // into `verdicts`. Returns false — leaving outputs unspecified — unless both files
  // parse, the manifest's version is current and its app name is `app`'s.
  bool LoadPrior(const app::App& app, analyzer::AnalysisResult* analysis,
                 verifier::VerdictCache* verdicts) const;

  // Overwrites the store with `verdicts` and `analysis.endpoint_digests`. Returns false
  // on I/O failure.
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
