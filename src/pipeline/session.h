// The on-disk artifact store behind a store-backed Engine::Run (engine.h): persistent
// verdicts and O(change) re-verification.
//
// A Session binds the pipeline to one directory per app, holding two files:
//
//   manifest   format version + app name
//   verdicts   the verdict cache: its part table, then canonical query key -> solver
//              outcome
//
// A store-backed run analyzes the app from scratch (analysis costs milliseconds), seeds
// the verifier's cache with the stored verdicts, and writes the union back. Replay rests
// on one argument: a verdict key encodes everything the encoder sees — both canonical
// paths, the schema fragment they reach, order membership, and the checker options that
// shape the query — so a stored verdict can only answer an unchanged query, whatever the
// edit. Only pairs an edit touched miss and reach the solver. The emitted
// RestrictionReport is the one a cold run would produce, with per-pair provenance
// (computed vs replayed) attached: that provenance, and ReportStats::pairs_computed, are
// what say which pairs an edit touched.
//
// Loading fails closed: a missing, truncated, corrupted, or version-mismatched store
// degrades to a cold run (PipelineResult::cold), never to a crash or a wrong answer. For
// defense against silent corruption that still parses, verifier::ParallelOptions::
// paranoia re-solves every replayed verdict and CHECK-fails on disagreement.
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

  // Loads the store's verdicts for `app` into `verdicts`. Returns false — leaving
  // `verdicts` unspecified — unless both files parse, the manifest's version is current
  // and its app name is `app`'s.
  //
  // `analysis` is read by neither LoadPrior nor Save (it may be null here): the store
  // keeps no analysis. The parameter stays because perfbench/service_mixed.cc calls both
  // with it, and perfbench changes only together with the benchmark.
  bool LoadPrior(const app::App& app, analyzer::AnalysisResult* analysis,
                 verifier::VerdictCache* verdicts) const;

  // Overwrites the store with `verdicts`. Returns false on I/O failure.
  bool Save(const app::App& app, const analyzer::AnalysisResult& analysis,
            const verifier::VerdictCache& verdicts) const;

 private:
  std::string Path(const char* file) const { return store_dir_ + "/" + file; }

  std::string store_dir_;
};

// Creates the artifact root `dir` if missing and probes it with a throwaway write. Failure
// of either is a *fatal error* whose message names `dir` — a user who configured an
// artifact store wants warm runs, and silently degrading every run to cold is strictly
// worse than stopping. A daemon calls it on the root it ends up with, from a flag or
// from NOCTUA_ARTIFACT_DIR (EngineConfig::FromEnv), before it starts accepting.
void ProbeArtifactDir(const std::string& dir);

}  // namespace noctua

#endif  // SRC_PIPELINE_SESSION_H_
