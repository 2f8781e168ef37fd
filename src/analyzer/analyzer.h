// The ANALYZER driver (paper §4.1, Figure 5's AnalyzeApp / AnalyzeFunc).
//
// For every registered HTTP endpoint, the view function is re-executed under the path
// finder until all code paths are traversed. Each completed run yields one SOIR code path;
// runs ending in Abort (application-level rejection) are counted but carry no effects.
//
// Analysis is never memoized: it costs milliseconds per app, against the verification it
// feeds. A path's canonical identity is computed by the verifier's path table
// (soir::FingerprintPath in AnalyzeRestrictions), not here.
#ifndef SRC_ANALYZER_ANALYZER_H_
#define SRC_ANALYZER_ANALYZER_H_

#include <vector>

#include "src/analyzer/path_finder.h"
#include "src/app/app.h"
#include "src/soir/ast.h"

namespace noctua::analyzer {

struct AnalyzerOptions {
  PathFinder::Options path_finder;
};

struct AnalysisResult {
  // Every non-aborted code path (effectful and read-only), in endpoint registration
  // order, then path-discovery order within an endpoint.
  std::vector<soir::CodePath> paths;
  size_t num_code_paths = 0;  // including aborted paths (paper Table 4 "#Code Paths")
  size_t num_effectful = 0;   // paths with at least one non-guard command
  double seconds = 0;

  // The effectful subset of `paths`, computed on first call and cached (benches call
  // this inside timing loops). Invalidated by nothing: results are treated as immutable
  // once analysis finishes. Not safe to call concurrently with the first call.
  const std::vector<soir::CodePath>& EffectfulPaths() const;

 private:
  mutable std::vector<soir::CodePath> effectful_cache_;
  mutable bool effectful_cached_ = false;
};

// Analyzes every endpoint of the app (Fig. 5 AnalyzeApp), one view function at a time
// (Fig. 5 AnalyzeFunc).
AnalysisResult AnalyzeApp(const app::App& app, const AnalyzerOptions& options = {});

}  // namespace noctua::analyzer

#endif  // SRC_ANALYZER_ANALYZER_H_
