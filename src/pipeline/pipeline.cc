#include "src/pipeline/pipeline.h"

// The facade's implementation lives in engine.cc: Pipeline::Run / Verify /
// RunIncremental are thin wrappers constructing a throwaway noctua::Engine, which owns
// the pool and the verdict cache for the duration of the call.

namespace noctua {

verifier::RestrictionReport VerifyStage(const app::App& app,
                                        const analyzer::AnalysisResult& analysis,
                                        const PipelineOptions& options) {
  verifier::Checker checker(app.schema(), options.checker);
  static const std::vector<soir::CodePath> kNoObservers;
  const std::vector<soir::CodePath>& observers =
      options.order_observers ? analysis.paths : kNoObservers;
  return verifier::AnalyzeRestrictions(checker, analysis.EffectfulPaths(), options.parallel,
                                       observers);
}

}  // namespace noctua
