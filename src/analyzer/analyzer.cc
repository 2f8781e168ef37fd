#include "src/analyzer/analyzer.h"

#include <algorithm>

#include "src/analyzer/trace.h"
#include "src/analyzer/view_ctx.h"
#include "src/obs/obs.h"
#include "src/soir/serialize.h"
#include "src/support/stopwatch.h"

namespace noctua::analyzer {

const std::vector<soir::CodePath>& AnalysisResult::EffectfulPaths() const {
  if (!effectful_cached_) {
    std::copy_if(paths.begin(), paths.end(), std::back_inserter(effectful_cache_),
                 [](const soir::CodePath& p) { return p.IsEffectful(); });
    effectful_cached_ = true;
  }
  return effectful_cache_;
}

namespace {

// Analyzes a single view function (Fig. 5 AnalyzeFunc), appending its paths, counters
// and digest to `result`.
void AnalyzeView(const soir::Schema& schema, const app::View& view,
                 const AnalyzerOptions& options, AnalysisResult* result) {
  obs::ScopedSpan span(obs::Enabled() ? view.name : std::string(), obs::kCatAnalyze);
  PathFinder finder(options.path_finder);
  TraceCtx trace(schema, &finder);
  int path_index = 0;
  size_t first_path = result->paths.size();
  size_t code_paths = 0;
  do {
    trace.StartPath();
    ViewCtx ctx(&trace);
    bool aborted = false;
    try {
      view.fn(ctx);
    } catch (const AbortPath&) {
      aborted = true;
    }
    ++code_paths;
    if (!aborted) {
      soir::CodePath path =
          trace.Finish(view.name + "#p" + std::to_string(path_index), view.name);
      if (path.IsEffectful()) {
        ++result->num_effectful;
      }
      result->paths.push_back(std::move(path));
    }
    ++path_index;
  } while (finder.NextPath());
  result->num_code_paths += code_paths;
  // The endpoint's digest: each path's renaming-invariant digest plus the explored-path
  // counter, so "same effectful paths, different abort branches" still registers as a
  // change in Table-4 accounting.
  std::string material;
  for (size_t i = first_path; i < result->paths.size(); ++i) {
    material += soir::PathDigest(schema, result->paths[i]);
    material += ';';
  }
  material += "#code_paths=" + std::to_string(code_paths);
  result->endpoint_digests[view.name] = soir::DigestHex(soir::Fnv1a64(material));
  span.Arg("code_paths", code_paths);
  span.Arg("paths_kept", result->paths.size() - first_path);
}

}  // namespace

AnalysisResult AnalyzeApp(const app::App& app, const AnalyzerOptions& options) {
  Stopwatch watch;
  AnalysisResult result;
  for (const app::View& view : app.views()) {
    AnalyzeView(app.schema(), view, options, &result);
  }
  result.seconds = watch.ElapsedSeconds();
  if (obs::Enabled()) {
    obs::Add(obs::Counter::kEndpointsAnalyzed, app.views().size());
  }
  return result;
}

}  // namespace noctua::analyzer
