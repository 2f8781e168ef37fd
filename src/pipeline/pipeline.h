// The one-call entry point to Noctua's end-to-end analysis: ANALYZER (explore every
// view function's code paths into SOIR) followed by VERIFIER (check every unordered
// pair of effectful paths and assemble the restriction set).
//
// Before this facade, every bench and example hand-rolled the same three-step dance —
// AnalyzeApp, EffectfulPaths, AnalyzeRestrictions — each with its own copies of the
// option structs (sometimes divergent copies of the same options). Pipeline::Run owns
// the plumbing; callers state what they want checked (PipelineOptions) and read one
// result.
#ifndef SRC_PIPELINE_PIPELINE_H_
#define SRC_PIPELINE_PIPELINE_H_

#include <string>

#include "src/analyzer/analyzer.h"
#include "src/app/app.h"
#include "src/obs/obs.h"
#include "src/obs/report.h"
#include "src/verifier/report.h"

namespace noctua {

struct IncrementalOptions;
struct IncrementalResult;

struct PipelineOptions {
  analyzer::AnalyzerOptions analyzer;
  verifier::CheckerOptions checker;
  verifier::ParallelOptions parallel;

  // Run the verifier stage; when false the result carries the analysis only (e.g. the
  // analyzer-scaling benchmarks).
  bool verify = true;
  // Pass the app's full path list (including read-only paths) as order observers, so an
  // insertion order rendered by a read-only endpoint still counts toward app-wide state
  // equality. Off by default: the paper's tables are computed from the effectful paths
  // alone; deployment harnesses (e.g. the chaos suite) opt in.
  bool order_observers = false;

  // Observability. When obs.enabled is true and no collector is already installed,
  // Pipeline::Run owns one for the duration of the run: spans/counters are recorded
  // across analyzer, verifier, and SMT backend, the result carries a populated
  // RunReport, and obs.trace_out (if set) receives Chrome trace-event JSON. When a
  // collector is already active (a bench owning several runs), the run records into it
  // and leaves report assembly to its owner. Default-off: every probe degrades to one
  // relaxed atomic load.
  obs::ObsOptions obs;
};

struct PipelineResult {
  analyzer::AnalysisResult analysis;
  verifier::RestrictionReport restrictions;
  double total_seconds = 0;

  // Populated only when this run owned a collector (see PipelineOptions::obs);
  // `has_report` distinguishes that from a default-constructed report.
  bool has_report = false;
  obs::RunReport report;

  const verifier::ReportStats& stats() const { return restrictions.stats; }
};

class Pipeline {
 public:
  // Analyzes and verifies `app` in one call.
  static PipelineResult Run(const app::App& app, const PipelineOptions& options = {});

  // Verifier stage only, for callers that already hold an analysis (e.g. ablations
  // re-checking the same paths under different checker options).
  static verifier::RestrictionReport Verify(const app::App& app,
                                            const analyzer::AnalysisResult& analysis,
                                            const PipelineOptions& options = {});

  // Incremental run against the on-disk artifact store at `store_dir`: analysis is
  // memoized per endpoint, verdicts replay from the prior run, and only pairs touched by
  // the edit reach the solver. Convenience for Session(store_dir).RunIncremental(app) —
  // include src/pipeline/session.h for the option/result types.
  static IncrementalResult RunIncremental(const app::App& app, const std::string& store_dir,
                                          const IncrementalOptions& options);
};

// The verifier stage exactly as `options` say, with no knob resolution and no engine:
// an Engine calls it with options it resolved once, and Session::RunIncremental with
// the options it was given, so a run under an engine never reads the environment.
verifier::RestrictionReport VerifyStage(const app::App& app,
                                        const analyzer::AnalysisResult& analysis,
                                        const PipelineOptions& options);

}  // namespace noctua

#endif  // SRC_PIPELINE_PIPELINE_H_
