// What one end-to-end Noctua run takes and returns: ANALYZER (explore every view
// function's code paths into SOIR) followed by VERIFIER (check every unordered pair of
// effectful paths and assemble the restriction set). Engine::Run (engine.h) is the run;
// callers state what they want checked (PipelineOptions) and read one PipelineResult.
#ifndef SRC_PIPELINE_PIPELINE_H_
#define SRC_PIPELINE_PIPELINE_H_

#include "src/analyzer/analyzer.h"
#include "src/app/app.h"
#include "src/obs/obs.h"
#include "src/obs/report.h"
#include "src/verifier/report.h"

namespace noctua {

struct PipelineOptions {
  analyzer::AnalyzerOptions analyzer;
  verifier::CheckerOptions checker;
  verifier::ParallelOptions parallel;

  // Observability. When obs.enabled is true and no collector is already installed,
  // Engine::Run owns one for the duration of the run: spans/counters are recorded
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
  // Wall time of the run, less its wait for the engine lock (the engine_lock_wait span).
  double total_seconds = 0;

  // Store-backed runs (Engine::Run with a store_dir). `cold` is true when no usable
  // prior artifact existed (first run, or the store failed validation) and everything
  // was computed from scratch; a store-less run is always cold. What an edit touched
  // shows in `restrictions`: each pair's provenance (kComputed or kReplayed) and
  // stats().pairs_computed.
  bool cold = true;
  // False when writing the artifacts back failed — the run's results are valid, but the
  // next run will be cold. A warning is also printed to stderr, because a persistently
  // unwritable store silently degrades every future run to a cold one.
  bool artifacts_saved = false;

  // Populated only when this run owned a collector (see PipelineOptions::obs);
  // `has_report` distinguishes that from a default-constructed report.
  bool has_report = false;
  obs::RunReport report;

  const verifier::ReportStats& stats() const { return restrictions.stats; }
};

}  // namespace noctua

#endif  // SRC_PIPELINE_PIPELINE_H_
