// Robustness-under-failure degradation curves — the repo's first experiment beyond the
// paper: throughput and tail latency of the PoR deployment and the SC baseline as the
// network loses an increasing fraction of messages. Emits a JSON document on stdout
// (tables and progress go to stderr) so the curve can be plotted directly:
//
//   {"app": "SmallBank", ..., "series": [{"mode": "PoR", "points": [...]}, ...]}
//
// Each point also reports the recovery machinery's work (retransmissions, dedup hits,
// anti-entropy replays) and asserts the safety properties: every cell of the sweep must
// converge with zero restriction-set violations, faults or not.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/smallbank.h"
#include "src/pipeline/enforce.h"
#include "src/pipeline/engine.h"
#include "src/repl/simulator.h"

int main() {
  using namespace noctua;
  app::App bank = apps::MakeSmallBankApp();
  PipelineResult pipeline = Engine().Run(bank);
  const analyzer::AnalysisResult& analysis = pipeline.analysis;
  const repl::ConflictTable conflicts = EnforcementTable(pipeline.restrictions);

  const std::vector<double> kDropRates = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2};
  const double kDurationMs = 800;
  const double kWriteRatio = 0.3;

  struct Mode {
    const char* name;
    bool sc;
  };
  const Mode kModes[] = {{"PoR", false}, {"SC", true}};

  bool all_safe = true;
  obs::JsonWriter json = bench::BenchDocument("fault_sweep");
  json.Key("app").String("SmallBank").Key("write_ratio").Double(kWriteRatio, 2);
  json.Key("duration_ms").Double(kDurationMs, 0).Key("series").BeginArray();
  for (const Mode& mode : kModes) {
    json.BeginObject().Key("mode").String(mode.name).Key("points").BeginArray();
    for (double drop : kDropRates) {
      repl::SimOptions options;
      options.duration_ms = kDurationMs;
      options.write_ratio = kWriteRatio;
      options.faults = repl::FaultPlan::Lossy(drop);
      repl::ConflictTable table = conflicts;
      if (mode.sc) {
        table.SetTotal(true);
      }
      repl::Simulator sim(bank.schema(), analysis.paths, table, options);
      repl::SimResult r = sim.Run();
      all_safe = all_safe && r.converged && r.conflict_violations == 0;
      fprintf(stderr, "[fault_sweep] %-3s drop=%.2f: %7.0f op/s  p99 %7.2f ms%s%s\n",
              mode.name, drop, r.ThroughputOpsPerSec(), r.p99_latency_ms,
              r.converged ? "" : "  DIVERGED",
              r.conflict_violations ? "  VIOLATIONS" : "");
      json.BeginObject().Key("drop").Double(drop, 2);
      json.Key("throughput_ops").Double(r.ThroughputOpsPerSec(), 1);
      json.Key("avg_latency_ms").Double(r.avg_latency_ms, 3);
      json.Key("p99_latency_ms").Double(r.p99_latency_ms, 3);
      json.Key("completed").Uint(r.completed_requests);
      json.Key("timed_out").Uint(r.timed_out_requests);
      json.Key("messages_dropped").Uint(r.messages_dropped);
      json.Key("retransmissions").Uint(r.retransmissions);
      json.Key("duplicates_ignored").Uint(r.duplicates_ignored);
      json.Key("effects_replayed").Uint(r.effects_replayed);
      json.Key("converged").Bool(r.converged);
      json.Key("conflict_violations").Uint(r.conflict_violations).EndObject();
    }
    json.EndArray().EndObject();
  }
  printf("%s\n", json.EndArray().EndObject().Take().c_str());
  if (!all_safe) {
    fprintf(stderr, "[fault_sweep] FAILED: a cell diverged or admitted a conflict\n");
    return 1;
  }
  return 0;
}
