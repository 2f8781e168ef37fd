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
#include "src/pipeline/engine.h"
#include "src/repl/simulator.h"
#include "src/support/strings.h"

int main() {
  using namespace noctua;
  app::App bank = apps::MakeSmallBankApp();
  PipelineResult pipeline = Engine().Run(bank);
  const analyzer::AnalysisResult& analysis = pipeline.analysis;
  repl::ConflictTable conflicts;
  for (const auto& [p, q] : pipeline.restrictions.RestrictedViewPairs()) {
    conflicts.AddPair(p, q);
  }

  const std::vector<double> kDropRates = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2};
  const double kDurationMs = 800;
  const double kWriteRatio = 0.3;

  struct Mode {
    const char* name;
    bool sc;
  };
  const Mode kModes[] = {{"PoR", false}, {"SC", true}};

  bool all_safe = true;
  std::string json = "{" + noctua::bench::BenchJsonPreamble("fault_sweep") +
                     ", \"app\": \"SmallBank\", \"write_ratio\": " +
                     FormatDouble(kWriteRatio, 2) +
                     ", \"duration_ms\": " + FormatDouble(kDurationMs, 0) +
                     ", \"series\": [";
  for (size_t m = 0; m < std::size(kModes); ++m) {
    const Mode& mode = kModes[m];
    json += std::string(m ? ", " : "") + "{\"mode\": \"" + mode.name +
            "\", \"points\": [";
    for (size_t d = 0; d < kDropRates.size(); ++d) {
      double drop = kDropRates[d];
      repl::SimOptions options;
      options.duration_ms = kDurationMs;
      options.write_ratio = kWriteRatio;
      options.strong_consistency = mode.sc;
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
      json += std::string(d ? ", " : "") + "{\"drop\": " + FormatDouble(drop, 2) +
              ", \"throughput_ops\": " + FormatDouble(r.ThroughputOpsPerSec(), 1) +
              ", \"avg_latency_ms\": " + FormatDouble(r.avg_latency_ms, 3) +
              ", \"p99_latency_ms\": " + FormatDouble(r.p99_latency_ms, 3) +
              ", \"completed\": " + std::to_string(r.completed_requests) +
              ", \"timed_out\": " + std::to_string(r.timed_out_requests) +
              ", \"messages_dropped\": " + std::to_string(r.messages_dropped) +
              ", \"retransmissions\": " + std::to_string(r.retransmissions) +
              ", \"duplicates_ignored\": " + std::to_string(r.duplicates_ignored) +
              ", \"effects_replayed\": " + std::to_string(r.effects_replayed) +
              ", \"converged\": " + (r.converged ? "true" : "false") +
              ", \"conflict_violations\": " + std::to_string(r.conflict_violations) + "}";
    }
    json += "]}";
  }
  json += "]}";
  printf("%s\n", json.c_str());
  if (!all_safe) {
    fprintf(stderr, "[fault_sweep] FAILED: a cell diverged or admitted a conflict\n");
    return 1;
  }
  return 0;
}
