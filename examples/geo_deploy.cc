// Example: from analysis to deployment — using Noctua's restriction set to run a
// geo-replicated SmallBank on the 3-site simulator, and comparing it against strong
// consistency (the end-to-end story of paper §6.5). The last section re-runs the PoR
// deployment on a hostile network — lost/duplicated messages, a replica crash, a
// coordinator outage — to show the recovery protocol keeping the same safety guarantees.
#include <cstdio>

#include "src/apps/smallbank.h"
#include "src/pipeline/enforce.h"
#include "src/pipeline/engine.h"
#include "src/repl/simulator.h"

int main() {
  using namespace noctua;

  app::App bank = apps::MakeSmallBankApp();

  // One call: analysis plus the PoR restriction set.
  PipelineResult result = Engine().Run(bank);
  const analyzer::AnalysisResult& analysis = result.analysis;
  const verifier::RestrictionReport& report = result.restrictions;

  const repl::ConflictTable conflicts = EnforcementTable(report);
  printf("Restriction set:\n");
  for (const auto& [p, q] : conflicts.pairs()) {
    printf("  (%s, %s)\n", p.c_str(), q.c_str());
  }

  // Deploy on 3 sites, 1 ms cross-site latency, 30% writes.
  repl::SimOptions options;
  options.write_ratio = 0.3;
  options.duration_ms = 2000;

  repl::Simulator por(bank.schema(), analysis.paths, conflicts, options);
  repl::SimResult por_result = por.Run();

  repl::ConflictTable total;
  total.SetTotal(true);
  repl::Simulator sc(bank.schema(), analysis.paths, total, options);
  repl::SimResult sc_result = sc.Run();

  printf("\n%-22s %12s %12s %12s\n", "", "ops/s", "latency(ms)", "converged");
  printf("%-22s %12.0f %12.3f %12s\n", "strong consistency", sc_result.ThroughputOpsPerSec(),
         sc_result.avg_latency_ms, sc_result.converged ? "yes" : "NO");
  printf("%-22s %12.0f %12.3f %12s\n", "PoR (Noctua)", por_result.ThroughputOpsPerSec(),
         por_result.avg_latency_ms, por_result.converged ? "yes" : "NO");
  printf("\nSpeedup: %.2fx — only the %zu restricted pairs pay coordination; every other\n"
         "request runs against the local replica.\n",
         por_result.ThroughputOpsPerSec() / sc_result.ThroughputOpsPerSec(),
         report.num_restrictions());

  // Same deployment, hostile network: 5% message loss, 3% duplication, latency jitter,
  // one replica crashing a quarter of the way in and recovering at the midpoint, and a
  // 100 ms coordinator outage. The protocol that ran the perfect network above (retries +
  // dedup + sequence-gapped apply queues + anti-entropy catch-up + leases) must preserve
  // convergence and the restriction set; only throughput and tail latency may degrade.
  repl::FaultPlan plan = repl::FaultPlan::Lossy(0.05, 0.03);
  plan.link.jitter_ms = 1.0;
  plan.crashes.push_back({2, options.duration_ms * 0.25, options.duration_ms * 0.5});
  plan.coordinator_outages.push_back(
      {options.duration_ms * 0.6, options.duration_ms * 0.6 + 100});
  options.faults = plan;
  repl::Simulator chaos(bank.schema(), analysis.paths, conflicts, options);
  repl::SimResult chaos_result = chaos.Run();

  printf("\nPoR under faults (5%% loss, crash+restart, coordinator outage):\n");
  printf("  %-28s %12.0f op/s (perfect network: %.0f)\n", "throughput",
         chaos_result.ThroughputOpsPerSec(), por_result.ThroughputOpsPerSec());
  printf("  %-28s %9.3f ms / %9.3f ms\n", "latency avg / p99", chaos_result.avg_latency_ms,
         chaos_result.p99_latency_ms);
  printf("  %-28s %llu dropped, %llu duplicated, %llu retransmitted, %llu dedup hits\n",
         "network", (unsigned long long)chaos_result.messages_dropped,
         (unsigned long long)chaos_result.messages_duplicated,
         (unsigned long long)chaos_result.retransmissions,
         (unsigned long long)chaos_result.duplicates_ignored);
  printf("  %-28s %llu crash / %llu recovery, %llu effects replayed by anti-entropy\n",
         "failures", (unsigned long long)chaos_result.replica_crashes,
         (unsigned long long)chaos_result.replica_recoveries,
         (unsigned long long)chaos_result.effects_replayed);
  printf("  %-28s converged=%s, restriction violations=%llu\n", "safety",
         chaos_result.converged ? "yes" : "NO",
         (unsigned long long)chaos_result.conflict_violations);
  return chaos_result.converged && chaos_result.conflict_violations == 0 ? 0 : 1;
}
