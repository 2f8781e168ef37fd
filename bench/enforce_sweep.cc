// Runtime-enforcement sweep — the end-to-end oracle as a benchmark. Three experiments
// in one JSON document (stdout; tables and progress on stderr):
//
//   1. "grid": every evaluated app under enforced PoR across the chaos grid
//      (3 fault plans x 3 seeds). Each cell must converge, admit zero conflicting
//      [grant, release) overlaps, and produce an execution trace the offline checker
//      validates cleanly against the full restriction set. Any failure exits 1 — this
//      is the safety gate CI runs.
//   2. "modes": SmallBank under the jittery plan in three consistency modes. Summed
//      over seeds, throughput must order strictly: SC < enforced PoR < unenforced PoR.
//      The left inequality is the paper's payoff (fine-grained coordination beats
//      serializing everything); the right one proves the enforcement cost model is
//      alive (a real coordination service is not free).
//   3. "curve": SmallBank enforced with growing prefixes of its restriction set —
//      throughput against the number of enforced pairs, i.e. what an oversized
//      restriction set costs at runtime (the "lost throughput" half of the oracle;
//      the other half — a too-small set — is what the trace checker catches).
//
// The coordination service runs with the default repl::EnforceOptions, whose shard
// count and lease length head the document; NOCTUA_COORD_SELFCHECK=1 additionally
// audits coordinator state after every service call.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/apps/smallbank.h"
#include "src/pipeline/enforce.h"
#include "src/repl/simulator.h"
#include "src/repl/trace_check.h"
#include "src/verifier/report.h"

namespace {

using namespace noctua;
using repl::ConflictTable;
using repl::FaultPlan;
using repl::SimOptions;
using repl::SimResult;

struct PlanCase {
  const char* name;
  FaultPlan plan;
};

std::vector<PlanCase> ChaosPlans() {
  std::vector<PlanCase> plans;
  plans.push_back({"lossy", FaultPlan::Lossy(/*drop=*/0.08, /*duplicate=*/0.05)});
  plans.push_back({"jittery", FaultPlan::Jittery(/*jitter_ms=*/2.0, /*reorder=*/0.25,
                                                 /*spike=*/0.05, /*spike_mean_ms=*/10.0)});
  FaultPlan crashy = FaultPlan::CrashRestart(/*site=*/2, /*at_ms=*/80, /*restart_ms=*/160,
                                             /*drop=*/0.02);
  crashy.coordinator_outages.push_back({200, 240});
  plans.push_back({"crashy", crashy});
  return plans;
}

// Same table policy as the chaos harness and the enforcement tests: the verifier's
// restriction set for the fast apps, the syntactic over-approximation for the two
// SMT-heavy ones.
ConflictTable ConflictsFor(const app::App& a, const std::string& name,
                           const analyzer::AnalysisResult& res) {
  auto eff = res.EffectfulPaths();
  if (name == "Zhihu" || name == "OwnPhotos") {
    return repl::ConservativeConflicts(a.schema(), eff);
  }
  return EnforcementTable(verifier::AnalyzeRestrictions(verifier::Checker(a.schema()), eff,
                                                        {}, res.paths));
}

SimResult RunOne(const app::App& a, const analyzer::AnalysisResult& res,
                 const ConflictTable& table, const FaultPlan& plan, uint64_t seed,
                 double duration_ms, bool enforce, bool sc) {
  SimOptions options;
  options.duration_ms = duration_ms;
  options.write_ratio = 0.5;
  options.seed = seed;
  options.faults = plan;
  options.strong_consistency = sc;
  options.enforce.enabled = enforce;
  repl::Simulator sim(a.schema(), res.paths, table, options);
  return sim.Run();
}

}  // namespace

int main() {
  bool all_safe = true;
  obs::JsonWriter json = bench::BenchDocument("enforce_sweep");
  const repl::EnforceOptions service;
  json.Key("lease_ms").Double(service.lease_ms, 1).Key("num_shards").Int(service.num_shards);

  // --- 1. Enforced chaos grid over every evaluated app -------------------------------
  json.Key("grid").BeginArray();
  for (const auto& entry : apps::EvaluatedApps()) {
    app::App a = entry.make();
    analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
    ConflictTable conflicts = ConflictsFor(a, entry.name, res);
    for (const PlanCase& pc : ChaosPlans()) {
      for (uint64_t seed : {11u, 22u, 33u}) {
        SimResult r = RunOne(a, res, conflicts, pc.plan, seed, /*duration_ms=*/250,
                             /*enforce=*/true, /*sc=*/false);
        repl::TraceCheckResult check = repl::CheckTrace(r.trace, conflicts);
        bool safe = r.converged && r.conflict_violations == 0 && check.ok() &&
                    r.completed_requests > 0 && r.lease_acquires > 0;
        all_safe = all_safe && safe;
        fprintf(stderr,
                "[enforce_sweep] %-10s %-7s seed=%2llu: %6.0f op/s  acq=%4llu exp=%3llu "
                "degr=%3llu%s%s%s\n",
                entry.name.c_str(), pc.name, (unsigned long long)seed,
                r.ThroughputOpsPerSec(), (unsigned long long)r.lease_acquires,
                (unsigned long long)r.lease_expiries, (unsigned long long)r.degradations,
                r.converged ? "" : "  DIVERGED",
                r.conflict_violations ? "  OVERLAPS" : "",
                check.ok() ? "" : "  TRACE-VIOLATION");
        if (!check.ok() && check.has_witness) {
          fprintf(stderr, "[enforce_sweep]   witness: %s\n",
                  check.first.Describe().c_str());
        }
        json.BeginObject().Key("app").String(entry.name).Key("plan").String(pc.name);
        json.Key("seed").Uint(seed);
        json.Key("throughput_ops").Double(r.ThroughputOpsPerSec(), 1);
        json.Key("p99_latency_ms").Double(r.p99_latency_ms, 3);
        json.Key("lease_acquires").Uint(r.lease_acquires);
        json.Key("lease_expiries").Uint(r.lease_expiries);
        json.Key("degradations").Uint(r.degradations).Key("lease_laps").Uint(r.lease_laps);
        json.Key("fence_held_effects").Uint(r.fence_held_effects);
        json.Key("converged").Bool(r.converged);
        json.Key("conflict_violations").Uint(r.conflict_violations);
        json.Key("trace_ops").Uint(check.ops).Key("trace_violations").Uint(check.violations);
        json.EndObject();
      }
    }
  }
  json.EndArray();

  // --- 2. Consistency-mode comparison on SmallBank -----------------------------------
  app::App bank = apps::MakeSmallBankApp();
  analyzer::AnalysisResult bank_res = analyzer::AnalyzeApp(bank);
  ConflictTable bank_table = ConflictsFor(bank, "SmallBank", bank_res);
  ConflictTable total;
  total.SetTotal(true);
  FaultPlan jittery = ChaosPlans()[1].plan;
  const double kModeDurationMs = 600;

  struct ModeCase {
    const char* name;
    const ConflictTable* table;
    bool enforce;
    bool sc;
  };
  const ModeCase kModes[] = {{"SC", &total, false, true},
                             {"PoR-enforced", &bank_table, true, false},
                             {"PoR", &bank_table, false, false}};
  double mode_tput[3] = {0, 0, 0};
  json.Key("modes").BeginArray();
  for (size_t m = 0; m < std::size(kModes); ++m) {
    uint64_t completed = 0;
    double ms = 0;
    for (uint64_t seed : {11u, 22u, 33u}) {
      SimResult r = RunOne(bank, bank_res, *kModes[m].table, jittery, seed,
                           kModeDurationMs, kModes[m].enforce, kModes[m].sc);
      all_safe = all_safe && r.converged && r.conflict_violations == 0;
      completed += r.completed_requests;
      ms += r.duration_ms;
    }
    mode_tput[m] = ms > 0 ? completed / (ms / 1000.0) : 0;
    fprintf(stderr, "[enforce_sweep] mode %-12s: %7.0f op/s over 3 seeds\n",
            kModes[m].name, mode_tput[m]);
    json.BeginObject().Key("mode").String(kModes[m].name);
    json.Key("throughput_ops").Double(mode_tput[m], 1).EndObject();
  }
  json.EndArray();
  bool ordered = mode_tput[0] < mode_tput[1] && mode_tput[1] < mode_tput[2];
  if (!ordered) {
    fprintf(stderr,
            "[enforce_sweep] FAILED: expected SC < PoR-enforced < PoR, got "
            "%.0f / %.0f / %.0f\n",
            mode_tput[0], mode_tput[1], mode_tput[2]);
  }

  // --- 3. Throughput against enforced-set size (SmallBank prefixes) ------------------
  json.Key("curve").BeginArray();
  std::vector<std::pair<std::string, std::string>> pairs(bank_table.pairs().begin(),
                                                         bank_table.pairs().end());
  for (size_t n = 0; n <= pairs.size(); n += 2) {
    ConflictTable prefix;
    for (size_t i = 0; i < n; ++i) {
      prefix.AddPair(pairs[i].first, pairs[i].second);
    }
    uint64_t completed = 0, waits = 0, grants = 0;
    double ms = 0;
    for (uint64_t seed : {11u, 22u, 33u}) {
      SimResult r = RunOne(bank, bank_res, prefix, jittery, seed, kModeDurationMs,
                           /*enforce=*/true, /*sc=*/false);
      all_safe = all_safe && r.converged;
      completed += r.completed_requests;
      waits += r.lock_waits;
      grants += r.lease_grants;
      ms += r.duration_ms;
    }
    double tput = ms > 0 ? completed / (ms / 1000.0) : 0;
    fprintf(stderr, "[enforce_sweep] |set|=%2zu: %7.0f op/s  lock_waits=%llu\n", n, tput,
            (unsigned long long)waits);
    json.BeginObject().Key("set_size").Uint(n).Key("throughput_ops").Double(tput, 1);
    json.Key("lock_waits").Uint(waits).Key("lease_grants").Uint(grants).EndObject();
  }
  printf("%s\n", json.EndArray().EndObject().Take().c_str());

  if (!all_safe || !ordered) {
    fprintf(stderr, "[enforce_sweep] FAILED: %s\n",
            !all_safe ? "a cell diverged, overlapped, or failed the trace check"
                      : "consistency modes are not strictly ordered");
    return 1;
  }
  return 0;
}
