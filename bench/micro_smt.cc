// google-benchmark microbenchmarks for the SMT substrate and the verifier's hot paths:
// term interning, grounding, solving a representative check, and a full pair check.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "src/analyzer/analyzer.h"
#include "src/apps/apps.h"
#include "src/apps/smallbank.h"
#include "src/pipeline/engine.h"
#include "src/smt/backend.h"
#include "src/smt/ground.h"
#include "src/smt/solver.h"
#include "src/soir/serialize.h"
#include "src/support/check.h"
#include "src/support/strings.h"
#include "src/verifier/checker.h"

namespace {

using namespace noctua;
using smt::Sort;
using smt::Term;
using smt::TermFactory;

void BM_TermInterning(benchmark::State& state) {
  for (auto _ : state) {
    TermFactory f;
    Term acc = f.IntLit(0);
    for (int i = 0; i < 256; ++i) {
      acc = f.Add(acc, f.Mul(f.IntLit(i % 7), f.Const("x" + std::to_string(i % 16),
                                                      smt::IntSort())));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TermInterning);

void BM_LinearNormalization(benchmark::State& state) {
  TermFactory f;
  Term x = f.Const("x", smt::IntSort());
  Term y = f.Const("y", smt::IntSort());
  for (auto _ : state) {
    // (x + y) - (y + x) must normalize to 0.
    Term t = f.Sub(f.Add(x, y), f.Add(y, x));
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_LinearNormalization);

void BM_GroundQuantifier(benchmark::State& state) {
  int scope = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TermFactory f;
    Sort rs = f.RefSort(0);
    Term ids = f.Const("ids", f.SetSort(rs));
    Term data = f.Const("data", f.ArraySort(rs, f.TupleSort({rs, smt::IntSort()})));
    Term x = f.NewBoundVar(rs);
    Term y = f.NewBoundVar(rs);
    Term axiom = f.Forall(
        x, f.Forall(y, f.Implies(f.And({f.Member(x, ids), f.Member(y, ids),
                                        f.Eq(f.Proj(f.Select(data, x), 1),
                                             f.Proj(f.Select(data, y), 1))}),
                                 f.Eq(x, y))));
    smt::Grounder g(&f, smt::Scope(scope));
    benchmark::DoNotOptimize(g.Ground(axiom));
  }
}
BENCHMARK(BM_GroundQuantifier)->Arg(2)->Arg(3)->Arg(4);

void BM_SolveUniqueFieldQuery(benchmark::State& state) {
  for (auto _ : state) {
    TermFactory f;
    Sort rs = f.RefSort(0);
    Sort obj = f.TupleSort({rs, smt::IntSort()});
    Term data = f.Const("data", f.ArraySort(rs, obj));
    Term ids = f.Const("ids", f.SetSort(rs));
    Term v = f.NewBoundVar(rs);
    Term wf = f.Forall(v, f.Eq(f.Proj(f.Select(data, v), 0), v));
    Term x = f.Const("x", rs);
    Term y = f.Const("y", rs);
    std::unique_ptr<smt::SolverBackend> backend = smt::MakeBackend(smt::SolverOptions{});
    backend->AssertAll(
        {wf, f.Member(x, ids), f.Member(y, ids),
         f.Eq(f.Proj(f.Select(data, x), 1), f.Proj(f.Select(data, y), 1)),
         f.Neq(x, y)});
    auto r = backend->Check(f);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SolveUniqueFieldQuery);

// One full commutativity + semantic check on a real pair (the verifier's unit of work).
void BM_FullPairCheck(benchmark::State& state) {
  static app::App a = apps::MakeSmallBankApp();
  static analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  static std::vector<soir::CodePath> eff = res.EffectfulPaths();
  verifier::Checker checker(a.schema(), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.CheckCommutativity(eff[1], eff[2]));
    benchmark::DoNotOptimize(checker.CheckSemantic(eff[1], eff[2]));
  }
}
BENCHMARK(BM_FullPairCheck);

// The per-pair hot path under the optimization toggles: one PairSession runs the
// commutativity query plus both NotInvalidate directions on a real SmallBank pair —
// exactly what the verifier's pair loop executes. The prefilter is disabled so the
// timer measures solver work, not footprint set intersection. Scope 3 rather than the
// default 2: the optimizations exist for the queries where search dominates, and at
// scope 2 the fixed encode/ground floor hides most of the win. CI gates the off/on
// median ratio (see the pair-query speedup gate in ci.yml).
void BM_PairQuery(benchmark::State& state, bool optimized) {
  static app::App a = apps::MakeSmallBankApp();
  static analyzer::AnalysisResult res = analyzer::AnalyzeApp(a);
  static std::vector<soir::CodePath> eff = res.EffectfulPaths();
  verifier::CheckerOptions opt;
  opt.solver.scope = smt::Scope(3);
  opt.solver.symmetry = optimized;
  opt.solver.incremental = optimized;
  opt.independence_prefilter = false;
  verifier::Checker checker(a.schema(), opt);
  const verifier::Checker::PathFacts p = checker.Facts(eff[1]);
  const verifier::Checker::PathFacts q = checker.Facts(eff[2]);
  for (auto _ : state) {
    verifier::Checker::PairSession session(checker, p, q);
    benchmark::DoNotOptimize(session.Commutativity());
    benchmark::DoNotOptimize(session.NotInvalidatePQ());
    benchmark::DoNotOptimize(session.NotInvalidateQP());
  }
}
BENCHMARK_CAPTURE(BM_PairQuery, dfs_off, false);
BENCHMARK_CAPTURE(BM_PairQuery, dfs_on, true);

void BM_AnalyzeSmallBank(benchmark::State& state) {
  app::App a = apps::MakeSmallBankApp();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer::AnalyzeApp(a));
  }
}
BENCHMARK(BM_AnalyzeSmallBank);

// Deterministic verdict fingerprint of one app with the optimizations off or on:
// FNV-1a over the "p|q|com|sem" verdict lines of a full verify.
// The optimizations must never change a verdict, so the fingerprint is the artifact
// CI diffs against the committed baseline to prove restriction-set identity.
uint64_t VerdictFingerprint(const apps::AppEntry& entry, bool optimized) {
  app::App a = entry.make();
  analyzer::AnalysisResult analysis = analyzer::AnalyzeApp(a);

  PipelineOptions options;
  options.checker.solver.symmetry = optimized;
  options.checker.solver.incremental = optimized;
  EngineConfig two_workers;
  two_workers.threads = 2;
  verifier::RestrictionReport report = Engine(two_workers).Verify(a, analysis, options);

  return soir::Fnv1a64(Join(report.VerdictLines(), "\n") + "\n");
}

// Stamps per-app dfs verdict fingerprints into the benchmark context, after CHECK-ing
// that the optimized and unoptimized runs produce identical verdicts. Gated behind
// NOCTUA_BENCH_FINGERPRINTS=1 because it runs 6 full verifies, which plain timing runs
// skip. Only the fast apps are fingerprinted — the slow trio
// (Zhihu, OwnPhotos, PostGraduation) is covered by the tier-1 identity tests instead.
void AddVerdictFingerprints() {
  for (const apps::AppEntry& entry : apps::EvaluatedApps()) {
    if (entry.name != "Todo" && entry.name != "SmallBank" && entry.name != "Courseware") {
      continue;
    }
    uint64_t off = VerdictFingerprint(entry, /*optimized=*/false);
    uint64_t on = VerdictFingerprint(entry, /*optimized=*/true);
    NOCTUA_CHECK_MSG(off == on, "optimizations changed a restriction set");
    benchmark::AddCustomContext("fingerprint_" + entry.name + "_dfs", soir::DigestHex(on));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  const char* fp = std::getenv("NOCTUA_BENCH_FINGERPRINTS");
  if (fp != nullptr && std::string(fp) == "1") {
    AddVerdictFingerprints();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
