// The repository benchmark harness. Usage:
//
//   perfbench --workload cold_batch|service_mixed --seed N --seconds S --trace 0|1
//             --work-dir DIR --reference-dir DIR [--corrupt-reference]
//   perfbench --capture-references --reference-dir DIR
//
// Prints the run's inputs (seed, schedule digest) on one stdout line and the result —
// {"correct", "attempted", "failed", "metrics"} — on the last. perfbench/run.py builds
// this binary and is the intended entry point.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "src/apps/apps.h"
#include "src/pipeline/engine.h"

namespace perfbench {

// The expected restriction set is the deterministic-budget answer, where every query
// decides. Three default-budget runs then find the budget-sensitive pairs: restricted
// there with a timeout verdict, unrestricted under the deterministic budget.
int CaptureReferences(const Args& args) {
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    if (entry.name == "SmallBank" || entry.name == "Courseware") {
      continue;  // typed in from the paper, not captured
    }
    const noctua::app::App app = entry.make();
    noctua::PipelineOptions deterministic;
    deterministic.checker.solver.budget.deterministic = true;
    const std::vector<std::string> pairs =
        noctua::Engine(BenchEngineConfig()).Run(app, deterministic).restrictions.RestrictedPairNames();
    std::set<std::string> budget_sensitive;
    for (int rep = 0; rep < 3; ++rep) {
      const noctua::PipelineResult run = noctua::Engine(BenchEngineConfig()).Run(app);
      for (const noctua::verifier::PairVerdict& v : run.restrictions.pairs) {
        const std::string name = "(" + v.p + ", " + v.q + ")";
        const bool timed_out = v.commutativity == noctua::verifier::CheckOutcome::kTimeout ||
                               v.semantic == noctua::verifier::CheckOutcome::kTimeout;
        if (timed_out && std::find(pairs.begin(), pairs.end(), name) == pairs.end()) {
          budget_sensitive.insert(name);
        }
      }
    }
    std::string error;
    if (!WriteReference(args.reference_dir, entry.name, pairs, budget_sensitive, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %s: %zu restricted pairs, %zu budget-sensitive\n",
                 entry.name.c_str(), pairs.size(), budget_sensitive.size());
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  bool capture = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      args.trace = value() == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = value();
    } else if (arg == "--reference-dir") {
      args.reference_dir = value();
    } else if (arg == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (arg == "--capture-references") {
      capture = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.reference_dir.empty()) {
    std::fprintf(stderr, "perfbench: --reference-dir is required\n");
    return 2;
  }
  if (capture) {
    return perfbench::CaptureReferences(args);
  }
  if (args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --work-dir and a positive --seconds are required\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  if (args.workload == "cold_batch") {
    return perfbench::RunColdBatch(args);
  }
  if (args.workload == "service_mixed") {
    return perfbench::RunServiceMixed(args);
  }
  std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", args.workload.c_str());
  return 2;
}
