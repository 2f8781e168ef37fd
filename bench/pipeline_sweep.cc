// End-to-end pipeline sweep with the observability layer on and off.
//
// For each evaluated app the sweep runs the full pipeline (analyze + verify) three
// times with instrumentation disabled and three times with it enabled, compares the
// best-of-3 wall times (the overhead ratio the "< 3% when off" budget is judged
// against, see .github/workflows/ci.yml), and asserts the per-pair verdicts are
// byte-identical between the two configurations — instrumentation must never change
// an answer. Solver budgets are deterministic, so the verdict comparison is exact.
//
// The Zhihu run's Chrome trace-event JSON is written to --trace-out=<file>.json
// (default: pipeline_trace_zhihu.json) and then PARSED BACK and validated: the file
// must be well-formed JSON in the trace-event shape Perfetto/chrome://tracing accept,
// contain the analyze/encode/solve/cache span categories, and carry per-pair solver
// counters in span args. The bench exits nonzero if verdicts diverge (1) or the trace
// fails validation (2), so CI catches a broken exporter, not a human squinting at a
// viewer.
//
// Emits one JSON document on stdout (progress and the Zhihu RunReport table go to
// stderr): per-app obs_off/obs_on best-of-3 seconds, overhead ratios, the embedded
// RunReport, plus aggregate totals used by the CI overhead gate.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/smallbank.h"
#include "src/apps/todo.h"
#include "src/apps/zhihu.h"
#include "src/obs/json.h"
#include "src/obs/obs.h"
#include "src/pipeline/engine.h"

namespace {

// Validates a written trace file by parsing it back. Returns true and fills
// `categories` on success; prints the reason to stderr on failure.
bool ValidateTrace(const std::string& path, std::set<std::string>* categories) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fprintf(stderr, "[pipeline_sweep] trace validation: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string error;
  noctua::obs::JsonPtr root = noctua::obs::ParseJson(buf.str(), &error);
  if (root == nullptr) {
    fprintf(stderr, "[pipeline_sweep] trace validation: %s\n", error.c_str());
    return false;
  }
  if (!root->is_object()) {
    fprintf(stderr, "[pipeline_sweep] trace validation: root is not an object\n");
    return false;
  }
  noctua::obs::JsonPtr events = root->Get("traceEvents");
  if (events == nullptr || !events->is_array() || events->AsArray().empty()) {
    fprintf(stderr, "[pipeline_sweep] trace validation: missing/empty traceEvents\n");
    return false;
  }

  bool pair_with_solver_args = false;
  for (const noctua::obs::JsonPtr& ev : events->AsArray()) {
    if (!ev->is_object()) {
      fprintf(stderr, "[pipeline_sweep] trace validation: non-object trace event\n");
      return false;
    }
    noctua::obs::JsonPtr ph = ev->Get("ph");
    noctua::obs::JsonPtr name = ev->Get("name");
    if (ph == nullptr || !ph->is_string() || name == nullptr || !name->is_string()) {
      fprintf(stderr, "[pipeline_sweep] trace validation: event missing ph/name\n");
      return false;
    }
    if (ph->AsString() != "X") {
      continue;  // metadata events
    }
    // Complete events need cat/ts/dur/pid/tid for the viewers to place them.
    noctua::obs::JsonPtr cat = ev->Get("cat");
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      noctua::obs::JsonPtr field = ev->Get(key);
      if (field == nullptr || !field->is_number()) {
        fprintf(stderr, "[pipeline_sweep] trace validation: X event missing %s\n", key);
        return false;
      }
    }
    if (cat == nullptr || !cat->is_string()) {
      fprintf(stderr, "[pipeline_sweep] trace validation: X event missing cat\n");
      return false;
    }
    categories->insert(cat->AsString());
    if (cat->AsString() == "pair") {
      noctua::obs::JsonPtr args = ev->Get("args");
      if (args != nullptr && args->is_object() &&
          args->Get("solver_nodes") != nullptr && args->Get("cache_hits") != nullptr) {
        pair_with_solver_args = true;
      }
    }
  }

  for (const char* required : {"analyze", "encode", "solve", "cache"}) {
    if (categories->count(required) == 0) {
      fprintf(stderr, "[pipeline_sweep] trace validation: category \"%s\" absent\n",
              required);
      return false;
    }
  }
  if (categories->size() < 4) {
    fprintf(stderr, "[pipeline_sweep] trace validation: fewer than 4 span categories\n");
    return false;
  }
  if (!pair_with_solver_args) {
    fprintf(stderr,
            "[pipeline_sweep] trace validation: no pair span carries per-pair solver "
            "counters\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace noctua;

  std::string trace_out = "pipeline_trace_zhihu.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      fprintf(stderr, "usage: %s [--trace-out=<file>.json]\n", argv[0]);
      return 64;
    }
  }

  struct AppCase {
    const char* name;
    app::App app;
  };
  std::vector<AppCase> cases;
  cases.push_back({"Todo", apps::MakeTodoApp()});
  cases.push_back({"SmallBank", apps::MakeSmallBankApp()});
  cases.push_back({"Zhihu", apps::MakeZhihuApp()});

  constexpr int kIterations = 3;
  bool identical_everywhere = true;
  double total_off = 0;
  double total_on = 0;
  std::string zhihu_report_table;

  obs::JsonWriter json = bench::BenchDocument("pipeline_sweep");
  json.Key("trace_file").String(trace_out).Key("apps").BeginArray();
  for (AppCase& app_case : cases) {
    const bool is_zhihu = std::strcmp(app_case.name, "Zhihu") == 0;

    // Deterministic solver budget: identical verdicts regardless of machine speed, so
    // the off-vs-on comparison below is exact equality, not a flaky approximation.
    PipelineOptions base;
    base.checker.solver.budget.deterministic = true;

    double off_seconds = 0;
    std::vector<std::string> reference;
    verifier::RestrictionReport off_report;
    for (int it = 0; it < kIterations; ++it) {
      PipelineResult r = Engine().Run(app_case.app, base);
      if (it == 0 || r.total_seconds < off_seconds) {
        off_seconds = r.total_seconds;
      }
      if (it == 0) {
        reference = r.restrictions.VerdictLines();
        off_report = std::move(r.restrictions);
      }
    }
    fprintf(stderr, "[pipeline_sweep] %s: obs off, best of %d: %.3fs (%zu pairs)\n",
            app_case.name, kIterations, off_seconds, off_report.pairs.size());

    PipelineOptions with_obs = base;
    with_obs.obs.enabled = true;
    if (is_zhihu) {
      with_obs.obs.trace_out = trace_out;
    }
    double on_seconds = 0;
    bool identical = true;
    PipelineResult on_result;
    for (int it = 0; it < kIterations; ++it) {
      PipelineResult r = Engine().Run(app_case.app, with_obs);
      if (it == 0 || r.total_seconds < on_seconds) {
        on_seconds = r.total_seconds;
      }
      identical = identical && r.restrictions.VerdictLines() == reference;
      if (it == kIterations - 1) {
        on_result = std::move(r);
      }
    }
    identical_everywhere = identical_everywhere && identical;
    total_off += off_seconds;
    total_on += on_seconds;
    double ratio = off_seconds > 0 ? on_seconds / off_seconds : 0;
    fprintf(stderr,
            "[pipeline_sweep] %s: obs on,  best of %d: %.3fs  overhead %.3fx  "
            "(%zu trace events)%s\n",
            app_case.name, kIterations, on_seconds, ratio, on_result.report.trace_events,
            identical ? "" : "  VERDICTS DIVERGED");
    if (is_zhihu) {
      zhihu_report_table = on_result.report.ToTable();
    }

    json.BeginObject().Key("app").String(app_case.name);
    json.Key("pairs").Uint(off_report.pairs.size());
    json.Key("restrictions").Uint(off_report.num_restrictions());
    json.Key("obs_off_seconds").Double(off_seconds, 4);
    json.Key("obs_on_seconds").Double(on_seconds, 4).Key("overhead_ratio").Double(ratio, 4);
    bench::WritePhaseTiming(json.Key("phases"), off_report);
    json.Key("identical_restrictions").Bool(identical);
    on_result.report.ToJson(json.Key("report"));
    json.EndObject();
  }

  // Parse the written Zhihu trace back; a file Perfetto would reject fails the bench.
  std::set<std::string> categories;
  bool trace_valid = ValidateTrace(trace_out, &categories);
  fprintf(stderr, "[pipeline_sweep] trace %s: %s (%zu categories)\n", trace_out.c_str(),
          trace_valid ? "valid" : "INVALID", categories.size());
  if (!zhihu_report_table.empty()) {
    fprintf(stderr, "\n%s\n", zhihu_report_table.c_str());
  }

  double aggregate = total_off > 0 ? total_on / total_off : 0;
  json.EndArray().Key("total_obs_off_seconds").Double(total_off, 4);
  json.Key("total_obs_on_seconds").Double(total_on, 4);
  json.Key("aggregate_overhead_ratio").Double(aggregate, 4);
  json.Key("trace_valid").Bool(trace_valid).Key("trace_span_categories").BeginArray();
  for (const std::string& category : categories) {
    json.String(category);
  }
  json.EndArray().Key("identical_everywhere").Bool(identical_everywhere).EndObject();
  printf("%s\n", json.Take().c_str());

  if (!identical_everywhere) {
    fprintf(stderr, "[pipeline_sweep] FAILED: instrumentation changed a verdict\n");
    return 1;
  }
  if (!trace_valid) {
    fprintf(stderr, "[pipeline_sweep] FAILED: trace file failed validation\n");
    return 2;
  }
  return 0;
}
