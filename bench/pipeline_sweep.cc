// End-to-end pipeline sweep with the observability layer on and off.
//
// Every evaluated app runs the full pipeline (analyze + verify) on a fresh engine with
// instrumentation off and on, in 15 interleaved off/on pairs: each pair runs each app on
// both sides back to back, and successive pairs alternate which side goes first, so
// machine drift and warm-up fall on both sides alike. A side's time in one pair is its sum over the apps;
// the overhead ratio (the "< 3%" budget, see .github/workflows/ci.yml) is the median on
// time over the median off time. Every run's per-pair verdicts must equal the first
// off run's: instrumentation must never change an answer. Solver budgets count work, so
// the comparison is exact.
//
// The last pair's instrumented Zhihu run writes its Chrome trace-event JSON to
// --trace-out=<file>.json (default: pipeline_trace_zhihu.json), which is then PARSED
// BACK and validated: the file must be well-formed JSON in the trace-event shape
// Perfetto/chrome://tracing accept, contain the analyze/encode/solve/cache span
// categories, and carry per-pair solver counters in span args. The bench exits nonzero
// if verdicts diverge (1) or the trace fails validation (2), so CI catches a broken
// exporter, not a human squinting at a viewer.
//
// Emits one JSON document on stdout (progress and the Zhihu RunReport table go to
// stderr): per-app obs_off/obs_on median seconds, overhead ratios and the last on run's
// RunReport, plus the median totals and their ratio, which the CI overhead gate reads.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
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
    explicit AppCase(const apps::AppEntry& entry) : name(entry.name), app(entry.make()) {}

    std::string name;
    app::App app;
    std::vector<double> off_seconds;
    std::vector<double> on_seconds;
    std::vector<std::string> reference;  // the first off run's verdict lines
    verifier::RestrictionReport off_report;
    PipelineResult on_result;  // the last on run
    bool identical = true;
  };
  std::vector<AppCase> cases;
  for (const apps::AppEntry& entry : apps::EvaluatedApps()) {
    cases.emplace_back(entry);
  }

  constexpr int kPairs = 15;
  std::vector<double> off_totals(kPairs, 0);
  std::vector<double> on_totals(kPairs, 0);
  for (int pair = 0; pair < kPairs; ++pair) {
    for (AppCase& app_case : cases) {
      for (bool obs_on : {pair % 2 != 0, pair % 2 == 0}) {
        PipelineOptions options;
        options.obs.enabled = obs_on;
        if (obs_on && pair == kPairs - 1 && app_case.name == "Zhihu") {
          options.obs.trace_out = trace_out;
        }
        PipelineResult r = Engine().Run(app_case.app, options);
        (obs_on ? app_case.on_seconds : app_case.off_seconds).push_back(r.total_seconds);
        (obs_on ? on_totals : off_totals)[pair] += r.total_seconds;
        if (app_case.reference.empty()) {
          app_case.reference = r.restrictions.VerdictLines();
        }
        app_case.identical =
            app_case.identical && r.restrictions.VerdictLines() == app_case.reference;
        if (obs_on) {
          app_case.on_result = std::move(r);
        } else if (pair == 0) {
          app_case.off_report = std::move(r.restrictions);
        }
      }
    }
    fprintf(stderr, "[pipeline_sweep] pair %d/%d: obs off %.3fs, obs on %.3fs\n", pair + 1,
            kPairs, off_totals[pair], on_totals[pair]);
  }

  bool identical_everywhere = true;
  std::string zhihu_report_table;
  obs::JsonWriter json = bench::BenchDocument("pipeline_sweep");
  json.Key("trace_file").String(trace_out).Key("off_on_pairs").Int(kPairs);
  json.Key("apps").BeginArray();
  for (AppCase& app_case : cases) {
    identical_everywhere = identical_everywhere && app_case.identical;
    const double off_seconds = bench::ComputePercentiles(app_case.off_seconds).p50;
    const double on_seconds = bench::ComputePercentiles(app_case.on_seconds).p50;
    const double ratio = off_seconds > 0 ? on_seconds / off_seconds : 0;
    fprintf(stderr,
            "[pipeline_sweep] %s: median obs off %.4fs, on %.4fs, overhead %.3fx "
            "(%zu trace events)%s\n",
            app_case.name.c_str(), off_seconds, on_seconds, ratio,
            app_case.on_result.report.trace_events,
            app_case.identical ? "" : "  VERDICTS DIVERGED");
    if (app_case.name == "Zhihu") {
      zhihu_report_table = app_case.on_result.report.ToTable();
    }

    json.BeginObject().Key("app").String(app_case.name);
    json.Key("pairs").Uint(app_case.off_report.pairs.size());
    json.Key("restrictions").Uint(app_case.off_report.num_restrictions());
    json.Key("obs_off_seconds").Double(off_seconds, 4);
    json.Key("obs_on_seconds").Double(on_seconds, 4).Key("overhead_ratio").Double(ratio, 4);
    bench::WritePhaseTiming(json.Key("phases"), app_case.off_report);
    json.Key("identical_restrictions").Bool(app_case.identical);
    app_case.on_result.report.ToJson(json.Key("report"));
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

  const double total_off = bench::ComputePercentiles(off_totals).p50;
  const double total_on = bench::ComputePercentiles(on_totals).p50;
  const double aggregate = total_off > 0 ? total_on / total_off : 0;
  fprintf(stderr,
          "[pipeline_sweep] median totals: obs off %.4fs, on %.4fs, overhead %.3fx\n",
          total_off, total_on, aggregate);
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
