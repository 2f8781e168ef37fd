// Closed-loop load sweep against the Noctua service. Starts an in-process noctua-serve
// Server (loopback, ephemeral port, artifact persistence on), then drives it with one
// closed-loop client thread per tenant: each tenant walks the same schedule of
// (app, revision) analyze requests, where revision r of an app omits its r-th view —
// the service-side model of "the developer deleted an endpoint".
//
// Two full passes run back to back. The "cold" pass hits a fresh engine and empty
// per-tenant stores; the "warm" pass repeats the identical schedule against the
// now-warm engine (shared verdict cache + per-tenant artifact replay). The bench then
// checks the service's two core promises and exits nonzero if either fails:
//
//   1. every response's restriction set is byte-identical to a direct Engine::Run of
//      the same revision built in-process (the daemon adds no semantic drift), and
//   2. the warm pass answers the median identical request >= 5x faster than cold.
//
// Emits one JSON document on stdout (progress to stderr):
//
//   {"bench": "service_sweep", ..., "config": {...},
//    "cold": {"requests": N, "seconds": ..., "throughput_rps": ...,
//             "latency_seconds": {"p50": ..., "p95": ..., "p99": ...}},
//    "warm": {...same shape...},
//    "speedup": {"pass": ..., "per_request_median": ..., "per_request_min": ...,
//                "target": 5.0},
//    "identical_restrictions": true, "warm_solver_checks": 0,
//    "tenant_phase_latency": [{"tenant": ..., "app": ..., "mode": "cold"|"warm",
//                              "queue_wait_micros": {...}, "handle_micros": {...}}, ...],
//    "queue_wait_uncontended_ok": true,
//    "apps": [{"app": "Todo", "revisions": 3, "pairs_full": ...}, ...]}
//
// tenant_phase_latency comes from the service's own labeled histograms (scraped off
// /metrics after the warm pass): queue-wait vs handle time per (tenant, app, mode) as
// the server measured them — the attribution an operator sees, checked here against
// what a load generator knows to be true. In the uncontended configuration
// (tenants <= workers) the closed-loop clients can never queue behind each other, so
// the bench gates every tenant's queue-wait p95 at ~0 (<= 25ms of scheduling noise).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/obs/json.h"
#include "src/pipeline/engine.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/support/stopwatch.h"

namespace {

using noctua::Engine;
using noctua::Stopwatch;
using noctua::bench::ComputePercentiles;
using noctua::bench::Percentiles;
using noctua::obs::HistSummary;
using noctua::obs::JsonPtr;
using noctua::obs::JsonWriter;
using noctua::obs::ParseJson;
using noctua::service::Client;
using noctua::service::HttpResponse;

constexpr double kSpeedupTarget = 5.0;

// The schedule every tenant walks: app plus the views its revisions omit (revision 0
// omits nothing). Small apps keep the sweep snappy; revisions cover the
// "analyze my edited app" request shape end to end.
struct AppPlan {
  std::string app;
  std::vector<std::string> revision_omits;  // revision_omits[r] = views omitted by rev r
};

struct RequestKey {
  std::string app;
  size_t revision;
  bool operator<(const RequestKey& o) const {
    return app != o.app ? app < o.app : revision < o.revision;
  }
};

struct RequestSample {
  double seconds = 0;
  uint64_t solver_checks = 0;
  std::vector<std::string> restrictions;
};

// One tenant's full pass over the schedule; latencies measured client-side.
struct TenantPass {
  std::vector<double> latencies;
  std::map<RequestKey, RequestSample> samples;
  bool ok = true;
  std::string error;
};

std::vector<std::string> RestrictionsOf(const JsonPtr& doc) {
  std::vector<std::string> out;
  for (const JsonPtr& item : doc->Get("restrictions")->AsArray()) {
    out.push_back(item->AsString());
  }
  return out;
}

TenantPass RunTenantPass(const std::string& tenant, int port,
                         const std::vector<AppPlan>& plans) {
  TenantPass pass;
  Client client("127.0.0.1", port);
  for (const AppPlan& plan : plans) {
    for (size_t r = 0; r < plan.revision_omits.size(); ++r) {
      std::vector<std::string> omit;
      if (!plan.revision_omits[r].empty()) {
        omit.push_back(plan.revision_omits[r]);
      }
      HttpResponse resp;
      std::string error;
      Stopwatch watch;
      if (!client.Analyze(tenant, plan.app, omit, &resp, &error)) {
        pass.ok = false;
        pass.error = "transport: " + error;
        return pass;
      }
      double seconds = watch.ElapsedSeconds();
      if (resp.status != 200) {
        pass.ok = false;
        pass.error = "HTTP " + std::to_string(resp.status) + ": " + resp.body;
        return pass;
      }
      JsonPtr doc = ParseJson(resp.body, &error);
      if (doc == nullptr) {
        pass.ok = false;
        pass.error = "response not strict JSON: " + error;
        return pass;
      }
      RequestSample sample;
      sample.seconds = seconds;
      sample.solver_checks =
          static_cast<uint64_t>(doc->Get("stats")->Get("solver_checks")->AsInt());
      sample.restrictions = RestrictionsOf(doc);
      pass.latencies.push_back(seconds);
      pass.samples[{plan.app, r}] = std::move(sample);
    }
  }
  return pass;
}

// Direct in-process ground truth for one revision: the registry app minus the omitted
// view, through a fresh engine's Engine::Run.
std::vector<std::string> DirectRestrictions(const std::string& app_name,
                                            const std::string& omit_view) {
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    if (entry.name != app_name) {
      continue;
    }
    noctua::app::App base = entry.make();
    if (omit_view.empty()) {
      return Engine().Run(base).restrictions.RestrictedPairNames();
    }
    noctua::app::App rev(base.name(), base.source_file());
    rev.schema() = base.schema();
    for (const auto& view : base.views()) {
      if (view.name != omit_view) {
        rev.AddView(view.name, view.fn);
      }
    }
    return Engine().Run(rev).restrictions.RestrictedPairNames();
  }
  return {};
}

void WritePass(JsonWriter& w, const std::vector<TenantPass>& passes, double wall_seconds) {
  std::vector<double> latencies;
  for (const TenantPass& pass : passes) {
    latencies.insert(latencies.end(), pass.latencies.begin(), pass.latencies.end());
  }
  double rps = wall_seconds > 0 ? static_cast<double>(latencies.size()) / wall_seconds : 0;
  w.BeginObject().Key("requests").Uint(latencies.size());
  w.Key("seconds").Double(wall_seconds, 6).Key("throughput_rps").Double(rps, 2);
  noctua::bench::WritePercentiles(w.Key("latency_seconds"), ComputePercentiles(latencies));
  w.EndObject();
}

// One (tenant, app, mode) row of the server's labeled phase histograms.
struct PhaseRow {
  std::string tenant;
  std::string app;
  std::string mode;
  // The count, p50, p95, p99 and max of each phase; the bench reports no other field.
  std::optional<HistSummary> queue_wait;
  std::optional<HistSummary> handle;
};

void WritePhase(JsonWriter& w, const HistSummary& s) {
  w.BeginObject().Key("count").Uint(s.count).Key("p50").Uint(s.p50).Key("p95").Uint(s.p95);
  w.Key("p99").Uint(s.p99).Key("max").Uint(s.max).EndObject();
}

// Scrapes /metrics and folds the labeled service.queue_wait_micros /
// service.handle_micros rows into per-(tenant, app, mode) phase rows.
bool ScrapePhaseRows(int port, std::vector<PhaseRow>* rows, std::string* error) {
  Client client("127.0.0.1", port);
  HttpResponse resp;
  if (!client.Get("/metrics", &resp, error)) {
    return false;
  }
  JsonPtr doc = ParseJson(resp.body, error);
  if (doc == nullptr) {
    return false;
  }
  std::map<std::tuple<std::string, std::string, std::string>, PhaseRow> by_key;
  for (const JsonPtr& row : doc->Get("labeled")->Get("histograms")->AsArray()) {
    const std::string& name = row->Get("name")->AsString();
    if (name != "service.queue_wait_micros" && name != "service.handle_micros") {
      continue;
    }
    std::tuple<std::string, std::string, std::string> key{
        row->Get("tenant")->AsString(), row->Get("app")->AsString(),
        row->Get("mode")->AsString()};
    PhaseRow& out = by_key[key];
    out.tenant = std::get<0>(key);
    out.app = std::get<1>(key);
    out.mode = std::get<2>(key);
    JsonPtr summary = row->Get("summary");
    auto field = [&](const char* member) {
      return static_cast<uint64_t>(summary->Get(member)->AsInt());
    };
    HistSummary phase;
    phase.count = field("count");
    phase.p50 = field("p50");
    phase.p95 = field("p95");
    phase.p99 = field("p99");
    phase.max = field("max");
    (name == "service.queue_wait_micros" ? out.queue_wait : out.handle) = phase;
  }
  for (auto& [key, row] : by_key) {
    rows->push_back(std::move(row));
  }
  return true;
}

std::vector<TenantPass> RunPass(int tenants, int port, const std::vector<AppPlan>& plans,
                                double* wall_seconds) {
  std::vector<TenantPass> passes(tenants);
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < tenants; ++t) {
    threads.emplace_back([&, t] {
      passes[t] = RunTenantPass("tenant" + std::to_string(t), port, plans);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  *wall_seconds = watch.ElapsedSeconds();
  return passes;
}

}  // namespace

int main(int argc, char** argv) {
  int tenants = 3;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tenants" && i + 1 < argc) {
      tenants = std::atoi(argv[++i]);
    }
  }
  if (tenants < 1) {
    tenants = 1;
  }

  const std::vector<AppPlan> plans = {
      {"Todo", {"", "reprioritize", "clear_done"}},
      {"SmallBank", {"", "Amalgamate", "Balance"}},
  };

  std::string root = (std::filesystem::temp_directory_path() / "noctua_service_sweep").string();
  std::filesystem::remove_all(root);

  noctua::service::ServiceOptions options;
  options.workers = 4;
  options.max_queue = 64;  // closed-loop clients never outrun this; no 503s expected
  options.engine.artifact_root = root;
  noctua::service::Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "service_sweep: cannot start server: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "service_sweep: %d tenants x %zu apps x 3 revisions on port %d\n",
               tenants, plans.size(), server.port());

  double cold_seconds = 0;
  std::vector<TenantPass> cold = RunPass(tenants, server.port(), plans, &cold_seconds);
  double warm_seconds = 0;
  std::vector<TenantPass> warm = RunPass(tenants, server.port(), plans, &warm_seconds);

  // Scrape the server's own per-tenant phase attribution before stopping it.
  std::vector<PhaseRow> phase_rows;
  std::string scrape_error;
  bool scraped = ScrapePhaseRows(server.port(), &phase_rows, &scrape_error);
  if (!scraped) {
    std::fprintf(stderr, "service_sweep: /metrics scrape failed: %s\n",
                 scrape_error.c_str());
  }
  server.Stop();

  bool ok = true;
  for (const std::vector<TenantPass>* passes : {&cold, &warm}) {
    for (const TenantPass& pass : *passes) {
      if (!pass.ok) {
        std::fprintf(stderr, "service_sweep: request failed: %s\n", pass.error.c_str());
        ok = false;
      }
    }
  }
  if (!ok) {
    return 1;
  }

  // Promise 1: every service answer matches the direct pipeline byte for byte — across
  // tenants, passes, and revisions.
  bool identical = true;
  for (const AppPlan& plan : plans) {
    for (size_t r = 0; r < plan.revision_omits.size(); ++r) {
      std::vector<std::string> direct = DirectRestrictions(plan.app, plan.revision_omits[r]);
      for (const std::vector<TenantPass>* passes : {&cold, &warm}) {
        for (const TenantPass& pass : *passes) {
          const RequestSample& s = pass.samples.at({plan.app, r});
          if (s.restrictions != direct) {
            std::fprintf(stderr, "service_sweep: MISMATCH %s rev %zu: service %zu vs direct %zu\n",
                         plan.app.c_str(), r, s.restrictions.size(), direct.size());
            identical = false;
          }
        }
      }
    }
  }

  // Promise 2: the warm pass re-answers each tenant's identical request >= 5x faster
  // (median across all requests), with zero solver work.
  std::vector<double> speedups;
  uint64_t warm_solver_checks = 0;
  for (int t = 0; t < tenants; ++t) {
    for (const auto& [key, cold_sample] : cold[t].samples) {
      const RequestSample& warm_sample = warm[t].samples.at(key);
      if (warm_sample.seconds > 0) {
        speedups.push_back(cold_sample.seconds / warm_sample.seconds);
      }
      warm_solver_checks += warm_sample.solver_checks;
    }
  }
  Percentiles sp = ComputePercentiles(speedups);
  double min_speedup = speedups.empty() ? 0 : *std::min_element(speedups.begin(), speedups.end());
  // The gate is the pass-level wall-clock ratio, not the per-request median: inside the
  // cold pass, whichever tenant reaches a given (app, revision) first pays the solver
  // while the others already ride the shared verdict cache, so per-request "cold"
  // latencies understate the true cold cost. The full-pass ratio is dominated by the
  // genuinely cold requests and is stable run to run.
  double pass_speedup = warm_seconds > 0 ? cold_seconds / warm_seconds : 0;
  bool fast_enough = pass_speedup >= kSpeedupTarget;
  if (!fast_enough) {
    std::fprintf(stderr, "service_sweep: warm pass only %.1fx faster than cold (target %.1fx)\n",
                 pass_speedup, kSpeedupTarget);
  }

  JsonWriter json = noctua::bench::BenchDocument("service_sweep");
  json.Key("config").BeginObject().Key("tenants").Int(tenants);
  json.Key("workers").Int(options.workers).Key("max_queue").Uint(options.max_queue);
  json.Key("apps").Uint(plans.size()).Key("revisions_per_app").Int(3).EndObject();
  WritePass(json.Key("cold"), cold, cold_seconds);
  WritePass(json.Key("warm"), warm, warm_seconds);
  json.Key("speedup").BeginObject().Key("pass").Double(pass_speedup, 2);
  json.Key("per_request_median").Double(sp.p50, 2);
  json.Key("per_request_min").Double(min_speedup, 2);
  json.Key("target").Double(kSpeedupTarget, 1).EndObject();
  json.Key("identical_restrictions").Bool(identical);
  json.Key("warm_solver_checks").Uint(warm_solver_checks);

  // Uncontended gate: with at least as many workers as closed-loop tenants, no request
  // ever waits behind another, so the server-measured queue-wait must be ~0.
  const bool uncontended = tenants <= options.workers;
  constexpr uint64_t kQueueWaitSlackMicros = 25000;
  bool queue_wait_ok = true;
  if (uncontended && scraped) {
    for (const PhaseRow& row : phase_rows) {
      if (row.queue_wait && row.queue_wait->p95 > kQueueWaitSlackMicros) {
        std::fprintf(stderr,
                     "service_sweep: uncontended queue-wait p95 %llu us for tenant %s"
                     " (limit %llu)\n",
                     static_cast<unsigned long long>(row.queue_wait->p95),
                     row.tenant.c_str(),
                     static_cast<unsigned long long>(kQueueWaitSlackMicros));
        queue_wait_ok = false;
      }
    }
  }
  json.Key("tenant_phase_latency").BeginArray();
  for (const PhaseRow& row : phase_rows) {
    if (!row.queue_wait || !row.handle) {
      continue;  // a row with only one phase means the request never completed
    }
    json.BeginObject().Key("tenant").String(row.tenant).Key("app").String(row.app);
    json.Key("mode").String(row.mode);
    WritePhase(json.Key("queue_wait_micros"), *row.queue_wait);
    WritePhase(json.Key("handle_micros"), *row.handle);
    json.EndObject();
  }
  json.EndArray().Key("queue_wait_uncontended").Bool(uncontended);
  json.Key("queue_wait_uncontended_ok").Bool(queue_wait_ok).Key("apps").BeginArray();
  for (const AppPlan& plan : plans) {
    json.BeginObject().Key("app").String(plan.app);
    json.Key("revisions").Uint(plan.revision_omits.size()).EndObject();
  }
  std::printf("%s\n", json.EndArray().EndObject().Take().c_str());

  std::filesystem::remove_all(root);
  return identical && fast_enough && scraped && queue_wait_ok ? 0 : 1;
}
