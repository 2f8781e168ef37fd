// service_mixed: an in-process noctua-serve (default ServiceOptions, artifact root on)
// driven by three closed-loop tenants until the run's time is up. The heavy tenant walks
// seeded revisions of Zhihu and OwnPhotos; two light tenants walk revisions of the four
// small apps. A revision omits zero or one view; the seed orders the revisions. An
// untimed warm-up fills each (tenant, app)'s store; in the timed phase answers replay
// from those stores, so the run exercises admission, the engine lock, artifact
// load/save, and analysis memoisation rather than the solver.
//
// Every answer is checked after the timed phase: full-app answers against the committed
// references, partial revisions against a direct Engine::Run of the same revision.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common.h"
#include "src/apps/apps.h"
#include "src/obs/json.h"
#include "src/pipeline/session.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"

namespace perfbench {
namespace {

using noctua::Stopwatch;
using noctua::obs::JsonPtr;
using noctua::obs::ScopedSpan;

constexpr int kNoOmit = -1;
// Pause after each answer. The tenants are edit loops, not floods. The default server
// records every span it serves, so an unpaced stream of OwnPhotos replays (~20k spans
// each) would grow the process by gigabytes in one run. The pauses keep the engine lock
// busy about a quarter of the time, far from saturation, where queueing swings with
// every change in machine load. They also fix the request mix: more than a tenth of the
// requests are OwnPhotos, the slowest class, so req_p95_ms falls inside that class
// rather than on the edge between two.
constexpr auto kHeavyThinkTime = std::chrono::milliseconds(150);
constexpr auto kLightThinkTime = std::chrono::milliseconds(100);
// Requests whose span trees go into the written Chrome trace (the first ones, which
// include the cold runs and so every program span category).
constexpr uint64_t kTracedRequests = 12;

struct Request {
  size_t app = 0;
  int omit = kNoOmit;  // index into the app's views, or kNoOmit
};

// The generated inputs: one request stream per tenant.
struct Plan {
  std::vector<std::string> apps;                // registry names
  std::vector<std::vector<std::string>> views;  // per app, in registry order
  std::vector<std::string> tenants;
  std::vector<std::vector<size_t>> tenant_apps;  // per tenant, indexes into `apps`
  std::vector<std::chrono::milliseconds> think_times;
  std::vector<uint64_t> tenant_seeds;
};

Plan MakePlan(uint64_t seed) {
  Plan plan;
  noctua::Rng rng(seed);
  std::vector<size_t> heavy, light;
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    const size_t index = plan.apps.size();
    plan.apps.push_back(entry.name);
    (entry.name == "Zhihu" || entry.name == "OwnPhotos" ? heavy : light).push_back(index);
    std::vector<std::string> views;
    const noctua::app::App app = entry.make();
    for (const noctua::app::View& view : app.views()) {
      views.push_back(view.name);
    }
    plan.views.push_back(views);
  }
  plan.tenants = {"heavy", "light1", "light2"};
  plan.tenant_apps = {heavy, light, light};
  plan.think_times = {kHeavyThinkTime, kLightThinkTime, kLightThinkTime};
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    plan.tenant_seeds.push_back(rng.Next());
  }
  return plan;
}

// The tenant's request stream: rounds that each ask for every (app, revision) of the
// tenant once, in a seeded order. The revisions are the full app and each app with one
// view omitted, all of them, so every seed asks for the same mix of work: the cost of
// a revision, and of the next one that replays from its store, depends on which view
// is missing.
class Schedule {
 public:
  Schedule(const Plan& plan, size_t tenant) : rng_state_(plan.tenant_seeds[tenant]) {
    for (size_t app : plan.tenant_apps[tenant]) {
      for (int omit = kNoOmit; omit < static_cast<int>(plan.views[app].size()); ++omit) {
        round_.push_back({app, omit});
      }
    }
  }
  Request Next() {
    if (next_ == order_.size()) {
      order_ = SeededOrder(&rng_state_, round_.size());
      next_ = 0;
    }
    return round_[order_[next_++]];
  }

 private:
  std::vector<Request> round_;
  uint64_t rng_state_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

std::string ScheduleDigest(const Plan& plan) {
  std::vector<std::string> lines;
  for (size_t a = 0; a < plan.apps.size(); ++a) {
    std::string line = plan.apps[a];
    for (const std::string& view : plan.views[a]) {
      line += " " + view;
    }
    lines.push_back(line);
  }
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    Schedule schedule(plan, t);
    for (int i = 0; i < 512; ++i) {
      Request r = schedule.Next();
      lines.push_back(plan.tenants[t] + " " + plan.apps[r.app] + " " + std::to_string(r.omit));
    }
  }
  return Hex64(PairListDigest(lines));
}

// One analyze request as the client saw it.
struct Sample {
  Request request;
  bool timed = false;     // sent in the timed phase, not the warm-up
  bool answered = false;  // transport ok, HTTP 200, strict-JSON body
  int status = 0;
  double latency = 0;      // client-side seconds
  double run_seconds = 0;  // the response's "seconds" (engine run time)
  uint64_t solver_checks = 0;
  uint64_t pairs_replayed = 0;
  uint64_t pairs_computed = 0;
  uint64_t digest = 0;  // of the restricted-pair list
};

using AnswerKey = std::tuple<size_t, int, uint64_t>;  // app, omit, digest

struct TenantLog {
  std::vector<Sample> samples;
  std::map<AnswerKey, std::vector<std::string>> answers;  // one exemplar per distinct answer
};

// Sends one analyze request and records what the client saw.
void Ask(const Plan& plan, size_t tenant, noctua::service::Client* client, Request request,
         bool timed, TenantLog* log) {
  Sample s;
  s.request = request;
  s.timed = timed;
  std::vector<std::string> omit;
  if (s.request.omit != kNoOmit) {
    omit.push_back(plan.views[s.request.app][s.request.omit]);
  }
  noctua::service::HttpResponse resp;
  std::string error;
  bool sent = false;
  {
    ScopedSpan span("bench.request", kCatBench);
    Stopwatch watch;
    sent = client->Analyze(plan.tenants[tenant], plan.apps[s.request.app], omit, &resp, &error);
    s.latency = watch.ElapsedSeconds();
  }
  s.status = sent ? resp.status : 0;
  JsonPtr doc = sent && resp.status == 200 ? noctua::obs::ParseJson(resp.body, &error) : nullptr;
  if (doc != nullptr && doc->Get("restrictions") != nullptr && doc->Get("stats") != nullptr) {
    std::vector<std::string> pairs;
    for (const JsonPtr& item : doc->Get("restrictions")->AsArray()) {
      pairs.push_back(item->AsString());
    }
    JsonPtr stats = doc->Get("stats");
    s.answered = true;
    s.run_seconds = doc->Get("seconds")->AsDouble();
    s.solver_checks = static_cast<uint64_t>(stats->Get("solver_checks")->AsInt());
    s.pairs_replayed = static_cast<uint64_t>(stats->Get("pairs_replayed")->AsInt());
    s.pairs_computed = static_cast<uint64_t>(stats->Get("pairs_computed")->AsInt());
    s.digest = PairListDigest(pairs);
    log->answers.try_emplace({s.request.app, s.request.omit, s.digest}, std::move(pairs));
  } else {
    std::fprintf(stderr, "perfbench: %s %s request failed (status %d): %s\n",
                 plan.tenants[tenant].c_str(), plan.apps[s.request.app].c_str(), s.status,
                 sent ? resp.body.c_str() : error.c_str());
  }
  log->samples.push_back(s);
}

// The warm-up before the timed phase: one full-app request per app of the tenant. These
// cold runs fill the tenant's stores with every pair any revision has, so every seed
// times the same warm traffic instead of cold runs that hold the engine lock for
// seconds at whatever point the seeded order reaches them. Their answers are checked
// like all others.
void WarmUp(const Plan& plan, size_t tenant, int port, TenantLog* log) {
  noctua::service::Client client("127.0.0.1", port);
  for (size_t app : plan.tenant_apps[tenant]) {
    Ask(plan, tenant, &client, {app, kNoOmit}, false, log);
  }
}

void RunTenant(const Plan& plan, size_t tenant, int port, double seconds, TenantLog* log) {
  noctua::service::Client client("127.0.0.1", port);
  Schedule schedule(plan, tenant);
  Stopwatch clock;
  while (clock.ElapsedSeconds() < seconds) {
    Ask(plan, tenant, &client, schedule.Next(), true, log);
    std::this_thread::sleep_for(plan.think_times[tenant]);
  }
}

noctua::service::ServiceOptions MakeServiceOptions(const std::string& artifact_root) {
  noctua::service::ServiceOptions options;
  options.engine = BenchEngineConfig();
  options.engine.artifact_root = artifact_root;
  return options;
}

// Set-up: build the six apps and start a server; negative when the server cannot start.
double SetUpOnce(const std::string& root) {
  Stopwatch watch;
  std::vector<noctua::app::App> apps;
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    apps.push_back(entry.make());
  }
  noctua::service::Server server(MakeServiceOptions(root));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "perfbench: cannot start server: %s\n", error.c_str());
    return -1;
  }
  return watch.ElapsedSeconds();
}

noctua::app::App MakeRevision(const std::string& name, const std::string& omit) {
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    if (entry.name != name) {
      continue;
    }
    noctua::app::App base = entry.make();
    if (omit.empty()) {
      return base;
    }
    noctua::app::App rev(base.name(), base.source_file());
    rev.schema() = base.schema();
    for (const noctua::app::View& view : base.views()) {
      if (view.name != omit) {
        rev.AddView(view.name, view.fn, view.fingerprint);
      }
    }
    return rev;
  }
  return noctua::app::App("", "");
}

// One timed phase against a fresh server and fresh stores.
struct Phase {
  std::vector<TenantLog> logs;
  double wall = 0;
  double cpu = 0;
  double queue_wait_ms_p95 = 0;
  double handle_ms_p95 = 0;
  double rejected = 0;
  double session_load_ms = 0;
  double session_save_ms = 0;
  bool stores_ok = true;
  Values layers;  // traced phase only
};

double HistP95Ms(const JsonPtr& metrics, const char* name) {
  JsonPtr h = metrics->Get("histograms")->Get(name);
  return h == nullptr ? 0 : h->Get("p95")->AsDouble() / 1e3;
}

// Times LoadPrior and Save (to a scratch copy) on every store the phase left behind;
// each is the median of three calls, summed over stores.
void MeasureSessions(const Plan& plan, const std::string& root, const std::string& scratch,
                     Phase* phase) {
  for (const std::string& tenant : plan.tenants) {
    for (const std::string& app_name : plan.apps) {
      const std::string dir = root + "/" + tenant + "/" + app_name;
      if (!std::filesystem::exists(dir)) {
        continue;
      }
      const noctua::app::App app = MakeRevision(app_name, "");
      std::vector<double> loads, saves;
      for (int rep = 0; rep < 3; ++rep) {
        noctua::analyzer::AnalysisResult analysis;
        noctua::verifier::VerdictCache verdicts;
        bool loaded = false;
        {
          ScopedSpan span("bench.session_load", kCatBench);
          Stopwatch watch;
          loaded = noctua::Session(dir).LoadPrior(app, &analysis, &verdicts);
          loads.push_back(watch.ElapsedSeconds() * 1e3);
        }
        bool saved = false;
        {
          ScopedSpan span("bench.session_save", kCatBench);
          Stopwatch watch;
          saved = noctua::Session(scratch).Save(app, analysis, verdicts);
          saves.push_back(watch.ElapsedSeconds() * 1e3);
        }
        if (!loaded || !saved) {
          std::fprintf(stderr, "perfbench: store %s did not %s\n", dir.c_str(),
                       loaded ? "save" : "load");
          phase->stores_ok = false;
        }
      }
      phase->session_load_ms += Median(loads);
      phase->session_save_ms += Median(saves);
    }
  }
  std::filesystem::remove_all(scratch);
}

bool RunPhase(const Plan& plan, const Args& args, bool traced, Phase* phase) {
  const std::string root = args.work_dir + "/service_stores";
  std::filesystem::remove_all(root);
  std::optional<noctua::obs::Collector> collector;
  if (traced) {
    // Installed before the server starts, so the server records into it.
    collector.emplace(Recording());
  }
  noctua::service::Server server(MakeServiceOptions(root));
  std::string error;
  bool started = false;
  {
    ScopedSpan span("bench.server_start", kCatBench);
    started = server.Start(&error);
  }
  if (!started) {
    std::fprintf(stderr, "perfbench: cannot start server: %s\n", error.c_str());
    return false;
  }

  phase->logs.resize(plan.tenants.size());
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    WarmUp(plan, t, server.port(), &phase->logs[t]);
  }
  const double cpu_before = CpuSeconds();
  Stopwatch watch;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    clients.emplace_back(RunTenant, std::cref(plan), t, server.port(), args.seconds,
                         &phase->logs[t]);
  }
  for (std::thread& c : clients) {
    c.join();
  }
  phase->wall = watch.ElapsedSeconds();
  phase->cpu = CpuSeconds() - cpu_before;

  noctua::service::Client client("127.0.0.1", server.port());
  noctua::service::HttpResponse resp;
  JsonPtr metrics;
  if (client.Get("/metrics", &resp, &error)) {
    metrics = noctua::obs::ParseJson(resp.body, &error);
  }
  if (metrics == nullptr) {
    std::fprintf(stderr, "perfbench: /metrics scrape failed: %s\n", error.c_str());
    return false;
  }
  phase->queue_wait_ms_p95 = HistP95Ms(metrics, "service.queue_wait_micros");
  phase->handle_ms_p95 = HistP95Ms(metrics, "service.handle_micros");
  phase->rejected = metrics->Get("service")->Get("rejected")->AsDouble();
  if (traced) {
    MeasureSessions(plan, root, args.work_dir + "/session_probe", phase);
  }
  server.Stop();

  if (traced) {
    collector->Stop();
    const TraceStats trace = AnalyzeTrace(collector->events());
    Values& v = phase->layers;
    AddCollectorLayers(*collector, trace, &v);
    auto total = [&](const std::map<std::string, double>& m, const char* key) {
      auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second;
    };
    const double verifier_s = total(trace.total_seconds, "AnalyzeRestrictions");
    const double busy_s = total(trace.category_total_seconds, noctua::obs::kCatPair);
    v["analyzer.s"] = total(trace.total_seconds, "analyze");
    v["verifier.s"] = verifier_s;
    v["verifier.busy_s"] = busy_s;
    v["verifier.tail_frac"] = verifier_s > 0 ? trace.max_pair_seconds / verifier_s : 0;
    v["pool.busy_frac"] = verifier_s > 0 ? busy_s / (verifier_s * BenchThreads()) : 0;
    if (!WriteAndValidateTrace(
            collector->events(), kTracedRequests, args.work_dir + "/trace_service_mixed.json",
            {"bench.server_start", "bench.request", "bench.session_load", "bench.session_save"},
            {kCatBench, noctua::obs::kCatService, noctua::obs::kCatIncremental,
             noctua::obs::kCatPipeline, noctua::obs::kCatVerify, noctua::obs::kCatPair,
             noctua::obs::kCatCache, noctua::obs::kCatEncode, noctua::obs::kCatSolve},
            &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
  }
  std::filesystem::remove_all(root);
  return true;
}

// Expected answers: the committed reference for each full app, a direct Engine::Run for
// each partial revision (budget-sensitive pairs removed). One engine per app serves its
// revisions, so only the first (full) run is cold. The direct full-app runs are checked
// against the references too, and count as answers.
struct Expected {
  std::map<std::pair<size_t, int>, std::vector<std::string>> partial;
  uint64_t direct_runs = 0;
  uint64_t direct_failed = 0;
};

Expected ComputeExpected(const Plan& plan, const std::map<std::string, Reference>& refs) {
  Expected expected;
  for (size_t a = 0; a < plan.apps.size(); ++a) {
    const Reference& ref = refs.at(plan.apps[a]);
    noctua::Engine engine(BenchEngineConfig());
    for (int omit = kNoOmit; omit < static_cast<int>(plan.views[a].size()); ++omit) {
      const noctua::app::App app =
          MakeRevision(plan.apps[a], omit == kNoOmit ? "" : plan.views[a][omit]);
      const std::vector<std::string> names = engine.Run(app).restrictions.RestrictedPairNames();
      bool flipped = false;
      if (omit == kNoOmit) {
        ++expected.direct_runs;
        if (!MatchesReference(ref, names, &flipped)) {
          std::fprintf(stderr, "perfbench: direct run of %s differs from the reference\n",
                       plan.apps[a].c_str());
          ++expected.direct_failed;
        }
      } else {
        expected.partial[{a, omit}] = WithoutBudgetSensitive(ref, names, &flipped);
      }
    }
  }
  return expected;
}

// Counts the samples whose answer is missing or wrong, and those that carried a
// budget-sensitive pair.
void CountFailed(const Plan& plan, const Phase& phase, const Expected& expected,
                 const std::map<std::string, Reference>& refs, uint64_t* failed,
                 uint64_t* flipped) {
  std::map<AnswerKey, std::pair<bool, bool>> verdicts;  // distinct answer -> (ok, flipped)
  for (const TenantLog& log : phase.logs) {
    for (const auto& [key, answer] : log.answers) {
      const auto& [app, omit, digest] = key;
      const Reference& ref = refs.at(plan.apps[app]);
      bool flip = false;
      bool ok = omit == kNoOmit
                    ? MatchesReference(ref, answer, &flip)
                    : WithoutBudgetSensitive(ref, answer, &flip) ==
                          expected.partial.at({app, omit});
      if (!ok) {
        std::fprintf(stderr, "perfbench: wrong answer for %s omitting %s\n",
                     plan.apps[app].c_str(),
                     omit == kNoOmit ? "nothing" : plan.views[app][omit].c_str());
      }
      verdicts[key] = {ok, flip};
    }
  }
  for (const TenantLog& log : phase.logs) {
    for (const Sample& s : log.samples) {
      if (!s.answered) {
        ++*failed;
        continue;
      }
      const auto& [ok, flip] = verdicts.at({s.request.app, s.request.omit, s.digest});
      *failed += ok ? 0 : 1;
      *flipped += flip ? 1 : 0;
    }
  }
  *failed += phase.stores_ok ? 0 : 1;
}

}  // namespace

int RunServiceMixed(const Args& args) {
  std::map<std::string, Reference> refs;
  std::string error;
  if (!LoadReferences(args.reference_dir, &refs, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.corrupt_reference) {
    refs.at("SmallBank").pairs.pop_back();
  }
  const Plan plan = MakePlan(args.seed);
  const std::string setup_root = args.work_dir + "/setup_stores";
  SetupTimer setup([&] { return SetUpOnce(setup_root); });
  if (!setup.Burst()) {
    return 1;
  }
  PrintInfo("{\"workload\": \"service_mixed\", \"seed\": " + std::to_string(args.seed) +
            ", \"threads\": " + std::to_string(BenchThreads()) + ", \"schedule_digest\": \"" +
            ScheduleDigest(plan) + "\"}");

  Phase phase;
  if (!RunPhase(plan, args, false, &phase)) {
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  // Later bursts run while no server is up, since a set-up server must install its own
  // collector, as the first one did. The first burst, in a fresh process, runs slower.
  if (!setup.Burst()) {
    return 1;
  }
  std::optional<Phase> traced;
  if (args.trace) {
    traced.emplace();
    if (!RunPhase(plan, args, true, &*traced)) {
      return 3;
    }
  }

  const Expected expected = ComputeExpected(plan, refs);
  if (!setup.Burst()) {
    return 1;
  }
  const double setup_s = setup.MedianSeconds();
  uint64_t attempted = expected.direct_runs, failed = expected.direct_failed, flipped = 0;
  for (const Phase* p : {&phase, traced ? &*traced : nullptr}) {
    if (p == nullptr) {
      continue;
    }
    CountFailed(plan, *p, expected, refs, &failed, &flipped);
    for (const TenantLog& log : p->logs) {
      attempted += log.samples.size();
    }
  }
  PrintInfo("{\"budget_sensitive_answers\": " + std::to_string(flipped) +
            ", \"answers\": " + std::to_string(attempted) + "}");

  // Answered requests of a phase: the timed ones, or (for work counts) the warm-up too.
  auto answered = [](const Phase& p, bool timed_only) {
    std::vector<const Sample*> out;
    for (const TenantLog& log : p.logs) {
      for (const Sample& s : log.samples) {
        if (s.answered && (s.timed || !timed_only)) {
          out.push_back(&s);
        }
      }
    }
    return out;
  };

  if (!args.trace) {
    std::vector<double> latencies, warm;
    std::map<std::string, std::vector<double>> by_app;
    std::map<std::string, std::vector<double>> by_tenant;
    double engine_busy = 0;
    for (const TenantLog& log : phase.logs) {
      for (const Sample& s : log.samples) {
        if (s.answered && s.timed) {
          by_tenant[plan.tenants[&log - phase.logs.data()]].push_back(s.latency * 1e3);
          engine_busy += s.run_seconds;
        }
      }
    }
    for (const auto& [tenant, ms] : by_tenant) {
      std::fprintf(stderr, "perfbench: %s n=%zu p50=%.2f p95=%.2f ms\n", tenant.c_str(),
                   ms.size(), Percentile(ms, 0.5), Percentile(ms, 0.95));
    }
    std::fprintf(stderr, "perfbench: engine busy %.3f of the timed phase\n",
                 engine_busy / phase.wall);
    for (const Sample* s : answered(phase, true)) {
      latencies.push_back(s->latency * 1e3);
      if (s->solver_checks == 0) {
        warm.push_back(s->latency * 1e3);
      }
      // Every revision: each round asks for all of them, so the mix is the same under
      // every seed, and there are many more samples than full-app requests alone.
      by_app[plan.apps[s->request.app]].push_back(s->run_seconds);
    }
    double small_apps_s = 0;
    for (const auto& [app, samples] : by_app) {
      if (app != "Zhihu" && app != "OwnPhotos") {
        small_apps_s += Median(samples);
      }
    }
    Values v;
    v["setup_s"] = setup_s;
    v["wall_s"] = phase.wall;
    v["cpu_s"] = phase.cpu;
    v["peak_rss_mb"] = peak_rss_mb;
    v["zhihu_s"] = Median(by_app["Zhihu"]);
    v["ownphotos_s"] = Median(by_app["OwnPhotos"]);
    v["small_apps_s"] = small_apps_s;
    v["req_p50_ms"] = Percentile(latencies, 0.50);
    v["req_p95_ms"] = Percentile(latencies, 0.95);
    v["warm_req_p95_ms"] = Percentile(warm, 0.95);
    v["throughput_rps"] = static_cast<double>(latencies.size()) / phase.wall;
    PrintResult(EndToEndMetrics(), v, false, attempted, failed);
    return 0;
  }

  Values v = traced->layers;
  std::vector<double> outside;
  double replayed = 0, computed = 0, checks = 0;
  for (const Sample* s : answered(*traced, false)) {
    if (s->timed) {
      outside.push_back((s->latency - s->run_seconds) * 1e3);
    }
    replayed += static_cast<double>(s->pairs_replayed);
    computed += static_cast<double>(s->pairs_computed);
    checks += static_cast<double>(s->solver_checks);
  }
  v["session.load_ms"] = traced->session_load_ms;
  v["session.save_ms"] = traced->session_save_ms;
  v["session.pairs_replayed"] = replayed;
  v["session.pairs_computed"] = computed;
  v["service.queue_wait_ms_p95"] = traced->queue_wait_ms_p95;
  v["service.handle_ms_p95"] = traced->handle_ms_p95;
  v["service.outside_run_ms_p95"] = Percentile(outside, 0.95);
  v["service.rejected"] = traced->rejected;
  v["service.solver_checks"] = checks;
  // Per-request cost, traced over untraced.
  const double untraced_rps = static_cast<double>(answered(phase, true).size()) / phase.wall;
  const double traced_rps = static_cast<double>(answered(*traced, true).size()) / traced->wall;
  v["trace.overhead_frac"] = untraced_rps / traced_rps - 1;
  PrintResult(PerLayerMetrics(), v, true, attempted, failed);
  return 0;
}

}  // namespace perfbench
