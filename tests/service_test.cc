// Tests for Noctua-as-a-service (src/service): protocol strictness, admission
// control, warm-vs-cold correctness against the direct pipeline, per-tenant artifact
// namespace isolation, metrics well-formedness (JSON and Prometheus exposition),
// request-scoped tracing (trace-id round-trip, uniqueness under concurrency, inline
// span trees), and clean shutdown.
//
// Every server here binds an ephemeral loopback port (port 0), so suites can run in
// parallel without port collisions.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/obs/json.h"
#include "src/obs/prom.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/pipeline.h"
#include "src/service/client.h"
#include "src/service/server.h"

namespace noctua::service {
namespace {

// One started server + a client pointed at it, torn down in order.
struct TestServer {
  explicit TestServer(ServiceOptions options) : server(std::move(options)) {
    std::string error;
    bool ok = server.Start(&error);
    EXPECT_TRUE(ok) << error;
  }
  ~TestServer() { server.Stop(); }

  Client client() { return Client("127.0.0.1", server.port()); }

  Server server;
};

std::string TempDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("noctua_service_test_" + tag)).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Restriction names from a response body, via the strict parser.
std::vector<std::string> RestrictionsOf(const std::string& body) {
  std::string error;
  obs::JsonPtr doc = obs::ParseJson(body, &error);
  EXPECT_NE(doc, nullptr) << error << "\nbody: " << body;
  if (doc == nullptr) {
    return {};
  }
  obs::JsonPtr arr = doc->Get("restrictions");
  EXPECT_NE(arr, nullptr);
  std::vector<std::string> out;
  for (const obs::JsonPtr& item : arr->AsArray()) {
    out.push_back(item->AsString());
  }
  return out;
}

// A raw loopback connection to the test server, for requests the strict Client
// refuses to send (malformed framing, deliberate stalls).
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(ServiceProtocolTest, HealthzAnswersOk) {
  TestServer ts{ServiceOptions{}};
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Get("/healthz", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"ok\""), std::string::npos);
}

TEST(ServiceProtocolTest, UnknownEndpointIs404AndWrongMethodIs405) {
  TestServer ts{ServiceOptions{}};
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Get("/nope", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 404);
  ASSERT_TRUE(ts.client().Get("/v1/analyze", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 405);
  ASSERT_TRUE(ts.client().Post("/healthz", "", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 405);
}

TEST(ServiceProtocolTest, MalformedRequestsAre400NotCrashes) {
  TestServer ts{ServiceOptions{}};
  Client client = ts.client();
  HttpResponse resp;
  std::string error;

  ASSERT_TRUE(client.Post("/v1/analyze", "this is not json", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);

  ASSERT_TRUE(client.Post("/v1/analyze", "{\"app\": \"Todo\"}", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);  // missing tenant

  ASSERT_TRUE(client.Analyze("t1", "NoSuchApp", {}, &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);

  ASSERT_TRUE(client.Analyze("../evil", "Todo", {}, &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);  // path-shaped tenant rejected

  ASSERT_TRUE(client.Analyze("t1", "Todo", {"NoSuchView"}, &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);

  // The server is still alive and serving after all of the above.
  ASSERT_TRUE(client.Get("/healthz", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 200);
}

TEST(ServiceProtocolTest, OverflowingContentLengthIs400NotACrash) {
  // Regression: an all-digit Content-Length past uint64 used to throw out of
  // std::stoull and std::terminate the daemon.
  TestServer ts{ServiceOptions{}};
  int fd = RawConnect(ts.server.port());
  const std::string req =
      "POST /v1/analyze HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Length: 99999999999999999999\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, static_cast<size_t>(n)).rfind("HTTP/1.1 400", 0), 0u);
  ::close(fd);

  // The daemon survived and still serves.
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Get("/healthz", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 200);
}

TEST(ServiceControlPlaneTest, StalledClientDoesNotBlockControlPlane) {
  // Regression: request reading used to run inline on the accept thread, so one client
  // that connected and sent nothing stalled /healthz (and all admission) for the whole
  // io timeout. Reads now happen on the reader pool; accept never blocks on a socket.
  ServiceOptions options;
  options.io_timeout_seconds = 5;
  TestServer ts{options};
  int stalled = RawConnect(ts.server.port());  // connected, never sends a byte

  HttpResponse resp;
  std::string error;
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(ts.client().Get("/healthz", &resp, &error)) << error;
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(resp.status, 200);
  EXPECT_LT(seconds, 2.0);  // answered well inside the stalled client's 5s timeout
  ::close(stalled);
}

TEST(ServiceAnalyzeTest, MatchesDirectPipelineRunByteForByte) {
  TestServer ts{ServiceOptions{}};
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Analyze("t1", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;

  PipelineResult direct = Engine().Run(apps::MakeTodoApp());
  EXPECT_EQ(RestrictionsOf(resp.body), direct.restrictions.RestrictedPairNames());
}

TEST(ServiceAnalyzeTest, SecondIdenticalRequestIsWarmAndIdentical) {
  TestServer ts{ServiceOptions{}};
  Client client = ts.client();
  HttpResponse first, second;
  std::string error;
  ASSERT_TRUE(client.Analyze("t1", "Todo", {}, &first, &error)) << error;
  ASSERT_EQ(first.status, 200) << first.body;
  ASSERT_TRUE(client.Analyze("t2", "Todo", {}, &second, &error)) << error;
  ASSERT_EQ(second.status, 200) << second.body;

  EXPECT_EQ(RestrictionsOf(first.body), RestrictionsOf(second.body));
  // The warm request was served entirely from the engine's verdict cache.
  obs::JsonPtr doc = obs::ParseJson(second.body, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->Get("stats")->Get("solver_checks")->AsInt(), 0);
}

TEST(ServiceAnalyzeTest, OmitViewsModelsARevision) {
  TestServer ts{ServiceOptions{}};
  HttpResponse full, rev;
  std::string error;
  ASSERT_TRUE(ts.client().Analyze("t1", "Todo", {}, &full, &error)) << error;
  ASSERT_TRUE(ts.client().Analyze("t1", "Todo", {"reprioritize"}, &rev, &error)) << error;
  ASSERT_EQ(full.status, 200);
  ASSERT_EQ(rev.status, 200) << rev.body;
  // The revision has strictly fewer pairs, and no restriction mentions the omitted view.
  for (const std::string& r : RestrictionsOf(rev.body)) {
    EXPECT_EQ(r.find("reprioritize"), std::string::npos) << r;
  }
  obs::JsonPtr full_doc = obs::ParseJson(full.body, &error);
  obs::JsonPtr rev_doc = obs::ParseJson(rev.body, &error);
  ASSERT_NE(full_doc, nullptr);
  ASSERT_NE(rev_doc, nullptr);
  EXPECT_LT(rev_doc->Get("pairs")->AsInt(), full_doc->Get("pairs")->AsInt());
}

TEST(ServiceTenantTest, TenantsGetDisjointArtifactNamespaces) {
  std::string root = TempDir("tenants");
  ServiceOptions options;
  options.workers = 2;
  options.engine.artifact_root = root;
  TestServer ts{options};

  // Two tenants analyze the same app CONCURRENTLY; their stores must be disjoint.
  std::vector<std::string> stores(2);
  std::vector<std::thread> posters;
  for (int i = 0; i < 2; ++i) {
    posters.emplace_back([&, i] {
      Client client("127.0.0.1", ts.server.port());
      HttpResponse resp;
      std::string error;
      ASSERT_TRUE(client.Analyze(i == 0 ? "alice" : "bob", "Todo", {}, &resp, &error))
          << error;
      ASSERT_EQ(resp.status, 200) << resp.body;
      obs::JsonPtr doc = obs::ParseJson(resp.body, &error);
      ASSERT_NE(doc, nullptr) << error;
      stores[i] = doc->Get("store")->AsString();
      EXPECT_EQ(doc->Get("mode")->AsString(), "incremental");
    });
  }
  for (std::thread& t : posters) {
    t.join();
  }

  EXPECT_EQ(stores[0], root + "/alice/Todo");
  EXPECT_EQ(stores[1], root + "/bob/Todo");
  EXPECT_NE(stores[0], stores[1]);
  // Both namespaces materialized on disk, each with its own manifest.
  EXPECT_TRUE(std::filesystem::exists(stores[0] + "/manifest"));
  EXPECT_TRUE(std::filesystem::exists(stores[1] + "/manifest"));

  // A tenant's second request replays from ITS OWN store.
  Client client = ts.client();
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(client.Analyze("alice", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200);
  obs::JsonPtr doc = obs::ParseJson(resp.body, &error);
  ASSERT_NE(doc, nullptr);
  EXPECT_FALSE(doc->Get("cold")->AsBool());

  std::filesystem::remove_all(root);
}

TEST(ServiceTenantTest, EngineRejectsPathShapedTenantNames) {
  EngineConfig config;
  config.artifact_root = "/tmp/noctua_root";
  Engine engine(config);
  EXPECT_EQ(engine.TenantStoreDir("alice", "Todo"), "/tmp/noctua_root/alice/Todo");
  EXPECT_EQ(engine.TenantStoreDir("..", "Todo"), "");
  EXPECT_EQ(engine.TenantStoreDir("a/b", "Todo"), "");
  EXPECT_EQ(engine.TenantStoreDir(".hidden", "Todo"), "");
  EXPECT_EQ(engine.TenantStoreDir("", "Todo"), "");
  EXPECT_EQ(engine.TenantStoreDir("alice", "../Todo"), "");
  Engine rootless{EngineConfig{}};
  EXPECT_EQ(rootless.TenantStoreDir("alice", "Todo"), "");
}

TEST(ServiceAdmissionTest, FullQueueFailsFastWith503) {
  ServiceOptions options;
  options.workers = 1;
  options.max_queue = 0;  // every analyze request over-admits: deterministic 503
  TestServer ts{options};
  Client client = ts.client();

  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(client.Analyze("t1", "Todo", {}, &resp, &error)) << error;
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("admission queue full"), std::string::npos) << resp.body;

  // Control plane stays responsive while analysis is load-shedding, and the rejection
  // is visible in /metrics.
  ASSERT_TRUE(client.Get("/metrics", &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200);
  obs::JsonPtr doc = obs::ParseJson(resp.body, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_GE(doc->Get("service")->Get("rejected")->AsInt(), 1);
  EXPECT_EQ(doc->Get("service")->Get("admitted")->AsInt(), 0);
}

TEST(ServiceMetricsTest, MetricsAreStrictJsonWithLiveCounters) {
  TestServer ts{ServiceOptions{}};
  Client client = ts.client();
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(client.Analyze("t1", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;

  ASSERT_TRUE(client.Get("/metrics", &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200);
  obs::JsonPtr doc = obs::ParseJson(resp.body, &error);
  ASSERT_NE(doc, nullptr) << "metrics not strict JSON: " << error;

  for (const char* key : {"service", "engine", "counters", "histograms"}) {
    ASSERT_NE(doc->Get(key), nullptr) << key;
    EXPECT_TRUE(doc->Get(key)->is_object()) << key;
  }
  // The analyze above recorded live into the server's collector: counters are non-zero
  // WITHOUT any Stop(), and the request histogram and the engine-lock wait of its one
  // Engine::Run saw one sample each.
  EXPECT_EQ(doc->Get("counters")->Get("service.requests")->AsInt(), 1);
  EXPECT_EQ(doc->Get("counters")->Get("service.requests_ok")->AsInt(), 1);
  EXPECT_GT(doc->Get("counters")->Get("verifier.pairs_checked")->AsInt(), 0);
  EXPECT_EQ(doc->Get("histograms")->Get("service.request_micros")->Get("count")->AsInt(), 1);
  obs::JsonPtr lock_wait = doc->Get("histograms")->Get("pipeline.engine_lock_wait_micros");
  ASSERT_NE(lock_wait, nullptr);
  EXPECT_EQ(lock_wait->Get("count")->AsInt(), 1);
  EXPECT_GT(doc->Get("engine")->Get("verdict_cache_entries")->AsInt(), 0);
}

TEST(ServiceMetricsTest, PrometheusExpositionPassesCheckerWithTenantSeries) {
  TestServer ts{ServiceOptions{}};
  Client client = ts.client();
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(client.Analyze("t1", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;

  ASSERT_TRUE(client.Get("/metrics?format=prometheus", &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200);
  // The exposition survives its own scrape-side contract test...
  size_t series = 0;
  EXPECT_TRUE(obs::CheckPrometheusText(resp.body, &error, &series))
      << error << "\n" << resp.body;
  EXPECT_GT(series, 10u);
  // ...and the server's MetricsPrometheus() is the same body generator.
  EXPECT_TRUE(obs::CheckPrometheusText(ts.server.MetricsPrometheus(), &error)) << error;

  auto has = [&](const std::string& line) {
    EXPECT_NE(resp.body.find(line + "\n"), std::string::npos) << "missing: " << line;
  };
  // Admission gauges, the unlabeled totals, and the per-tenant breakdown all made it.
  has("noctua_service_workers 2");
  has("noctua_service_requests_total 1");
  has("noctua_service_requests_ok_total{tenant=\"t1\",app=\"Todo\",mode=\"cold\"} 1");
  has("noctua_service_request_micros_count{tenant=\"t1\",app=\"Todo\","
      "mode=\"cold\"} 1");
  EXPECT_NE(resp.body.find("noctua_service_verdicts_total{tenant=\"t1\","
                           "app=\"Todo\",mode=\"computed\"}"),
            std::string::npos)
      << resp.body;

  // An unknown format is a 400, not a silent JSON fallback.
  ASSERT_TRUE(client.Get("/metrics?format=xml", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);
}

TEST(ServiceMetricsTest, LabeledRowsAppearInJsonMetrics) {
  std::string root = TempDir("labeled");
  ServiceOptions options;
  options.engine.artifact_root = root;
  TestServer ts{options};
  Client client = ts.client();
  HttpResponse resp;
  std::string error;
  // Alice runs cold then warm (replayed from her store); bob runs cold once.
  ASSERT_TRUE(client.Analyze("alice", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;
  ASSERT_TRUE(client.Analyze("alice", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;
  ASSERT_TRUE(client.Analyze("bob", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;

  ASSERT_TRUE(client.Get("/metrics", &resp, &error)) << error;
  obs::JsonPtr doc = obs::ParseJson(resp.body, &error);
  ASSERT_NE(doc, nullptr) << error;
  obs::JsonPtr labeled = doc->Get("labeled");
  ASSERT_NE(labeled, nullptr);

  // The cold/warm mode label splits alice's two requests into separate rows; bob has
  // his own row — per-tenant breakdown, not one blended aggregate.
  std::set<std::pair<std::string, std::string>> ok_rows;
  for (const obs::JsonPtr& row : labeled->Get("counters")->AsArray()) {
    if (row->Get("name")->AsString() == "service.requests_ok") {
      ok_rows.emplace(row->Get("tenant")->AsString(), row->Get("mode")->AsString());
      EXPECT_EQ(row->Get("value")->AsInt(), 1);
    }
  }
  EXPECT_TRUE(ok_rows.count({"alice", "cold"}));
  EXPECT_TRUE(ok_rows.count({"alice", "warm"}));
  EXPECT_TRUE(ok_rows.count({"bob", "cold"}));

  // Alice's latency histograms saw both requests, with queue-wait and handle phases
  // broken out separately.
  std::set<std::string> hist_names;
  int alice_samples = 0;
  for (const obs::JsonPtr& row : labeled->Get("histograms")->AsArray()) {
    if (row->Get("tenant")->AsString() == "alice") {
      hist_names.insert(row->Get("name")->AsString());
      alice_samples += static_cast<int>(row->Get("summary")->Get("count")->AsInt());
    }
  }
  EXPECT_TRUE(hist_names.count("service.request_micros"));
  EXPECT_TRUE(hist_names.count("service.queue_wait_micros"));
  EXPECT_TRUE(hist_names.count("service.handle_micros"));
  // 3 histograms x (1 cold + 1 warm sample) each.
  EXPECT_EQ(alice_samples, 6);
  std::filesystem::remove_all(root);
}

// -----------------------------------------------------------------------------
// Request-scoped tracing

// The inline span tree of a traced response, parsed strictly. Returns the complete
// ("ph": "X") events only.
std::vector<obs::JsonPtr> TraceSpansOf(const std::string& body, std::string* trace_id) {
  std::string error;
  obs::JsonPtr doc = obs::ParseJson(body, &error);
  EXPECT_NE(doc, nullptr) << error << "\nbody: " << body;
  if (doc == nullptr) {
    return {};
  }
  *trace_id = doc->Get("trace_id")->AsString();
  obs::JsonPtr trace = doc->Get("trace");
  EXPECT_NE(trace, nullptr) << body;
  if (trace == nullptr) {
    return {};
  }
  EXPECT_EQ(trace->Get("otherData")->Get("trace_id")->AsString(), *trace_id);
  std::vector<obs::JsonPtr> spans;
  for (const obs::JsonPtr& ev : trace->Get("traceEvents")->AsArray()) {
    if (ev->Get("ph")->AsString() == "X") {
      spans.push_back(ev);
    }
  }
  return spans;
}

TEST(ServiceTracingTest, CallerSuppliedTraceIdRoundTripsThroughEverySpan) {
  TestServer ts{ServiceOptions{}};
  AnalyzeParams params;
  params.tenant = "t1";
  params.app = "Todo";
  params.trace = true;
  params.trace_id = "it:42.a-b_c";
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Analyze(params, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;

  std::string trace_id;
  std::vector<obs::JsonPtr> spans = TraceSpansOf(resp.body, &trace_id);
  EXPECT_EQ(trace_id, "it:42.a-b_c");
  ASSERT_FALSE(spans.empty());

  // One tree: every span carries the caller's id, covering admission (queue_wait), the
  // engine run, and the per-pair verify fan-out — the pool workers inherited the
  // request context across the ParallelFor boundary.
  std::set<std::string> names, cats;
  for (const obs::JsonPtr& span : spans) {
    EXPECT_EQ(span->Get("args")->Get("trace_id")->AsString(), "it:42.a-b_c")
        << span->Get("name")->AsString();
    names.insert(span->Get("name")->AsString());
    cats.insert(span->Get("cat")->AsString());
  }
  EXPECT_TRUE(names.count("queue_wait"));
  EXPECT_TRUE(names.count("engine_run"));
  EXPECT_TRUE(names.count("analyze:t1:Todo"));
  for (const char* cat : {"service", "pipeline", "pair", "solve"}) {
    EXPECT_TRUE(cats.count(cat)) << "missing category " << cat;
  }
}

TEST(ServiceTracingTest, InvalidTraceHeaderIs400) {
  TestServer ts{ServiceOptions{}};
  AnalyzeParams params;
  params.tenant = "t1";
  params.app = "Todo";
  params.trace_id = "bad header!";  // space and '!' are outside [A-Za-z0-9._:-]
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Analyze(params, &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("x-noctua-trace"), std::string::npos) << resp.body;

  // Over-long ids are rejected too.
  params.trace_id = std::string(65, 'a');
  ASSERT_TRUE(ts.client().Analyze(params, &resp, &error)) << error;
  EXPECT_EQ(resp.status, 400);

  // A non-boolean "trace" key is a 400, not a silent ignore.
  ASSERT_TRUE(ts.client().Post("/v1/analyze",
                               "{\"tenant\": \"t1\", \"app\": \"Todo\", "
                               "\"trace\": \"yes\"}",
                               &resp, &error))
      << error;
  EXPECT_EQ(resp.status, 400);
}

TEST(ServiceTracingTest, UntracedResponsesStillCarryAGeneratedTraceId) {
  TestServer ts{ServiceOptions{}};
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(ts.client().Analyze("t1", "Todo", {}, &resp, &error)) << error;
  ASSERT_EQ(resp.status, 200) << resp.body;
  obs::JsonPtr doc = obs::ParseJson(resp.body, &error);
  ASSERT_NE(doc, nullptr) << error;
  // The generated id is present (for log correlation) but no span tree was captured.
  EXPECT_EQ(doc->Get("trace_id")->AsString().rfind("ntr-", 0), 0u);
  EXPECT_EQ(doc->Get("trace"), nullptr);
}

TEST(ServiceTracingTest, ConcurrentRequestsNeverShareATraceId) {
  ServiceOptions options;
  options.workers = 4;
  TestServer ts{options};
  constexpr int kRequests = 8;
  std::vector<std::string> ids(kRequests);
  std::vector<std::thread> posters;
  for (int i = 0; i < kRequests; ++i) {
    posters.emplace_back([&, i] {
      Client client("127.0.0.1", ts.server.port());
      AnalyzeParams params;
      params.tenant = "t" + std::to_string(i % 4);  // tenants overlap across requests
      params.app = "Todo";
      params.trace = true;
      HttpResponse resp;
      std::string error;
      ASSERT_TRUE(client.Analyze(params, &resp, &error)) << error;
      ASSERT_EQ(resp.status, 200) << resp.body;
      std::string trace_id;
      std::vector<obs::JsonPtr> spans = TraceSpansOf(resp.body, &trace_id);
      ids[i] = trace_id;
      // Every span of this response belongs to this request — even though all
      // requests' spans interleaved in the shared per-thread buffers, none of another
      // request's spans leaked into this capture.
      ASSERT_FALSE(spans.empty());
      for (const obs::JsonPtr& span : spans) {
        EXPECT_EQ(span->Get("args")->Get("trace_id")->AsString(), trace_id);
      }
    });
  }
  for (std::thread& t : posters) {
    t.join();
  }
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(),
            static_cast<size_t>(kRequests));
}

TEST(ServiceShutdownTest, ShutdownUnblocksWaitAndStopsServing) {
  auto ts = std::make_unique<TestServer>(ServiceOptions{});
  int port = ts->server.port();
  Client client("127.0.0.1", port);

  std::thread waiter([&] { ts->server.Wait(); });
  HttpResponse resp;
  std::string error;
  ASSERT_TRUE(client.Post("/shutdown", "", &resp, &error)) << error;
  EXPECT_EQ(resp.status, 200);
  waiter.join();  // Wait() returned -> the daemon's main loop would now exit
  ts->server.Stop();

  // The listener is gone: a fresh connection is refused (or reset mid-handshake).
  EXPECT_FALSE(client.Get("/healthz", &resp, &error));
  ts.reset();
}

}  // namespace
}  // namespace noctua::service
