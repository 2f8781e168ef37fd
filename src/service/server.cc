#include "src/service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <set>

#include "src/apps/apps.h"
#include "src/obs/json.h"
#include "src/obs/prom.h"
#include "src/support/stopwatch.h"

namespace noctua::service {

namespace {

void SetSocketTimeouts(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// A response whose body is the one-member object {"<key>": "<value>"}.
HttpResponse OneFieldResponse(int status, const char* key, const std::string& value) {
  HttpResponse resp;
  resp.status = status;
  resp.body =
      obs::JsonWriter().BeginObject().Key(key).String(value).EndObject().Take() + "\n";
  return resp;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  return OneFieldResponse(status, "error", message);
}

// Builds the registry app named `name`, minus `omit` views (a "revision" of the app).
// Returns false when the name is unknown or an omitted view does not exist.
bool BuildRevision(const std::string& name, const std::set<std::string>& omit,
                   app::App* out, std::string* error) {
  for (const apps::AppEntry& entry : apps::EvaluatedApps()) {
    if (entry.name != name) {
      continue;
    }
    app::App base = entry.make();
    for (const std::string& v : omit) {
      bool found = false;
      for (const app::View& view : base.views()) {
        found = found || view.name == v;
      }
      if (!found) {
        *error = "app \"" + name + "\" has no view \"" + v + "\"";
        return false;
      }
    }
    if (omit.empty()) {
      *out = std::move(base);
      return true;
    }
    app::App rev(base.name(), base.source_file());
    rev.schema() = base.schema();
    for (const app::View& view : base.views()) {
      if (omit.count(view.name) == 0) {
        rev.AddView(view.name, view.fn);
      }
    }
    *out = std::move(rev);
    return true;
  }
  *error = "unknown app \"" + name + "\" — not in the evaluated-apps registry";
  return false;
}

// An external trace id as the service accepts it in x-noctua-trace: short, printable,
// and safe to echo into JSON, span args, and log lines without further escaping rules.
bool ValidTraceId(const std::string& id) {
  if (id.empty() || id.size() > 64) {
    return false;
  }
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '_' || c == ':' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

Server::Server(ServiceOptions options) : options_(std::move(options)) {
  if (options_.workers < 1) {
    options_.workers = 1;
  }
  if (options_.readers < 1) {
    options_.readers = 1;
  }
  // Unread connections the accept thread may park ahead of the readers. Sized so the
  // analysis queue plus every reader/worker can be fed with slack for the control
  // plane; past this the daemon is genuinely overrun and fail-fast 503 is the answer.
  conn_backlog_ = options_.max_queue + static_cast<size_t>(options_.workers) +
                  static_cast<size_t>(options_.readers) + 16;
  engine_ = std::make_unique<Engine>(options_.engine);
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  if (!log_.Configure(options_.log_level, options_.log_file, error)) {
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid host address: " + options_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  if (options_.metrics && !obs::Active()) {
    // /metrics reads live counters and histograms, and an inline trace comes from its
    // request's TraceCapture: nothing reads retained spans, so an always-on server keeps
    // none.
    obs::ObsOptions obs_options;
    obs_options.enabled = true;
    obs_options.retain_spans = false;
    collector_.emplace(std::move(obs_options));
  }

  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (int i = 0; i < options_.readers; ++i) {
    readers_.emplace_back([this] { ReaderLoop(); });
  }
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void Server::AcceptLoop() {
  // Accept only — never read. A stalled client costs a reader at most the io timeout;
  // it can never block admission of other connections or the control plane.
  while (true) {
    int fd = ::accept(listen_fd_.load(std::memory_order_relaxed), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed by Stop()
    }
    SetSocketTimeouts(fd, options_.io_timeout_seconds);
    bool refuse_stopping = false;
    bool refuse_overrun = false;
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      if (stopping_) {
        refuse_stopping = true;
      } else if (conn_queue_.size() >= conn_backlog_) {
        refuse_overrun = true;
      } else {
        conn_queue_.push_back(fd);
      }
    }
    if (refuse_stopping) {
      WriteHttpResponse(fd, ErrorResponse(503, "server shutting down"));
      ::close(fd);
      return;
    }
    if (refuse_overrun) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::Add(obs::Counter::kServiceRejected);
      WriteHttpResponse(fd, ErrorResponse(503, "connection backlog full — retry later"));
      ::close(fd);
      continue;
    }
    conn_cv_.notify_one();
  }
}

void Server::ReaderLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      conn_cv_.wait(lk, [this] { return stopping_ || !conn_queue_.empty(); });
      if (stopping_) {
        // Refuse everything still parked; Stop() joins us before draining workers, so
        // an fd refused here is never half-admitted.
        std::deque<int> leftover;
        leftover.swap(conn_queue_);
        lk.unlock();
        for (int parked : leftover) {
          WriteHttpResponse(parked, ErrorResponse(503, "server shutting down"));
          ::close(parked);
        }
        return;
      }
      fd = conn_queue_.front();
      conn_queue_.pop_front();
    }
    HandleConnection(fd);
  }
}

void Server::HandleConnection(int fd) {
  HttpRequest req;
  std::string error;
  if (!ReadHttpRequest(fd, &req, &error)) {
    WriteHttpResponse(fd, ErrorResponse(400, error));
    ::close(fd);
    return;
  }

  // Control plane: answered inline so health and metrics stay responsive under load.
  std::string path;
  std::string query;
  SplitTarget(req.target, &path, &query);
  if (path == "/healthz") {
    if (req.method != "GET") {
      WriteHttpResponse(fd, ErrorResponse(405, "use GET"));
    } else {
      WriteHttpResponse(fd, OneFieldResponse(200, "status", "ok"));
    }
    ::close(fd);
    return;
  }
  if (path == "/metrics") {
    if (req.method != "GET") {
      WriteHttpResponse(fd, ErrorResponse(405, "use GET"));
    } else {
      std::string format = QueryParam(query, "format");
      if (format.empty() || format == "json") {
        HttpResponse resp;
        resp.body = MetricsJson();
        WriteHttpResponse(fd, resp);
      } else if (format == "prometheus") {
        HttpResponse resp;
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = MetricsPrometheus();
        WriteHttpResponse(fd, resp);
      } else {
        WriteHttpResponse(
            fd, ErrorResponse(400, "unknown metrics format \"" + format +
                                       "\" — use json or prometheus"));
      }
    }
    ::close(fd);
    return;
  }
  if (path == "/shutdown") {
    if (req.method != "POST") {
      WriteHttpResponse(fd, ErrorResponse(405, "use POST"));
      ::close(fd);
      return;
    }
    WriteHttpResponse(fd, OneFieldResponse(200, "status", "shutting down"));
    ::close(fd);
    RequestShutdown();
    return;
  }
  if (path != "/v1/analyze") {
    WriteHttpResponse(fd, ErrorResponse(404, "no such endpoint: " + req.target));
    ::close(fd);
    return;
  }
  if (req.method != "POST") {
    WriteHttpResponse(fd, ErrorResponse(405, "use POST"));
    ::close(fd);
    return;
  }

  // Admission control: fail fast when the queue is full rather than building an
  // unbounded backlog in front of a saturated engine.
  bool refuse_stopping = false;
  bool refuse_full = false;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (stopping_) {
      // Stop() raced this read: the workers are draining and must not be handed new
      // work after they observe an empty queue.
      refuse_stopping = true;
    } else if (queue_.size() >= options_.max_queue) {
      refuse_full = true;
    } else {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      queue_.push_back(Job{fd, std::move(req), obs::SteadyNowMicros()});
    }
  }
  if (refuse_stopping) {
    WriteHttpResponse(fd, ErrorResponse(503, "server shutting down"));
    ::close(fd);
    return;
  }
  if (refuse_full) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::Add(obs::Counter::kServiceRejected);
    WriteHttpResponse(
        fd, ErrorResponse(503, "admission queue full (" +
                                   std::to_string(options_.max_queue) + ") — retry later"));
    ::close(fd);
    return;
  }
  queue_cv_.notify_one();
}

void Server::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse resp = HandleAnalyze(job.req, job.enqueue_us, obs::SteadyNowMicros());
    WriteHttpResponse(job.fd, resp);
    ::close(job.fd);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

HttpResponse Server::HandleAnalyze(const HttpRequest& req, int64_t enqueue_us,
                                   int64_t dequeue_us) {
  Stopwatch watch;
  obs::Add(obs::Counter::kServiceRequests);
  const uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const int64_t queue_wait_us = dequeue_us > enqueue_us ? dequeue_us - enqueue_us : 0;

  // Filled in as parsing progresses so failure paths log whatever is known so far.
  std::string tenant;
  std::string app_name;
  std::string trace_id = "ntr-" + std::to_string(seq);

  auto access_log = [&](int status) {
    log_.Log(obs::LogLevel::kInfo, "request",
             {{"trace_id", trace_id},
              {"tenant", tenant},
              {"app", app_name},
              {"status", status},
              {"queue_wait_us", queue_wait_us},
              {"service_us", static_cast<int64_t>(watch.ElapsedSeconds() * 1e6)}});
  };
  auto fail = [&](const std::string& message) {
    obs::Add(obs::Counter::kServiceRequestsFailed);
    obs::AddLabeled(obs::Counter::kServiceRequestsFailed,
                    obs::MetricLabels{tenant, app_name, "error"});
    access_log(400);
    return ErrorResponse(400, message);
  };

  if (auto it = req.headers.find("x-noctua-trace"); it != req.headers.end()) {
    if (!ValidTraceId(it->second)) {
      return fail(
          "invalid x-noctua-trace header — use 1-64 chars of [A-Za-z0-9._:-]");
    }
    trace_id = it->second;
  }

  std::string parse_error;
  obs::JsonPtr doc = obs::ParseJson(req.body, &parse_error);
  if (doc == nullptr || !doc->is_object()) {
    return fail(doc == nullptr ? "malformed JSON body: " + parse_error
                               : "request body must be a JSON object");
  }

  obs::JsonPtr tenant_v = doc->Get("tenant");
  obs::JsonPtr app_v = doc->Get("app");
  if (tenant_v == nullptr || !tenant_v->is_string() || app_v == nullptr ||
      !app_v->is_string()) {
    return fail("request must carry string fields \"tenant\" and \"app\"");
  }
  tenant = tenant_v->AsString();
  app_name = app_v->AsString();
  if (!Engine::ValidTenantName(tenant)) {
    return fail("invalid tenant name \"" + tenant +
                "\" — use [A-Za-z0-9._-], no leading dot");
  }

  std::set<std::string> omit;
  if (obs::JsonPtr omit_v = doc->Get("omit_views"); omit_v != nullptr) {
    if (!omit_v->is_array()) {
      return fail("\"omit_views\" must be an array of view names");
    }
    for (const obs::JsonPtr& item : omit_v->AsArray()) {
      if (!item->is_string()) {
        return fail("\"omit_views\" must be an array of view names");
      }
      omit.insert(item->AsString());
    }
  }

  bool want_trace = false;
  if (obs::JsonPtr trace_v = doc->Get("trace"); trace_v != nullptr) {
    if (!trace_v->is_bool()) {
      return fail("\"trace\" must be a boolean");
    }
    want_trace = trace_v->AsBool();
  }

  app::App app("", "");
  std::string build_error;
  if (!BuildRevision(app_name, omit, &app, &build_error)) {
    return fail(build_error);
  }

  // Request scope: from here on, every span this thread (and the pool workers running
  // this request's pairs) closes is stamped with `seq` — and, when the caller asked for
  // an inline trace, copied into `capture`. The queue wait becomes the first span of
  // the tree, back-dated to its admission timestamp.
  obs::TraceCapture capture;
  obs::ScopedTraceContext trace_scope(seq, want_trace ? &capture : nullptr);
  obs::RecordSpan("queue_wait", obs::kCatService, enqueue_us, dequeue_us);
  obs::Observe(obs::Hist::kServiceQueueWaitMicros,
               static_cast<uint64_t>(queue_wait_us));

  const std::string store_dir = engine_->TenantStoreDir(tenant, app_name);
  const std::string mode = store_dir.empty() ? "run" : "incremental";
  PipelineResult run;
  {
    // Nested scope: the request span must close before the capture is serialized.
    std::string span_name;
    if (obs::Enabled()) {
      span_name = "analyze:" + tenant + ":" + app_name;
    }
    obs::ScopedSpan span(std::move(span_name), obs::kCatService);
    run = engine_->Run(app, {}, store_dir);
  }
  const bool cold = run.cold;

  obs::JsonWriter body;
  body.BeginObject().Key("app").String(app_name).Key("tenant").String(tenant);
  body.Key("mode").String(mode).Key("cold").Bool(cold).Key("store").String(store_dir);
  body.Key("trace_id").String(trace_id).Key("pairs").Uint(run.restrictions.num_checks());
  body.Key("num_restrictions").Uint(run.restrictions.num_restrictions());
  body.Key("restrictions").BeginArray();
  for (const std::string& name : run.restrictions.RestrictedPairNames()) {
    body.String(name);
  }
  const verifier::ReportStats& st = run.restrictions.stats;
  body.EndArray().Key("stats").BeginObject().Key("solver_checks").Uint(st.solver_checks);
  body.Key("cache_hits").Uint(st.cache_hits).Key("pairs_replayed").Uint(st.pairs_replayed);
  body.Key("pairs_computed").Uint(st.pairs_computed).Key("threads").Int(st.threads_used);
  body.EndObject().Key("seconds").Double(run.total_seconds, 6);
  if (want_trace) {
    capture.ChromeTraceJson(body.Key("trace"), trace_id);
  }
  body.EndObject();

  const uint64_t handle_us = static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6);
  const obs::MetricLabels labels{tenant, app_name, cold ? "cold" : "warm"};
  obs::Add(obs::Counter::kServiceRequestsOk);
  obs::AddLabeled(obs::Counter::kServiceRequestsOk, labels);
  obs::Observe(obs::Hist::kServiceRequestMicros,
               handle_us + static_cast<uint64_t>(queue_wait_us));
  obs::ObserveLabeled(obs::Hist::kServiceRequestMicros, labels,
                      handle_us + static_cast<uint64_t>(queue_wait_us));
  obs::Observe(obs::Hist::kServiceHandleMicros, handle_us);
  obs::ObserveLabeled(obs::Hist::kServiceHandleMicros, labels, handle_us);
  obs::ObserveLabeled(obs::Hist::kServiceQueueWaitMicros, labels,
                      static_cast<uint64_t>(queue_wait_us));
  // Verdict provenance per tenant/app: how much of this request was solved fresh vs
  // replayed from the store vs retired by the prefilter. Zero deltas are dropped.
  obs::AddLabeled(obs::Counter::kServiceVerdicts,
                  obs::MetricLabels{tenant, app_name, "computed"}, st.pairs_computed);
  obs::AddLabeled(obs::Counter::kServiceVerdicts,
                  obs::MetricLabels{tenant, app_name, "replayed"}, st.pairs_replayed);
  obs::AddLabeled(obs::Counter::kServiceVerdicts,
                  obs::MetricLabels{tenant, app_name, "prefiltered"}, st.prefiltered);

  access_log(200);
  if (options_.slow_ms > 0 &&
      handle_us >= static_cast<uint64_t>(options_.slow_ms) * 1000 &&
      log_.Enabled(obs::LogLevel::kWarn) && slow_limiter_.Allow()) {
    log_.Log(obs::LogLevel::kWarn, "slow_request",
             {{"trace_id", trace_id},
              {"tenant", tenant},
              {"app", app_name},
              {"service_us", handle_us},
              {"queue_wait_us", queue_wait_us},
              {"slow_ms_threshold", static_cast<int64_t>(options_.slow_ms)},
              {"cold", cold}});
  }

  HttpResponse resp;
  resp.body = body.Take() + "\n";
  return resp;
}

std::string Server::MetricsJson() const {
  obs::JsonWriter w;
  w.BeginObject().Key("service").BeginObject();
  w.Key("admitted").Uint(admitted_.load(std::memory_order_relaxed));
  w.Key("rejected").Uint(rejected_.load(std::memory_order_relaxed));
  w.Key("completed").Uint(completed_.load(std::memory_order_relaxed));
  w.Key("in_flight").Int(in_flight_.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    w.Key("queue_depth").Uint(queue_.size()).Key("conn_queue_depth").Uint(conn_queue_.size());
  }
  w.Key("workers").Int(options_.workers).Key("readers").Int(options_.readers);
  w.Key("max_queue").Uint(options_.max_queue).EndObject();
  w.Key("engine").BeginObject().Key("threads").Int(engine_->pool().threads());
  w.Key("verdict_cache_entries").Uint(engine_->verdicts().size());
  w.Key("artifact_root").String(engine_->config().artifact_root).EndObject();
  w.Key("counters").BeginObject();
  for (size_t i = 0; i < static_cast<size_t>(obs::Counter::kNumCounters); ++i) {
    const obs::Counter c = static_cast<obs::Counter>(i);
    w.Key(obs::CounterName(c)).Uint(obs::LiveCounter(c));
  }
  w.EndObject().Key("histograms").BeginObject();
  for (size_t i = 0; i < static_cast<size_t>(obs::Hist::kNumHists); ++i) {
    const obs::Hist h = static_cast<obs::Hist>(i);
    obs::WriteJson(w.Key(obs::HistName(h)), obs::LiveHistogram(h));
  }
  // Per-tenant breakdown: every labeled row as one flat object, deterministic order
  // (metric index, then label tuple). Empty until the first labeled emission.
  auto labels = [&w](const char* name, const obs::MetricLabels& l) {
    w.BeginObject().Key("name").String(name).Key("tenant").String(l.tenant);
    w.Key("app").String(l.app).Key("mode").String(l.mode);
  };
  w.EndObject().Key("labeled").BeginObject().Key("counters").BeginArray();
  for (const obs::LabeledCounterRow& row : obs::LiveLabeledCounters()) {
    labels(obs::CounterName(row.counter), row.labels);
    w.Key("value").Uint(row.value).EndObject();
  }
  w.EndArray().Key("histograms").BeginArray();
  for (const obs::LabeledHistRow& row : obs::LiveLabeledHistograms()) {
    labels(obs::HistName(row.hist), row.labels);
    obs::WriteJson(w.Key("summary"), row.summary);
    w.EndObject();
  }
  return w.EndArray().EndObject().EndObject().Take() + "\n";
}

std::string Server::MetricsPrometheus() const {
  std::vector<obs::PromSample> extras;
  auto gauge = [&](const char* name, const char* help, uint64_t value) {
    obs::PromSample s;
    s.name = std::string("noctua_service_") + name;
    s.help = help;
    s.type = "gauge";
    s.value = value;
    extras.push_back(std::move(s));
  };
  gauge("admitted", "analysis requests admitted to the queue",
        admitted_.load(std::memory_order_relaxed));
  gauge("rejected", "requests refused by admission control",
        rejected_.load(std::memory_order_relaxed));
  gauge("completed", "analysis requests finished",
        completed_.load(std::memory_order_relaxed));
  gauge("in_flight", "analysis requests executing now",
        static_cast<uint64_t>(in_flight_.load(std::memory_order_relaxed)));
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    gauge("queue_depth", "admitted requests waiting for a worker", queue_.size());
  }
  gauge("workers", "worker pool size", static_cast<uint64_t>(options_.workers));
  gauge("verdict_cache_entries", "entries in the engine verdict cache",
        engine_->verdicts().size());
  return obs::PrometheusText(extras);
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lk(wait_mu_);
    shutdown_requested_ = true;
  }
  wait_cv_.notify_all();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lk(wait_mu_);
  wait_cv_.wait(lk, [this] { return shutdown_requested_; });
}

void Server::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stopping_ = true;
  }
  conn_cv_.notify_all();
  queue_cv_.notify_all();
  // Closing the listener makes the blocking accept() fail, ending the accept thread.
  // shutdown() first so a concurrently-blocked accept wakes on every platform.
  int fd = listen_fd_.load(std::memory_order_relaxed);
  ::shutdown(fd, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(fd);
  listen_fd_.store(-1, std::memory_order_relaxed);
  // Readers first: they refuse parked connections and finish in-flight reads, possibly
  // admitting a last job — which the workers then drain before exiting.
  for (std::thread& r : readers_) {
    if (r.joinable()) {
      r.join();
    }
  }
  readers_.clear();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  workers_.clear();
  RequestShutdown();  // release any Wait()er even when Stop came from outside
  collector_.reset();
}

}  // namespace noctua::service
