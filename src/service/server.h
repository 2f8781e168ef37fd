// Noctua-as-a-service: a long-lived daemon wrapping one noctua::Engine behind the HTTP
// subset in protocol.h, on a loopback TCP socket.
//
// Architecture (one Server = one Engine = one artifact root):
//
//   accept thread   only accepts. Each new fd goes into a bounded connection backlog
//                   (overflow answered 503 and closed), so a client that stalls
//                   mid-request can never wedge admission: the accept thread does no
//                   socket reads at all.
//   reader threads  pop raw fds, read + parse the request (bounded by the per-socket
//                   io timeout), and route it. Control-plane endpoints (/healthz,
//                   /metrics, /shutdown) are answered right there — they never queue
//                   behind analysis, so they stay responsive while the engine is
//                   saturated. Analysis requests go through admission control: a
//                   bounded queue in front of a fixed worker pool. A full queue is
//                   answered 503 immediately (fail-fast: the client retries or sheds
//                   load; the daemon never builds an unbounded backlog).
//   worker threads  pop admitted requests and run them on the shared Engine. The
//                   Engine serializes each Engine::Run's whole pass (analysis, verify,
//                   store load and save) on one lock, so one request executes at a
//                   time; a second worker's request waits on that lock outside
//                   max_queue and outside service.queue_wait_micros. The wait is in
//                   service.handle_micros and, on its own, in
//                   pipeline.engine_lock_wait_micros.
//
// Endpoints:
//
//   POST /v1/analyze   {"tenant": "...", "app": "<registry name>",
//                       "omit_views": ["View", ...]?}    — omit_views models a revision
//     -> 200 {"app", "tenant", "mode": "run"|"incremental", "cold", "pairs",
//             "num_restrictions", "restrictions": ["(P, Q)", ...], "seconds", ...}
//     -> 400 on malformed JSON / unknown app / invalid tenant; 503 when admission-full.
//     With an artifact root configured, each (tenant, app) gets its own on-disk store
//     under <root>/<tenant>/<app> — tenants can never read or warm each other's
//     artifacts. Without one, runs are in-memory and warmth comes from the engine's
//     shared verdict cache.
//   GET /metrics       live obs counters/histograms + admission + engine state, as
//                      strict RFC 8259 JSON (machine-checked in CI by the json.h parser).
//   GET /healthz       {"status": "ok"}
//   POST /shutdown     acknowledges, then stops accepting; Wait() returns.
#ifndef SRC_SERVICE_SERVER_H_
#define SRC_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/pipeline/engine.h"
#include "src/service/protocol.h"

namespace noctua::service {

struct ServiceOptions {
  std::string host = "127.0.0.1";
  // 0 = ephemeral: the kernel picks a free port, readable via Server::port() (and
  // printed by noctua-serve as "listening on <host>:<port>").
  int port = 0;
  // Number of admitted analysis requests taken off the queue at once. They do not
  // execute concurrently: Engine::Run holds the engine lock for its whole pass, so all
  // but one wait on it, outside max_queue (and outside service.queue_wait_micros).
  int workers = 2;
  // Admission bound: analysis requests accepted-but-not-yet-started. One more request
  // beyond workers + max_queue is answered 503 without touching the engine.
  size_t max_queue = 8;
  // Reader-pool width: connections being read/parsed concurrently. A stalled client
  // occupies one reader for at most io_timeout_seconds; the control plane needs only
  // one free reader to answer.
  int readers = 2;
  // Install a process collector at Start so /metrics serves live counters. It retains
  // no spans (obs::ObsOptions::retain_spans), so it stays bounded however long the server
  // runs. Skipped (without error) when some outer owner already installed one.
  bool metrics = true;
  // Per-connection socket receive/send timeout, so a stalled client cannot wedge the
  // accept thread or a worker.
  int io_timeout_seconds = 10;
  // Structured event log: minimum level and sink (empty = stderr). The default kWarn
  // keeps embedded servers (tests, benches) quiet; noctua-serve lowers it to kInfo so
  // the daemon writes per-request access-log lines.
  obs::LogLevel log_level = obs::LogLevel::kWarn;
  std::string log_file;
  // Requests slower than this (worker execution time) emit a rate-limited kWarn
  // "slow_request" line; 0 disables the slow log.
  int slow_ms = 1000;
  // The engine this server owns; artifact_root inside it enables per-tenant stores.
  EngineConfig engine;
};

class Server {
 public:
  explicit Server(ServiceOptions options);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the accept + worker threads. False (with *error set)
  // when the socket cannot be bound.
  bool Start(std::string* error);

  // Blocks until a /shutdown request arrives or Stop() is called from another thread.
  void Wait();

  // Stops accepting, drains admitted requests, joins all threads. Idempotent.
  void Stop();

  // The bound port; valid after Start succeeded.
  int port() const { return port_; }
  const ServiceOptions& options() const { return options_; }
  Engine& engine() { return *engine_; }

  // The /metrics response bodies. Exposed for tests (strict-JSON round-trip and
  // Prometheus exposition checks).
  std::string MetricsJson() const;
  std::string MetricsPrometheus() const;

 private:
  struct Job {
    int fd = -1;
    HttpRequest req;
    int64_t enqueue_us = 0;  // obs::SteadyNowMicros() at admission
  };

  void AcceptLoop();
  void ReaderLoop();
  void WorkerLoop();
  void HandleConnection(int fd);
  HttpResponse HandleAnalyze(const HttpRequest& req, int64_t enqueue_us,
                             int64_t dequeue_us);
  void RequestShutdown();

  ServiceOptions options_;
  std::unique_ptr<Engine> engine_;
  std::optional<obs::Collector> collector_;

  // Atomic: Stop() resets it while the accept thread re-reads it per accept().
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> readers_;
  std::vector<std::thread> workers_;
  size_t conn_backlog_ = 0;  // bound on conn_queue_, fixed at Start

  mutable std::mutex queue_mu_;  // mutable: MetricsJson (const) reports queue depth
  std::condition_variable queue_cv_;  // wakes workers (queue_)
  std::condition_variable conn_cv_;   // wakes readers (conn_queue_)
  std::deque<Job> queue_;      // admitted analysis requests, guarded by queue_mu_
  std::deque<int> conn_queue_;  // accepted-but-unread fds, guarded by queue_mu_
  bool stopping_ = false;  // guarded by queue_mu_

  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool shutdown_requested_ = false;  // guarded by wait_mu_

  std::atomic<bool> started_{false};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<int> in_flight_{0};

  // Internal trace-id sequence: each analyze request gets the next value as its span
  // trace id; the external id (header-supplied or "ntr-<seq>") rides the response.
  std::atomic<uint64_t> trace_seq_{0};
  obs::EventLog log_;
  obs::LogRateLimiter slow_limiter_{/*per_second=*/1.0, /*burst=*/5.0};
};

}  // namespace noctua::service

#endif  // SRC_SERVICE_SERVER_H_
