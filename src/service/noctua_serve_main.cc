// noctua-serve: the Noctua-as-a-service daemon. Binds a loopback HTTP endpoint, owns
// one long-lived Engine, and serves analysis requests until /shutdown (or SIGTERM-ish
// termination by the supervisor).
//
//   noctua-serve [--host H] [--port P] [--workers N] [--queue Q] [--readers R]
//                [--verdict-cache C] [--artifact-root DIR] [--no-metrics]
//                [--log-file PATH] [--log-level debug|info|warn|error] [--slow-ms N]
//
// Prints exactly one line "listening on H:P" to stdout once ready (scripts grab the
// ephemeral port from it), then blocks. Engine knobs (threads, verdict cache, artifact
// root) come from the usual NOCTUA_* environment variables, snapshotted once at startup.
//
// The daemon defaults to --log-level info: one JSON access-log line per analysis
// request (trace id, tenant, status, queue-wait, service-time) on stderr or into
// --log-file, plus rate-limited "slow_request" warnings above --slow-ms.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/pipeline/session.h"
#include "src/service/server.h"
#include "src/support/env.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--workers N] [--queue Q] [--readers R]\n"
               "          [--verdict-cache C] [--artifact-root DIR] [--no-metrics]\n"
               "          [--log-file PATH] [--log-level debug|info|warn|error]"
               " [--slow-ms N]\n",
               argv0);
  return 2;
}

// The long-lived daemon's default bound on the engine's shared verdict cache. The
// unbounded (0) setting is reserved for throwaway per-call engines; a server that ran
// forever with it would grow without limit. Overridable with --verdict-cache or
// NOCTUA_VERDICT_CACHE (either may say 0 to explicitly opt back into unbounded).
constexpr size_t kDefaultVerdictCacheCapacity = 1 << 16;

}  // namespace

int main(int argc, char** argv) {
  noctua::service::ServiceOptions options;
  options.engine = noctua::EngineConfig::FromEnv();
  // A daemon is operated, not embedded: access-log lines on by default (the embedded
  // Server default is the quiet kWarn).
  options.log_level = noctua::obs::LogLevel::kInfo;

  // The daemon honors a NOCTUA_VERDICT_CACHE from the environment (already folded into
  // the FromEnv snapshot above); otherwise, unlike throwaway engines, it must not run
  // unbounded — see kDefaultVerdictCacheCapacity.
  bool verdict_cache_chosen = noctua::env::IsSet("NOCTUA_VERDICT_CACHE");

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict flag-value parse, same discipline as the env knobs: a malformed or
    // out-of-range value is a usage error, never a silent 0.
    auto next_long = [&](const char* flag, long lo, long hi) -> long {
      const char* raw = next(flag);
      long n = 0;
      if (!noctua::env::ParseLong(raw, &n) || n < lo || n > hi) {
        std::fprintf(stderr, "%s expects an integer in [%ld, %ld], got \"%s\"\n", flag, lo,
                     hi, raw);
        std::exit(Usage(argv[0]));
      }
      return n;
    };
    if (arg == "--host") {
      options.host = next("--host");
    } else if (arg == "--port") {
      options.port = static_cast<int>(next_long("--port", 0, 65535));
    } else if (arg == "--workers") {
      options.workers = static_cast<int>(next_long("--workers", 1, 1024));
    } else if (arg == "--queue") {
      options.max_queue = static_cast<size_t>(next_long("--queue", 0, 1L << 20));
    } else if (arg == "--readers") {
      options.readers = static_cast<int>(next_long("--readers", 1, 1024));
    } else if (arg == "--verdict-cache") {
      options.engine.verdict_cache_capacity = static_cast<size_t>(
          next_long("--verdict-cache", 0, noctua::env::kMaxVerdictCacheEntries));
      verdict_cache_chosen = true;
    } else if (arg == "--artifact-root") {
      options.engine.artifact_root = next("--artifact-root");
    } else if (arg == "--no-metrics") {
      options.metrics = false;
    } else if (arg == "--log-file") {
      options.log_file = next("--log-file");
    } else if (arg == "--log-level") {
      const char* raw = next("--log-level");
      if (!noctua::obs::ParseLogLevel(raw, &options.log_level)) {
        std::fprintf(stderr, "--log-level expects debug|info|warn|error, got \"%s\"\n",
                     raw);
        return Usage(argv[0]);
      }
    } else if (arg == "--slow-ms") {
      options.slow_ms = static_cast<int>(next_long("--slow-ms", 0, 1L << 30));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (!verdict_cache_chosen) {
    options.engine.verdict_cache_capacity = kDefaultVerdictCacheCapacity;
  }

  // A daemon with persistence wants the fail-fast create-and-probe before it starts
  // accepting: a misconfigured store should stop the server, not silently cold-run
  // every tenant forever. The root is the flag's, or else the environment's.
  if (!options.engine.artifact_root.empty()) {
    noctua::ProbeArtifactDir(options.engine.artifact_root);
  }

  noctua::service::Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "noctua-serve: %s\n", error.c_str());
    return 1;
  }
  std::printf("listening on %s:%d\n", server.options().host.c_str(), server.port());
  std::fflush(stdout);
  server.Wait();
  server.Stop();
  std::printf("shut down cleanly\n");
  return 0;
}
