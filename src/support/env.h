// Centralized parsing of the NOCTUA_* environment knobs.
//
// Every knob in the codebase follows one of two disciplines, and both live here so no
// module hand-rolls its own strtol-and-warn copy again:
//
//   * Lenient knobs (tuning, safe to ignore): unset means the built-in default; a valid
//     value is honored; anything else is rejected with a one-shot stderr warning and the
//     default is used. A typo is noticed, never silently absorbed. NOCTUA_THREADS,
//     NOCTUA_VERDICT_CACHE.
//
//   * Fail-fast knobs (semantics, wrong to ignore): unset means the built-in default,
//     but a set-and-malformed value is a *fatal error*. Used where running with a
//     half-understood configuration is worse than stopping: the enforcement knobs
//     (NOCTUA_ENFORCE*), and NOCTUA_ARTIFACT_DIR's writability probe in
//     src/pipeline/session.h.
//
// Long-lived processes must not re-read the environment mid-flight: a server that
// consulted getenv per request would let one setenv race every in-flight analysis.
// Snapshot (CaptureSnapshot) is the one-shot capture an Engine resolves at construction
// (pipeline/engine.h turns it into a typed EngineConfig); everything downstream of an
// Engine reads the snapshot, not the environment.
#ifndef SRC_SUPPORT_ENV_H_
#define SRC_SUPPORT_ENV_H_

#include <string>

namespace noctua::env {

// Raw variable access: nullptr when unset. Callers treat "" as unset.
const char* Raw(const char* var);

// True when `var` is set to a non-empty value.
bool IsSet(const char* var);

// True when `var` is set and its first character is '1' (NOCTUA_COORD_SELFCHECK).
bool FlagSet(const char* var);

// Strict scalar parses: pure functions of the text, no getenv, no policy. Return false —
// leaving *out untouched — on anything that is not exactly one well-formed value
// (trailing characters, empty string, overflow all reject).
bool ParseLong(const std::string& text, long* out);
bool ParseDouble(const std::string& text, double* out);

// Prints "noctua: <message>\n" to stderr the first time it is called for `var`;
// subsequent calls for the same variable are silent. Keyed by variable name, so a knob
// re-parsed by several modules still warns exactly once per process.
void WarnOnce(const char* var, const std::string& message);

// ---------------------------------------------------------------------------------------
// Lenient knobs (warn once + fall back)

// Positive integer with an upper clamp: unset/empty returns `fallback`; malformed or
// non-positive warns and returns `fallback`; a value above `cap` warns and returns
// `cap`. (NOCTUA_THREADS)
long PositiveIntOr(const char* var, long fallback, long cap);

// Like PositiveIntOr but 0 is a valid value (e.g. "unbounded" for capacity knobs).
// (NOCTUA_VERDICT_CACHE)
long NonNegativeIntOr(const char* var, long fallback, long cap);

// ---------------------------------------------------------------------------------------
// Fail-fast knobs (fatal on a set-and-malformed value)

// Integer in [lo, hi]: unset returns `fallback`; malformed or out-of-range is fatal with
// a message naming the variable. (NOCTUA_ENFORCE_SHARDS)
long RequireLongInRange(const char* var, long lo, long hi, long fallback);

// Double in (lo, hi]: unset returns `fallback`; malformed or out-of-range is fatal.
// (NOCTUA_ENFORCE_LEASE_MS)
double RequireDoubleInRange(const char* var, double lo, double hi, double fallback);

// Exactly "0" or "1": unset returns `fallback`; anything else is fatal. (NOCTUA_ENFORCE)
bool RequireBool01(const char* var, bool fallback);

// ---------------------------------------------------------------------------------------
// Snapshot

// One-shot capture of every analysis-affecting knob, taken at engine construction and
// never re-read. Fields hold *resolved* values (parse policy already applied).
struct Snapshot {
  // Resolved degree of parallelism: NOCTUA_THREADS if valid, else hardware concurrency.
  int threads = 1;
  // NOCTUA_ARTIFACT_DIR verbatim ("" = no persistence). Writability is probed by
  // ArtifactDirFromEnv, not here: capturing a snapshot must not touch the filesystem.
  std::string artifact_dir;
  // NOCTUA_VERDICT_CACHE: entry bound for an engine's shared verdict cache. 0 (the
  // default) = unbounded — right for throwaway per-call engines; long-lived daemons
  // apply their own finite default when the knob is unset (see noctua-serve).
  size_t verdict_cache_capacity = 0;
};

Snapshot CaptureSnapshot();

// The NOCTUA_THREADS clamp shared by CaptureSnapshot and ThreadPool::DefaultThreads.
inline constexpr long kMaxThreads = 256;

// NOCTUA_VERDICT_CACHE clamp; shared with noctua-serve's --verdict-cache flag.
inline constexpr long kMaxVerdictCacheEntries = 1L << 30;

}  // namespace noctua::env

#endif  // SRC_SUPPORT_ENV_H_
