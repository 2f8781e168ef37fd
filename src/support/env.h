// Centralized parsing of the NOCTUA_* environment knobs.
//
// The numeric knobs are tuning, safe to ignore, and parsed here so no module hand-rolls
// its own strtol-and-warn copy: unset means the built-in default; a valid value is
// honored; anything else is rejected with a one-shot stderr warning and the default is
// used. A typo is noticed, never silently absorbed. NOCTUA_THREADS, NOCTUA_VERDICT_CACHE.
// NOCTUA_COORD_SELFCHECK is a flag (FlagSet). NOCTUA_ARTIFACT_DIR is read verbatim; a
// daemon that persists checks the root it ends up with through ProbeArtifactDir
// (src/pipeline/session.h), where an unusable directory is a fatal error.
//
// Long-lived processes must not re-read the environment mid-flight: a server that
// consulted getenv per request would let one setenv race every in-flight analysis.
// EngineConfig::FromEnv (pipeline/engine.h) reads an Engine's knobs once, at
// construction; everything downstream of an Engine reads its config, not the
// environment.
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

// Strict integer parse: a pure function of the text, no getenv, no policy. Returns
// false — leaving *out untouched — on anything that is not exactly one well-formed value
// (trailing characters, empty string, overflow all reject).
bool ParseLong(const std::string& text, long* out);

// Prints "noctua: <message>\n" to stderr the first time it is called for `var`;
// subsequent calls for the same variable are silent. Keyed by variable name, so a knob
// re-parsed by several modules still warns exactly once per process.
void WarnOnce(const char* var, const std::string& message);

// ---------------------------------------------------------------------------------------
// Numeric knobs (warn once + fall back)

// Positive integer with an upper clamp: unset/empty returns `fallback`; malformed or
// non-positive warns and returns `fallback`; a value above `cap` warns and returns
// `cap`. (NOCTUA_THREADS)
long PositiveIntOr(const char* var, long fallback, long cap);

// Like PositiveIntOr but 0 is a valid value (e.g. "unbounded" for capacity knobs).
// (NOCTUA_VERDICT_CACHE)
long NonNegativeIntOr(const char* var, long fallback, long cap);

// ---------------------------------------------------------------------------------------
// Knob clamps

// The NOCTUA_THREADS clamp ThreadPool::DefaultThreads applies.
inline constexpr long kMaxThreads = 256;

// NOCTUA_VERDICT_CACHE clamp; shared with noctua-serve's --verdict-cache flag.
inline constexpr long kMaxVerdictCacheEntries = 1L << 30;

}  // namespace noctua::env

#endif  // SRC_SUPPORT_ENV_H_
