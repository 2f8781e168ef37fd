#include "src/support/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "src/support/check.h"

namespace noctua::env {

const char* Raw(const char* var) { return std::getenv(var); }

bool IsSet(const char* var) {
  const char* v = Raw(var);
  return v != nullptr && *v != '\0';
}

bool FlagSet(const char* var) {
  const char* v = Raw(var);
  return v != nullptr && v[0] == '1';
}

bool ParseLong(const std::string& text, long* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  long n = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = n;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = v;
  return true;
}

void WarnOnce(const char* var, const std::string& message) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lk(mu);
  if (!warned->insert(var).second) {
    return;
  }
  std::fprintf(stderr, "noctua: %s\n", message.c_str());
}

long PositiveIntOr(const char* var, long fallback, long cap) {
  const char* raw = Raw(var);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  long n = 0;
  if (!ParseLong(raw, &n) || n <= 0) {
    WarnOnce(var, std::string("ignoring ") + var + "=\"" + raw +
                      "\" (expected a positive integer); using the default");
    return fallback;
  }
  if (n > cap) {
    WarnOnce(var, std::string(var) + "=" + raw + " exceeds the " + std::to_string(cap) +
                      "-thread cap; clamping");
    return cap;
  }
  return n;
}

long NonNegativeIntOr(const char* var, long fallback, long cap) {
  const char* raw = Raw(var);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  long n = 0;
  if (!ParseLong(raw, &n) || n < 0) {
    WarnOnce(var, std::string("ignoring ") + var + "=\"" + raw +
                      "\" (expected a non-negative integer); using the default");
    return fallback;
  }
  if (n > cap) {
    WarnOnce(var, std::string(var) + "=" + raw + " exceeds the " + std::to_string(cap) +
                      " cap; clamping");
    return cap;
  }
  return n;
}

long RequireLongInRange(const char* var, long lo, long hi, long fallback) {
  const char* raw = Raw(var);
  if (raw == nullptr) {
    return fallback;
  }
  long n = 0;
  NOCTUA_CHECK_MSG(ParseLong(raw, &n), var << "=\"" << raw << "\" is not an integer");
  NOCTUA_CHECK_MSG(n >= lo && n <= hi,
                   var << "=" << n << " is outside [" << lo << ", " << hi << "]");
  return n;
}

double RequireDoubleInRange(const char* var, double lo, double hi, double fallback) {
  const char* raw = Raw(var);
  if (raw == nullptr) {
    return fallback;
  }
  double v = 0;
  NOCTUA_CHECK_MSG(ParseDouble(raw, &v), var << "=\"" << raw << "\" is not a number");
  NOCTUA_CHECK_MSG(v > lo && v <= hi,
                   var << "=" << v << " is outside (" << lo << ", " << hi << "]");
  return v;
}

bool RequireBool01(const char* var, bool fallback) {
  const char* raw = Raw(var);
  if (raw == nullptr) {
    return fallback;
  }
  NOCTUA_CHECK_MSG(std::string(raw) == "0" || std::string(raw) == "1",
                   var << "=\"" << raw << "\" must be 0 or 1");
  return raw[0] == '1';
}

}  // namespace noctua::env
