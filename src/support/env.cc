#include "src/support/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

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

}  // namespace noctua::env
