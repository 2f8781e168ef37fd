#include "src/obs/log.h"

#include <algorithm>
#include <chrono>

#include "src/obs/json.h"
#include "src/obs/obs.h"

namespace noctua::obs {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

EventLog::EventLog() = default;

EventLog::~EventLog() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

bool EventLog::Configure(LogLevel level, const std::string& path, std::string* error) {
  std::FILE* file = nullptr;
  if (!path.empty()) {
    file = std::fopen(path.c_str(), "a");
    if (file == nullptr) {
      if (error != nullptr) {
        *error = "cannot open log file: " + path;
      }
      return false;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
  }
  file_ = file;
  level_.store(level, std::memory_order_relaxed);
  return true;
}

void EventLog::Log(LogLevel level, const char* event,
                   std::initializer_list<LogField> fields) {
  if (!Enabled(level)) {
    return;
  }
  int64_t ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  JsonWriter w;
  w.BeginObject().Key("ts_ms").Int(ts_ms).Key("level").String(LogLevelName(level));
  w.Key("event").String(event);
  for (const LogField& f : fields) {
    w.Key(f.key);
    switch (f.kind) {
      case LogField::Kind::kString:
        w.String(f.str);
        break;
      case LogField::Kind::kUint:
        w.Uint(f.u64);
        break;
      case LogField::Kind::kInt:
        w.Int(f.i64);
        break;
      case LogField::Kind::kDouble:
        w.Double(f.f64, 6);
        break;
      case LogField::Kind::kBool:
        w.Bool(f.b);
        break;
    }
  }
  std::string line = w.EndObject().Take() + "\n";
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* sink = file_ != nullptr ? file_ : stderr;
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

LogRateLimiter::LogRateLimiter(double per_second, double burst)
    : per_second_(per_second),
      burst_(burst),
      tokens_(burst),
      last_us_(SteadyNowMicros()) {}

bool LogRateLimiter::Allow() {
  std::lock_guard<std::mutex> lk(mu_);
  int64_t now_us = SteadyNowMicros();
  double elapsed_s = static_cast<double>(now_us - last_us_) / 1e6;
  last_us_ = now_us;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * per_second_);
  if (tokens_ < 1.0) {
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

}  // namespace noctua::obs
