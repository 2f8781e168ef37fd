#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/apps/apps.h"
#include "src/obs/json.h"
#include "src/soir/serialize.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"

namespace perfbench {

using noctua::verifier::CheckOutcome;
using noctua::verifier::PairVerdict;
using noctua::verifier::RestrictionReport;

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},          {"wall_s", "s"},          {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},     {"zhihu_s", "s"},         {"ownphotos_s", "s"},
      {"small_apps_s", "s"},
      {"req_p50_ms", "ms"},      {"req_p95_ms", "ms"},     {"warm_req_p95_ms", "ms"},
      {"throughput_rps", "1/s"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"analyzer.s", "s"},
      {"analyzer.paths", "count"},
      {"analyzer.effectful", "count"},
      {"verifier.s", "s"},
      {"verifier.busy_s", "s"},
      {"verifier.pairs", "count"},
      {"verifier.prefiltered", "count"},
      {"verifier.encode_s", "s"},
      {"verifier.max_pair_s", "s"},
      {"verifier.tail_frac", "ratio"},
      {"verifier.outcome.pass", "count"},
      {"verifier.outcome.fail", "count"},
      {"verifier.outcome.timeout", "count"},
      {"verifier.outcome.unsupported", "count"},
      {"smt.solve_s", "s"},
      {"smt.checks", "count"},
      {"smt.nodes", "count"},
      {"smt.evaluations", "count"},
      {"smt.ground_expansions", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.probe_s", "s"},
      {"cache.duplicate_solves", "count"},
      {"pool.busy_frac", "ratio"},
      {"pool.steals", "count"},
      {"pool.speedup_4v1", "ratio"},
      {"session.load_ms", "ms"},
      {"session.save_ms", "ms"},
      {"session.pairs_replayed", "count"},
      {"session.pairs_computed", "count"},
      {"service.queue_wait_ms_p95", "ms"},
      {"service.handle_ms_p95", "ms"},
      {"service.outside_run_ms_p95", "ms"},
      {"service.rejected", "count"},
      {"service.solver_checks", "count"},
      {"trace.overhead_frac", "ratio"},
      {"exact.analyzer.paths", "count"},
      {"exact.verifier.pairs", "count"},
      {"exact.verifier.prefiltered", "count"},
      {"exact.smt.checks", "count"},
      {"exact.smt.nodes", "count"},
      {"exact.smt.evaluations", "count"},
      {"exact.smt.ground_expansions", "count"},
      {"exact.cache.hits", "count"},
      {"exact.cache.duplicate_solves", "count"},
      {"exact.timed_out_pairs", "count"},
  };
  return kSpecs;
}

void PrintResult(const std::vector<MetricSpec>& specs, const Values& values, bool allow_missing,
                 uint64_t attempted, uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    if (it == values.end() && !allow_missing) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", specs[i].name);
      std::abort();
    }
    double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += std::string(i == 0 ? "\"" : ", \"") + specs[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

void PrintInfo(const std::string& json_object) {
  std::fputs((json_object + "\n").c_str(), stdout);
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(std::floor(q * static_cast<double>(v.size())));
  return v[std::min(i, v.size() - 1)];
}

bool SetupTimer::Burst() {
  std::vector<double> burst;
  noctua::Stopwatch window;
  while (burst.size() < 11 || window.ElapsedSeconds() < 0.1) {
    const double seconds = set_up_();
    if (seconds < 0) {
      return false;
    }
    burst.push_back(seconds);
  }
  std::fprintf(stderr, "perfbench: set-up burst of %zu, median %.1f us\n", burst.size(),
               Median(burst) * 1e6);
  samples_.insert(samples_.end(), burst.begin(), burst.end());
  return true;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int BenchThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

noctua::EngineConfig BenchEngineConfig() {
  noctua::EngineConfig config;
  config.threads = BenchThreads();
  return config;
}

std::vector<size_t> SeededOrder(uint64_t* rng_state, size_t n) {
  noctua::Rng rng(*rng_state);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  *rng_state = rng.Next();
  return order;
}

// ---- Reference verdicts ----------------------------------------------------------------

uint64_t PairListDigest(const std::vector<std::string>& pairs) {
  std::string joined;
  for (const std::string& p : pairs) {
    joined += p;
    joined += '\n';
  }
  return noctua::soir::Fnv1a64(joined);
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

namespace {

// "(A, B)" -> {min, max} of the two names.
std::pair<std::string, std::string> UnorderedPair(const std::string& a, const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

bool ParsePairLine(const std::string& line, std::pair<std::string, std::string>* out) {
  size_t comma = line.find(", ");
  if (line.size() < 6 || line.front() != '(' || line.back() != ')' ||
      comma == std::string::npos) {
    return false;
  }
  *out = UnorderedPair(line.substr(1, comma - 1),
                       line.substr(comma + 2, line.size() - comma - 3));
  return true;
}

}  // namespace

bool LoadReferences(const std::string& dir, std::map<std::string, Reference>* out,
                    std::string* error) {
  for (const noctua::apps::AppEntry& entry : noctua::apps::EvaluatedApps()) {
    const std::string path = dir + "/" + entry.name + ".txt";
    std::ifstream in(path);
    if (!in) {
      *error = "missing reference " + path;
      return false;
    }
    Reference ref;
    std::string level;
    std::string fnv;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') {
        continue;
      }
      if (line.rfind("level ", 0) == 0) {
        level = line.substr(6);
      } else if (line.rfind("fnv1a64 ", 0) == 0) {
        fnv = line.substr(8);
      } else if (line.rfind("budget-sensitive ", 0) == 0) {
        ref.budget_sensitive.insert(line.substr(17));
      } else {
        std::pair<std::string, std::string> unused;
        if (!ParsePairLine(line, &unused)) {
          *error = path + ": malformed pair line \"" + line + "\"";
          return false;
        }
        ref.pairs.push_back(line);
      }
    }
    if (level != "path" && level != "view") {
      *error = path + ": missing \"level path|view\" line";
      return false;
    }
    ref.view_level = level == "view";
    if (!ref.view_level && fnv != Hex64(PairListDigest(ref.pairs))) {
      *error = path + ": pair lines do not match the recorded fnv1a64 " + fnv;
      return false;
    }
    (*out)[entry.name] = std::move(ref);
  }
  return true;
}

bool WriteReference(const std::string& dir, const std::string& app,
                    const std::vector<std::string>& pairs,
                    const std::set<std::string>& budget_sensitive, std::string* error) {
  const std::string path = dir + "/" + app + ".txt";
  std::ofstream out(path);
  out << "# Restricted pairs of " << app << ", in report order, captured from a cold\n"
      << "# analyze+verify with the deterministic node budget (no wall-clock deadline).\n"
      << "# budget-sensitive: pass under that budget, but timed out at least once under\n"
      << "# the default 2 s wall-clock budget during capture.\n"
      << "level path\n"
      << "fnv1a64 " << Hex64(PairListDigest(pairs)) << "\n";
  for (const std::string& p : budget_sensitive) {
    out << "budget-sensitive " << p << "\n";
  }
  for (const std::string& p : pairs) {
    out << p << "\n";
  }
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

std::vector<std::string> WithoutBudgetSensitive(const Reference& ref,
                                                const std::vector<std::string>& names,
                                                bool* flipped) {
  std::vector<std::string> out;
  for (const std::string& n : names) {
    if (ref.budget_sensitive.count(n) != 0) {
      *flipped = true;
    } else {
      out.push_back(n);
    }
  }
  return out;
}

bool MatchesReference(const Reference& ref, const std::vector<std::string>& names,
                      bool* flipped) {
  if (!ref.view_level) {
    return WithoutBudgetSensitive(ref, names, flipped) == ref.pairs;
  }
  auto view_pairs = [](const std::vector<std::string>& lines) {
    auto view_of = [](const std::string& op) { return op.substr(0, op.find('#')); };
    std::set<std::pair<std::string, std::string>> out;
    for (const std::string& line : lines) {
      std::pair<std::string, std::string> p;
      if (ParsePairLine(line, &p)) {
        out.insert(UnorderedPair(view_of(p.first), view_of(p.second)));
      }
    }
    return out;
  };
  return view_pairs(names) == view_pairs(ref.pairs);
}

uint64_t TimedOutPairs(const RestrictionReport& report) {
  uint64_t n = 0;
  for (const PairVerdict& v : report.pairs) {
    if (v.commutativity == CheckOutcome::kTimeout || v.semantic == CheckOutcome::kTimeout) {
      ++n;
    }
  }
  return n;
}

// ---- Trace analysis --------------------------------------------------------------------

TraceStats AnalyzeTrace(const std::vector<noctua::obs::TraceEvent>& events) {
  TraceStats stats;
  std::map<int, std::vector<const noctua::obs::TraceEvent*>> by_thread;
  for (const noctua::obs::TraceEvent& ev : events) {
    by_thread[ev.tid].push_back(&ev);
    stats.total_seconds[ev.name] += ev.dur_us * 1e-6;
    stats.category_total_seconds[ev.category] += ev.dur_us * 1e-6;
    if (std::string(ev.category) == noctua::obs::kCatPair) {
      stats.max_pair_seconds = std::max(stats.max_pair_seconds, ev.dur_us * 1e-6);
    }
  }
  for (auto& [tid, evs] : by_thread) {
    // Parents sort before the children they contain: earlier start, then longer span.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    struct Open {
      const noctua::obs::TraceEvent* ev;
      int64_t covered_us;
    };
    std::vector<Open> stack;
    auto finish = [&](const Open& o) {
      stats.self_seconds[o.ev->category] += (o.ev->dur_us - o.covered_us) * 1e-6;
    };
    for (const noctua::obs::TraceEvent* ev : evs) {
      while (!stack.empty() && stack.back().ev->ts_us + stack.back().ev->dur_us <= ev->ts_us) {
        finish(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().covered_us += ev->dur_us;
      }
      stack.push_back({ev, 0});
    }
    for (const Open& o : stack) {
      finish(o);
    }
  }
  return stats;
}

void AddCollectorLayers(const noctua::obs::Collector& collector, const TraceStats& trace,
                        Values* v) {
  using noctua::obs::Counter;
  auto count = [&](Counter c) { return static_cast<double>(collector.counter(c)); };
  auto self = [&](const char* category) {
    auto it = trace.self_seconds.find(category);
    return it == trace.self_seconds.end() ? 0.0 : it->second;
  };
  (*v)["verifier.pairs"] = count(Counter::kPairsChecked);
  (*v)["verifier.prefiltered"] = count(Counter::kPairsPrefiltered);
  (*v)["verifier.encode_s"] = self(noctua::obs::kCatEncode);
  (*v)["verifier.max_pair_s"] = trace.max_pair_seconds;
  (*v)["smt.solve_s"] = self(noctua::obs::kCatSolve);
  (*v)["smt.checks"] = count(Counter::kSolverChecks);
  (*v)["smt.nodes"] = count(Counter::kSolverNodes);
  (*v)["smt.evaluations"] = count(Counter::kSolverAssignments);
  (*v)["smt.ground_expansions"] = count(Counter::kGroundExpansions);
  double hits = count(Counter::kCacheHits);
  double misses = count(Counter::kCacheMisses);
  (*v)["cache.hits"] = hits;
  (*v)["cache.misses"] = misses;
  (*v)["cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*v)["cache.probe_s"] = self(noctua::obs::kCatCache);
  (*v)["pool.steals"] = count(Counter::kPoolSteals);
}

bool WriteAndValidateTrace(const std::vector<noctua::obs::TraceEvent>& events,
                           uint64_t max_trace, const std::string& path,
                           const std::set<std::string>& span_names,
                           const std::set<std::string>& categories, std::string* error) {
  {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    bool first = true;
    for (const noctua::obs::TraceEvent& ev : events) {
      if (ev.trace > max_trace) {
        continue;
      }
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << noctua::obs::JsonEscape(ev.name)
          << "\", \"cat\": \"" << noctua::obs::JsonEscape(ev.category)
          << "\", \"ph\": \"X\", \"ts\": " << ev.ts_us << ", \"dur\": " << ev.dur_us
          << ", \"pid\": 1, \"tid\": " << ev.tid << ", \"args\": {\"trace\": " << ev.trace;
      for (const auto& [key, value] : ev.args) {
        out << ", \"" << noctua::obs::JsonEscape(key) << "\": " << value;
      }
      out << "}}";
      first = false;
    }
    out << "\n], \"displayTimeUnit\": \"ms\"}\n";
    if (!out) {
      *error = "cannot write trace " + path;
      return false;
    }
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string parse_error;
  noctua::obs::JsonPtr doc = noctua::obs::ParseJson(text.str(), &parse_error);
  if (doc == nullptr || doc->Get("traceEvents") == nullptr ||
      !doc->Get("traceEvents")->is_array()) {
    *error = "trace " + path + " does not parse: " + parse_error;
    return false;
  }
  std::set<std::string> names_seen;
  std::set<std::string> categories_seen;
  for (const noctua::obs::JsonPtr& ev : doc->Get("traceEvents")->AsArray()) {
    if (noctua::obs::JsonPtr name = ev->Get("name"); name != nullptr && name->is_string()) {
      names_seen.insert(name->AsString());
    }
    if (noctua::obs::JsonPtr cat = ev->Get("cat"); cat != nullptr && cat->is_string()) {
      categories_seen.insert(cat->AsString());
    }
  }
  for (const std::string& name : span_names) {
    if (names_seen.count(name) == 0) {
      *error = "trace " + path + " lacks benchmark span \"" + name + "\"";
      return false;
    }
  }
  for (const std::string& cat : categories) {
    if (categories_seen.count(cat) == 0) {
      *error = "trace " + path + " lacks span category \"" + cat + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
