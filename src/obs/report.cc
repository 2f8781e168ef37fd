#include "src/obs/report.h"

#include <algorithm>
#include <cstring>

#include "src/obs/json.h"
#include "src/support/strings.h"
#include "src/support/table.h"

namespace noctua::obs {

RunReport BuildRunReport(const Collector& collector, const std::string& app,
                         double total_seconds, double analyze_seconds,
                         double verify_seconds) {
  RunReport r;
  r.app = app;
  r.total_seconds = total_seconds;
  r.analyze_seconds = analyze_seconds;
  r.verify_seconds = verify_seconds;
  r.pairs_checked = collector.counter(Counter::kPairsChecked);
  r.pairs_per_second =
      verify_seconds > 0.0 ? static_cast<double>(r.pairs_checked) / verify_seconds : 0.0;
  r.trace_events = collector.events().size();
  for (const std::string& cat : collector.SpanCategories()) {
    r.span_categories.push_back(cat);
  }
  for (size_t i = 0; i < static_cast<size_t>(Counter::kNumCounters); ++i) {
    Counter c = static_cast<Counter>(i);
    uint64_t v = collector.counter(c);
    if (v != 0) {
      r.counters.push_back(CounterRow{CounterName(c), v});
    }
  }
  for (size_t i = 0; i < static_cast<size_t>(Hist::kNumHists); ++i) {
    Hist h = static_cast<Hist>(i);
    HistSummary s = collector.histogram(h);
    if (s.count != 0) {
      r.histograms.push_back(HistRow{HistName(h), s});
    }
  }
  // Slowest pair-category spans, by duration.
  std::vector<const TraceEvent*> pairs;
  for (const TraceEvent& ev : collector.events()) {
    if (std::strcmp(ev.category, kCatPair) == 0) {
      pairs.push_back(&ev);
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(), [](const TraceEvent* a, const TraceEvent* b) {
    return a->dur_us > b->dur_us;
  });
  size_t top = std::min(pairs.size(), kTopSlowestPairs);
  for (size_t i = 0; i < top; ++i) {
    SlowPair sp;
    sp.name = pairs[i]->name;
    sp.micros = pairs[i]->dur_us;
    for (const auto& [key, value] : pairs[i]->args) {
      if (std::strcmp(key, "solver_nodes") == 0) {
        sp.solver_nodes = value;
      } else if (std::strcmp(key, "cache_hits") == 0) {
        sp.cache_hits = value;
      }
    }
    r.slow_pairs.push_back(std::move(sp));
  }
  return r;
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.Take();
}

void RunReport::ToJson(JsonWriter& w) const {
  w.BeginObject().Key("app").String(app);
  w.Key("total_seconds").Double(total_seconds, 6);
  w.Key("analyze_seconds").Double(analyze_seconds, 6);
  w.Key("verify_seconds").Double(verify_seconds, 6);
  w.Key("pairs_checked").Uint(pairs_checked);
  w.Key("pairs_per_second").Double(pairs_per_second, 2);
  w.Key("trace_events").Uint(trace_events);
  w.Key("span_categories").BeginArray();
  for (const std::string& category : span_categories) {
    w.String(category);
  }
  w.EndArray().Key("counters").BeginObject();
  for (const CounterRow& c : counters) {
    w.Key(c.name).Uint(c.value);
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const HistRow& h : histograms) {
    WriteJson(w.Key(h.name), h.summary);
  }
  w.EndObject().Key("slow_pairs").BeginArray();
  for (const SlowPair& sp : slow_pairs) {
    w.BeginObject().Key("name").String(sp.name).Key("micros").Int(sp.micros);
    w.Key("solver_nodes").Uint(sp.solver_nodes).Key("cache_hits").Uint(sp.cache_hits);
    w.EndObject();
  }
  w.EndArray().EndObject();
}

std::string RunReport::ToTable() const {
  std::string out;
  out += "== run report: " + app + " ==\n";
  out += "  total    " + FormatDouble(total_seconds, 3) + " s\n";
  out += "  analyze  " + FormatDouble(analyze_seconds, 3) + " s\n";
  out += "  verify   " + FormatDouble(verify_seconds, 3) + " s   (" +
         std::to_string(pairs_checked) + " pairs, " + FormatDouble(pairs_per_second, 1) +
         " pairs/s)\n";
  out += "  trace    " + std::to_string(trace_events) + " events, categories: " +
         Join(span_categories, ",") + "\n";

  if (!counters.empty()) {
    TextTable t({"counter", "value"});
    for (const CounterRow& c : counters) {
      t.AddRow({c.name, std::to_string(c.value)});
    }
    out += "\n" + t.Render();
  }
  if (!histograms.empty()) {
    TextTable t({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const HistRow& h : histograms) {
      const HistSummary& s = h.summary;
      t.AddRow({h.name, std::to_string(s.count), FormatDouble(s.Mean(), 1),
                std::to_string(s.p50), std::to_string(s.p95), std::to_string(s.p99),
                std::to_string(s.max)});
    }
    out += "\n" + t.Render();
  }
  if (!slow_pairs.empty()) {
    TextTable t({"slowest pair", "micros", "solver_nodes", "cache_hits"});
    for (const SlowPair& sp : slow_pairs) {
      t.AddRow({sp.name, std::to_string(sp.micros), std::to_string(sp.solver_nodes),
                std::to_string(sp.cache_hits)});
    }
    out += "\n" + t.Render();
  }
  return out;
}

}  // namespace noctua::obs
