#include "src/verifier/report.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>

#include "src/obs/obs.h"
#include "src/smt/backend.h"
#include "src/soir/serialize.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/verifier/cache.h"

namespace noctua::verifier {

size_t RestrictionReport::num_restrictions() const {
  size_t n = 0;
  for (const PairVerdict& v : pairs) {
    n += v.Restricted() ? 1 : 0;
  }
  return n;
}

size_t RestrictionReport::com_failures() const {
  size_t n = 0;
  for (const PairVerdict& v : pairs) {
    n += OutcomeRestricts(v.commutativity) ? 1 : 0;
  }
  return n;
}

size_t RestrictionReport::sem_failures() const {
  size_t n = 0;
  for (const PairVerdict& v : pairs) {
    n += OutcomeRestricts(v.semantic) ? 1 : 0;
  }
  return n;
}

double RestrictionReport::com_seconds() const {
  double t = 0;
  for (const PairVerdict& v : pairs) {
    t += v.com_seconds;
  }
  return t;
}

double RestrictionReport::sem_seconds() const {
  double t = 0;
  for (const PairVerdict& v : pairs) {
    t += v.sem_seconds;
  }
  return t;
}

std::vector<std::string> RestrictionReport::RestrictedPairNames() const {
  std::vector<std::string> out;
  for (const PairVerdict& v : pairs) {
    if (v.Restricted()) {
      out.push_back("(" + v.p + ", " + v.q + ")");
    }
  }
  return out;
}

std::vector<std::string> RestrictionReport::VerdictLines() const {
  std::vector<std::string> out;
  out.reserve(pairs.size());
  for (const PairVerdict& v : pairs) {
    out.push_back(v.p + "|" + v.q + "|" + CheckOutcomeName(v.commutativity) + "|" +
                  CheckOutcomeName(v.semantic));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> RestrictionReport::RestrictedViewPairs()
    const {
  auto view_of = [](const std::string& op) { return op.substr(0, op.find('#')); };
  std::vector<std::pair<std::string, std::string>> out;
  for (const PairVerdict& v : pairs) {
    if (!v.Restricted()) {
      continue;
    }
    std::pair<std::string, std::string> vp{view_of(v.p), view_of(v.q)};
    if (std::find(out.begin(), out.end(), vp) == out.end()) {
      out.push_back(std::move(vp));
    }
  }
  return out;
}

std::string RestrictionReport::ToString() const {
  std::string out = "checks: " + std::to_string(num_checks()) +
                    ", restrictions: " + std::to_string(num_restrictions()) +
                    ", com failures: " + std::to_string(com_failures()) +
                    ", sem failures: " + std::to_string(sem_failures()) + "\n";
  for (const PairVerdict& v : pairs) {
    if (v.Restricted()) {
      out += "  (" + v.p + ", " + v.q + "): com=" + CheckOutcomeName(v.commutativity) +
             " sem=" + CheckOutcomeName(v.semantic) + "\n";
    }
  }
  return out;
}

namespace {

// One unordered pair of path indices, with its scheduling estimate.
struct PairJob {
  size_t i = 0;
  size_t j = 0;
  bool prefiltered = false;
  uint64_t cost = 0;
};

// One row of the path table: everything the pair loop needs about one path, computed
// once per run before the pool starts and only read afterwards.
struct PathRow {
  Checker::PathFacts facts;
  soir::PathFingerprint fingerprint;
};

// Size of the union of two sorted id lists.
size_t UnionSize(const std::vector<int>& a, const std::vector<int>& b) {
  size_t n = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++i;
      ++j;
    }
    ++n;
  }
  return n + static_cast<size_t>(a.end() - i) + static_cast<size_t>(b.end() - j);
}

// A crude but monotone cost proxy: command count of both paths times the size of the
// footprint closure the solver must reason about. Prefiltered pairs cost nothing.
uint64_t EstimateCost(const Checker::PathFacts& p, const Checker::PathFacts& q) {
  return static_cast<uint64_t>(p.path->commands.size() + q.path->commands.size()) *
         static_cast<uint64_t>(1 + UnionSize(p.scope_models, q.scope_models) +
                               UnionSize(p.scope_relations, q.scope_relations));
}

}  // namespace

RestrictionReport AnalyzeRestrictions(const Checker& checker,
                                      const std::vector<soir::CodePath>& paths,
                                      const ParallelOptions& parallel,
                                      const std::vector<soir::CodePath>& observers) {
  Stopwatch watch;
  obs::ScopedSpan run_span("AnalyzeRestrictions", obs::kCatVerify);
  const soir::Schema& schema = checker.schema();

  // The path table: each path's facts and fingerprint part, derived once here and
  // combined per pair below, so no pair walks or renders a path again. The fingerprint
  // is rendered only when verdicts are cached.
  std::vector<PathRow> rows(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    rows[i].facts = checker.Facts(paths[i]);
    if (parallel.cache) {
      rows[i].fingerprint = soir::FingerprintPath(schema, paths[i]);
    }
  }

  // Models whose insertion order any operation observes: their relative order is part of
  // state equality app-wide (a divergent order would be visible to those operations).
  // Read-only `observers` contribute here without being pair-checked themselves.
  std::set<int> order_models;
  for (const PathRow& row : rows) {
    order_models.insert(row.facts.order.begin(), row.facts.order.end());
  }
  for (const soir::CodePath& p : observers) {
    std::set<int> m = soir::OrderRelevantModels(p);
    order_models.insert(m.begin(), m.end());
  }

  // Enumerate pairs in the report's canonical (i, j >= i) order and estimate costs.
  std::vector<PairJob> jobs;
  jobs.reserve(paths.size() * (paths.size() + 1) / 2);
  for (size_t i = 0; i < paths.size(); ++i) {
    for (size_t j = i; j < paths.size(); ++j) {
      PairJob job;
      job.i = i;
      job.j = j;
      job.prefiltered = checker.Prefilterable(rows[i].facts, rows[j].facts);
      job.cost = job.prefiltered ? 0 : EstimateCost(rows[i].facts, rows[j].facts);
      jobs.push_back(job);
    }
  }

  // Cheapest-first dispatch order (stable: ties keep report order). Results still land
  // at their original index, so the schedule never shows in the output.
  std::vector<size_t> dispatch(jobs.size());
  std::iota(dispatch.begin(), dispatch.end(), size_t{0});
  if (parallel.cheapest_first) {
    std::stable_sort(dispatch.begin(), dispatch.end(),
                     [&](size_t a, size_t b) { return jobs[a].cost < jobs[b].cost; });
  }

  // Key heads: the options the verdicts depend on, then the rule. Verdicts are
  // backend-independent (the cross-backend soundness contract), so backends share keys.
  const std::string options_key = KeyOptions(checker.options());
  const std::string com_head = options_key + "|com";
  const std::string ni_head = options_key + "|ni";

  // A caller-provided store makes verdicts persistent across runs; its counters
  // accumulate, so report stats are computed as deltas from this snapshot.
  VerdictCache local_cache;
  VerdictCache* cache = parallel.store != nullptr ? parallel.store : &local_cache;
  const uint64_t hits_before = cache->hits();
  const uint64_t misses_before = cache->misses();
  const uint64_t evictions_before = cache->evictions();
  const bool use_cache = parallel.cache;
  std::atomic<uint64_t> prefiltered_count{0};
  std::atomic<uint64_t> solver_checks{0};
  std::atomic<uint64_t> solver_nodes{0};
  std::atomic<uint64_t> replayed_queries{0};
  std::atomic<uint64_t> paranoia_rechecks{0};

  RestrictionReport report;
  report.pairs.resize(jobs.size());

  // One solver-level query, answered from the verdict cache when an isomorphic query
  // already ran. Both outcomes and cache contents are scheduling-independent: isomorphic
  // queries have equal verdicts, so whichever worker computes first inserts the same
  // answer every interleaving. A timeout is never inserted: it says how much budget the
  // run had, not what the query's answer is (no key names max_nodes), so a twin query
  // re-solves it and no store keeps it. Replayed hits (entries loaded from a prior store) are additionally
  // subject to paranoia sampling: a per-fingerprint coin decides whether to re-solve and
  // cross-check, so the audited subset is the same for any thread count. A re-solve that
  // times out decides nothing, so it cannot disagree.
  auto cached_query = [&](const auto& key_fn, CheckStats* cs, const auto& compute) {
    std::string key;
    if (use_cache) {
      key = key_fn();
      std::optional<VerdictCache::Entry> hit;
      {
        obs::ScopedSpan probe("cache_probe", obs::kCatCache);
        hit = cache->LookupEntry(key);
        probe.Arg("hit", hit.has_value() ? 1 : 0);
      }
      if (hit) {
        cs->cache_hit = true;
        cs->replayed = hit->replayed;
        if (hit->replayed) {
          replayed_queries.fetch_add(1, std::memory_order_relaxed);
          if (parallel.paranoia > 0) {
            Rng coin(soir::Fnv1a64(key) ^ parallel.paranoia_seed);
            if (coin.Chance(parallel.paranoia)) {
              CheckStats recheck;
              CheckOutcome fresh = compute(&recheck);
              solver_checks.fetch_add(1, std::memory_order_relaxed);
              solver_nodes.fetch_add(recheck.solver_nodes, std::memory_order_relaxed);
              paranoia_rechecks.fetch_add(1, std::memory_order_relaxed);
              NOCTUA_CHECK_MSG(fresh == hit->outcome || fresh == CheckOutcome::kTimeout,
                               "paranoia recheck disagrees with replayed verdict ("
                                   << CheckOutcomeName(fresh) << " vs "
                                   << CheckOutcomeName(hit->outcome)
                                   << ") — the artifact store is corrupt; key: " << key);
            }
          }
        }
        return hit->outcome;
      }
    }
    CheckOutcome o = compute(cs);
    solver_checks.fetch_add(1, std::memory_order_relaxed);
    solver_nodes.fetch_add(cs->solver_nodes, std::memory_order_relaxed);
    if (use_cache && o != CheckOutcome::kTimeout) {
      cache->Insert(key, o);
    }
    return o;
  };

  // The submitting thread's request-scoped trace context, captured once so every pool
  // task below re-installs it: per-pair spans inherit the service request (if any) that
  // scheduled this run, even when they execute on a shared pool worker.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();

  auto run_job = [&](size_t k) {
    obs::ScopedTraceContext trace_scope(trace_ctx);
    const PairJob& job = jobs[k];
    const PathRow& rp = rows[job.i];
    const PathRow& rq = rows[job.j];
    const soir::CodePath& p = paths[job.i];
    const soir::CodePath& q = paths[job.j];
    // Dynamic span name only when recording — the concatenation is not free.
    std::string span_name;
    if (obs::Enabled()) {
      span_name = p.op_name + "|" + q.op_name;
    }
    obs::ScopedSpan pair_span(std::move(span_name), obs::kCatPair);
    Stopwatch pair_watch;
    PairVerdict v;
    v.p = p.op_name;
    v.q = q.op_name;
    if (job.prefiltered) {
      v.prefiltered = true;
      v.provenance = PairProvenance::kPrefiltered;
      prefiltered_count.fetch_add(1, std::memory_order_relaxed);
    } else {
      // One session per pair: the commutativity query and both NotInvalidate directions
      // share a term factory, a backend, and the grounding of their common frame. A
      // cache hit just skips the session's corresponding query; a pair whose three
      // verdicts all hit never builds anything.
      Checker::PairSession session(checker, rp.facts, rq.facts, &order_models);
      Stopwatch com_watch;
      CheckStats cs;
      v.commutativity = cached_query(
          [&] { return PairKey(com_head, rp.fingerprint, rq.fingerprint, {&order_models}); },
          &cs, [&](CheckStats* st) { return session.Commutativity(st); });
      v.com_seconds = com_watch.ElapsedSeconds();
      v.solver_nodes += cs.solver_nodes;
      v.cache_hits += cs.cache_hit ? 1 : 0;

      // The semantic rule, with each direction cached separately: NotInvalidate(P, P)
      // appears twice in every self-pair, and viewset twins share both directions.
      Stopwatch sem_watch;
      CheckStats s1, s2;
      // NotInvalidate compares under the pair's own order set in both directions.
      const std::set<int>* ord_p = &rp.facts.order;
      const std::set<int>* ord_q = &rq.facts.order;
      CheckOutcome a = cached_query(
          [&] { return PairKey(ni_head, rp.fingerprint, rq.fingerprint, {ord_p, ord_q}); },
          &s1, [&](CheckStats* st) { return session.NotInvalidatePQ(st); });
      CheckOutcome b = CheckOutcome::kPass;
      if (a == CheckOutcome::kPass) {
        b = cached_query(
            [&] { return PairKey(ni_head, rq.fingerprint, rp.fingerprint, {ord_p, ord_q}); },
            &s2, [&](CheckStats* st) { return session.NotInvalidateQP(st); });
      }
      v.semantic = Checker::WorseOutcome(a, b);
      v.sem_seconds = sem_watch.ElapsedSeconds();
      v.solver_nodes += s1.solver_nodes + s2.solver_nodes;
      v.cache_hits += (s1.cache_hit ? 1 : 0) + (s2.cache_hit ? 1 : 0);

      // A pair replays only if *every* verdict it needed came from the prior store; a
      // twin-cache hit computed this run still means this run did the (shared) work.
      bool all_replayed = cs.replayed && s1.replayed &&
                          (a != CheckOutcome::kPass || s2.replayed);
      v.provenance = all_replayed ? PairProvenance::kReplayed : PairProvenance::kComputed;
    }
    if (obs::Enabled()) {
      pair_span.Arg("solver_nodes", v.solver_nodes);
      pair_span.Arg("cache_hits", v.cache_hits);
      pair_span.Arg("prefiltered", v.prefiltered ? 1 : 0);
      if (!v.prefiltered) {
        obs::Observe(obs::Hist::kPairMicros,
                     static_cast<uint64_t>(pair_watch.ElapsedSeconds() * 1e6));
      }
    }
    report.pairs[k] = std::move(v);
  };

  // Either borrow the caller's long-lived pool (engine mode) or spin up a run-local one.
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = parallel.pool;
  if (pool == nullptr) {
    local_pool.emplace(ThreadPool::DefaultThreads());
    pool = &*local_pool;
  }
  pool->ParallelFor(jobs.size(), run_job, parallel.cheapest_first ? &dispatch : nullptr);

  report.stats.threads_used = pool->threads();
  report.stats.pairs = jobs.size();
  report.stats.prefiltered = prefiltered_count.load();
  report.stats.solver_checks = solver_checks.load();
  report.stats.cache_hits = cache->hits() - hits_before;
  report.stats.cache_misses = cache->misses() - misses_before;
  report.stats.replayed = replayed_queries.load();
  report.stats.paranoia_rechecks = paranoia_rechecks.load();
  report.stats.solver_nodes = solver_nodes.load();
  report.stats.cache_evictions = cache->evictions() - evictions_before;
  report.stats.solver_backend = smt::MakeBackend(checker.options().solver)->name();
  for (const PairVerdict& v : report.pairs) {
    report.stats.check_seconds += v.com_seconds + v.sem_seconds;
    if (v.provenance == PairProvenance::kReplayed) {
      ++report.stats.pairs_replayed;
    } else if (v.provenance == PairProvenance::kComputed) {
      ++report.stats.pairs_computed;
    }
  }
  report.total_seconds = watch.ElapsedSeconds();

  if (obs::Enabled()) {
    // One-shot counter feed from the assembled stats — nothing in the pair loop
    // incremented obs counters directly.
    const ReportStats& st = report.stats;
    obs::Add(obs::Counter::kPairsChecked, st.pairs);
    obs::Add(obs::Counter::kPairsPrefiltered, st.prefiltered);
    obs::Add(obs::Counter::kSolverChecks, st.solver_checks);
    obs::Add(obs::Counter::kCacheHits, st.cache_hits);
    obs::Add(obs::Counter::kCacheMisses, st.cache_misses);
    obs::Add(obs::Counter::kCacheReplayed, st.replayed);
    obs::Add(obs::Counter::kCacheEvictions, st.cache_evictions);
    obs::Add(obs::Counter::kPairsReplayed, st.pairs_replayed);
    obs::Add(obs::Counter::kPairsComputed, st.pairs_computed);
    obs::Add(obs::Counter::kParanoiaRechecks, st.paranoia_rechecks);
    uint64_t timeouts = 0;
    uint64_t unsupported = 0;
    for (const PairVerdict& v : report.pairs) {
      for (CheckOutcome o : {v.commutativity, v.semantic}) {
        timeouts += o == CheckOutcome::kTimeout ? 1 : 0;
        unsupported += o == CheckOutcome::kUnsupported ? 1 : 0;
      }
    }
    obs::Add(obs::Counter::kVerifierTimeouts, timeouts);
    obs::Add(obs::Counter::kVerifierUnsupported, unsupported);
    run_span.Arg("pairs", st.pairs);
    run_span.Arg("solver_checks", st.solver_checks);
    run_span.Arg("threads", static_cast<uint64_t>(st.threads_used));
  }
  return report;
}

}  // namespace noctua::verifier
