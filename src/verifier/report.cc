#include "src/verifier/report.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "src/obs/obs.h"
#include "src/smt/backend.h"
#include "src/support/check.h"
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

// A pair's queries: commutativity, NotInvalidate(P, Q), and NotInvalidate(Q, P), which
// the pair asks only when NotInvalidate(P, Q) passes.
enum Rule { kCom, kPQ, kQP };

// One unordered pair of path indices, with its scheduling estimate and, unless
// prefiltered, its queries (indices into the run's distinct queries, by Rule).
struct PairJob {
  size_t i = 0;
  size_t j = 0;
  bool prefiltered = false;
  uint64_t cost = 0;
  std::array<size_t, 3> queries{};
};

// One distinct query of a run. The plan names its owner, the one pair that answers it;
// only the owner writes the rest, in the pool, and the calling thread reads it after.
struct Query {
  size_t owner = 0;
  bool answered = false;
  bool hit = false;       // served by the verdict cache
  bool replayed = false;  // served by an entry loaded from a prior store
  uint8_t checks = 0;     // solver calls spent: a solve, or a paranoia re-solve of a hit
  CheckOutcome outcome = CheckOutcome::kPass;
  VerdictCache::Key key;  // the verdict-cache key, when caching
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

  // A caller-provided store makes verdicts persistent across runs.
  VerdictCache local_cache;
  VerdictCache* cache = parallel.store != nullptr ? parallel.store : &local_cache;
  const bool use_cache = parallel.cache;

  // The plan, on this thread: every distinct query of the run gets one slot and one
  // owner, the first pair in dispatch order that asks it unconditionally, else the first
  // that asks it as NotInvalidate(Q, P). Each row's part is interned in the cache once,
  // and each ask's key is built from its rows' part ids and its tail; the slot keeps the
  // key of its first ask. Swapping a NotInvalidate key's parts, link and order bits gives
  // the key of the other direction, so pairs that share a NotInvalidate(Q, P) query share
  // their NotInvalidate(P, Q) query too. So the first pair to ask a NotInvalidate(Q, P)
  // query that no pair asks unconditionally also owns its NotInvalidate(P, Q) query, and
  // decides in its own session whether the first is needed: no worker waits on another.
  // Without caching each pair owns its own three queries.
  std::vector<Query> queries;
  {
    std::vector<uint32_t> part(rows.size());
    for (size_t i = 0; use_cache && i < rows.size(); ++i) {
      part[i] = cache->InternPart(rows[i].fingerprint.text);
    }
    std::unordered_map<VerdictCache::Key, size_t, VerdictCache::KeyHash> named;
    VerdictCache::Key key;  // each ask's, in one buffer; the map copies a new query's
    for (Rule rule : {kCom, kPQ, kQP}) {
      for (size_t k : dispatch) {
        PairJob& job = jobs[k];
        if (job.prefiltered) {
          continue;
        }
        const size_t a = rule == kQP ? job.j : job.i;
        const size_t b = rule == kQP ? job.i : job.j;
        size_t& slot = job.queries[rule];
        slot = queries.size();
        if (use_cache) {
          key.head = rule == kCom ? com_head : ni_head;
          key.p = part[a];
          key.q = part[b];
          key.tail.clear();
          if (rule == kCom) {
            AppendPairTail(&key.tail, rows[a].fingerprint, rows[b].fingerprint,
                           {&order_models});
          } else {
            AppendPairTail(&key.tail, rows[a].fingerprint, rows[b].fingerprint,
                           {&rows[a].facts.order, &rows[b].facts.order});
          }
          slot = named.try_emplace(key, slot).first->second;
        }
        if (slot == queries.size()) {
          queries.emplace_back().owner = k;
        }
        NOCTUA_CHECK_MSG(rule != kQP || queries[slot].owner != k ||
                             queries[job.queries[kPQ]].owner == k,
                         "the owner of a NotInvalidate(Q, P) query must own its "
                         "NotInvalidate(P, Q) query");
      }
    }
    // Each slot takes its query's key out of the map, which the plan no longer needs.
    while (!named.empty()) {
      auto node = named.extract(named.begin());
      queries[node.mapped()].key = std::move(node.key());
    }
  }

  RestrictionReport report;
  report.pairs.resize(jobs.size());

  // The submitting thread's request-scoped trace context, captured once so every pool
  // task below re-installs it: per-pair spans inherit the service request (if any) that
  // scheduled this run, even when they execute on a shared pool worker.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();

  // A pair task answers the queries its pair owns and writes only those and its own
  // report slot. An owner probes the cache with the key the plan built, and solves on a
  // miss; the cache is only read while the pool runs. Under paranoia the owner of a
  // replayed hit (an entry loaded from a prior store) re-solves it and cross-checks, so
  // each replayed verdict is audited once, at any thread count. A re-solve that times out
  // decides nothing, so it cannot disagree.
  auto run_job = [&](size_t k) {
    obs::ScopedTraceContext trace_scope(trace_ctx);
    const PairJob& job = jobs[k];
    const PathRow& rp = rows[job.i];
    const PathRow& rq = rows[job.j];
    PairVerdict& v = report.pairs[k];
    v.p = paths[job.i].op_name;
    v.q = paths[job.j].op_name;
    // Dynamic span name only when recording — the concatenation is not free.
    std::string span_name;
    if (obs::Enabled()) {
      span_name = v.p + "|" + v.q;
    }
    obs::ScopedSpan pair_span(std::move(span_name), obs::kCatPair);
    Stopwatch pair_watch;
    uint64_t hits = 0;
    if (job.prefiltered) {
      v.prefiltered = true;
      v.provenance = PairProvenance::kPrefiltered;
    } else {
      // One session per pair: its queries share a term factory, a backend, and one
      // encoding. A pair whose owned queries all hit, or that owns none, builds nothing.
      Checker::PairSession session(checker, rp.facts, rq.facts, &order_models);
      // A self-pair asks one NotInvalidate query in both directions; it answers it once.
      auto answer = [&](Rule rule, CheckOutcome (Checker::PairSession::*ask)(CheckStats*)) {
        Query& s = queries[job.queries[rule]];
        if (s.owner != k || s.answered) {
          return;
        }
        s.answered = true;
        if (use_cache) {
          std::optional<VerdictCache::Entry> hit;
          {
            obs::ScopedSpan probe("cache_probe", obs::kCatCache);
            hit = cache->LookupEntry(s.key);
            probe.Arg("hit", hit.has_value() ? 1 : 0);
          }
          if (hit) {
            s.hit = true;
            s.replayed = hit->replayed;
            s.outcome = hit->outcome;
            ++hits;
            if (!hit->replayed || !parallel.paranoia) {
              return;
            }
          }
        }
        CheckStats stats;
        const CheckOutcome fresh = (session.*ask)(&stats);
        s.checks = 1;
        v.solver_nodes += stats.solver_nodes;
        NOCTUA_CHECK_MSG(!s.hit || fresh == s.outcome || fresh == CheckOutcome::kTimeout,
                         "paranoia recheck disagrees with replayed verdict ("
                             << CheckOutcomeName(fresh) << " vs " << CheckOutcomeName(s.outcome)
                             << ") — the artifact store is corrupt; pair: (" << v.p << ", "
                             << v.q << ")");
        if (!s.hit) {
          s.outcome = fresh;
        }
      };
      Stopwatch com_watch;
      answer(kCom, &Checker::PairSession::Commutativity);
      v.com_seconds = com_watch.ElapsedSeconds();
      Stopwatch sem_watch;
      answer(kPQ, &Checker::PairSession::NotInvalidatePQ);
      // The plan gave this pair its NotInvalidate(P, Q) query if it gave it the mirror.
      if (queries[job.queries[kQP]].owner == k &&
          queries[job.queries[kPQ]].outcome == CheckOutcome::kPass) {
        answer(kQP, &Checker::PairSession::NotInvalidateQP);
      }
      v.sem_seconds = sem_watch.ElapsedSeconds();
    }
    if (obs::Enabled()) {
      // What this pair itself solved and was served.
      pair_span.Arg("solver_nodes", v.solver_nodes);
      pair_span.Arg("cache_hits", hits);
      pair_span.Arg("prefiltered", v.prefiltered ? 1 : 0);
      if (!v.prefiltered) {
        obs::Observe(obs::Hist::kPairMicros,
                     static_cast<uint64_t>(pair_watch.ElapsedSeconds() * 1e6));
      }
    }
  };

  // Either borrow the caller's long-lived pool (engine mode) or spin up a run-local one.
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = parallel.pool;
  if (pool == nullptr) {
    local_pool.emplace(ThreadPool::DefaultThreads());
    pool = &*local_pool;
  }
  pool->ParallelFor(jobs.size(), run_job, parallel.cheapest_first ? &dispatch : nullptr);

  // Assembly, on this thread again: each pair reads its verdicts from the slots. Each
  // read other than an owner's probe is served without a solve and counts as a cache
  // hit, as it would at one thread with the twin's verdict inserted.
  ReportStats& st = report.stats;
  uint64_t reads = 0;
  for (size_t k = 0; k < jobs.size(); ++k) {
    PairVerdict& v = report.pairs[k];
    if (!v.prefiltered) {
      bool all_replayed = true;
      auto read = [&](Rule rule) {
        const Query& s = queries[jobs[k].queries[rule]];
        NOCTUA_CHECK_MSG(s.answered, "no pair answered a query that (" << v.p << ", " << v.q
                                                                        << ") needs");
        ++reads;
        st.replayed += s.replayed ? 1 : 0;
        all_replayed = all_replayed && s.replayed;
        return s.outcome;
      };
      v.commutativity = read(kCom);
      const CheckOutcome a = read(kPQ);
      v.semantic = a == CheckOutcome::kPass ? read(kQP) : a;
      // A pair replays only if *every* verdict it needed came from the prior store; a
      // verdict its owner computed this run means this run did the (shared) work.
      v.provenance = all_replayed ? PairProvenance::kReplayed : PairProvenance::kComputed;
    }
    st.prefiltered += v.prefiltered ? 1 : 0;
    st.pairs_replayed += v.provenance == PairProvenance::kReplayed ? 1 : 0;
    st.pairs_computed += v.provenance == PairProvenance::kComputed ? 1 : 0;
    st.solver_nodes += v.solver_nodes;
    st.check_seconds += v.com_seconds + v.sem_seconds;
  }
  // The new verdicts join the cache. A timeout is never inserted: it says how much
  // budget the run had, not what the query's answer is (no key names max_nodes), so no
  // store keeps it; within the run its twins read it, since they share its budget.
  const uint64_t evictions_before = cache->evictions();
  for (Query& s : queries) {
    st.solver_checks += s.checks;
    if (s.hit) {
      st.paranoia_rechecks += s.checks;
    } else if (s.answered && use_cache) {
      ++st.cache_misses;
      if (s.outcome != CheckOutcome::kTimeout) {
        cache->Insert(std::move(s.key), s.outcome);
      }
    }
  }
  st.cache_hits = use_cache ? reads - st.cache_misses : 0;
  st.cache_evictions = cache->evictions() - evictions_before;
  st.threads_used = pool->threads();
  st.pairs = jobs.size();
  st.solver_backend = smt::MakeBackend(checker.options().solver)->name();
  report.total_seconds = watch.ElapsedSeconds();

  if (obs::Enabled()) {
    // One-shot counter feed from the assembled stats — nothing in the pair loop
    // incremented obs counters directly.
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
