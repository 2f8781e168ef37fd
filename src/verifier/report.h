// Restriction-set assembly: runs both checking rules over every unordered pair of
// effectful code paths (including each path with itself) and aggregates the paper's
// Table 5/6 statistics.
//
// The pair loop is parallel (one pool cursor, per-worker term factories), cached
// (canonical-fingerprint verdict cache shared across pairs), and scheduled cheapest
// first (prefilter hits retire before expensive SMT pairs start). Before the pool starts,
// each distinct query gets one owner pair, the only one that probes the cache for it or
// solves it. Results are written into index-addressed slots, so the report's pair order
// — and every verdict and count in it — is identical for any thread count.
#ifndef SRC_VERIFIER_REPORT_H_
#define SRC_VERIFIER_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/soir/ast.h"
#include "src/verifier/checker.h"

namespace noctua {
class ThreadPool;
}  // namespace noctua

namespace noctua::verifier {

class VerdictCache;

// Execution knobs for AnalyzeRestrictions, orthogonal to what is checked
// (CheckerOptions) — these change only how fast the same verdicts are produced.
struct ParallelOptions {
  // Share solver verdicts between pairs whose queries are isomorphic up to renaming.
  bool cache = true;
  // Dispatch pairs cheapest-first (prefiltered pairs, then by footprint-size estimate).
  bool cheapest_first = true;
  // External verdict store to use instead of a run-local cache. The incremental engine
  // seeds it from a prior run's artifact (VerdictCache::LoadFromFile) so unchanged pairs
  // replay without a solver call; new verdicts are inserted into it, so saving it after
  // the run persists the union. Ignored when `cache` is false. nullptr = run-local.
  VerdictCache* store = nullptr;
  // Re-solve every *replayed* verdict anyway and CHECK-fail if the fresh outcome
  // disagrees (a fresh timeout decides nothing and is not compared): an audit of artifact
  // integrity, since a flipped outcome parses like a true one. Each replayed key's owner
  // re-solves it once, however many pairs read it, at any thread count.
  bool paranoia = false;
  // Borrowed worker pool to run the pair loop on instead of constructing a run-local
  // one. The caller must guarantee exclusive use for the duration of the run (a
  // ThreadPool supports one ParallelFor at a time). nullptr = a run-local pool of
  // ThreadPool::DefaultThreads() (NOCTUA_THREADS if set, else the hardware concurrency).
  ThreadPool* pool = nullptr;
};

// Where a pair's verdicts came from, for incremental-run provenance.
enum class PairProvenance : uint8_t {
  kComputed,     // at least one of its verdicts was solved (or twin-cached) this run
  kReplayed,     // every verdict was served by an entry loaded from a prior run's store
  kPrefiltered,  // retired by the independence prefilter; no verdict queries at all
};

struct PairVerdict {
  std::string p;
  std::string q;
  CheckOutcome commutativity = CheckOutcome::kPass;
  CheckOutcome semantic = CheckOutcome::kPass;
  double com_seconds = 0;
  double sem_seconds = 0;
  uint64_t solver_nodes = 0;  // nodes the solver explored for the queries this pair owns
  bool prefiltered = false;   // retired by the independence prefilter, no solver run
  PairProvenance provenance = PairProvenance::kComputed;

  bool Restricted() const {
    return OutcomeRestricts(commutativity) || OutcomeRestricts(semantic);
  }
};

// Aggregate execution statistics for one AnalyzeRestrictions run, summed after the pool
// from what each query's owner recorded, so every count is the same at any thread count.
struct ReportStats {
  int threads_used = 1;
  uint64_t pairs = 0;            // pairs examined
  uint64_t prefiltered = 0;      // pairs retired by the independence prefilter
  uint64_t solver_checks = 0;    // solver-level queries actually executed
  uint64_t cache_hits = 0;       // query reads served by the cache or by a twin's answer
  uint64_t cache_misses = 0;     // distinct queries the cache lacked, each solved once
  uint64_t replayed = 0;         // query reads served by entries loaded from a prior store
  uint64_t paranoia_rechecks = 0;  // distinct replayed verdicts re-solved by paranoia
  uint64_t pairs_replayed = 0;   // pairs with provenance kReplayed
  uint64_t pairs_computed = 0;   // pairs with provenance kComputed
  uint64_t solver_nodes = 0;     // total search nodes across all executed queries
  double check_seconds = 0;      // per-check wall time summed across workers
  uint64_t cache_evictions = 0;  // verdicts dropped by a bounded cache

  // Name of the solver backend every query of this run went through: "dfs", or "z3"
  // when a test plugs in the oracle. The solver's own tallies (incremental reuse,
  // symmetry pruning) live in the obs registry, not here.
  std::string solver_backend = "dfs";

  double CacheHitRate() const {
    uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }
};

struct RestrictionReport {
  std::vector<PairVerdict> pairs;
  double total_seconds = 0;
  ReportStats stats;

  size_t num_checks() const { return pairs.size(); }  // Table 6 "#Checks": pairs examined
  size_t num_restrictions() const;
  size_t com_failures() const;  // pairs whose commutativity check did not pass
  size_t sem_failures() const;  // pairs whose semantic check did not pass
  double com_seconds() const;
  double sem_seconds() const;

  // Names of restricted pairs, e.g. "(Amalgamate, SendPayment)".
  std::vector<std::string> RestrictedPairNames() const;
  // Restricted pairs lifted to view level (op names up to '#'), deduplicated and in
  // first-appearance order — the input for deployment conflict tables.
  std::vector<std::pair<std::string, std::string>> RestrictedViewPairs() const;
  // One "p|q|com|sem" line per pair, in report order: every per-pair verdict, flattened
  // for exact comparison across engine configurations and runs.
  std::vector<std::string> VerdictLines() const;
  std::string ToString() const;
};

// Runs both rules over every unordered pair of `paths` (which should be the effectful
// paths of one application). Models whose insertion order is observed by *any* of the
// paths are compared order-sensitively in every commutativity check.
//
// The checker carries what to verify (schema + CheckerOptions); `parallel` carries how
// to execute. A const Checker is shared by all workers — see checker.h for the
// threading contract.
//
// `observers` holds additional paths that are NOT checked pairwise but whose order
// observations still count: a read-only endpoint that renders a model in insertion
// order makes that order part of app-wide state equality, so two writes that insert
// into the model must not be declared commutative merely because no *effectful* path
// looks at the order. Callers assembling a deployment restriction set should pass the
// application's full path list here; omitting it reproduces the narrower analysis.
RestrictionReport AnalyzeRestrictions(const Checker& checker,
                                      const std::vector<soir::CodePath>& paths,
                                      const ParallelOptions& parallel = {},
                                      const std::vector<soir::CodePath>& observers = {});

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_REPORT_H_
