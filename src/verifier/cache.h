// Verdict cache for the verifier: maps a canonical fingerprint of a verification query
// (rule + the pair's canonically-renamed paths + the schema fragment they touch + order
// membership) to the solver's outcome.
//
// Two queries with equal fingerprints are isomorphic SMT problems — identical term DAGs
// up to constant names, which the bounded model finder never interprets — so their
// sat/unsat verdicts coincide and one solver run serves both. The evaluated apps are
// full of such twins: viewsets stamp structurally identical endpoints onto every model,
// and the semantic rule checks NotInvalidate(P, P) twice per self-pair.
//
// A fingerprint is assembled from per-path parts (PairKey below): each path is rendered
// once per run, and a pair's keys only join strings that already exist.
//
// The cache is also the artifact store's persistence unit: SaveToFile/LoadFromFile
// round-trip the verdict map through a versioned artifact that stores each path part
// once, and entries that arrived from disk are marked `replayed` so the report can
// attribute each pair's verdicts to this run or a prior one (and so paranoia sampling
// knows which verdicts to spot-re-solve). Because the fingerprints encode everything the
// SMT encoding can see, seeding a run with a prior store is sound by construction: any
// pair affected by an edit — changed paths, changed schema fragment, changed order
// membership, changed checker options — misses and is re-solved. The verifier never
// inserts a timeout (see AnalyzeRestrictions), so every entry is a decided verdict.
//
// Thread-safety: one map and no lock. Lookups are const and count nothing, so any number
// of threads may look up at once while none inserts; Insert, LoadFromFile and SaveToFile
// run on one thread, with no lookup in flight. The pair loop keeps to that: each query's
// owner, fixed before any solve starts, looks it up inside the pool, and the calling
// thread inserts the run's new verdicts after the pool has stopped (see
// AnalyzeRestrictions), so no worker blocks on another and no fingerprint is solved
// twice. Only size() may be read from another thread at any time (the daemon's
// /metrics).
#ifndef SRC_VERIFIER_CACHE_H_
#define SRC_VERIFIER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/soir/printer.h"
#include "src/verifier/checker.h"

namespace noctua::verifier {

class VerdictCache {
 public:
  // One cached verdict. `replayed` is true when the entry was loaded from a prior run's
  // artifact rather than computed by this process.
  struct Entry {
    CheckOutcome outcome = CheckOutcome::kPass;
    bool replayed = false;
  };

  // `capacity` bounds the number of entries (0 = unbounded, the default); past it, the
  // oldest entries are evicted FIFO. Only meaningful for run-local caches under memory
  // pressure; a cache that will be persisted as an artifact should stay unbounded, since
  // evicted verdicts silently become cold misses on the next warm run.
  explicit VerdictCache(size_t capacity = 0) : capacity_(capacity) {}
  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  std::optional<Entry> LookupEntry(const std::string& key) const;
  // A key already present keeps its entry.
  void Insert(std::string key, CheckOutcome outcome);

  // Persists every entry. The file holds a table of the path parts the keys share, each
  // written once, then the entries sorted by key: a pair key as its head, the indices of
  // its two parts and its tail; any other key whole. Parts are numbered in order of
  // first use over the sorted entries, so equal caches produce byte-identical files.
  // Returns false if the file cannot be written.
  bool SaveToFile(const std::string& path) const;
  // Loads a previously saved store, marking every loaded entry replayed. All-or-nothing:
  // a missing, truncated, corrupted, or version-mismatched file (a part index out of
  // range included) returns false and leaves the cache untouched (the caller falls back
  // to a cold run). Entries already present keep their current value — loading never
  // overwrites a computed verdict.
  bool LoadFromFile(const std::string& path);

  uint64_t evictions() const { return evictions_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  void Emplace(std::string key, Entry entry);

  const size_t capacity_;
  std::unordered_map<std::string, Entry> map_;
  std::deque<std::string> fifo_;  // insertion order, only maintained when bounded
  uint64_t evictions_ = 0;
  std::atomic<size_t> size_{0};  // map_.size(), for readers on other threads
};

// Fingerprint of one verification query over the ordered pair (p, q), joined from the
// two paths' parts (soir::FingerprintPath) without rendering either path again:
//
//   head      the checker options the verdict depends on (KeyOptions) and the rule
//             tag, e.g. "o1u1i8k2|com";
//   parts     part(p), then part(q);
//   link      for each model and each relation in q's canonical list, its position in
//             p's list, or "new";
//   order     one bit per model of p's list, then of q's: whether the model's insertion
//             order takes part in the query, i.e. whether any of `order_sets` holds it
//             (commutativity passes the app-wide set, NotInvalidate ord(p) and ord(q)).
//
// Rendering q under the renaming context p left behind, which is what a pair's
// canonical form is, renumbers q's models and relations exactly as the link says, so
// two queries share a key exactly when their pair renderings (plus order membership and
// schema fragment) agree. The head and both parts are length-prefixed: a key splits
// back into head, parts and tail without a separator that a string literal in a path
// could contain.
std::string PairKey(std::string_view head, const soir::PathFingerprint& p,
                    const soir::PathFingerprint& q,
                    std::initializer_list<const std::set<int>*> order_sets);
// Appends the key's tail alone, its link and order bits, to *out: two keys with equal
// heads are equal exactly when their parts' texts and their tails are.
void AppendPairTail(std::string* out, const soir::PathFingerprint& p,
                    const soir::PathFingerprint& q,
                    std::initializer_list<const std::set<int>*> order_sets);

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_CACHE_H_
