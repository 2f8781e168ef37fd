// Verdict cache for the verifier: maps a canonical key of a verification query (rule +
// the pair's canonically-renamed paths + the schema fragment they touch + order
// membership) to the solver's outcome.
//
// Two queries with equal keys are isomorphic SMT problems — identical term DAGs up to
// constant names, which the bounded model finder never interprets — so their sat/unsat
// verdicts coincide and one solver run serves both. The evaluated apps are full of such
// twins: viewsets stamp structurally identical endpoints onto every model, and the
// semantic rule checks NotInvalidate(P, P) twice per self-pair.
//
// A key (Key below) is a head, the ids of its two paths' parts and a tail. A part is one
// path's canonical text (soir::PathFingerprint::text), hundreds of bytes, held once in
// the cache's part table however many keys name it, so no key copies path text.
//
// The part table. A part id means something only in the cache that issued it
// (InternPart). Parts are never evicted, so the table grows with the distinct paths the
// cache has seen, not with its entries. InternPart keeps the one-writer contract of
// Insert below; within a run the pair loop's plan is its only writer, on the calling
// thread, before the pool starts (see AnalyzeRestrictions).
//
// The cache is also the artifact store's persistence unit: SaveToFile/LoadFromFile
// round-trip the verdict map through a versioned artifact that stores each part its
// entries name once, and entries that arrived from disk are marked `replayed` so the
// report can attribute each pair's verdicts to this run or a prior one (and so paranoia
// knows which verdicts to audit). Because the keys encode everything the SMT encoding
// can see, seeding a run with a prior store is sound by construction: any pair affected
// by an edit — changed paths, changed schema fragment, changed order membership, changed
// checker options — misses and is re-solved. The verifier never inserts a timeout (see
// AnalyzeRestrictions), so every entry is a decided verdict.
//
// Thread-safety: one map, one part table and no lock. Lookups are const and count
// nothing, so any number of threads may look up at once while none writes; InternPart,
// Insert, LoadFromFile and SaveToFile run on one thread, with no lookup in flight. The
// pair loop keeps to that: its plan interns every part and builds every key on the
// calling thread, each query's owner, fixed before any solve starts, only looks its key
// up inside the pool, and the calling thread inserts the run's new verdicts after the
// pool has stopped, so no worker blocks on another and no key is solved twice. Only
// size() may be read from another thread at any time (the daemon's /metrics).
#ifndef SRC_VERIFIER_CACHE_H_
#define SRC_VERIFIER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
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

  // The key of one verification query over the ordered pair of paths (p, q):
  //
  //   head   the checker options the verdict depends on (KeyOptions) and the rule tag,
  //          e.g. "o1u1i8k2|com";
  //   p, q   the ids of part(p) and part(q) in this cache's part table;
  //   tail   the link and order bits (AppendPairTail).
  //
  // Two keys of one cache are equal exactly when their queries' pair renderings, order
  // membership and schema fragments agree.
  struct Key {
    std::string head;
    uint32_t p = 0;
    uint32_t q = 0;
    std::string tail;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  // `capacity` bounds the number of entries (0 = unbounded, the default); past it, the
  // oldest entries are evicted FIFO. Only meaningful for run-local caches under memory
  // pressure; a cache that will be persisted as an artifact should stay unbounded, since
  // evicted verdicts silently become cold misses on the next warm run.
  explicit VerdictCache(size_t capacity = 0) : capacity_(capacity) {}
  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  // The id of a path part (soir::PathFingerprint::text) in the part table: equal texts
  // get equal ids, and a text the table lacks joins it.
  uint32_t InternPart(const std::string& text);

  std::optional<Entry> LookupEntry(const Key& key) const;
  // A key already present keeps its entry. Both part ids must come from InternPart.
  void Insert(Key key, CheckOutcome outcome);

  // Persists every entry. The file holds a table of the parts the entries name, each
  // written once, then the entries as head, the file indices of their two parts, tail
  // and outcome. Entries are sorted by head, part texts and tail, and parts are numbered
  // in order of first use over them, so equal caches produce byte-identical files
  // whatever order they interned their parts in. Returns false if the file cannot be
  // written.
  bool SaveToFile(const std::string& path) const;
  // Loads a previously saved store, interning its parts and marking every loaded entry
  // replayed. Entries may come in any order. All-or-nothing: a missing, truncated,
  // corrupted, or version-mismatched file (a part index out of range included) returns
  // false and leaves the cache untouched (the caller falls back to a cold run). Entries
  // already present keep their current value — loading never overwrites a computed
  // verdict.
  bool LoadFromFile(const std::string& path);

  uint64_t evictions() const { return evictions_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  void Emplace(Key key, Entry entry);

  const size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::deque<Key> fifo_;  // insertion order, only maintained when bounded
  uint64_t evictions_ = 0;
  std::atomic<size_t> size_{0};  // map_.size(), for readers on other threads
  std::unordered_map<std::string, uint32_t> part_ids_;
  std::vector<const std::string*> parts_;  // by id, into part_ids_' nodes
};

// Appends the tail of the key of one query over the ordered pair (p, q) to *out:
//
//   link    for each model and each relation in q's canonical list, its position in p's
//           list, or "new";
//   order   one bit per model of p's list, then of q's: whether the model's insertion
//           order takes part in the query, i.e. whether any of `order_sets` holds it
//           (commutativity passes the app-wide set, NotInvalidate ord(p) and ord(q)).
//
// Rendering q under the renaming context p left behind, which is what a pair's canonical
// form is, renumbers q's models and relations exactly as the link says, so two keys with
// equal heads and parts are equal exactly when their pair renderings (plus order
// membership and schema fragment) agree.
void AppendPairTail(std::string* out, const soir::PathFingerprint& p,
                    const soir::PathFingerprint& q,
                    std::initializer_list<const std::set<int>*> order_sets);

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_CACHE_H_
