#include "src/verifier/cache.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/soir/serialize.h"
#include "src/support/check.h"

namespace noctua::verifier {

size_t VerdictCache::KeyHash::operator()(const Key& key) const {
  const std::hash<std::string_view> hash;
  size_t h = hash(key.head);
  for (size_t v : {size_t{key.p}, size_t{key.q}, hash(key.tail)}) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

uint32_t VerdictCache::InternPart(const std::string& text) {
  auto [it, inserted] = part_ids_.try_emplace(text, static_cast<uint32_t>(parts_.size()));
  if (inserted) {
    parts_.push_back(&it->first);
  }
  return it->second;
}

std::optional<VerdictCache::Entry> VerdictCache::LookupEntry(const Key& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void VerdictCache::Insert(Key key, CheckOutcome outcome) {
  NOCTUA_CHECK_MSG(key.p < parts_.size() && key.q < parts_.size(),
                   "a verdict key names a part this cache never issued");
  Emplace(std::move(key), Entry{outcome, false});
}

// Duplicate keys keep the existing entry (and do not re-enter the FIFO).
void VerdictCache::Emplace(Key key, Entry entry) {
  auto [it, inserted] = map_.try_emplace(std::move(key), entry);
  if (!inserted) {
    return;
  }
  if (capacity_ != 0) {
    fifo_.push_back(it->first);
    while (map_.size() > capacity_) {
      map_.erase(fifo_.front());
      fifo_.pop_front();
      ++evictions_;
    }
  }
  size_.store(map_.size(), std::memory_order_relaxed);
}

namespace {

constexpr size_t kMaxVerdicts = 10000000;
// Every entry names at most two parts, so a valid store never needs more.
constexpr size_t kMaxParts = 2 * kMaxVerdicts;

// For each id of `ids`, its position in `base` or 'n' for an id `base` lacks.
void AppendLink(std::string* key, const std::vector<int>& ids, const std::vector<int>& base) {
  for (int id : ids) {
    auto it = std::find(base.begin(), base.end(), id);
    if (it == base.end()) {
      *key += 'n';
    } else {
      *key += std::to_string(it - base.begin());
    }
    *key += ',';
  }
}

}  // namespace

void AppendPairTail(std::string* out, const soir::PathFingerprint& p,
                    const soir::PathFingerprint& q,
                    std::initializer_list<const std::set<int>*> order_sets) {
  *out += "link:";
  AppendLink(out, q.models, p.models);
  *out += '/';
  AppendLink(out, q.relations, p.relations);
  // Membership of models neither path mentions is irrelevant: they are projected out of
  // the query.
  auto append_order = [&](const std::vector<int>& models) {
    for (int m : models) {
      bool in_order = std::any_of(order_sets.begin(), order_sets.end(),
                                  [m](const std::set<int>* s) { return s->count(m) != 0; });
      *out += in_order ? '1' : '0';
    }
  };
  *out += "|ord:";
  append_order(p.models);
  *out += '/';
  append_order(q.models);
}

bool VerdictCache::SaveToFile(const std::string& path) const {
  std::vector<const std::pair<const Key, Entry>*> entries;
  entries.reserve(map_.size());
  for (const auto& entry : map_) {
    entries.push_back(&entry);
  }
  auto content = [&](const Key& k) { return std::tie(k.head, *parts_[k.p], *parts_[k.q], k.tail); };
  std::sort(entries.begin(), entries.end(),
            [&](const auto* a, const auto* b) { return content(a->first) < content(b->first); });

  // File index of each part id the entries name, in order of first use.
  std::vector<int64_t> index(parts_.size(), -1);
  std::vector<uint32_t> used;
  for (const auto* entry : entries) {
    for (uint32_t id : {entry->first.p, entry->first.q}) {
      if (index[id] < 0) {
        index[id] = static_cast<int64_t>(used.size());
        used.push_back(id);
      }
    }
  }

  soir::ArtifactWriter w;
  w.Atom("noctua-verdicts");
  w.Int(soir::kArtifactVersion);
  w.Int(static_cast<int64_t>(used.size()));
  for (uint32_t id : used) {
    w.Str(*parts_[id]);
  }
  w.Int(static_cast<int64_t>(entries.size()));
  for (const auto* entry : entries) {
    const Key& key = entry->first;
    w.Atom("p");
    w.Str(key.head);
    w.Int(index[key.p]);
    w.Int(index[key.q]);
    w.Str(key.tail);
    w.Int(static_cast<int64_t>(entry->second.outcome));
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << w.str();
  return static_cast<bool>(out);
}

bool VerdictCache::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  soir::ArtifactReader r(std::move(buf).str());
  r.ExpectAtom("noctua-verdicts");
  if (r.Int() != soir::kArtifactVersion) {
    return false;
  }
  // Parse everything before touching the cache: a corrupted tail must not leave a
  // half-loaded store behind. Until then an entry's part ids are file indices.
  const size_t num_parts = r.Count(kMaxParts);
  std::vector<std::string> parts;
  for (size_t i = 0; r.ok() && i < num_parts; ++i) {
    parts.push_back(r.Str());
  }
  const size_t n = r.Count(kMaxVerdicts);
  std::vector<std::pair<Key, CheckOutcome>> entries;
  entries.reserve(std::min<size_t>(n, 1 << 16));
  for (size_t i = 0; r.ok() && i < n; ++i) {
    r.ExpectAtom("p");
    Key key;
    key.head = r.Str();
    const int64_t p = r.Int();
    const int64_t q = r.Int();
    key.tail = r.Str();
    const int64_t outcome = r.Int();
    const auto valid = [&](int64_t k) {
      return k >= 0 && static_cast<uint64_t>(k) < parts.size();
    };
    if (!valid(p) || !valid(q) || outcome < 0 ||
        outcome > static_cast<int64_t>(CheckOutcome::kUnsupported)) {
      r.Fail();
      break;
    }
    key.p = static_cast<uint32_t>(p);
    key.q = static_cast<uint32_t>(q);
    entries.emplace_back(std::move(key), static_cast<CheckOutcome>(outcome));
  }
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  std::vector<uint32_t> ids;
  ids.reserve(parts.size());
  for (const std::string& part : parts) {
    ids.push_back(InternPart(part));
  }
  for (auto& [key, outcome] : entries) {
    key.p = ids[key.p];
    key.q = ids[key.q];
    Emplace(std::move(key), Entry{outcome, true});
  }
  return true;
}

}  // namespace noctua::verifier
