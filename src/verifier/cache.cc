#include "src/verifier/cache.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/soir/serialize.h"

namespace noctua::verifier {

std::optional<VerdictCache::Entry> VerdictCache::LookupEntry(const std::string& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void VerdictCache::Insert(std::string key, CheckOutcome outcome) {
  Emplace(std::move(key), Entry{outcome, false});
}

// Duplicate keys keep the existing entry (and do not re-enter the FIFO).
void VerdictCache::Emplace(std::string key, Entry entry) {
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

// One length-prefixed field of a pair key: the length in decimal, ':', the bytes.
void AppendField(std::string* key, std::string_view field) {
  *key += std::to_string(field.size());
  *key += ':';
  key->append(field);
}

// Reads one field at *pos. The length must be canonical decimal (no sign, no leading
// zero), so that re-appending the field reproduces the key byte for byte.
bool ReadField(std::string_view key, size_t* pos, std::string_view* field) {
  size_t i = *pos;
  size_t len = 0;
  const size_t digits_start = i;
  while (i < key.size() && key[i] >= '0' && key[i] <= '9') {
    if (i > digits_start && len == 0) {
      return false;
    }
    len = len * 10 + static_cast<size_t>(key[i] - '0');
    if (len > key.size()) {
      return false;
    }
    ++i;
  }
  if (i == digits_start || i >= key.size() || key[i] != ':' || key.size() - i - 1 < len) {
    return false;
  }
  *field = key.substr(i + 1, len);
  *pos = i + 1 + len;
  return true;
}

// A pair key's four pieces; AppendField(head, p, q) + tail is the key again.
struct SplitKey {
  std::string_view head, p, q, tail;
};

bool SplitPairKey(std::string_view key, SplitKey* out) {
  size_t pos = 0;
  if (!ReadField(key, &pos, &out->head) || !ReadField(key, &pos, &out->p) ||
      !ReadField(key, &pos, &out->q)) {
    return false;
  }
  out->tail = key.substr(pos);
  return true;
}

std::string JoinPairKey(const SplitKey& k) {
  std::string key;
  key.reserve(k.head.size() + k.p.size() + k.q.size() + k.tail.size() + 24);
  AppendField(&key, k.head);
  AppendField(&key, k.p);
  AppendField(&key, k.q);
  key.append(k.tail);
  return key;
}

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

std::string PairKey(std::string_view head, const soir::PathFingerprint& p,
                    const soir::PathFingerprint& q,
                    std::initializer_list<const std::set<int>*> order_sets) {
  std::string key;
  key.reserve(head.size() + p.text.size() + q.text.size() + 64);  // link and order: a few ids
  AppendField(&key, head);
  AppendField(&key, p.text);
  AppendField(&key, q.text);
  AppendPairTail(&key, p, q, order_sets);
  return key;
}

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
  std::vector<std::pair<const std::string*, CheckOutcome>> entries;
  entries.reserve(map_.size());
  for (const auto& [key, entry] : map_) {
    entries.emplace_back(&key, entry.outcome);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });

  std::vector<std::string_view> parts;
  std::unordered_map<std::string_view, int64_t> part_index;
  auto index_of = [&](std::string_view part) {
    auto [it, inserted] = part_index.emplace(part, static_cast<int64_t>(parts.size()));
    if (inserted) {
      parts.push_back(part);
    }
    return it->second;
  };
  // Each entry's key split into a pair key's pieces and part indices (p = -1: whole).
  struct Row {
    SplitKey split;
    int64_t p = -1;
    int64_t q = -1;
  };
  std::vector<Row> rows(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (SplitPairKey(*entries[i].first, &rows[i].split)) {
      rows[i].p = index_of(rows[i].split.p);
      rows[i].q = index_of(rows[i].split.q);
    }
  }

  soir::ArtifactWriter w;
  w.Atom("noctua-verdicts");
  w.Int(soir::kArtifactVersion);
  w.Int(static_cast<int64_t>(parts.size()));
  for (std::string_view part : parts) {
    w.Str(part);
  }
  w.Int(static_cast<int64_t>(entries.size()));
  for (size_t i = 0; i < entries.size(); ++i) {
    const Row& row = rows[i];
    if (row.p >= 0) {
      w.Atom("p");
      w.Str(row.split.head);
      w.Int(row.p);
      w.Int(row.q);
      w.Str(row.split.tail);
    } else {
      w.Atom("k");
      w.Str(*entries[i].first);
    }
    w.Int(static_cast<int64_t>(entries[i].second));
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
  // half-loaded store behind.
  const size_t num_parts = r.Count(kMaxParts);
  std::vector<std::string> parts;
  for (size_t i = 0; r.ok() && i < num_parts; ++i) {
    parts.push_back(r.Str());
  }
  const size_t n = r.Count(kMaxVerdicts);
  std::vector<std::pair<std::string, CheckOutcome>> entries;
  entries.reserve(std::min<size_t>(n, 1 << 16));
  for (size_t i = 0; r.ok() && i < n; ++i) {
    const std::string tag = r.Atom();
    std::string key;
    if (tag == "p") {
      const std::string head = r.Str();
      const int64_t p = r.Int();
      const int64_t q = r.Int();
      const std::string tail = r.Str();
      const auto valid = [&](int64_t k) {
        return k >= 0 && static_cast<uint64_t>(k) < parts.size();
      };
      if (!valid(p) || !valid(q)) {
        r.Fail();
        break;
      }
      key = JoinPairKey(SplitKey{head, parts[p], parts[q], tail});
    } else if (tag == "k") {
      key = r.Str();
    } else {
      r.Fail();
      break;
    }
    int64_t outcome = r.Int();
    if (outcome < 0 || outcome > static_cast<int64_t>(CheckOutcome::kUnsupported)) {
      r.Fail();
      break;
    }
    entries.emplace_back(std::move(key), static_cast<CheckOutcome>(outcome));
  }
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  for (auto& [key, outcome] : entries) {
    Emplace(std::move(key), Entry{outcome, true});
  }
  return true;
}

}  // namespace noctua::verifier
