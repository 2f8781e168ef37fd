#include "src/orm/database.h"

#include <algorithm>

#include "src/support/check.h"

namespace noctua::orm {

Database::Database(const soir::Schema* schema) : schema_(schema) {
  tables_.resize(schema->num_models());
  relations_.resize(schema->num_relations());
}

void Database::Upsert(int model, int64_t pk, Row fields) {
  Table& t = tables_[model];
  NOCTUA_CHECK_MSG(fields.size() == schema_->model(model).fields().size(),
                   "row width mismatch for model " << schema_->model(model).name());
  auto it = t.rows.find(pk);
  if (it == t.rows.end()) {
    t.order[pk] = t.next_order++;
    t.rows.emplace(pk, std::move(fields));
    t.next_id = std::max(t.next_id, pk + 1);
  } else {
    it->second = std::move(fields);
  }
}

void Database::Erase(int model, int64_t pk) {
  Table& t = tables_[model];
  t.rows.erase(pk);
  t.order.erase(pk);
  for (size_t r = 0; r < relations_.size(); ++r) {
    const soir::RelationDef& rel = schema_->relation(static_cast<int>(r));
    auto& pairs = relations_[r];
    for (auto it = pairs.begin(); it != pairs.end();) {
      // The from side's associations always die with the object; the to side's survive
      // only under DO_NOTHING (dangling reference, Django semantics).
      bool incident = (rel.from_model == model && it->first == pk) ||
                      (rel.to_model == model && it->second == pk &&
                       rel.on_delete != soir::OnDelete::kDoNothing);
      it = incident ? pairs.erase(it) : std::next(it);
    }
  }
}

bool Database::Exists(int model, int64_t pk) const {
  return tables_[model].rows.count(pk) != 0;
}

const Row& Database::Get(int model, int64_t pk) const {
  auto it = tables_[model].rows.find(pk);
  NOCTUA_CHECK_MSG(it != tables_[model].rows.end(),
                   "missing row " << pk << " in " << schema_->model(model).name());
  return it->second;
}

int64_t Database::OrderOf(int model, int64_t pk) const {
  auto it = tables_[model].order.find(pk);
  NOCTUA_CHECK(it != tables_[model].order.end());
  return it->second;
}

std::vector<int64_t> Database::AllPks(int model) const {
  const Table& t = tables_[model];
  std::vector<int64_t> pks;
  pks.reserve(t.rows.size());
  for (const auto& [pk, _] : t.rows) {
    pks.push_back(pk);
  }
  std::sort(pks.begin(), pks.end(), [&](int64_t a, int64_t b) {
    return t.order.at(a) < t.order.at(b);
  });
  return pks;
}

size_t Database::RowCount(int model) const { return tables_[model].rows.size(); }

void Database::Link(int relation, int64_t from, int64_t to) {
  if (schema_->relation(relation).kind == soir::RelationKind::kManyToOne) {
    ClearLinks(relation, from, /*obj_is_from=*/true);
  }
  relations_[relation].insert({from, to});
}

void Database::Delink(int relation, int64_t from, int64_t to) {
  relations_[relation].erase({from, to});
}

void Database::ClearLinks(int relation, int64_t obj, bool obj_is_from) {
  auto& pairs = relations_[relation];
  for (auto it = pairs.begin(); it != pairs.end();) {
    bool hit = obj_is_from ? it->first == obj : it->second == obj;
    it = hit ? pairs.erase(it) : std::next(it);
  }
}

bool Database::Linked(int relation, int64_t from, int64_t to) const {
  return relations_[relation].count({from, to}) != 0;
}

std::vector<int64_t> Database::Associated(int relation, int64_t obj, bool forward) const {
  std::vector<int64_t> out;
  for (const auto& [from, to] : relations_[relation]) {
    if (forward && from == obj) {
      out.push_back(to);
    } else if (!forward && to == obj) {
      out.push_back(from);
    }
  }
  return out;
}

int64_t Database::NewId(int model) {
  Table& t = tables_[model];
  // Round next_id up to the site's stripe so IDs are globally unique across sites.
  int64_t base = t.next_id;
  int64_t k = (base - id_offset_ + id_stride_ - 1) / id_stride_;
  if (k < 0) {
    k = 0;
  }
  int64_t id = id_offset_ + k * id_stride_;
  t.next_id = id + 1;
  return id;
}

void Database::StripeNewIds(int64_t site, int64_t num_sites) {
  id_offset_ = site;
  id_stride_ = num_sites;
}

bool Database::SameState(const Database& other, const std::set<int>& order_models) const {
  if (tables_.size() != other.tables_.size() || relations_ != other.relations_) {
    return false;
  }
  for (size_t m = 0; m < tables_.size(); ++m) {
    if (tables_[m].rows != other.tables_[m].rows) {
      return false;
    }
    // Relative order must agree where it is observable: sorting by order numbers yields
    // the same sequence.
    if (order_models.count(static_cast<int>(m)) != 0 &&
        AllPks(static_cast<int>(m)) != other.AllPks(static_cast<int>(m))) {
      return false;
    }
  }
  return true;
}

std::string Database::ToString() const {
  std::string out;
  for (size_t m = 0; m < tables_.size(); ++m) {
    out += schema_->model(static_cast<int>(m)).name() + ":\n";
    for (int64_t pk : AllPks(static_cast<int>(m))) {
      out += "  #" + std::to_string(pk) + " (";
      const Row& row = tables_[m].rows.at(pk);
      for (size_t i = 0; i < row.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        out += row[i].ToString();
      }
      out += ")\n";
    }
  }
  for (size_t r = 0; r < relations_.size(); ++r) {
    out += schema_->relation(static_cast<int>(r)).name + ": {";
    bool first = true;
    for (const auto& [from, to] : relations_[r]) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += "(" + std::to_string(from) + "," + std::to_string(to) + ")";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace noctua::orm
