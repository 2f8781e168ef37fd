#include "src/soir/schema.h"

#include <algorithm>

#include "src/support/check.h"

namespace noctua::soir {

const char* FieldTypeName(FieldType t) {
  switch (t) {
    case FieldType::kBool:
      return "Bool";
    case FieldType::kInt:
      return "Int";
    case FieldType::kFloat:
      return "Float";
    case FieldType::kString:
      return "String";
    case FieldType::kDatetime:
      return "Datetime";
    case FieldType::kRef:
      return "Ref";
  }
  return "?";
}

int ModelDef::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int Schema::AddModel(const std::string& name, const std::string& pk_name) {
  NOCTUA_CHECK_MSG(model_by_name_.find(name) == model_by_name_.end(),
                   "duplicate model " << name);
  int id = static_cast<int>(models_.size());
  models_.emplace_back(id, name, pk_name);
  model_by_name_[name] = id;
  return id;
}

int Schema::ModelId(const std::string& name) const {
  auto it = model_by_name_.find(name);
  NOCTUA_CHECK_MSG(it != model_by_name_.end(), "unknown model " << name);
  return it->second;
}

void Schema::AddField(const std::string& model, FieldDef field) {
  models_[ModelId(model)].AddField(std::move(field));
}

int Schema::AddRelation(const std::string& name, const std::string& from_model,
                        const std::string& to_model, RelationKind kind, OnDelete on_delete,
                        const std::string& reverse_name) {
  RelationDef rel;
  rel.id = static_cast<int>(relations_.size());
  rel.name = name;
  rel.from_model = ModelId(from_model);
  rel.to_model = ModelId(to_model);
  rel.kind = kind;
  rel.on_delete = on_delete;
  if (reverse_name.empty()) {
    std::string lower = from_model;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    rel.reverse_name = lower + "_set";
  } else {
    rel.reverse_name = reverse_name;
  }
  relations_.push_back(std::move(rel));
  return relations_.back().id;
}

void Schema::RenameModel(int id, const std::string& new_name) {
  NOCTUA_CHECK(id >= 0 && id < static_cast<int>(models_.size()));
  NOCTUA_CHECK_MSG(model_by_name_.find(new_name) == model_by_name_.end(),
                   "rename collides with existing model " << new_name);
  model_by_name_.erase(models_[id].name_);
  models_[id].name_ = new_name;
  model_by_name_[new_name] = id;
}

std::pair<int, bool> Schema::FindRelation(int model_id, const std::string& key) const {
  for (const RelationDef& rel : relations_) {
    if (rel.from_model == model_id && rel.name == key) {
      return {rel.id, true};
    }
    if (rel.to_model == model_id && rel.reverse_name == key) {
      return {rel.id, false};
    }
  }
  return {-1, true};
}

std::string Schema::ToString() const {
  std::string out;
  for (const ModelDef& m : models_) {
    out += "model " + m.name() + " (pk: " + m.pk_name() + ")\n";
    for (const FieldDef& f : m.fields()) {
      out += "  " + f.name + ": " + FieldTypeName(f.type);
      if (f.unique) {
        out += " unique";
      }
      if (f.positive) {
        out += " positive";
      }
      out += "\n";
    }
  }
  for (const RelationDef& r : relations_) {
    out += "relation " + r.name + ": " + models_[r.from_model].name() +
           (r.kind == RelationKind::kManyToOne ? " -> " : " <-> ") +
           models_[r.to_model].name() + " (reverse: " + r.reverse_name + ")\n";
  }
  return out;
}

}  // namespace noctua::soir
