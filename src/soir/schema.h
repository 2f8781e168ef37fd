// Application schema: models, fields and relations (the ORM's model definitions).
//
// Mirrors what the Django integration extracts from `models.py` (paper Fig. 3): each model
// has a primary key (field 0, identified with the model's Ref sort), a list of data
// fields with optional validators (unique, positive, choices — utility classes like
// PositiveIntegerField carry consistency-relevant semantics, §2.3), and relations between
// models. Relations are first-class association sets (SOIR §3.2); foreign keys are
// many-to-one relations with an on-delete policy, expanded client-side by the ORM facade
// exactly as Django expands cascades in Python.
#ifndef SRC_SOIR_SCHEMA_H_
#define SRC_SOIR_SCHEMA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace noctua::soir {

// Scalar field types. Float and Datetime are represented as integers throughout the
// pipeline (ticks / fixed-point); the distinction is kept for printing and typechecking.
enum class FieldType : uint8_t { kBool, kInt, kFloat, kString, kDatetime, kRef };

const char* FieldTypeName(FieldType t);

struct FieldDef {
  std::string name;
  FieldType type = FieldType::kInt;
  bool unique = false;      // unique=True — generates an injectivity axiom (§5.2)
  bool positive = false;    // PositiveIntegerField — value must be >= 0
  std::vector<std::string> choices = {};  // ChoiceField — value must be one of these
  int64_t default_int = 0;
  std::string default_string = {};
};

enum class RelationKind : uint8_t { kManyToOne, kManyToMany };
// kDoNothing mirrors Django's DO_NOTHING: deleting the target leaves the association
// dangling (referential integrity becomes the application's problem).
enum class OnDelete : uint8_t { kCascade, kSetNull, kDoNothing };

struct RelationDef {
  int id = -1;
  std::string name;          // the related key, e.g. "author"
  std::string reverse_name;  // the reversal related key, e.g. "article_set"
  int from_model = -1;       // model holding the related key (e.g. Article)
  int to_model = -1;         // target model (e.g. User)
  RelationKind kind = RelationKind::kManyToOne;
  OnDelete on_delete = OnDelete::kCascade;
};

class ModelDef {
 public:
  ModelDef(int id, std::string name, std::string pk_name)
      : id_(id), name_(std::move(name)), pk_name_(std::move(pk_name)) {}

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  // Name of the primary key (default "id"; may be a user field like User.name in Fig. 3).
  const std::string& pk_name() const { return pk_name_; }

  void AddField(FieldDef field) { fields_.push_back(std::move(field)); }
  const std::vector<FieldDef>& fields() const { return fields_; }

  // Index of a data field by name; -1 if it is the pk or unknown.
  int FieldIndex(const std::string& name) const;
  const FieldDef& field(int index) const { return fields_[index]; }
  bool IsPk(const std::string& name) const { return name == pk_name_; }

 private:
  friend class Schema;  // RenameModel reaches through to name_

  int id_;
  std::string name_;
  std::string pk_name_;
  std::vector<FieldDef> fields_;
};

// The whole application schema: models + relations, with name-based lookup.
class Schema {
 public:
  // Adds a model; pk_name defaults to "id". Returns its id.
  int AddModel(const std::string& name, const std::string& pk_name = "id");
  ModelDef& model(int id) { return models_[id]; }
  const ModelDef& model(int id) const { return models_[id]; }
  int ModelId(const std::string& name) const;
  size_t num_models() const { return models_.size(); }

  void AddField(const std::string& model, FieldDef field);

  // A rename refactor (the incremental engine's rename-edit scenarios): the id, field
  // order and every relation endpoint are untouched, so canonical fingerprints — and
  // therefore all cached verdicts — survive. The caller owns updating view functions
  // that mention the old name.
  void RenameModel(int id, const std::string& new_name);

  // Adds a relation; reverse_name defaults to "<from_model_lowercase>_set".
  int AddRelation(const std::string& name, const std::string& from_model,
                  const std::string& to_model, RelationKind kind = RelationKind::kManyToOne,
                  OnDelete on_delete = OnDelete::kCascade, const std::string& reverse_name = "");
  const RelationDef& relation(int id) const { return relations_[id]; }
  size_t num_relations() const { return relations_.size(); }
  const std::vector<RelationDef>& relations() const { return relations_; }

  // Finds the relation with the given related key reachable from `model_id` (forward via
  // name, backward via reverse_name). Returns {relation id, is_forward}; {-1,...} if none.
  std::pair<int, bool> FindRelation(int model_id, const std::string& key) const;

  std::string ToString() const;

 private:
  std::vector<ModelDef> models_;
  std::vector<RelationDef> relations_;
  std::map<std::string, int> model_by_name_;
};

}  // namespace noctua::soir

#endif  // SRC_SOIR_SCHEMA_H_
