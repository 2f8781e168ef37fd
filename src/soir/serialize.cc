#include "src/soir/serialize.h"

#include <cctype>

#include "src/soir/printer.h"

namespace noctua::soir {

// --- Token stream ---------------------------------------------------------------------------

void ArtifactWriter::Atom(std::string_view s) {
  if (!out_.empty()) {
    out_ += ' ';
  }
  out_ += s;
}

void ArtifactWriter::Int(int64_t v) { Atom(std::to_string(v)); }

void ArtifactWriter::Str(std::string_view s) {
  if (!out_.empty()) {
    out_ += ' ';
  }
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      default:
        out_ += c;
        break;
    }
  }
  out_ += '"';
}

bool ArtifactReader::SkipSpace() {
  while (pos_ < data_.size() && std::isspace(static_cast<unsigned char>(data_[pos_]))) {
    ++pos_;
  }
  return pos_ < data_.size();
}

std::string ArtifactReader::Atom() {
  if (!ok_ || !SkipSpace()) {
    Fail();
    return "";
  }
  size_t start = pos_;
  while (pos_ < data_.size() && !std::isspace(static_cast<unsigned char>(data_[pos_]))) {
    ++pos_;
  }
  return data_.substr(start, pos_ - start);
}

int64_t ArtifactReader::Int() {
  std::string tok = Atom();
  if (!ok_) {
    return 0;
  }
  size_t used = 0;
  int64_t v = 0;
  try {
    v = std::stoll(tok, &used);
  } catch (...) {
    Fail();
    return 0;
  }
  if (used != tok.size()) {
    Fail();
    return 0;
  }
  return v;
}

std::string ArtifactReader::Str() {
  if (!ok_ || !SkipSpace() || data_[pos_] != '"') {
    Fail();
    return "";
  }
  ++pos_;
  std::string out;
  while (pos_ < data_.size()) {
    char c = data_[pos_++];
    if (c == '"') {
      return out;
    }
    if (c == '\\') {
      if (pos_ >= data_.size()) {
        break;
      }
      char e = data_[pos_++];
      out += e == 'n' ? '\n' : e;
    } else {
      out += c;
    }
  }
  Fail();  // unterminated string
  return "";
}

void ArtifactReader::ExpectAtom(std::string_view expected) {
  if (Atom() != expected) {
    Fail();
  }
}

size_t ArtifactReader::Count(size_t max) {
  int64_t n = Int();
  if (!ok_ || n < 0 || static_cast<uint64_t>(n) > max) {
    Fail();
    return 0;
  }
  return static_cast<size_t>(n);
}

bool ArtifactReader::AtEnd() { return !SkipSpace(); }

// --- Schema ---------------------------------------------------------------------------------

namespace {

// Caps on repeated-group counts: far above any real application, far below anything that
// could make a corrupted count allocate unreasonably.
constexpr size_t kMaxModels = 100000;
constexpr size_t kMaxFields = 100000;
constexpr size_t kMaxRelations = 1000000;
constexpr size_t kMaxChoices = 10000;
constexpr size_t kMaxArgs = 100000;
constexpr size_t kMaxCommands = 1000000;
constexpr size_t kMaxChildren = 1000000;
constexpr size_t kMaxRelSteps = 10000;

}  // namespace

void SerializeSchema(const Schema& schema, ArtifactWriter* w) {
  w->Atom("schema");
  w->Int(static_cast<int64_t>(schema.num_models()));
  for (size_t m = 0; m < schema.num_models(); ++m) {
    const ModelDef& md = schema.model(static_cast<int>(m));
    w->Str(md.name());
    w->Str(md.pk_name());
    w->Int(static_cast<int64_t>(md.fields().size()));
    for (const FieldDef& f : md.fields()) {
      w->Str(f.name);
      w->Int(static_cast<int64_t>(f.type));
      w->Int(f.unique ? 1 : 0);
      w->Int(f.positive ? 1 : 0);
      w->Int(static_cast<int64_t>(f.choices.size()));
      for (const std::string& c : f.choices) {
        w->Str(c);
      }
      w->Int(f.default_int);
      w->Str(f.default_string);
    }
  }
  w->Int(static_cast<int64_t>(schema.num_relations()));
  for (const RelationDef& rel : schema.relations()) {
    w->Str(rel.name);
    w->Str(rel.reverse_name);
    w->Int(rel.from_model);
    w->Int(rel.to_model);
    w->Int(static_cast<int64_t>(rel.kind));
    w->Int(static_cast<int64_t>(rel.on_delete));
  }
}

bool DeserializeSchema(ArtifactReader* r, Schema* out) {
  r->ExpectAtom("schema");
  size_t num_models = r->Count(kMaxModels);
  for (size_t m = 0; r->ok() && m < num_models; ++m) {
    std::string name = r->Str();
    std::string pk = r->Str();
    if (!r->ok() || name.empty()) {
      r->Fail();
      return false;
    }
    out->AddModel(name, pk);
    size_t num_fields = r->Count(kMaxFields);
    for (size_t f = 0; r->ok() && f < num_fields; ++f) {
      FieldDef fd;
      fd.name = r->Str();
      int64_t type = r->Int();
      if (type < 0 || type > static_cast<int64_t>(FieldType::kRef)) {
        r->Fail();
        return false;
      }
      fd.type = static_cast<FieldType>(type);
      fd.unique = r->Int() != 0;
      fd.positive = r->Int() != 0;
      size_t num_choices = r->Count(kMaxChoices);
      for (size_t c = 0; r->ok() && c < num_choices; ++c) {
        fd.choices.push_back(r->Str());
      }
      fd.default_int = r->Int();
      fd.default_string = r->Str();
      if (!r->ok()) {
        return false;
      }
      out->AddField(name, std::move(fd));
    }
  }
  size_t num_relations = r->Count(kMaxRelations);
  for (size_t k = 0; r->ok() && k < num_relations; ++k) {
    std::string name = r->Str();
    std::string reverse = r->Str();
    int64_t from = r->Int();
    int64_t to = r->Int();
    int64_t kind = r->Int();
    int64_t on_delete = r->Int();
    if (!r->ok() || from < 0 || from >= static_cast<int64_t>(out->num_models()) || to < 0 ||
        to >= static_cast<int64_t>(out->num_models()) || kind < 0 ||
        kind > static_cast<int64_t>(RelationKind::kManyToMany) || on_delete < 0 ||
        on_delete > static_cast<int64_t>(OnDelete::kDoNothing)) {
      r->Fail();
      return false;
    }
    out->AddRelation(name, out->model(static_cast<int>(from)).name(),
                     out->model(static_cast<int>(to)).name(), static_cast<RelationKind>(kind),
                     static_cast<OnDelete>(on_delete), reverse);
  }
  return r->ok();
}

// --- Expressions / commands / paths ---------------------------------------------------------

namespace {

constexpr ExprKind kLastExprKind = ExprKind::kMapSet;
constexpr CommandKind kLastCommandKind = CommandKind::kClearLinks;

void SerializeType(const Type& t, ArtifactWriter* w) {
  w->Int(static_cast<int64_t>(t.kind));
  w->Int(t.model_id);
}

bool DeserializeType(ArtifactReader* r, size_t num_models, Type* out) {
  int64_t kind = r->Int();
  int64_t model = r->Int();
  if (!r->ok() || kind < 0 || kind > static_cast<int64_t>(Type::Kind::kRef) || model < -1 ||
      model >= static_cast<int64_t>(num_models)) {
    r->Fail();
    return false;
  }
  out->kind = static_cast<Type::Kind>(kind);
  out->model_id = static_cast<int>(model);
  return true;
}

void SerializeExpr(const Expr& e, ArtifactWriter* w) {
  w->Atom("e");
  w->Int(static_cast<int64_t>(e.kind));
  SerializeType(e.type, w);
  w->Str(e.str);
  w->Int(e.int_val);
  w->Int(static_cast<int64_t>(e.cmp_op));
  w->Int(static_cast<int64_t>(e.agg_op));
  w->Int(static_cast<int64_t>(e.rel_path.size()));
  for (const RelStep& s : e.rel_path) {
    w->Int(s.relation);
    w->Int(s.forward ? 1 : 0);
  }
  w->Int(static_cast<int64_t>(e.children.size()));
  for (const ExprP& c : e.children) {
    SerializeExpr(*c, w);
  }
}

ExprP DeserializeExpr(ArtifactReader* r, const Schema& schema, size_t depth) {
  // A corrupted child count could otherwise nest deep enough to smash the stack.
  if (depth > 1000) {
    r->Fail();
    return nullptr;
  }
  r->ExpectAtom("e");
  auto e = std::make_shared<Expr>();
  int64_t kind = r->Int();
  if (!r->ok() || kind < 0 || kind > static_cast<int64_t>(kLastExprKind)) {
    r->Fail();
    return nullptr;
  }
  e->kind = static_cast<ExprKind>(kind);
  if (!DeserializeType(r, schema.num_models(), &e->type)) {
    return nullptr;
  }
  e->str = r->Str();
  e->int_val = r->Int();
  int64_t cmp = r->Int();
  int64_t agg = r->Int();
  if (!r->ok() || cmp < 0 || cmp > static_cast<int64_t>(CmpOp::kGe) || agg < 0 ||
      agg > static_cast<int64_t>(AggOp::kMax)) {
    r->Fail();
    return nullptr;
  }
  e->cmp_op = static_cast<CmpOp>(cmp);
  e->agg_op = static_cast<AggOp>(agg);
  size_t num_steps = r->Count(kMaxRelSteps);
  for (size_t s = 0; r->ok() && s < num_steps; ++s) {
    RelStep step;
    int64_t rel = r->Int();
    if (rel < 0 || rel >= static_cast<int64_t>(schema.num_relations())) {
      r->Fail();
      return nullptr;
    }
    step.relation = static_cast<int>(rel);
    step.forward = r->Int() != 0;
    e->rel_path.push_back(step);
  }
  size_t num_children = r->Count(kMaxChildren);
  for (size_t c = 0; r->ok() && c < num_children; ++c) {
    ExprP child = DeserializeExpr(r, schema, depth + 1);
    if (child == nullptr) {
      return nullptr;
    }
    e->children.push_back(std::move(child));
  }
  return r->ok() ? e : nullptr;
}

void SerializeCommand(const Command& c, ArtifactWriter* w) {
  w->Atom("c");
  w->Int(static_cast<int64_t>(c.kind));
  w->Int(c.relation);
  w->Int(c.forward ? 1 : 0);
  w->Int(c.a != nullptr ? 1 : 0);
  if (c.a != nullptr) {
    SerializeExpr(*c.a, w);
  }
  w->Int(c.b != nullptr ? 1 : 0);
  if (c.b != nullptr) {
    SerializeExpr(*c.b, w);
  }
}

bool DeserializeCommand(ArtifactReader* r, const Schema& schema, Command* out) {
  r->ExpectAtom("c");
  int64_t kind = r->Int();
  int64_t rel = r->Int();
  if (!r->ok() || kind < 0 || kind > static_cast<int64_t>(kLastCommandKind) || rel < -1 ||
      rel >= static_cast<int64_t>(schema.num_relations())) {
    r->Fail();
    return false;
  }
  out->kind = static_cast<CommandKind>(kind);
  out->relation = static_cast<int>(rel);
  out->forward = r->Int() != 0;
  if (r->Int() != 0) {
    out->a = DeserializeExpr(r, schema, 0);
    if (out->a == nullptr) {
      return false;
    }
  }
  if (r->Int() != 0) {
    out->b = DeserializeExpr(r, schema, 0);
    if (out->b == nullptr) {
      return false;
    }
  }
  return r->ok();
}

}  // namespace

void SerializeCodePath(const CodePath& path, ArtifactWriter* w) {
  w->Atom("path");
  w->Str(path.op_name);
  w->Str(path.view_name);
  w->Int(static_cast<int64_t>(path.args.size()));
  for (const ArgDef& a : path.args) {
    w->Str(a.name);
    SerializeType(a.type, w);
    w->Int(a.unique_id ? 1 : 0);
  }
  w->Int(static_cast<int64_t>(path.commands.size()));
  for (const Command& c : path.commands) {
    SerializeCommand(c, w);
  }
}

bool DeserializeCodePath(ArtifactReader* r, const Schema& schema, CodePath* out) {
  r->ExpectAtom("path");
  out->op_name = r->Str();
  out->view_name = r->Str();
  size_t num_args = r->Count(kMaxArgs);
  for (size_t a = 0; r->ok() && a < num_args; ++a) {
    ArgDef arg;
    arg.name = r->Str();
    if (!DeserializeType(r, schema.num_models(), &arg.type)) {
      return false;
    }
    arg.unique_id = r->Int() != 0;
    out->args.push_back(std::move(arg));
  }
  size_t num_commands = r->Count(kMaxCommands);
  for (size_t c = 0; r->ok() && c < num_commands; ++c) {
    Command cmd;
    if (!DeserializeCommand(r, schema, &cmd)) {
      return false;
    }
    out->commands.push_back(std::move(cmd));
  }
  return r->ok();
}

// --- Content digests ------------------------------------------------------------------------

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string DigestHex(uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

std::string PathDigest(const Schema& schema, const CodePath& path) {
  // The path's fingerprint part: its canonical text plus the canonical schema fragment
  // it can reach — exactly what it contributes to every verdict key it takes part in.
  return DigestHex(Fnv1a64(FingerprintPath(schema, path).text));
}

std::string SchemaContentDigest(const Schema& schema) {
  ArtifactWriter w;
  SerializeSchema(schema, &w);
  return DigestHex(Fnv1a64(w.str()));
}

std::string SchemaStructuralDigest(const Schema& schema) {
  // The exact serialization with every name blanked. Field choices and defaults stay:
  // they are semantics (the encoding can constrain on them), not naming.
  ArtifactWriter w;
  w.Atom("schema-structure");
  w.Int(static_cast<int64_t>(schema.num_models()));
  for (size_t m = 0; m < schema.num_models(); ++m) {
    const ModelDef& md = schema.model(static_cast<int>(m));
    w.Int(static_cast<int64_t>(md.fields().size()));
    for (const FieldDef& f : md.fields()) {
      w.Int(static_cast<int64_t>(f.type));
      w.Int(f.unique ? 1 : 0);
      w.Int(f.positive ? 1 : 0);
      w.Int(static_cast<int64_t>(f.choices.size()));
      for (const std::string& c : f.choices) {
        w.Str(c);
      }
      w.Int(f.default_int);
      w.Str(f.default_string);
    }
  }
  w.Int(static_cast<int64_t>(schema.num_relations()));
  for (const RelationDef& rel : schema.relations()) {
    w.Int(rel.from_model);
    w.Int(rel.to_model);
    w.Int(static_cast<int64_t>(rel.kind));
    w.Int(static_cast<int64_t>(rel.on_delete));
  }
  return DigestHex(Fnv1a64(w.str()));
}

namespace {

// The expression kinds whose `str` is a field (or pk) name. Everything else keeps its
// str untouched — notably kStrLit (user data) and kArg (handler-chosen names).
bool StrIsFieldName(ExprKind k) {
  switch (k) {
    case ExprKind::kGetField:
    case ExprKind::kSetField:
    case ExprKind::kFilter:
    case ExprKind::kOrderBy:
    case ExprKind::kAggregate:
    case ExprKind::kMapSet:
      return true;
    default:
      return false;
  }
}

ExprP RemapFieldNames(const std::map<std::string, std::string>& renames, const ExprP& e) {
  if (e == nullptr) {
    return e;
  }
  auto copy = std::make_shared<Expr>(*e);
  for (ExprP& child : copy->children) {
    child = RemapFieldNames(renames, child);
  }
  if (StrIsFieldName(copy->kind)) {
    auto it = renames.find(copy->str);
    if (it != renames.end()) {
      copy->str = it->second;
    }
  }
  return copy;
}

}  // namespace

bool AdaptPathsToSchema(const Schema& stored, const Schema& current,
                        std::vector<CodePath>* paths) {
  if (stored.num_models() != current.num_models()) {
    return false;
  }
  // Field identity across the rename is (model id, declaration slot) — exactly what
  // structural equality pins down. Expressions reference fields by bare name with no
  // model attached, so the union of the per-model maps must itself be a function.
  std::map<std::string, std::string> renames;
  auto add = [&renames](const std::string& from, const std::string& to) {
    auto [it, inserted] = renames.emplace(from, to);
    return inserted || it->second == to;
  };
  for (size_t m = 0; m < stored.num_models(); ++m) {
    const ModelDef& sm = stored.model(static_cast<int>(m));
    const ModelDef& cm = current.model(static_cast<int>(m));
    if (sm.fields().size() != cm.fields().size()) {
      return false;
    }
    if (!add(sm.pk_name(), cm.pk_name())) {
      return false;
    }
    for (size_t f = 0; f < sm.fields().size(); ++f) {
      if (!add(sm.fields()[f].name, cm.fields()[f].name)) {
        return false;
      }
    }
  }
  for (auto it = renames.begin(); it != renames.end();) {
    it = it->first == it->second ? renames.erase(it) : std::next(it);
  }
  if (renames.empty()) {
    return true;
  }
  for (CodePath& path : *paths) {
    for (Command& c : path.commands) {
      c.a = RemapFieldNames(renames, c.a);
      c.b = RemapFieldNames(renames, c.b);
    }
  }
  return true;
}

}  // namespace noctua::soir
