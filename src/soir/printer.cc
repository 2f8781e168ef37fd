#include "src/soir/printer.h"

#include "src/support/check.h"

namespace noctua::soir {
namespace {

std::string PrintRelPath(const Schema& schema, const std::vector<RelStep>& path) {
  std::string out;
  for (const RelStep& s : path) {
    const RelationDef& rel = schema.relation(s.relation);
    out += (s.forward ? rel.name + "+" : rel.reverse_name + "-") + ".";
  }
  return out;
}

}  // namespace

std::string PrintExpr(const Schema& schema, const Expr& e) {
  auto p = [&](size_t i) { return PrintExpr(schema, *e.child(i)); };
  switch (e.kind) {
    case ExprKind::kArg:
      return e.str;
    case ExprKind::kBoolLit:
      return e.int_val ? "true" : "false";
    case ExprKind::kIntLit:
      return std::to_string(e.int_val);
    case ExprKind::kStrLit:
      return "\"" + e.str + "\"";
    case ExprKind::kBoundObj:
      return "it";
    case ExprKind::kAnd:
      return "(" + p(0) + " and " + p(1) + ")";
    case ExprKind::kOr:
      return "(" + p(0) + " or " + p(1) + ")";
    case ExprKind::kNot:
      return "not(" + p(0) + ")";
    case ExprKind::kAdd:
      return "(" + p(0) + " + " + p(1) + ")";
    case ExprKind::kSub:
      return "(" + p(0) + " - " + p(1) + ")";
    case ExprKind::kMul:
      return "(" + p(0) + " * " + p(1) + ")";
    case ExprKind::kNegate:
      return "-(" + p(0) + ")";
    case ExprKind::kCmp:
      return "(" + p(0) + " " + CmpOpName(e.cmp_op) + " " + p(1) + ")";
    case ExprKind::kConcat:
      return "concat(" + p(0) + ", " + p(1) + ")";
    case ExprKind::kGetField:
      return p(0) + "." + e.str;
    case ExprKind::kSetField:
      return "setf(" + e.str + ", " + p(1) + ", " + p(0) + ")";
    case ExprKind::kNewObj: {
      const ModelDef& m = schema.model(e.type.model_id);
      std::string out = "new " + m.name() + "{" + m.pk_name() + ": " + p(0);
      for (size_t i = 1; i < e.children.size(); ++i) {
        out += ", " + m.field(static_cast<int>(i) - 1).name + ": " + p(i);
      }
      return out + "}";
    }
    case ExprKind::kSingleton:
      return "singleton(" + p(0) + ")";
    case ExprKind::kDeref:
      return "deref<" + schema.model(e.type.model_id).name() + ">(" + p(0) + ")";
    case ExprKind::kAny:
      return "any(" + p(0) + ")";
    case ExprKind::kRefOf:
      return "ref(" + p(0) + ")";
    case ExprKind::kAll:
      return "all<" + schema.model(e.type.model_id).name() + ">";
    case ExprKind::kFilter:
      return "filter(" + PrintRelPath(schema, e.rel_path) + e.str + " " + CmpOpName(e.cmp_op) +
             " " + p(1) + ", " + p(0) + ")";
    case ExprKind::kFollow:
      return "follow(" + PrintRelPath(schema, e.rel_path) + ", " + p(0) + ")";
    case ExprKind::kOrderBy:
      return "orderby(" + e.str + (e.int_val ? " asc" : " desc") + ", " + p(0) + ")";
    case ExprKind::kReverse:
      return "reverse(" + p(0) + ")";
    case ExprKind::kFirst:
      return "first(" + p(0) + ")";
    case ExprKind::kLast:
      return "last(" + p(0) + ")";
    case ExprKind::kAggregate:
      return std::string(AggOpName(e.agg_op)) + "(" + (e.str.empty() ? "" : e.str + ", ") +
             p(0) + ")";
    case ExprKind::kExists:
      return "exists(" + p(0) + ")";
    case ExprKind::kMapSet:
      return "mapset(" + e.str + " := " + p(1) + ", " + p(0) + ")";
  }
  NOCTUA_UNREACHABLE("bad expr kind");
}

std::string PrintCommand(const Schema& schema, const Command& c) {
  switch (c.kind) {
    case CommandKind::kGuard:
      return "guard(" + PrintExpr(schema, *c.a) + ")";
    case CommandKind::kUpdate:
      return "update(" + PrintExpr(schema, *c.a) + ")";
    case CommandKind::kDelete:
      return "delete(" + PrintExpr(schema, *c.a) + ")";
    case CommandKind::kLink:
      return "link<" + schema.relation(c.relation).name + ">(" + PrintExpr(schema, *c.a) +
             ", " + PrintExpr(schema, *c.b) + ")";
    case CommandKind::kDelink:
      return "delink<" + schema.relation(c.relation).name + ">(" + PrintExpr(schema, *c.a) +
             ", " + PrintExpr(schema, *c.b) + ")";
    case CommandKind::kRLink:
      return "rlink<" + schema.relation(c.relation).name + ">(" + PrintExpr(schema, *c.a) +
             ", " + PrintExpr(schema, *c.b) + ")";
    case CommandKind::kClearLinks:
      return "clearlinks<" + schema.relation(c.relation).name + ">(" +
             PrintExpr(schema, *c.a) + (c.forward ? ", forward)" : ", backward)");
  }
  NOCTUA_UNREACHABLE("bad command kind");
}

// --- Canonical fingerprints ---------------------------------------------------------------

int CanonicalizationCtx::ModelId(int m) {
  auto it = model_map_.find(m);
  if (it != model_map_.end()) {
    return it->second;
  }
  int id = static_cast<int>(models_.size());
  model_map_[m] = id;
  models_.push_back(m);
  return id;
}

int CanonicalizationCtx::RelationId(int r) {
  auto it = relation_map_.find(r);
  if (it != relation_map_.end()) {
    return it->second;
  }
  int id = static_cast<int>(relations_.size());
  relation_map_[r] = id;
  relations_.push_back(r);
  // Endpoints are part of the relation's identity (referential-integrity axioms mention
  // both sides), so assign them now even if the path text never names them.
  const RelationDef& rel = schema_.relation(r);
  ModelId(rel.from_model);
  ModelId(rel.to_model);
  return id;
}

std::string CanonicalizationCtx::SchemaSignature() const {
  std::string out;
  for (size_t k = 0; k < models_.size(); ++k) {
    const ModelDef& md = schema_.model(models_[k]);
    out += "m" + std::to_string(k) + "[";
    for (const FieldDef& fd : md.fields()) {
      switch (fd.type) {
        case FieldType::kBool:
          out += 'b';
          break;
        case FieldType::kString:
          out += 's';
          break;
        default:  // Int / Float / Datetime: all integer-sorted and order-comparable
          out += 'i';
          break;
      }
      if (fd.unique) {
        out += '!';
      }
    }
    out += "];";
  }
  for (size_t k = 0; k < relations_.size(); ++k) {
    const RelationDef& rel = schema_.relation(relations_[k]);
    out += "r" + std::to_string(k) + "(" +
           std::to_string(static_cast<int>(rel.kind)) + "," +
           std::to_string(static_cast<int>(rel.on_delete)) + "," +
           std::to_string(model_map_.at(rel.from_model)) + "," +
           std::to_string(model_map_.at(rel.to_model)) + ");";
  }
  return out;
}

namespace {

// Per-path canonical printing state: argument names densely renumbered in declaration
// order (the encoder pre-registers them in exactly that order).
struct CanonPathCtx {
  CanonicalizationCtx* ctx;
  std::map<std::string, int> arg_ids;

  int ArgId(const std::string& name) {
    auto it = arg_ids.find(name);
    if (it != arg_ids.end()) {
      return it->second;
    }
    int id = static_cast<int>(arg_ids.size());
    arg_ids[name] = id;
    return id;
  }
};

std::string CanonType(const Type& t, CanonicalizationCtx* ctx) {
  switch (t.kind) {
    case Type::Kind::kBool:
      return "b";
    case Type::Kind::kString:
      return "s";
    case Type::Kind::kObj:
      return "O" + std::to_string(ctx->ModelId(t.model_id));
    case Type::Kind::kSet:
      return "S" + std::to_string(ctx->ModelId(t.model_id));
    case Type::Kind::kRef:
      return "R" + std::to_string(ctx->ModelId(t.model_id));
    default:  // Int / Float / Datetime share the integer sort
      return "i";
  }
}

// Mirrors the encoder's FieldTupleIndex: the pk renders as "pk", data fields as their
// tuple slot.
std::string CanonField(const Schema& schema, int model, const std::string& field) {
  const ModelDef& md = schema.model(model);
  if (md.IsPk(field) || field == "id") {
    return "pk";
  }
  int idx = md.FieldIndex(field);
  if (idx < 0) {
    return "?" + field;  // unknown fields keep their name: never silently collide
  }
  return std::to_string(idx + 1);
}

std::string CanonRelPath(const Schema& schema, const std::vector<RelStep>& path,
                         CanonPathCtx& c) {
  std::string out;
  for (const RelStep& s : path) {
    out += "r" + std::to_string(c.ctx->RelationId(s.relation)) + (s.forward ? "+" : "-") + ".";
  }
  return out;
}

// The model a filter's terminal field lives on: the base set's model, advanced through
// the relation path.
int RelPathTarget(const Schema& schema, int base_model, const std::vector<RelStep>& path) {
  int m = base_model;
  for (const RelStep& s : path) {
    const RelationDef& rel = schema.relation(s.relation);
    m = s.forward ? rel.to_model : rel.from_model;
  }
  return m;
}

std::string CanonExpr(const Schema& schema, const Expr& e, CanonPathCtx& c) {
  auto p = [&](size_t i) { return CanonExpr(schema, *e.child(i), c); };
  switch (e.kind) {
    case ExprKind::kArg:
      return "a" + std::to_string(c.ArgId(e.str));
    case ExprKind::kBoolLit:
      return e.int_val ? "true" : "false";
    case ExprKind::kIntLit:
      return std::to_string(e.int_val);
    case ExprKind::kStrLit:
      return "\"" + e.str + "\"";
    case ExprKind::kBoundObj:
      return "it";
    case ExprKind::kAnd:
      return "(" + p(0) + " and " + p(1) + ")";
    case ExprKind::kOr:
      return "(" + p(0) + " or " + p(1) + ")";
    case ExprKind::kNot:
      return "not(" + p(0) + ")";
    case ExprKind::kAdd:
      return "(" + p(0) + " + " + p(1) + ")";
    case ExprKind::kSub:
      return "(" + p(0) + " - " + p(1) + ")";
    case ExprKind::kMul:
      return "(" + p(0) + " * " + p(1) + ")";
    case ExprKind::kNegate:
      return "-(" + p(0) + ")";
    case ExprKind::kCmp: {
      // The comparison's sort class decides which operators encode (only equality exists
      // for bool/string/ref), so it is part of the fingerprint.
      return "(" + p(0) + " " + CmpOpName(e.cmp_op) + "/" + CanonType(e.child(0)->type, c.ctx) +
             " " + p(1) + ")";
    }
    case ExprKind::kConcat:
      return "concat(" + p(0) + ", " + p(1) + ")";
    case ExprKind::kGetField:
      return p(0) + ".f" + CanonField(schema, e.child(0)->type.model_id, e.str);
    case ExprKind::kSetField:
      return "setf(f" + CanonField(schema, e.child(0)->type.model_id, e.str) + ", " + p(1) +
             ", " + p(0) + ")";
    case ExprKind::kNewObj: {
      std::string out = "new m" + std::to_string(c.ctx->ModelId(e.type.model_id)) + "{" + p(0);
      for (size_t i = 1; i < e.children.size(); ++i) {
        out += ", " + p(i);
      }
      return out + "}";
    }
    case ExprKind::kSingleton:
      return "singleton(" + p(0) + ")";
    case ExprKind::kDeref:
      return "deref<m" + std::to_string(c.ctx->ModelId(e.type.model_id)) + ">(" + p(0) + ")";
    case ExprKind::kAny:
      return "any(" + p(0) + ")";
    case ExprKind::kRefOf:
      return "ref(" + p(0) + ")";
    case ExprKind::kAll:
      return "all<m" + std::to_string(c.ctx->ModelId(e.type.model_id)) + ">";
    case ExprKind::kFilter: {
      int target = RelPathTarget(schema, e.child(0)->type.model_id, e.rel_path);
      return "filter(" + CanonRelPath(schema, e.rel_path, c) + "f" +
             CanonField(schema, target, e.str) + " " + CmpOpName(e.cmp_op) + "/" +
             CanonType(e.child(1)->type, c.ctx) + " " + p(1) + ", " + p(0) + ")";
    }
    case ExprKind::kFollow:
      return "follow(" + CanonRelPath(schema, e.rel_path, c) + ", " + p(0) + ")";
    case ExprKind::kOrderBy:
      return "orderby(f" + CanonField(schema, e.child(0)->type.model_id, e.str) +
             (e.int_val ? " asc" : " desc") + ", " + p(0) + ")";
    case ExprKind::kReverse:
      return "reverse(" + p(0) + ")";
    case ExprKind::kFirst:
      return "first(" + p(0) + ")";
    case ExprKind::kLast:
      return "last(" + p(0) + ")";
    case ExprKind::kAggregate:
      return std::string(AggOpName(e.agg_op)) + "(" +
             (e.str.empty() ? ""
                            : "f" + CanonField(schema, e.child(0)->type.model_id, e.str) + ", ") +
             p(0) + ")";
    case ExprKind::kExists:
      return "exists(" + p(0) + ")";
    case ExprKind::kMapSet:
      return "mapset(f" + CanonField(schema, e.child(0)->type.model_id, e.str) + " := " + p(1) +
             ", " + p(0) + ")";
  }
  NOCTUA_UNREACHABLE("bad expr kind");
}

std::string CanonCommand(const Schema& schema, const Command& cmd, CanonPathCtx& c) {
  switch (cmd.kind) {
    case CommandKind::kGuard:
      return "guard(" + CanonExpr(schema, *cmd.a, c) + ")";
    case CommandKind::kUpdate:
      return "update(" + CanonExpr(schema, *cmd.a, c) + ")";
    case CommandKind::kDelete: {
      // The encoder rewrites every relation incident to the deleted model, so those
      // relations (and which side the model is on) are part of the query even though the
      // path text never names them.
      int m = cmd.a->type.model_id;
      std::string out = "delete(" + CanonExpr(schema, *cmd.a, c) + ")[";
      for (size_t r = 0; r < schema.num_relations(); ++r) {
        const RelationDef& rel = schema.relation(static_cast<int>(r));
        if (rel.from_model != m && rel.to_model != m) {
          continue;
        }
        out += "r" + std::to_string(c.ctx->RelationId(static_cast<int>(r)));
        if (rel.from_model == m) {
          out += "f";
        }
        if (rel.to_model == m) {
          out += "t";
        }
        out += ",";
      }
      return out + "]";
    }
    case CommandKind::kLink:
      return "link<r" + std::to_string(c.ctx->RelationId(cmd.relation)) + ">(" +
             CanonExpr(schema, *cmd.a, c) + ", " + CanonExpr(schema, *cmd.b, c) + ")";
    case CommandKind::kDelink:
      return "delink<r" + std::to_string(c.ctx->RelationId(cmd.relation)) + ">(" +
             CanonExpr(schema, *cmd.a, c) + ", " + CanonExpr(schema, *cmd.b, c) + ")";
    case CommandKind::kRLink:
      return "rlink<r" + std::to_string(c.ctx->RelationId(cmd.relation)) + ">(" +
             CanonExpr(schema, *cmd.a, c) + ", " + CanonExpr(schema, *cmd.b, c) + ")";
    case CommandKind::kClearLinks:
      return "clearlinks<r" + std::to_string(c.ctx->RelationId(cmd.relation)) + ">(" +
             CanonExpr(schema, *cmd.a, c) + (cmd.forward ? ", forward)" : ", backward)");
  }
  NOCTUA_UNREACHABLE("bad command kind");
}

}  // namespace

std::string CanonicalPath(const Schema& schema, const CodePath& path,
                          CanonicalizationCtx* ctx) {
  CanonPathCtx c;
  c.ctx = ctx;
  std::string out = "args(";
  for (const ArgDef& a : path.args) {
    out += "a" + std::to_string(c.ArgId(a.name)) + ":" + CanonType(a.type, ctx);
    if (a.unique_id) {
      out += "!";
    }
    out += ";";
  }
  out += ")";
  for (const Command& cmd : path.commands) {
    out += " " + CanonCommand(schema, cmd, c) + ";";
  }
  return out;
}

PathFingerprint FingerprintPath(const Schema& schema, const CodePath& path) {
  CanonicalizationCtx ctx(schema);
  PathFingerprint fp;
  fp.text = CanonicalPath(schema, path, &ctx);
  fp.text += "\n";
  fp.text += ctx.SchemaSignature();
  fp.models = ctx.models();
  fp.relations = ctx.relations();
  return fp;
}

std::string PrintCodePath(const Schema& schema, const CodePath& path) {
  std::string out = "path " + path.op_name + " (view " + path.view_name + ")\n";
  out += "  args:";
  for (const ArgDef& a : path.args) {
    out += " " + a.name + ":" + a.type.ToString(&schema);
    if (a.unique_id) {
      out += "!";
    }
  }
  out += "\n";
  for (const Command& c : path.commands) {
    out += "  " + PrintCommand(schema, c) + "\n";
  }
  return out;
}

}  // namespace noctua::soir
