#include "src/verifier/encoder.h"

#include <algorithm>

#include "src/support/check.h"

namespace noctua::verifier {

using smt::Term;
using soir::CmpOp;
using soir::Expr;
using soir::ExprKind;
using soir::FieldType;

Encoder::Encoder(const soir::Schema& schema, smt::TermFactory* factory, EncoderOptions options)
    : schema_(schema), f_(factory), options_(options) {
  ref_sorts_.reserve(schema.num_models());
  obj_sorts_.reserve(schema.num_models());
  for (size_t m = 0; m < schema.num_models(); ++m) {
    ref_sorts_.push_back(f_->RefSort(static_cast<int>(m)));
    std::vector<smt::Sort> fields;
    fields.push_back(ref_sorts_.back());  // tuple field 0: the primary key
    for (const soir::FieldDef& fd : schema.model(static_cast<int>(m)).fields()) {
      switch (fd.type) {
        case FieldType::kBool:
          fields.push_back(smt::BoolSort());
          break;
        case FieldType::kString:
          fields.push_back(smt::StringSort());
          break;
        default:  // Int, Float, Datetime, Ref-as-int
          fields.push_back(smt::IntSort());
          break;
      }
    }
    obj_sorts_.push_back(f_->TupleSort(fields));
  }
  pair_sorts_.reserve(schema.num_relations());
  for (const soir::RelationDef& rel : schema.relations()) {
    pair_sorts_.push_back(f_->PairSort(ref_sorts_[rel.from_model], ref_sorts_[rel.to_model]));
  }
}

int Encoder::FieldTupleIndex(int model, const std::string& field) const {
  const soir::ModelDef& md = schema_.model(model);
  if (md.IsPk(field) || field == "id") {
    return -1;
  }
  int idx = md.FieldIndex(field);
  NOCTUA_CHECK_MSG(idx >= 0, "unknown field " << field << " on " << md.name());
  return idx + 1;  // tuple slot 0 is the pk
}

EncState Encoder::FreshState(const std::string& prefix) {
  EncState s;
  s.models.resize(schema_.num_models());
  for (size_t m = 0; m < schema_.num_models(); ++m) {
    if (!options_.ModelActive(static_cast<int>(m))) {
      continue;  // projected out: null terms, so accidental use fails loudly
    }
    const std::string base = prefix + "_" + schema_.model(static_cast<int>(m)).name();
    s.models[m].ids = f_->Const(base + "_ids", f_->SetSort(ref_sorts_[m]));
    s.models[m].data = f_->Const(base + "_data", f_->ArraySort(ref_sorts_[m], obj_sorts_[m]));
    s.models[m].order =
        options_.OrderFor(static_cast<int>(m))
            ? f_->Const(base + "_order", f_->ArraySort(ref_sorts_[m], smt::IntSort()))
            : nullptr;
  }
  s.relations.resize(schema_.num_relations());
  for (size_t r = 0; r < schema_.num_relations(); ++r) {
    if (!options_.RelationActive(static_cast<int>(r))) {
      continue;
    }
    s.relations[r] = f_->Const(prefix + "_rel_" + schema_.relation(r).name + "_" +
                                   std::to_string(r),
                               f_->SetSort(pair_sorts_[r]));
  }
  return s;
}

smt::Term Encoder::StateAxioms(const EncState& s) {
  std::vector<Term> axioms;
  for (size_t m = 0; m < schema_.num_models(); ++m) {
    if (!options_.ModelActive(static_cast<int>(m))) {
      continue;
    }
    const EncModelState& ms = s.models[m];
    // Well-formedness: the pk stored in the tuple matches the index (§5.2).
    {
      Term v = f_->NewBoundVar(ref_sorts_[m]);
      axioms.push_back(f_->Forall(v, f_->Eq(f_->Proj(f_->Select(ms.data, v), 0), v)));
    }
    // Unique fields are injective over live objects.
    const soir::ModelDef& md = schema_.model(static_cast<int>(m));
    for (size_t i = 0; i < md.fields().size(); ++i) {
      if (!md.fields()[i].unique) {
        continue;
      }
      Term x = f_->NewBoundVar(ref_sorts_[m]);
      Term y = f_->NewBoundVar(ref_sorts_[m]);
      Term same_field = f_->Eq(f_->Proj(f_->Select(ms.data, x), i + 1),
                               f_->Proj(f_->Select(ms.data, y), i + 1));
      axioms.push_back(f_->Forall(
          x, f_->Forall(y, f_->Implies(f_->And({f_->Member(x, ms.ids), f_->Member(y, ms.ids),
                                                same_field}),
                                       f_->Eq(x, y)))));
    }
    // Order numbers are unique over live objects.
    if (options_.OrderFor(static_cast<int>(m))) {
      Term x = f_->NewBoundVar(ref_sorts_[m]);
      Term y = f_->NewBoundVar(ref_sorts_[m]);
      axioms.push_back(f_->Forall(
          x, f_->Forall(
                 y, f_->Implies(f_->And({f_->Member(x, ms.ids), f_->Member(y, ms.ids),
                                         f_->Eq(f_->Select(ms.order, x),
                                                f_->Select(ms.order, y))}),
                                f_->Eq(x, y)))));
    }
  }
  for (size_t r = 0; r < schema_.num_relations(); ++r) {
    if (!options_.RelationActive(static_cast<int>(r))) {
      continue;
    }
    const soir::RelationDef& rel = schema_.relation(static_cast<int>(r));
    // Referential integrity: associations connect live objects only. Under DO_NOTHING
    // the to side may dangle, so the axiom covers only the maintained direction.
    {
      Term p = f_->NewBoundVar(pair_sorts_[r]);
      Term live = f_->Member(f_->Fst(p), s.models[rel.from_model].ids);
      if (rel.on_delete != soir::OnDelete::kDoNothing) {
        live = f_->And(live, f_->Member(f_->Snd(p), s.models[rel.to_model].ids));
      }
      axioms.push_back(f_->Forall(p, f_->Implies(f_->Member(p, s.relations[r]), live)));
    }
    // Foreign keys hold at most one target.
    if (rel.kind == soir::RelationKind::kManyToOne) {
      Term p = f_->NewBoundVar(pair_sorts_[r]);
      Term q = f_->NewBoundVar(pair_sorts_[r]);
      axioms.push_back(f_->Forall(
          p, f_->Forall(q, f_->Implies(f_->And({f_->Member(p, s.relations[r]),
                                                f_->Member(q, s.relations[r]),
                                                f_->Eq(f_->Fst(p), f_->Fst(q))}),
                                       f_->Eq(f_->Snd(p), f_->Snd(q))))));
    }
  }
  return f_->And(std::move(axioms));
}

smt::Term Encoder::ArgConst(const soir::ArgDef& arg, const std::string& prefix) {
  std::string name = prefix + "_" + arg.name;
  auto it = arg_cache_.find(name);
  if (it != arg_cache_.end()) {
    return it->second;
  }
  smt::Sort sort;
  switch (arg.type.kind) {
    case soir::Type::Kind::kBool:
      sort = smt::BoolSort();
      break;
    case soir::Type::Kind::kString:
      sort = smt::StringSort();
      break;
    case soir::Type::Kind::kRef:
      sort = ref_sorts_[arg.type.model_id];
      break;
    default:
      sort = smt::IntSort();
      break;
  }
  Term c = f_->Const(name, sort);
  arg_cache_[name] = c;
  if (arg.unique_id) {
    unique_args_[arg.type.model_id].push_back(c);
  }
  return c;
}

smt::Term Encoder::UniqueIdAxiom(const EncState& initial) {
  if (!options_.unique_id_optimization) {
    return f_->True();
  }
  std::vector<Term> parts;
  for (const auto& [model, args] : unique_args_) {
    // The database never hands out the same new ID twice...
    parts.push_back(f_->Distinct(std::vector<Term>(args.begin(), args.end())));
    // ...and never one that is already live.
    for (Term a : args) {
      parts.push_back(f_->Not(f_->Member(a, initial.models[model].ids)));
    }
  }
  return f_->And(std::move(parts));
}

smt::Term Encoder::CmpTerm(CmpOp op, Term a, Term b) {
  if (a->sort()->is_int()) {
    switch (op) {
      case CmpOp::kEq:
        return f_->Eq(a, b);
      case CmpOp::kNe:
        return f_->Neq(a, b);
      case CmpOp::kLt:
        return f_->Lt(a, b);
      case CmpOp::kLe:
        return f_->Le(a, b);
      case CmpOp::kGt:
        return f_->Gt(a, b);
      case CmpOp::kGe:
        return f_->Ge(a, b);
    }
  }
  // Bool / String / Ref: only (in)equality is meaningful.
  switch (op) {
    case CmpOp::kEq:
      return f_->Eq(a, b);
    case CmpOp::kNe:
      return f_->Neq(a, b);
    default:
      return nullptr;  // caller marks the path unsupported
  }
}

smt::Term Encoder::FieldOf(const EncObj& obj, const std::string& field, PathCtx& ctx) {
  int idx = FieldTupleIndex(obj.model, field);
  if (idx < 0) {
    return obj.ref;
  }
  return f_->Proj(obj.tuple, idx);
}

smt::Term Encoder::FilterPred(Term x, int model, Term data0,
                              const std::vector<soir::RelStep>& path, size_t step,
                              const std::string& field, CmpOp op, Term value, PathCtx& ctx) {
  if (step == path.size()) {
    int idx = FieldTupleIndex(model, field);
    Term lhs = idx < 0 ? x : f_->Proj(f_->Select(data0, x), idx);
    Term cmp = CmpTerm(op, lhs, value);
    if (cmp == nullptr) {
      ctx.unsupported = true;
      return f_->True();
    }
    return cmp;
  }
  const soir::RelStep& rs = path[step];
  const soir::RelationDef& rel = schema_.relation(rs.relation);
  int target = rs.forward ? rel.to_model : rel.from_model;
  Term y = f_->NewBoundVar(ref_sorts_[target]);
  Term pair = rs.forward ? f_->MkPair(x, y) : f_->MkPair(y, x);
  Term inner = FilterPred(y, target, ctx.state.models[target].data, path, step + 1, field, op,
                          value, ctx);
  return f_->Exists(y, f_->And({f_->Member(pair, ctx.state.relations[rs.relation]),
                                f_->Member(y, ctx.state.models[target].ids), inner}));
}

Encoder::EncVal Encoder::Eval(const Expr& e, PathCtx& ctx) {
  auto scalar = [&](size_t i) { return Eval(*e.child(i), ctx).scalar; };
  EncVal out;
  switch (e.kind) {
    case ExprKind::kArg: {
      soir::ArgDef def{e.str, e.type, false};
      out.scalar = ArgConst(def, ctx.arg_prefix);
      return out;
    }
    case ExprKind::kBoolLit:
      out.scalar = f_->BoolLit(e.int_val != 0);
      return out;
    case ExprKind::kIntLit:
      out.scalar = f_->IntLit(e.int_val);
      return out;
    case ExprKind::kStrLit:
      out.scalar = f_->StrLit(e.str);
      return out;
    case ExprKind::kBoundObj:
      NOCTUA_CHECK_MSG(ctx.bound_obj != nullptr, "kBoundObj outside mapset");
      out.kind = EncVal::Kind::kObj;
      out.obj = *ctx.bound_obj;
      return out;
    case ExprKind::kAnd:
      out.scalar = f_->And(scalar(0), scalar(1));
      return out;
    case ExprKind::kOr:
      out.scalar = f_->Or(scalar(0), scalar(1));
      return out;
    case ExprKind::kNot:
      out.scalar = f_->Not(scalar(0));
      return out;
    case ExprKind::kAdd:
      out.scalar = f_->Add(scalar(0), scalar(1));
      return out;
    case ExprKind::kSub:
      out.scalar = f_->Sub(scalar(0), scalar(1));
      return out;
    case ExprKind::kMul:
      out.scalar = f_->Mul(scalar(0), scalar(1));
      return out;
    case ExprKind::kNegate:
      out.scalar = f_->Neg(scalar(0));
      return out;
    case ExprKind::kCmp: {
      Term a = scalar(0);
      Term b = scalar(1);
      Term cmp = CmpTerm(e.cmp_op, a, b);
      if (cmp == nullptr) {
        ctx.unsupported = true;
        cmp = f_->True();
      }
      out.scalar = cmp;
      return out;
    }
    case ExprKind::kConcat:
      out.scalar = f_->Concat(scalar(0), scalar(1));
      return out;
    case ExprKind::kGetField: {
      EncVal obj = Eval(*e.child(0), ctx);
      out.scalar = FieldOf(obj.obj, e.str, ctx);
      return out;
    }
    case ExprKind::kSetField: {
      EncVal obj = Eval(*e.child(0), ctx);
      Term v = scalar(1);
      int idx = FieldTupleIndex(obj.obj.model, e.str);
      NOCTUA_CHECK_MSG(idx > 0, "setf of pk is not allowed");
      out.kind = EncVal::Kind::kObj;
      out.obj = obj.obj;
      out.obj.tuple = f_->TupleWith(obj.obj.tuple, idx, v);
      return out;
    }
    case ExprKind::kNewObj: {
      int m = e.type.model_id;
      Term pk = scalar(0);
      std::vector<Term> fields;
      fields.push_back(pk);
      for (size_t i = 1; i < e.children.size(); ++i) {
        Term v = scalar(i);
        // Booleans/ints/strings arrive with the right sorts from the expression types.
        fields.push_back(v);
      }
      out.kind = EncVal::Kind::kObj;
      out.obj = EncObj{m, pk, f_->MkTuple(std::move(fields))};
      return out;
    }
    case ExprKind::kSingleton: {
      EncVal obj = Eval(*e.child(0), ctx);
      int m = obj.obj.model;
      out.kind = EncVal::Kind::kSet;
      out.set.model = m;
      out.set.member = f_->SetAdd(f_->EmptySet(ref_sorts_[m]), obj.obj.ref);
      out.set.data = f_->Store(ctx.state.models[m].data, obj.obj.ref, obj.obj.tuple);
      out.set.order = ctx.state.models[m].order;
      out.set.db_subset = false;
      return out;
    }
    case ExprKind::kDeref: {
      Term ref = scalar(0);
      int m = e.type.model_id;
      out.kind = EncVal::Kind::kObj;
      out.obj = EncObj{m, ref, f_->Select(ctx.state.models[m].data, ref)};
      return out;
    }
    case ExprKind::kAny:
    case ExprKind::kFirst:
    case ExprKind::kLast: {
      EncVal set = Eval(*e.child(0), ctx);
      int m = set.set.model;
      Term v = f_->NewBoundVar(ref_sorts_[m]);
      Term key;
      bool want_max = e.kind == ExprKind::kLast;
      if (e.kind == ExprKind::kAny) {
        // An arbitrary member; determinized as the scope's lowest-index member so the
        // choice does not observe insertion order.
        key = f_->IntLit(0);
      } else {
        if (set.set.order == nullptr) {
          ctx.unsupported = true;
          key = f_->IntLit(0);
        } else {
          key = f_->Select(set.set.order, v);
        }
      }
      Term chosen = f_->ArgExtreme(v, f_->Member(v, set.set.member), key, want_max);
      out.kind = EncVal::Kind::kObj;
      out.obj = EncObj{m, chosen, f_->Select(set.set.data, chosen)};
      return out;
    }
    case ExprKind::kRefOf: {
      EncVal obj = Eval(*e.child(0), ctx);
      out.scalar = obj.obj.ref;
      return out;
    }
    case ExprKind::kAll: {
      int m = e.type.model_id;
      out.kind = EncVal::Kind::kSet;
      out.set.model = m;
      out.set.member = ctx.state.models[m].ids;
      out.set.data = ctx.state.models[m].data;
      out.set.order = ctx.state.models[m].order;
      out.set.db_subset = true;
      return out;
    }
    case ExprKind::kFilter: {
      EncVal base = Eval(*e.child(0), ctx);
      Term value = scalar(1);
      Term x = f_->NewBoundVar(ref_sorts_[base.set.model]);
      Term pred = FilterPred(x, base.set.model, base.set.data, e.rel_path, 0, e.str, e.cmp_op,
                             value, ctx);
      out.kind = EncVal::Kind::kSet;
      out.set = base.set;
      out.set.member = f_->ArrayLambda(x, f_->And(f_->Member(x, base.set.member), pred));
      return out;
    }
    case ExprKind::kFollow: {
      EncVal base = Eval(*e.child(0), ctx);
      EncSet cur = base.set;
      for (const soir::RelStep& rs : e.rel_path) {
        const soir::RelationDef& rel = schema_.relation(rs.relation);
        int target = rs.forward ? rel.to_model : rel.from_model;
        Term y = f_->NewBoundVar(ref_sorts_[target]);
        Term x = f_->NewBoundVar(ref_sorts_[cur.model]);
        Term pair = rs.forward ? f_->MkPair(x, y) : f_->MkPair(y, x);
        Term related = f_->Exists(
            x, f_->And(f_->Member(x, cur.member),
                       f_->Member(pair, ctx.state.relations[rs.relation])));
        EncSet next;
        next.model = target;
        next.member =
            f_->ArrayLambda(y, f_->And(f_->Member(y, ctx.state.models[target].ids), related));
        next.data = ctx.state.models[target].data;
        next.order = ctx.state.models[target].order;
        next.db_subset = true;
        cur = next;
      }
      out.kind = EncVal::Kind::kSet;
      out.set = cur;
      return out;
    }
    case ExprKind::kOrderBy: {
      EncVal base = Eval(*e.child(0), ctx);
      out.kind = EncVal::Kind::kSet;
      out.set = base.set;
      if (!options_.use_order) {
        ctx.unsupported = true;
        return out;
      }
      int idx = FieldTupleIndex(base.set.model, e.str);
      const soir::ModelDef& md = schema_.model(base.set.model);
      bool int_like =
          idx > 0 && (md.fields()[idx - 1].type == FieldType::kInt ||
                      md.fields()[idx - 1].type == FieldType::kFloat ||
                      md.fields()[idx - 1].type == FieldType::kDatetime);
      if (!int_like) {
        // orderby over strings or pks is outside the integer-order encoding (§4.2).
        ctx.unsupported = true;
        return out;
      }
      // order'[x] = data[x].f (ascending) or -data[x].f (descending) — the paper's rule.
      Term x = f_->NewBoundVar(ref_sorts_[base.set.model]);
      Term keyed = f_->Proj(f_->Select(base.set.data, x), idx);
      out.set.order = f_->ArrayLambda(x, e.int_val ? keyed : f_->Neg(keyed));
      return out;
    }
    case ExprKind::kReverse: {
      EncVal base = Eval(*e.child(0), ctx);
      out.kind = EncVal::Kind::kSet;
      out.set = base.set;
      if (!options_.use_order || base.set.order == nullptr) {
        ctx.unsupported = true;
        return out;
      }
      // order'[x] = -order[x] (§4.2).
      Term x = f_->NewBoundVar(ref_sorts_[base.set.model]);
      out.set.order = f_->ArrayLambda(x, f_->Neg(f_->Select(base.set.order, x)));
      return out;
    }
    case ExprKind::kAggregate: {
      EncVal base = Eval(*e.child(0), ctx);
      int m = base.set.model;
      Term v = f_->NewBoundVar(ref_sorts_[m]);
      Term cond = f_->Member(v, base.set.member);
      if (e.agg_op == soir::AggOp::kCount) {
        out.scalar = f_->Count(v, cond);
        return out;
      }
      int idx = FieldTupleIndex(m, e.str);
      if (idx <= 0) {
        ctx.unsupported = true;
        out.scalar = f_->IntLit(0);
        return out;
      }
      Term value = f_->Proj(f_->Select(base.set.data, v), idx);
      switch (e.agg_op) {
        case soir::AggOp::kSum:
          out.scalar = f_->Sum(v, cond, value);
          break;
        case soir::AggOp::kMin:
          out.scalar = f_->MinAgg(v, cond, value);
          break;
        case soir::AggOp::kMax:
          out.scalar = f_->MaxAgg(v, cond, value);
          break;
        default:
          NOCTUA_UNREACHABLE("bad agg op");
      }
      return out;
    }
    case ExprKind::kExists: {
      EncVal base = Eval(*e.child(0), ctx);
      Term v = f_->NewBoundVar(ref_sorts_[base.set.model]);
      out.scalar = f_->Exists(v, f_->Member(v, base.set.member));
      return out;
    }
    case ExprKind::kMapSet: {
      EncVal base = Eval(*e.child(0), ctx);
      int m = base.set.model;
      int idx = FieldTupleIndex(m, e.str);
      NOCTUA_CHECK_MSG(idx > 0, "mapset of pk is not allowed");
      Term x = f_->NewBoundVar(ref_sorts_[m]);
      EncObj bound{m, x, f_->Select(base.set.data, x)};
      const EncObj* saved = ctx.bound_obj;
      ctx.bound_obj = &bound;
      Term value = Eval(*e.child(1), ctx).scalar;
      ctx.bound_obj = saved;
      out.kind = EncVal::Kind::kSet;
      out.set = base.set;
      out.set.data = f_->ArrayLambda(x, f_->TupleWith(f_->Select(base.set.data, x), idx, value));
      return out;
    }
  }
  NOCTUA_UNREACHABLE("bad expr kind");
}

void Encoder::ApplyCommand(const soir::Command& cmd, PathCtx& ctx) {
  switch (cmd.kind) {
    case soir::CommandKind::kGuard: {
      ctx.guards.push_back(Eval(*cmd.a, ctx).scalar);
      return;
    }
    case soir::CommandKind::kUpdate: {
      EncVal val = Eval(*cmd.a, ctx);
      const EncSet& set = val.set;
      int m = set.model;
      EncModelState& ms = ctx.state.models[m];
      Term old_ids = ms.ids;
      {
        Term x = f_->NewBoundVar(ref_sorts_[m]);
        ms.data = f_->ArrayLambda(
            x, f_->Ite(f_->Member(x, set.member), f_->Select(set.data, x),
                       f_->Select(ms.data, x)));
      }
      if (!set.db_subset) {
        ms.ids = f_->SetUnion(old_ids, set.member);
        if (ms.order != nullptr) {
          // Inserted objects are appended: they get a fresh order number greater than
          // every live object's (matching the storage engine's monotone counter).
          Term fresh = f_->Const("freshord_" + std::to_string(fresh_counter_++),
                                 smt::IntSort());
          Term v = f_->NewBoundVar(ref_sorts_[m]);
          ctx.defs.push_back(f_->Forall(
              v, f_->Implies(f_->Member(v, old_ids),
                             f_->Lt(f_->Select(ms.order, v), fresh))));
          Term x = f_->NewBoundVar(ref_sorts_[m]);
          ms.order = f_->ArrayLambda(
              x, f_->Ite(f_->And(f_->Member(x, set.member), f_->Not(f_->Member(x, old_ids))),
                         fresh, f_->Select(ms.order, x)));
        }
      }
      return;
    }
    case soir::CommandKind::kDelete: {
      EncVal val = Eval(*cmd.a, ctx);
      const EncSet& set = val.set;
      int m = set.model;
      ctx.state.models[m].ids = f_->SetDifference(ctx.state.models[m].ids, set.member);
      for (size_t r = 0; r < schema_.num_relations(); ++r) {
        const soir::RelationDef& rel = schema_.relation(static_cast<int>(r));
        if (rel.from_model != m && rel.to_model != m) {
          continue;
        }
        Term p = f_->NewBoundVar(pair_sorts_[r]);
        std::vector<Term> keep = {f_->Member(p, ctx.state.relations[r])};
        if (rel.from_model == m) {
          keep.push_back(f_->Not(f_->Member(f_->Fst(p), set.member)));
        }
        if (rel.to_model == m && rel.on_delete != soir::OnDelete::kDoNothing) {
          keep.push_back(f_->Not(f_->Member(f_->Snd(p), set.member)));
        }
        ctx.state.relations[r] = f_->ArrayLambda(p, f_->And(std::move(keep)));
      }
      return;
    }
    case soir::CommandKind::kLink:
    case soir::CommandKind::kRLink: {
      int r = cmd.relation;
      const soir::RelationDef& rel = schema_.relation(r);
      Term to_ref = Eval(*cmd.b, ctx).obj.ref;
      if (cmd.kind == soir::CommandKind::kLink) {
        Term from_ref = Eval(*cmd.a, ctx).obj.ref;
        if (rel.kind == soir::RelationKind::kManyToOne) {
          // A foreign key replaces any previous target of `from`.
          Term p = f_->NewBoundVar(pair_sorts_[r]);
          ctx.state.relations[r] = f_->ArrayLambda(
              p, f_->Ite(f_->Eq(f_->Fst(p), from_ref), f_->Eq(f_->Snd(p), to_ref),
                         f_->Member(p, ctx.state.relations[r])));
        } else {
          ctx.state.relations[r] =
              f_->SetAdd(ctx.state.relations[r], f_->MkPair(from_ref, to_ref));
        }
      } else {
        EncVal set = Eval(*cmd.a, ctx);
        Term p = f_->NewBoundVar(pair_sorts_[r]);
        Term in_set = f_->Member(f_->Fst(p), set.set.member);
        if (rel.kind == soir::RelationKind::kManyToOne) {
          ctx.state.relations[r] = f_->ArrayLambda(
              p, f_->Ite(in_set, f_->Eq(f_->Snd(p), to_ref),
                         f_->Member(p, ctx.state.relations[r])));
        } else {
          ctx.state.relations[r] = f_->ArrayLambda(
              p, f_->Or(f_->Member(p, ctx.state.relations[r]),
                        f_->And(in_set, f_->Eq(f_->Snd(p), to_ref))));
        }
      }
      return;
    }
    case soir::CommandKind::kDelink: {
      Term from_ref = Eval(*cmd.a, ctx).obj.ref;
      Term to_ref = Eval(*cmd.b, ctx).obj.ref;
      ctx.state.relations[cmd.relation] =
          f_->SetRemove(ctx.state.relations[cmd.relation], f_->MkPair(from_ref, to_ref));
      return;
    }
    case soir::CommandKind::kClearLinks: {
      Term obj_ref = Eval(*cmd.a, ctx).obj.ref;
      int r = cmd.relation;
      Term p = f_->NewBoundVar(pair_sorts_[r]);
      Term side = cmd.forward ? f_->Fst(p) : f_->Snd(p);
      ctx.state.relations[r] = f_->ArrayLambda(
          p, f_->And(f_->Member(p, ctx.state.relations[r]), f_->Neq(side, obj_ref)));
      return;
    }
  }
  NOCTUA_UNREACHABLE("bad command kind");
}

Encoder::PathResult Encoder::ApplyPath(const soir::CodePath& path, const EncState& in,
                                       const std::string& arg_prefix) {
  PathCtx ctx;
  ctx.path = &path;
  ctx.arg_prefix = arg_prefix;
  ctx.state = in;
  // Pre-register argument constants so unique-id arguments are known even when the path's
  // guard structure would otherwise delay their first use.
  for (const soir::ArgDef& a : path.args) {
    ArgConst(a, arg_prefix);
  }
  for (const soir::Command& cmd : path.commands) {
    ApplyCommand(cmd, ctx);
  }
  PathResult r;
  r.pre = f_->And(std::move(ctx.guards));
  r.post = std::move(ctx.state);
  r.defs = f_->And(std::move(ctx.defs));
  r.unsupported = ctx.unsupported;
  return r;
}

smt::Term Encoder::StateEq(const EncState& a, const EncState& b,
                           const std::set<int>& order_models) {
  std::vector<Term> parts;
  for (size_t m = 0; m < schema_.num_models(); ++m) {
    if (!options_.ModelActive(static_cast<int>(m))) {
      continue;  // projected models are untouched by both sides: trivially equal
    }
    parts.push_back(f_->SetEq(a.models[m].ids, b.models[m].ids));
    // Data must agree on live objects (dead slots are garbage and may differ).
    {
      Term x = f_->NewBoundVar(ref_sorts_[m]);
      parts.push_back(f_->Forall(
          x, f_->Implies(f_->Member(x, a.models[m].ids),
                         f_->Eq(f_->Select(a.models[m].data, x),
                                f_->Select(b.models[m].data, x)))));
    }
    if (order_models.count(static_cast<int>(m)) != 0 && a.models[m].order != nullptr &&
        b.models[m].order != nullptr) {
      // Relative order must agree: the actual integers do not matter (§4.2).
      Term x = f_->NewBoundVar(ref_sorts_[m]);
      Term y = f_->NewBoundVar(ref_sorts_[m]);
      Term both_live = f_->And(f_->Member(x, a.models[m].ids), f_->Member(y, a.models[m].ids));
      Term lt_a = f_->Lt(f_->Select(a.models[m].order, x), f_->Select(a.models[m].order, y));
      Term lt_b = f_->Lt(f_->Select(b.models[m].order, x), f_->Select(b.models[m].order, y));
      parts.push_back(
          f_->Forall(x, f_->Forall(y, f_->Implies(both_live, f_->Eq(lt_a, lt_b)))));
    }
  }
  for (size_t r = 0; r < schema_.num_relations(); ++r) {
    if (!options_.RelationActive(static_cast<int>(r))) {
      continue;
    }
    parts.push_back(f_->SetEq(a.relations[r], b.relations[r]));
  }
  return f_->And(std::move(parts));
}

}  // namespace noctua::verifier
