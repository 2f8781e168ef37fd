// SOIR — the SMT-verifiable Object Intermediate Representation (paper §3, Table 1).
//
// A code path is (arguments, path conditions, commands): the analyzer emits one CodePath
// per effectful execution path of a view function. Expressions model local computation and
// side-effect-free database queries; commands model state transitions (guard / update /
// delete / link / delink / rlink / clearlinks).
//
// SOIR is deliberately small: no loops, no recursion, no closures (§3.3). Higher-level
// constructs of the source program (branching, user functions, viewsets, mixins) are
// desugared by the analyzer, never represented here.
#ifndef SRC_SOIR_AST_H_
#define SRC_SOIR_AST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/soir/schema.h"

namespace noctua::soir {

// The simple type system of SOIR (paper Table 1, "Constants and types").
struct Type {
  enum class Kind : uint8_t { kBool, kInt, kFloat, kString, kDatetime, kObj, kSet, kRef };
  Kind kind = Kind::kInt;
  int model_id = -1;  // for kObj / kSet / kRef

  static Type Bool() { return {Kind::kBool, -1}; }
  static Type Int() { return {Kind::kInt, -1}; }
  static Type Float() { return {Kind::kFloat, -1}; }
  static Type String() { return {Kind::kString, -1}; }
  static Type Datetime() { return {Kind::kDatetime, -1}; }
  static Type Obj(int m) { return {Kind::kObj, m}; }
  static Type Set(int m) { return {Kind::kSet, m}; }
  static Type Ref(int m) { return {Kind::kRef, m}; }

  bool operator==(const Type& o) const { return kind == o.kind && model_id == o.model_id; }
  std::string ToString(const Schema* schema = nullptr) const;
};

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
const char* CmpOpName(CmpOp op);

enum class AggOp : uint8_t { kCount, kSum, kMin, kMax };
const char* AggOpName(AggOp op);

// One step of a relation path in a nested filter/follow (e.g. article__author in §2.3):
// relation id + traversal direction.
struct RelStep {
  int relation = -1;
  bool forward = true;
};

enum class ExprKind : uint8_t {
  // Leaves.
  kArg,       // code path argument; str = name; type carried in `type`
  kBoolLit,   // int_val
  kIntLit,    // int_val (also Float/Datetime literals, fixed-point)
  kStrLit,    // str
  kBoundObj,  // the iterated object inside kMapSet's value expressions

  // Scalar operators.
  kAnd, kOr, kNot,
  kAdd, kSub, kMul, kNegate,
  kCmp,     // children [a, b]; cmp_op
  kConcat,

  // Objects.
  kGetField,  // children [obj]; str = field name ("id"/pk name returns the ref)
  kSetField,  // children [obj, value]; str = field name  (SOIR setf)
  kNewObj,    // children: one value per data field (schema order); plus child 0 = pk ref
              // expression. Constructs an object that need not exist yet.

  // Conversions (Table 1).
  kSingleton,  // obj -> set
  kDeref,      // ref -> obj (reads the current state)
  kAny,        // set -> obj (an arbitrary member; deterministic choice in our semantics)
  kRefOf,      // obj -> ref

  // Queries (Table 1).
  kAll,       // the query set of every live object of `type.model_id`
  kFilter,    // children [qs, value]; rel_path + str(field, may be pk) + cmp_op
  kFollow,    // children [qs]; rel_path
  kOrderBy,   // children [qs]; str = field; int_val = 1 ascending / 0 descending
  kReverse,   // children [qs]
  kFirst,     // children [qs] -> obj (smallest order number)
  kLast,      // children [qs] -> obj (largest order number)
  kAggregate, // children [qs]; agg_op; str = field (ignored for count)
  kExists,    // children [qs] -> bool
  kMapSet,    // children [qs, value]; str = field: every object's `field` set to value,
              // where value may mention kBoundObj (e.g. F-expressions / increments)
};

class Expr;
using ExprP = std::shared_ptr<const Expr>;

class Expr {
 public:
  ExprKind kind;
  Type type;
  std::vector<ExprP> children;
  std::string str;
  int64_t int_val = 0;
  CmpOp cmp_op = CmpOp::kEq;
  AggOp agg_op = AggOp::kCount;
  std::vector<RelStep> rel_path;

  const ExprP& child(size_t i) const { return children[i]; }
};

// --- Expression constructors --------------------------------------------------------------
ExprP MakeArg(const std::string& name, Type type);
ExprP MakeBoolLit(bool v);
ExprP MakeIntLit(int64_t v, Type::Kind kind = Type::Kind::kInt);
ExprP MakeStrLit(const std::string& v);
ExprP MakeBoundObj(int model_id);
ExprP MakeAnd(ExprP a, ExprP b);
ExprP MakeOr(ExprP a, ExprP b);
ExprP MakeNot(ExprP a);
ExprP MakeAdd(ExprP a, ExprP b);
ExprP MakeSub(ExprP a, ExprP b);
ExprP MakeMul(ExprP a, ExprP b);
ExprP MakeNegate(ExprP a);
ExprP MakeCmp(CmpOp op, ExprP a, ExprP b);
ExprP MakeConcat(ExprP a, ExprP b);
ExprP MakeGetField(ExprP obj, const std::string& field, Type field_type);
ExprP MakeSetField(ExprP obj, const std::string& field, ExprP value);
ExprP MakeNewObj(int model_id, ExprP pk, std::vector<ExprP> field_values);
ExprP MakeSingleton(ExprP obj);
ExprP MakeDeref(ExprP ref);
ExprP MakeAny(ExprP set);
ExprP MakeRefOf(ExprP obj);
ExprP MakeAll(int model_id);
ExprP MakeFilter(ExprP set, std::vector<RelStep> rel_path, const std::string& field, CmpOp op,
                 ExprP value);
ExprP MakeFollow(ExprP set, std::vector<RelStep> rel_path, int result_model);
ExprP MakeOrderBy(ExprP set, const std::string& field, bool ascending);
ExprP MakeReverse(ExprP set);
ExprP MakeFirst(ExprP set);
ExprP MakeLast(ExprP set);
ExprP MakeAggregate(ExprP set, AggOp op, const std::string& field);
ExprP MakeExists(ExprP set);
ExprP MakeMapSet(ExprP set, const std::string& field, ExprP value);

// --- Commands (paper Table 1, bottom) -------------------------------------------------------

enum class CommandKind : uint8_t {
  kGuard,       // abort unless expr is true
  kUpdate,      // merge the objects of `set` into the current state
  kDelete,      // remove the objects of `set` (incident associations removed too)
  kLink,        // add association (from_obj, to_obj) in `relation`
  kDelink,      // remove that association
  kRLink,       // link all objects of `set` with to_obj
  kClearLinks,  // remove all associations of obj in `relation` (direction given)
};

struct Command {
  CommandKind kind;
  ExprP a;           // guard cond / update|delete|rlink set / link from_obj / clearlinks obj
  ExprP b;           // link|rlink to_obj
  int relation = -1;
  bool forward = true;  // clearlinks direction: true = obj is on the `from` side
};

// An argument of a code path. `unique_id` marks arguments that carry database-generated
// globally-unique IDs of new objects (the unique-ID optimization, §5.2).
struct ArgDef {
  std::string name;
  Type type;
  bool unique_id = false;
};

// The unit of verification: one effectful execution path of one operation.
struct CodePath {
  std::string op_name;    // e.g. "batch_update#delete" (view function + path discriminator)
  std::string view_name;  // the owning HTTP endpoint
  std::vector<ArgDef> args;
  std::vector<Command> commands;

  // True if any command mutates state (non-guard).
  bool IsEffectful() const;
  // Models read / written and relations touched, used by the verifier's independence
  // pre-filter. Deletes count every incident relation as touched; relation traversals
  // count every model along the path as read.
  void CollectFootprint(const Schema& schema, std::vector<int>* models_read,
                        std::vector<int>* models_written,
                        std::vector<int>* relations_touched) const;
};

// Walks all sub-expressions of a path (guards, sets, values), calling fn on each.
void VisitExprs(const CodePath& path, const std::function<void(const Expr&)>& fn);

// Models whose storage order the path observes (first/last/reverse/orderby). Order
// divergence on any other model is unobservable (the basis of the paper's decoupled
// order encoding, §4.2).
std::set<int> OrderRelevantModels(const CodePath& path);

}  // namespace noctua::soir

#endif  // SRC_SOIR_AST_H_
