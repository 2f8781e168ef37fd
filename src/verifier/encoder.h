// Order-aware array-based SMT encoding of database states and SOIR code paths
// (paper §4.2, Table 2; axioms from §5.2).
//
// Each model state is encoded as the paper's triple:
//     ids   : Set<Ref>             the live object IDs
//     data  : Array<Ref, Tuple>    object data; tuple field 0 is the primary key
//     order : Array<Ref, Int>      decoupled order information
// and each relation as an association set Set<Pair<Ref,Ref>>.
//
// Query sets are encoded compositionally as (member set, effective data, effective order):
// filter narrows the member set, orderby/reverse rewrite the effective order (the paper's
// order'[x] = data[x].f and order'[x] = -order[x] rules), and constructed objects overlay
// the data array. Order costs nothing unless an order primitive appears — the decoupling
// that motivates the design (§2.2.2).
//
// Applying a code path to a state yields its commit precondition (conjunction of guards),
// the post state, and side definitions (fresh order numbers for inserts). Unsupported
// constructs set `unsupported`, which the checker treats conservatively (restrict the
// pair), mirroring §3.3's fallback.
#ifndef SRC_VERIFIER_ENCODER_H_
#define SRC_VERIFIER_ENCODER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/smt/term.h"
#include "src/soir/ast.h"
#include "src/soir/schema.h"

namespace noctua::verifier {

struct EncModelState {
  smt::Term ids = nullptr;
  smt::Term data = nullptr;
  smt::Term order = nullptr;
};

struct EncState {
  std::vector<EncModelState> models;
  std::vector<smt::Term> relations;  // Set<Pair<from Ref, to Ref>> per relation
};

struct EncoderOptions {
  // The order-decoupling ablation (Table 7 / Fig. 9): when false, order primitives are
  // not encoded and any path using them is reported unsupported.
  bool use_order = true;
  // §5.2: assert that database-generated IDs of new objects are globally unique.
  bool unique_id_optimization = true;
  // Models whose order information must be materialized (order arrays, uniqueness axioms,
  // insert-order definitions). This is the paper's decoupling payoff in action: models
  // outside this set pay nothing for order. Populated by the checker from the paths'
  // order-relevant models.
  std::set<int> order_models;

  // Footprint projection: when `project` is true, only the models/relations listed below
  // are materialized — FreshState leaves other entries null and StateAxioms/StateEq skip
  // them. The checker fills these with the pair's footprint closure (every model and
  // relation either path can reach, plus relation endpoints and delete-incident
  // relations). Sound because the dropped axioms constrain only atoms absent from every
  // kept assertion and are independently satisfiable (choose empty relations and
  // distinct data fields), so the projected query is equisatisfiable with the full one.
  bool project = false;
  std::set<int> active_models;
  std::set<int> active_relations;

  bool OrderFor(int model) const { return use_order && order_models.count(model) != 0; }
  bool ModelActive(int model) const { return !project || active_models.count(model) != 0; }
  bool RelationActive(int rel) const { return !project || active_relations.count(rel) != 0; }
};

class Encoder {
 public:
  Encoder(const soir::Schema& schema, smt::TermFactory* factory, EncoderOptions options);

  // --- Sorts -----------------------------------------------------------------------------
  smt::Sort RefSortOf(int model) const;
  smt::Sort ObjSortOf(int model) const;   // Tuple: [pk ref] + data fields
  smt::Sort PairSortOf(int relation) const;

  // --- States ----------------------------------------------------------------------------
  // A fresh symbolic state whose constants are prefixed with `prefix`.
  EncState FreshState(const std::string& prefix);

  // Well-formedness axioms (§5.2): data[id].pk == id, unique-field injectivity, unique
  // order numbers, foreign-key multiplicity, and association referential integrity.
  smt::Term StateAxioms(const EncState& s);

  // --- Paths -----------------------------------------------------------------------------
  struct PathResult {
    smt::Term pre = nullptr;    // conjunction of the path's guards
    EncState post;              // state after all effects
    smt::Term defs = nullptr;   // side constraints (fresh insert order numbers)
    bool unsupported = false;   // hit a construct the encoding cannot express
  };
  // Encodes `path` applied to `in`; argument constants are named "<arg_prefix>_<name>"
  // and cached, so re-encoding the same path with the same prefix reuses them.
  PathResult ApplyPath(const soir::CodePath& path, const EncState& in,
                       const std::string& arg_prefix);

  // State equality modulo dead data: ids and relations must agree, data must agree on
  // live ids, and relative order must agree for the models in `order_models`.
  smt::Term StateEq(const EncState& a, const EncState& b, const std::set<int>& order_models);

  // The unique-ID optimization axiom over every unique argument created so far, plus
  // freshness w.r.t. the given initial state (§5.2). True() when disabled or unneeded.
  smt::Term UniqueIdAxiom(const EncState& initial);

  const soir::Schema& schema() const { return schema_; }
  smt::TermFactory& factory() { return *f_; }

 private:
  struct EncObj {
    int model = -1;
    smt::Term ref = nullptr;
    smt::Term tuple = nullptr;
  };
  struct EncSet {
    int model = -1;
    smt::Term member = nullptr;  // Set<Ref>
    smt::Term data = nullptr;    // effective data (overlays constructed objects)
    smt::Term order = nullptr;   // effective order (rewritten by orderby/reverse); may be
                                 // null when use_order is false
    bool db_subset = true;       // member ⊆ state ids (false once constructed objs enter)
  };
  struct EncVal {
    enum class Kind { kScalar, kObj, kSet } kind = Kind::kScalar;
    smt::Term scalar = nullptr;
    EncObj obj;
    EncSet set;
  };
  struct PathCtx {
    const soir::CodePath* path;
    std::string arg_prefix;
    EncState state;
    std::vector<smt::Term> guards;
    std::vector<smt::Term> defs;
    const EncObj* bound_obj = nullptr;  // kMapSet iteration variable
    bool unsupported = false;
  };

  EncVal Eval(const soir::Expr& e, PathCtx& ctx);
  smt::Term FieldOf(const EncObj& obj, const std::string& field, PathCtx& ctx);
  // Predicate: does `x` (a Ref term with obj data array `data0`) satisfy the filter
  // rel_path/field/op/value starting at `model`?
  smt::Term FilterPred(smt::Term x, int model, smt::Term data0,
                       const std::vector<soir::RelStep>& path, size_t step,
                       const std::string& field, soir::CmpOp op, smt::Term value,
                       PathCtx& ctx);
  smt::Term CmpTerm(soir::CmpOp op, smt::Term a, smt::Term b);
  void ApplyCommand(const soir::Command& cmd, PathCtx& ctx);
  smt::Term ArgConst(const soir::ArgDef& arg, const std::string& prefix);
  int FieldTupleIndex(int model, const std::string& field) const;  // -1 for pk

  const soir::Schema& schema_;
  smt::TermFactory* f_;
  EncoderOptions options_;
  std::vector<smt::Sort> ref_sorts_;
  std::vector<smt::Sort> obj_sorts_;
  std::vector<smt::Sort> pair_sorts_;
  std::map<std::string, smt::Term> arg_cache_;
  // Unique-id argument constants grouped by model (for the distinct axiom).
  std::map<int, std::vector<smt::Term>> unique_args_;
  int fresh_counter_ = 0;
};

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_ENCODER_H_
