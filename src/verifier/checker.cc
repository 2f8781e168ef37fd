#include "src/verifier/checker.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "src/obs/obs.h"
#include "src/smt/backend.h"
#include "src/support/check.h"
#include "src/support/stopwatch.h"

namespace noctua::verifier {

using smt::Term;

const char* CheckOutcomeName(CheckOutcome o) {
  switch (o) {
    case CheckOutcome::kPass:
      return "pass";
    case CheckOutcome::kFail:
      return "fail";
    case CheckOutcome::kTimeout:
      return "timeout";
    case CheckOutcome::kUnsupported:
      return "unsupported";
  }
  return "?";
}

std::string KeyOptions(const CheckerOptions& options) {
  return "o" + std::to_string(options.encoder.use_order) + "u" +
         std::to_string(options.encoder.unique_id_optimization) + "i" +
         std::to_string(options.solver.max_int_domain) + "k" +
         std::to_string(options.solver.scope.size());
}

Checker::PathFacts Checker::Facts(const soir::CodePath& path) const {
  PathFacts f;
  f.path = &path;
  path.CollectFootprint(schema_, &f.reads, &f.writes, &f.relations);

  std::set<int> models;
  std::set<int> relations;
  auto add_model = [&](int m) {
    if (m >= 0) {
      models.insert(m);
    }
  };
  auto add_relation = [&](int r) {
    if (r < 0 || !relations.insert(r).second) {
      return;
    }
    // Endpoints of every active relation are active: referential-integrity axioms and
    // traversal encodings mention both sides.
    const soir::RelationDef& rel = schema_.relation(r);
    add_model(rel.from_model);
    add_model(rel.to_model);
  };
  for (const soir::ArgDef& a : path.args) {
    add_model(a.type.model_id);  // unique-id axioms reference the arg's model state
  }
  soir::VisitExprs(path, [&](const soir::Expr& e) {
    add_model(e.type.model_id);
    for (const soir::RelStep& rs : e.rel_path) {
      add_relation(rs.relation);
    }
  });
  for (const soir::Command& cmd : path.commands) {
    add_relation(cmd.relation);
    if (cmd.kind == soir::CommandKind::kDelete) {
      // Deletes rewrite every incident relation.
      int m = cmd.a->type.model_id;
      for (size_t r = 0; r < schema_.num_relations(); ++r) {
        const soir::RelationDef& rel = schema_.relation(static_cast<int>(r));
        if (rel.from_model == m || rel.to_model == m) {
          add_relation(static_cast<int>(r));
        }
      }
    }
  }
  f.scope_models.assign(models.begin(), models.end());
  f.scope_relations.assign(relations.begin(), relations.end());
  f.order = soir::OrderRelevantModels(path);
  return f;
}

bool Checker::Independent(const PathFacts& p, const PathFacts& q) {
  auto intersects = [](const std::vector<int>& a, const std::vector<int>& b) {
    return std::any_of(a.begin(), a.end(), [&](int x) {
      return std::find(b.begin(), b.end(), x) != b.end();
    });
  };
  // Writes of one side may not touch anything the other side reads or writes, and the two
  // sides may not touch a common relation (we do not split relation reads from writes, so
  // this is conservative).
  if (intersects(p.writes, q.reads) || intersects(p.writes, q.writes) ||
      intersects(q.writes, p.reads)) {
    return false;
  }
  if (intersects(p.relations, q.relations)) {
    return false;
  }
  return true;
}

Checker::PairScope Checker::ComputeScope(const PathFacts& p, const PathFacts& q) {
  // Each half is closed under "relation -> its endpoints", so their union is the pair's
  // closure.
  PairScope s;
  s.models.insert(p.scope_models.begin(), p.scope_models.end());
  s.models.insert(q.scope_models.begin(), q.scope_models.end());
  s.relations.insert(p.scope_relations.begin(), p.scope_relations.end());
  s.relations.insert(q.scope_relations.begin(), q.scope_relations.end());
  return s;
}

void Checker::ApplyProjection(const PathFacts& p, const PathFacts& q,
                              EncoderOptions* enc_options) const {
  if (!options_.project_footprint) {
    return;
  }
  PairScope scope = ComputeScope(p, q);
  enc_options->project = true;
  enc_options->active_models = std::move(scope.models);
  enc_options->active_relations = std::move(scope.relations);
}

CheckOutcome Checker::WorseOutcome(CheckOutcome a, CheckOutcome b) {
  auto severity = [](CheckOutcome o) {
    switch (o) {
      case CheckOutcome::kPass:
        return 0;
      case CheckOutcome::kFail:
        return 1;
      case CheckOutcome::kTimeout:
        return 2;
      case CheckOutcome::kUnsupported:
        return 3;
    }
    return 3;
  };
  return severity(a) >= severity(b) ? a : b;
}

CheckOutcome Checker::RunSolverOn(smt::SolverBackend& backend, smt::TermFactory& factory,
                                  const std::vector<Term>& query, CheckStats* stats) const {
  obs::ScopedSpan span("solve", obs::kCatSolve);
  smt::SolveResult r = backend.Check(factory, query);
  const smt::SolverStats& ss = backend.stats();
  if (stats != nullptr) {
    stats->solver_nodes = ss.nodes_visited;
  }
  if (obs::Enabled()) {
    // Flush per-query solver introspection in one shot — the backend counted its own
    // nodes, so the search itself carried no instrumentation.
    span.Arg("nodes", ss.nodes_visited);
    span.Arg("assignments", ss.evaluations);
    span.Arg("atoms", ss.num_atoms);
    obs::Add(obs::Counter::kSolverNodes, ss.nodes_visited);
    obs::Add(obs::Counter::kSolverAssignments, ss.evaluations);
    obs::Add(obs::Counter::kGroundExpansions, ss.binders_expanded);
    obs::Add(obs::Counter::kSimplifyHits, factory.intern_hits());
    if (ss.incremental_reuse_hits > 0) {
      obs::Add(obs::Counter::kSolverIncrementalReuse, ss.incremental_reuse_hits);
    }
    if (ss.symmetry_pruned > 0) {
      obs::Add(obs::Counter::kSolverSymmetryPruned, ss.symmetry_pruned);
    }
    obs::Observe(obs::Hist::kSolveMicros, static_cast<uint64_t>(ss.seconds * 1e6));
    obs::Observe(obs::Hist::kGroundMicros, static_cast<uint64_t>(ss.ground_seconds * 1e6));
    obs::Observe(obs::Hist::kSolverNodesPerQuery, ss.nodes_visited);
    obs::Observe(obs::Hist::kSolverAssignmentsPerQuery, ss.evaluations);
    obs::Observe(obs::Hist::kGroundExpansionsPerQuery, ss.binders_expanded);
  }
  switch (r) {
    case smt::SolveResult::kUnsat:
      return CheckOutcome::kPass;
    case smt::SolveResult::kSat:
      return CheckOutcome::kFail;
    case smt::SolveResult::kUnknown:
      return CheckOutcome::kTimeout;
  }
  return CheckOutcome::kTimeout;
}

CheckOutcome Checker::CheckCommutativity(const soir::CodePath& p,
                                         const soir::CodePath& q) const {
  const PathFacts pf = Facts(p);
  const PathFacts qf = Facts(q);
  return PairSession(*this, pf, qf).Commutativity();
}

CheckOutcome Checker::CheckSemantic(const soir::CodePath& p, const soir::CodePath& q) const {
  const PathFacts pf = Facts(p);
  const PathFacts qf = Facts(q);
  PairSession session(*this, pf, qf);
  CheckOutcome a = session.NotInvalidatePQ();
  // The worse of the two directions decides; a restricting direction one settles it.
  return a == CheckOutcome::kPass ? session.NotInvalidateQP() : a;
}

// ---------------------------------------------------------------------------
// PairSession
// ---------------------------------------------------------------------------

// The pair's symbolic prefix under one order set (paper §5.2), which both rules read: S0
// with P(x) and Q(y) applied in both orders, and each path applied to a fresh origin
// state. The NotInvalidate directions need nothing more: their p0 and q0 are the first
// applications (pq1 = P on S0, qp1 = Q on S0), their replays are the second ones (qp2 = P
// after Q, pq2 = Q after P), and their frame is a subset of the commutativity roots.
// Each query is kept whole, in the order the solver receives it.
struct Checker::PairSession::Encoding {
  std::set<int> order;  // the order set as the encoder materializes it: the session's key

  std::vector<Term> com_roots;
  std::vector<Term> ni_roots_pq;
  std::vector<Term> ni_roots_qp;
  bool com_unsupported = false;
  bool ni_unsupported_pq = false;
  bool ni_unsupported_qp = false;
};

struct Checker::PairSession::Shared {
  explicit Shared(const Checker& c) : checker(c), factory(c.TakeFactory()) {}
  // The backend holds terms interned in the factory and leases its scratch maps from it,
  // so it goes first; then the factory goes back.
  ~Shared() {
    backend.reset();
    checker.GiveBackFactory(std::move(factory));
  }
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  const Checker& checker;
  std::unique_ptr<smt::TermFactory> factory;
  std::unique_ptr<smt::SolverBackend> backend;
  EncoderOptions enc_options;  // the checker's, projected onto the pair's footprint

  // At most two: one per distinct order set the session's rules compare under.
  std::vector<std::unique_ptr<Encoding>> encodings;
};

std::unique_ptr<smt::TermFactory> Checker::TakeFactory() const {
  {
    std::lock_guard<std::mutex> lock(factories_mu_);
    if (!spare_factories_.empty()) {
      std::unique_ptr<smt::TermFactory> factory = std::move(spare_factories_.back());
      spare_factories_.pop_back();
      return factory;
    }
  }
  return std::make_unique<smt::TermFactory>();
}

void Checker::GiveBackFactory(std::unique_ptr<smt::TermFactory> factory) const {
  factory->Reset();
  std::lock_guard<std::mutex> lock(factories_mu_);
  spare_factories_.push_back(std::move(factory));
}

Checker::PairSession::PairSession(const Checker& checker, const PathFacts& p,
                                  const PathFacts& q, const std::set<int>* order_models)
    : checker_(checker),
      pf_(p),
      qf_(q),
      p_(*p.path),
      q_(*q.path),
      order_models_(order_models),
      prefiltered_(checker.Prefilterable(p, q)) {}

std::set<int> Checker::PairSession::PairOrder() const {
  // Order information is materialized only for models whose order this pair (or, when
  // the caller provides it, any operation of the app) observes — the decoupling of §4.2.
  std::set<int> order = pf_.order;
  order.insert(qf_.order.begin(), qf_.order.end());
  return order;
}

Checker::PairSession::~PairSession() = default;

const Checker::PairSession::Encoding& Checker::PairSession::EncodingFor(
    const std::set<int>& order) {
  if (shared_ == nullptr) {
    shared_ = std::make_unique<Shared>(checker_);
    shared_->backend = smt::MakeBackend(checker_.options_.solver);
    shared_->enc_options = checker_.options_.encoder;
    checker_.ApplyProjection(pf_, qf_, &shared_->enc_options);
  }
  Shared& sh = *shared_;
  // Two order sets that differ only in models the encoder would not give an order array
  // (order off, or the model projected out) build the same query, so they share one.
  std::set<int> materialized;
  if (sh.enc_options.use_order) {
    std::copy_if(order.begin(), order.end(),
                 std::inserter(materialized, materialized.end()),
                 [&](int m) { return sh.enc_options.ModelActive(m); });
  }
  for (const std::unique_ptr<Encoding>& e : sh.encodings) {
    if (e->order == materialized) {
      return *e;
    }
  }

  Stopwatch watch;
  obs::ScopedSpan encode_span("encode", obs::kCatEncode);
  EncoderOptions enc_options = sh.enc_options;
  enc_options.order_models = materialized;
  Encoder enc(checker_.schema_, sh.factory.get(), enc_options);
  Encoding& e = *sh.encodings.emplace_back(std::make_unique<Encoding>());
  e.order = std::move(materialized);

  EncState s0 = enc.FreshState("S0");
  // S0 + P(x) + Q(y)
  Encoder::PathResult pq1 = enc.ApplyPath(p_, s0, "x");
  Encoder::PathResult pq2 = enc.ApplyPath(q_, pq1.post, "y");
  // S0 + Q(y) + P(x)  (same argument constants: same prefixes)
  Encoder::PathResult qp1 = enc.ApplyPath(q_, s0, "y");
  Encoder::PathResult qp2 = enc.ApplyPath(p_, qp1.post, "x");
  Term com_goal = sh.factory->Not(enc.StateEq(pq2.post, qp2.post, e.order));
  // The replayed effects must be producible: their preconditions hold on fresh origin
  // states (paper §5.2).
  EncState sa = enc.FreshState("Sa");
  EncState sb = enc.FreshState("Sb");
  Encoder::PathResult pre_p = enc.ApplyPath(p_, sa, "x");
  Encoder::PathResult pre_q = enc.ApplyPath(q_, sb, "y");
  // Freshness of database-generated IDs holds w.r.t. the shared initial state only: an
  // op's origin state may causally follow the other op (e.g. following a question right
  // after it was created), so new IDs may be live there.
  Term uid = enc.UniqueIdAxiom(s0);
  Term sa_axioms = enc.StateAxioms(sa);
  Term sb_axioms = enc.StateAxioms(sb);
  Term s0_axioms = enc.StateAxioms(s0);

  // Assertion order is a search heuristic: the (negated) goal first, so the solver's atom
  // selection is driven by what can actually refute the property; then the most
  // constraining facts; axioms last.
  e.com_roots = {com_goal,  uid,       pre_p.pre, pre_q.pre, sa_axioms, sb_axioms,
                 pq1.defs, pq2.defs, qp1.defs,  qp2.defs,  s0_axioms};
  const bool origins_unsupported =
      pq1.unsupported || qp1.unsupported || pre_p.unsupported || pre_q.unsupported;
  e.com_unsupported = origins_unsupported || pq2.unsupported || qp2.unsupported;

  // Each NotInvalidate direction replays the other path's effect on S0 and negates the
  // checked path's precondition there, goal first as in the commutativity query. Then
  // comes the frame: both effects producible from fresh origin states, plus all state
  // axioms, the same terms as the commutativity roots, so the backend's ground cache
  // serves them. The rule itself needs only the *replayed* path's origin precondition;
  // asserting the checked path's as well lets both directions share the frame, and it
  // preserves satisfiability: any witness of the rule extends by choosing that origin
  // state to be S0 itself, where the rule already asserts the checked precondition.
  const std::vector<Term> ni_frame = {uid,       pre_p.pre, pre_q.pre,
                                      sa_axioms, sb_axioms, s0_axioms};
  e.ni_roots_pq = {sh.factory->Not(qp2.pre), pq1.pre, qp1.defs};
  e.ni_roots_pq.insert(e.ni_roots_pq.end(), ni_frame.begin(), ni_frame.end());
  e.ni_unsupported_pq = origins_unsupported || qp2.unsupported;
  e.ni_roots_qp = {sh.factory->Not(pq2.pre), qp1.pre, pq1.defs};
  e.ni_roots_qp.insert(e.ni_roots_qp.end(), ni_frame.begin(), ni_frame.end());
  e.ni_unsupported_qp = origins_unsupported || pq2.unsupported;

  encode_span.Arg("terms", sh.factory->size());
  if (obs::Enabled()) {
    obs::Observe(obs::Hist::kEncodeMicros, static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  }
  return e;
}

CheckOutcome Checker::PairSession::Commutativity(CheckStats* stats) {
  if (prefiltered_) {
    return CheckOutcome::kPass;
  }
  const Encoding& e = EncodingFor(order_models_ != nullptr ? *order_models_ : PairOrder());
  if (e.com_unsupported) {
    return CheckOutcome::kUnsupported;
  }
  return checker_.RunSolverOn(*shared_->backend, *shared_->factory, e.com_roots, stats);
}

CheckOutcome Checker::PairSession::NotInvalidatePQ(CheckStats* stats) {
  return NotInvalidateDir(/*pq=*/true, stats);
}

CheckOutcome Checker::PairSession::NotInvalidateQP(CheckStats* stats) {
  return NotInvalidateDir(/*pq=*/false, stats);
}

CheckOutcome Checker::PairSession::NotInvalidateDir(bool pq, CheckStats* stats) {
  if (prefiltered_) {
    return CheckOutcome::kPass;
  }
  const Encoding& e = EncodingFor(PairOrder());
  if (pq ? e.ni_unsupported_pq : e.ni_unsupported_qp) {
    return CheckOutcome::kUnsupported;
  }
  return checker_.RunSolverOn(*shared_->backend, *shared_->factory,
                              pq ? e.ni_roots_pq : e.ni_roots_qp, stats);
}

}  // namespace noctua::verifier
