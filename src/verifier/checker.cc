#include "src/verifier/checker.h"

#include <algorithm>
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
         std::to_string(options.solver.scope.default_size());
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
                                  CheckStats* stats) const {
  obs::ScopedSpan span("solve", obs::kCatSolve);
  smt::SolveResult r = backend.Check(factory);
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

struct Checker::PairSession::Shared {
  explicit Shared(const Checker& c) : checker(c), factory(c.TakeFactory()) {}
  // The encoders and the backend hold terms interned in the factory (the backend also
  // leases its scratch maps from it), so they go first; then the factory goes back.
  ~Shared() {
    backend.reset();
    ni_enc.reset();
    com_enc.reset();
    checker.GiveBackFactory(std::move(factory));
  }
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  const Checker& checker;
  std::unique_ptr<smt::TermFactory> factory;
  std::unique_ptr<Encoder> com_enc;
  std::unique_ptr<Encoder> ni_enc;
  std::unique_ptr<smt::SolverBackend> backend;

  // What the backend currently holds asserted; commutativity and NotInvalidate
  // interleave by re-asserting their base (cheap with incremental solving on: grounding
  // is cached per root).
  enum class Mode : uint8_t { kNone, kCom, kNi };
  Mode mode = Mode::kNone;

  bool com_built = false;
  std::vector<Term> com_assertions;
  bool com_unsupported = false;

  bool ni_built = false;
  std::vector<Term> ni_frame;     // asserted once, shared by both directions
  std::vector<Term> ni_delta_pq;  // pushed/popped per direction
  std::vector<Term> ni_delta_qp;
  bool ni_unsupported_pq = false;
  bool ni_unsupported_qp = false;
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

void Checker::PairSession::EnsureShared() {
  if (shared_ != nullptr) {
    return;
  }
  shared_ = std::make_unique<Shared>(checker_);
  shared_->backend = smt::MakeBackend(checker_.options_.solver);
}

CheckOutcome Checker::PairSession::Commutativity(CheckStats* stats) {
  Stopwatch watch;
  if (prefiltered_) {
    if (stats != nullptr) {
      stats->prefiltered = true;
      stats->seconds = watch.ElapsedSeconds();
    }
    return CheckOutcome::kPass;
  }
  EnsureShared();
  Shared& sh = *shared_;
  if (!sh.com_built) {
    sh.com_built = true;
    obs::ScopedSpan encode_span("encode_com", obs::kCatEncode);

    EncoderOptions enc_options = checker_.options_.encoder;
    enc_options.order_models = order_models_ != nullptr ? *order_models_ : PairOrder();
    checker_.ApplyProjection(pf_, qf_, &enc_options);
    sh.com_enc = std::make_unique<Encoder>(checker_.schema_, sh.factory.get(), enc_options);
    Encoder& enc = *sh.com_enc;

    EncState s0 = enc.FreshState("S0");
    // S0 + P(x) + Q(y)
    Encoder::PathResult pq1 = enc.ApplyPath(p_, s0, "x");
    Encoder::PathResult pq2 = enc.ApplyPath(q_, pq1.post, "y");
    // S0 + Q(y) + P(x)  (same argument constants: same prefixes)
    Encoder::PathResult qp1 = enc.ApplyPath(q_, s0, "y");
    Encoder::PathResult qp2 = enc.ApplyPath(p_, qp1.post, "x");
    sh.com_unsupported =
        pq1.unsupported || pq2.unsupported || qp1.unsupported || qp2.unsupported;

    // Assertion order is a search heuristic: the (negated) goal first, so the solver's
    // atom selection is driven by what can actually refute the property; then the most
    // constraining facts; axioms last. The assertions stay separate roots so the
    // incremental grounder can cache the ones shared with the NotInvalidate frame (S0's
    // axioms, the unique-id axiom).
    std::vector<Term>& assertions = sh.com_assertions;
    assertions.push_back(
        sh.factory->Not(enc.StateEq(pq2.post, qp2.post, enc_options.order_models)));
    // The replayed effects must be producible: assert their preconditions on fresh origin
    // states (paper §5.2).
    EncState sa = enc.FreshState("Sa");
    EncState sb = enc.FreshState("Sb");
    Encoder::PathResult pre_p = enc.ApplyPath(p_, sa, "x");
    Encoder::PathResult pre_q = enc.ApplyPath(q_, sb, "y");
    sh.com_unsupported = sh.com_unsupported || pre_p.unsupported || pre_q.unsupported;
    // Freshness of database-generated IDs holds w.r.t. the shared initial state only:
    // an op's origin state may causally follow the other op (e.g. following a question
    // right after it was created), so new IDs may be live there.
    assertions.push_back(enc.UniqueIdAxiom(s0));
    assertions.push_back(pre_p.pre);
    assertions.push_back(pre_q.pre);
    assertions.push_back(enc.StateAxioms(sa));
    assertions.push_back(enc.StateAxioms(sb));
    assertions.push_back(pq1.defs);
    assertions.push_back(pq2.defs);
    assertions.push_back(qp1.defs);
    assertions.push_back(qp2.defs);
    assertions.push_back(enc.StateAxioms(s0));
    encode_span.Arg("terms", sh.factory->size());
  }

  CheckOutcome outcome;
  if (sh.com_unsupported) {
    outcome = CheckOutcome::kUnsupported;
  } else {
    if (sh.mode != Shared::Mode::kCom) {
      sh.backend->ResetAssertions();
      sh.backend->AssertAll(sh.com_assertions);
      sh.mode = Shared::Mode::kCom;
    }
    outcome = checker_.RunSolverOn(*sh.backend, *sh.factory, stats);
  }
  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
  }
  return outcome;
}

CheckOutcome Checker::PairSession::NotInvalidatePQ(CheckStats* stats) {
  return NotInvalidateDir(/*pq=*/true, stats);
}

CheckOutcome Checker::PairSession::NotInvalidateQP(CheckStats* stats) {
  return NotInvalidateDir(/*pq=*/false, stats);
}

void Checker::PairSession::BuildNiFrame() {
  Shared& sh = *shared_;
  if (sh.ni_built) {
    return;
  }
  sh.ni_built = true;
  obs::ScopedSpan encode_span("encode_ni", obs::kCatEncode);

  EncoderOptions enc_options = checker_.options_.encoder;
  enc_options.order_models = PairOrder();
  checker_.ApplyProjection(pf_, qf_, &enc_options);
  sh.ni_enc = std::make_unique<Encoder>(checker_.schema_, sh.factory.get(), enc_options);
  Encoder& enc = *sh.ni_enc;

  EncState s0 = enc.FreshState("S0");
  Encoder::PathResult p0 = enc.ApplyPath(p_, s0, "x");
  Encoder::PathResult q0 = enc.ApplyPath(q_, s0, "y");
  bool frame_unsupported = p0.unsupported || q0.unsupported;

  // Built after both ApplyPath calls so it covers both argument sets (the fresh-origin
  // re-applications below reuse the cached argument constants and add nothing new).
  Term uid = enc.UniqueIdAxiom(s0);

  // Frame: both effects producible from fresh origin states, plus all state axioms.
  // The rule itself needs only the *replayed* path's origin precondition; asserting
  // the checked path's as well lets both directions share the frame, and it preserves
  // satisfiability: any witness of the rule extends by choosing that origin state to
  // be S0 itself, where the rule already asserts the checked precondition.
  EncState sa = enc.FreshState("Sa");
  EncState sb = enc.FreshState("Sb");
  Encoder::PathResult pre_p = enc.ApplyPath(p_, sa, "x");
  Encoder::PathResult pre_q = enc.ApplyPath(q_, sb, "y");
  frame_unsupported = frame_unsupported || pre_p.unsupported || pre_q.unsupported;
  sh.ni_frame = {uid,
                 pre_p.pre,
                 pre_q.pre,
                 enc.StateAxioms(sa),
                 enc.StateAxioms(sb),
                 enc.StateAxioms(s0)};
  sh.ni_delta_pq = {nullptr, p0.pre, q0.defs};  // goal filled below
  sh.ni_delta_qp = {nullptr, q0.pre, p0.defs};

  // Direction goals: replay the other path's effect on S0 and negate the checked path's
  // precondition there. Check hands the innermost frame to the solver first, so each
  // direction's goal leads, as the commutativity query's does.
  Encoder::PathResult p_after = enc.ApplyPath(p_, q0.post, "x");
  sh.ni_unsupported_pq = frame_unsupported || p_after.unsupported;
  sh.ni_delta_pq[0] = sh.factory->Not(p_after.pre);

  Encoder::PathResult q_after = enc.ApplyPath(q_, p0.post, "y");
  sh.ni_unsupported_qp = frame_unsupported || q_after.unsupported;
  sh.ni_delta_qp[0] = sh.factory->Not(q_after.pre);

  encode_span.Arg("terms", sh.factory->size());
}

CheckOutcome Checker::PairSession::NotInvalidateDir(bool pq, CheckStats* stats) {
  Stopwatch watch;
  if (prefiltered_) {
    if (stats != nullptr) {
      stats->prefiltered = true;
      stats->seconds = watch.ElapsedSeconds();
    }
    return CheckOutcome::kPass;
  }
  EnsureShared();
  Shared& sh = *shared_;
  BuildNiFrame();

  bool unsupported = pq ? sh.ni_unsupported_pq : sh.ni_unsupported_qp;
  CheckOutcome outcome;
  if (unsupported) {
    outcome = CheckOutcome::kUnsupported;
  } else {
    if (sh.mode != Shared::Mode::kNi) {
      sh.backend->ResetAssertions();
      sh.backend->AssertAll(sh.ni_frame);
      sh.mode = Shared::Mode::kNi;
    }
    sh.backend->Push();
    for (const Term& t : (pq ? sh.ni_delta_pq : sh.ni_delta_qp)) {
      sh.backend->AddAssertion(t);
    }
    outcome = checker_.RunSolverOn(*sh.backend, *sh.factory, stats);
    sh.backend->Pop();
  }
  if (stats != nullptr) {
    stats->seconds = watch.ElapsedSeconds();
  }
  return outcome;
}

}  // namespace noctua::verifier
