// The VERIFIER: instantiates the checking rules of paper §2.2.1 as counterexample
// queries, runs the SMT backend, and assembles the restriction set.
//
//   Commutativity(P, Q):   ∀S,x,y.  S + P(x) + Q(y) = S + Q(y) + P(x)
//   Semantic(P, Q):        NotInvalidate(P,Q) ∧ NotInvalidate(Q,P)
//   NotInvalidate(P, Q):   ∀S,x,y.  g_P(x,S) ⟹ g_P(x, S + Q(y))
//
// Each rule is refuted: the solver searches for a state and arguments witnessing a
// violation (§5.2 "Generation"). Preconditions of the replayed effects are asserted on
// fresh states (the effect must be producible somewhere). A pair is restricted iff either
// rule fails, times out, or hits an unsupported construct (conservative fallback, §3.3).
// All three queries of a pair run through one PairSession, over one encoding.
#ifndef SRC_VERIFIER_CHECKER_H_
#define SRC_VERIFIER_CHECKER_H_

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/smt/backend.h"
#include "src/smt/solver.h"
#include "src/soir/ast.h"
#include "src/verifier/encoder.h"

namespace noctua::verifier {

enum class CheckOutcome : uint8_t {
  kPass,         // no counterexample within scope: the pair is safe under this rule
  kFail,         // counterexample found: restrict
  kTimeout,      // solver spent its node budget: restrict conservatively
  kUnsupported,  // encoding hit an unsupported construct: restrict conservatively
};

const char* CheckOutcomeName(CheckOutcome o);
inline bool OutcomeRestricts(CheckOutcome o) { return o != CheckOutcome::kPass; }

struct CheckerOptions {
  smt::SolverOptions solver;
  EncoderOptions encoder;
  // Skip the solver when the two paths touch provably disjoint parts of the schema.
  bool independence_prefilter = true;
  // Project every query onto the pair's footprint closure: state constants and axioms
  // are only materialized for models/relations the pair can actually reach. The dropped
  // axioms are independently satisfiable, so verdicts are unchanged — but queries over
  // a two-model corner of a 14-model schema shrink dramatically.
  bool project_footprint = true;
};

// The options a verdict depends on, rendered for the head of every verdict-cache key
// (e.g. "o1u1i8k2"): encoder.use_order, encoder.unique_id_optimization,
// solver.max_int_domain and the scope's size. Queries checked under different values of
// any of them never share a verdict, in a run's cache, the engine's, or a store. Left
// out: the options proven verdict-preserving (solver.symmetry, solver.incremental,
// project_footprint, independence_prefilter); and the budget, which decides only
// timeouts, and timeouts are never cached.
std::string KeyOptions(const CheckerOptions& options);

struct CheckStats {
  uint64_t solver_nodes = 0;
};

class Checker {
 public:
  Checker(const soir::Schema& schema, CheckerOptions options = {})
      : schema_(schema), options_(std::move(options)) {}

  const CheckerOptions& options() const { return options_; }
  const soir::Schema& schema() const { return schema_; }

  // A check is a pure function of (schema, options, pair): all methods are const and a
  // single Checker may be shared by concurrent verification workers. Each check builds
  // its own PairSession; the only mutable state they share is the Checker's list of
  // spare term factories, which a session locks once to take a factory and once to give
  // it back.

  // What a pair's checks need to know about one of its paths, derived from that path
  // alone. The pair loop computes one per path per run (its path table) and derives
  // every pair's prefilter verdict, footprint closure and order sets from two of them;
  // one-off checks compute them the same way. Refers to the path, which must outlive it.
  struct PathFacts {
    const soir::CodePath* path = nullptr;
    // The path's footprint (soir::CodePath::CollectFootprint), for the prefilter.
    std::vector<int> reads;
    std::vector<int> writes;
    std::vector<int> relations;
    // The path's half of the footprint closure (see ComputeScope), sorted.
    std::vector<int> scope_models;
    std::vector<int> scope_relations;
    // Models whose insertion order the path observes (soir::OrderRelevantModels).
    std::set<int> order;
  };
  PathFacts Facts(const soir::CodePath& path) const;

  // Rule 1 on one pair, through a one-query PairSession (order models derived from the
  // pair alone).
  CheckOutcome CheckCommutativity(const soir::CodePath& p, const soir::CodePath& q) const;

  // Rule 2, both directions (the paper's semantic check), through one PairSession.
  CheckOutcome CheckSemantic(const soir::CodePath& p, const soir::CodePath& q) const;

  // The one pair code path: one TermFactory, one solver backend, and one encoding of the
  // pair's symbolic prefix (paper §5.2) that all three queries read. The encoding holds
  // S0 with P(x) and Q(y) applied in both orders (pq1 = P on S0, pq2 = Q after it; qp1 =
  // Q on S0, qp2 = P after it), each path applied to a fresh origin state, the unique-id
  // axiom and the three states' axioms. Commutativity asks ¬StateEq(pq2, qp2) and the
  // rest. Each NotInvalidate direction asks its negated goal, the checked path's
  // precondition on S0 and the replayed effect's definitions, then a frame both
  // directions share (the unique-id axiom, both origin preconditions, the state axioms:
  // a subset of the commutativity roots). The replay is the second application: PQ
  // negates P's precondition after Q (qp2), QP negates Q's after P (pq2). Every query
  // goes to the backend whole, in one Check. With incremental solving on, the backend
  // grounds each root once per session, whichever query holds it first; with it off it
  // re-grounds every Check, and the verdicts are the same. The frame holds the checked
  // path's origin precondition too, so both directions share it, which preserves
  // satisfiability (see EncodingFor).
  //
  // Encodings are keyed by the order set as the encoder materializes it (order on, model
  // not projected out). Commutativity compares under the caller's app-wide set and
  // NotInvalidate under ord(p) ∪ ord(q); where the two materialize differently, the
  // session builds a second encoding, with the same code. NotInvalidate must not read
  // the app-wide encoding instead, though it compares no state: the order arrays add
  // integer terms to its query, the solver harvests its integer domain from the query's
  // literals, and the wider domain turns five of Todo's NotInvalidate verdicts from pass
  // to fail when every path is an order observer (DESIGN.md, "The pair session").
  //
  // p's arguments are named with prefix "x" and q's with "y", so NotInvalidateQP names
  // the checked path's arguments "y" where the rule writes x; verdicts are invariant
  // under that renaming.
  //
  // A session is single-threaded and must not outlive its Checker, its two PathFacts or
  // `order_models`. Constructing one allocates nothing: the encodings are built only
  // when a query reaches the solver.
  class PairSession {
   public:
    // `order_models`, when given, is the app-wide order set the commutativity query
    // compares under; otherwise it uses the pair's own (ord(p) ∪ ord(q)), as
    // NotInvalidate always does.
    PairSession(const Checker& checker, const PathFacts& p, const PathFacts& q,
                const std::set<int>* order_models = nullptr);
    ~PairSession();
    PairSession(const PairSession&) = delete;
    PairSession& operator=(const PairSession&) = delete;

    CheckOutcome Commutativity(CheckStats* stats = nullptr);
    // Rule 2, one direction: can q's effect invalidate p's precondition?
    CheckOutcome NotInvalidatePQ(CheckStats* stats = nullptr);
    // The mirror direction: can p's effect invalidate q's precondition?
    CheckOutcome NotInvalidateQP(CheckStats* stats = nullptr);

   private:
    struct Encoding;
    struct Shared;
    // The session's encoding under `order` (a raw order set), built on first use, as is
    // everything the session shares.
    const Encoding& EncodingFor(const std::set<int>& order);
    CheckOutcome NotInvalidateDir(bool pq, CheckStats* stats);

    // ord(p) ∪ ord(q).
    std::set<int> PairOrder() const;

    const Checker& checker_;
    const PathFacts& pf_;
    const PathFacts& qf_;
    const soir::CodePath& p_;
    const soir::CodePath& q_;
    const std::set<int>* order_models_;
    bool prefiltered_ = false;
    std::unique_ptr<Shared> shared_;
  };

  // True when the prefilter would retire this pair without a solver call (footprints
  // provably disjoint). Exposed so the scheduler can retire such pairs first.
  bool Prefilterable(const PathFacts& p, const PathFacts& q) const {
    return options_.independence_prefilter && Independent(p, q);
  }

  // The pair's footprint closure: every model/relation either path can reach through
  // expressions, commands, relation paths, argument types, relation endpoints, or
  // delete-incident relations — the union of the two paths' halves. This is what
  // project_footprint materializes.
  struct PairScope {
    std::set<int> models;
    std::set<int> relations;
  };
  static PairScope ComputeScope(const PathFacts& p, const PathFacts& q);

 private:
  // True when the two paths' footprints are disjoint, so both rules trivially pass.
  static bool Independent(const PathFacts& p, const PathFacts& q);
  // Runs one Check of `query` and flushes its stats into the obs registry, the only home
  // of the solver's tallies.
  CheckOutcome RunSolverOn(smt::SolverBackend& backend, smt::TermFactory& factory,
                           const std::vector<smt::Term>& query, CheckStats* stats) const;
  // Applies project_footprint to a per-check encoder configuration.
  void ApplyProjection(const PathFacts& p, const PathFacts& q,
                       EncoderOptions* enc_options) const;
  // A pair session's term factory: a spare one if there is one, else a new one. A
  // finished session gives its factory back, Reset, so the next sessions reuse its
  // memory (term blocks, intern tables, scratch maps) instead of each allocating and
  // freeing its own, which the allocator would return to the system and fault in again
  // pair after pair. The list holds at most as many factories as sessions ever ran at
  // once, and they are freed with the Checker.
  std::unique_ptr<smt::TermFactory> TakeFactory() const;
  void GiveBackFactory(std::unique_ptr<smt::TermFactory> factory) const;

  const soir::Schema& schema_;
  CheckerOptions options_;
  mutable std::mutex factories_mu_;
  mutable std::vector<std::unique_ptr<smt::TermFactory>> spare_factories_;
};

}  // namespace noctua::verifier

#endif  // SRC_VERIFIER_CHECKER_H_
