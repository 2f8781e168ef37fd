// In-memory relational database engine — the replicated storage substrate.
//
// Each site of the geo-replication simulator holds one Database instance; the SOIR
// interpreter executes code paths against it. Rows are keyed by primary key; insertion
// order numbers implement the paper's decoupled order information (§4.2) concretely, so
// ORDER BY / first / last have well-defined semantics. Relations are association sets, the
// concrete counterpart of the verifier's Set<Pair<Ref,Ref>> encoding.
//
// Database has value semantics: the interpreter copies it to implement transactional
// all-or-nothing application of a code path (Django wraps responders in transactions,
// §2.2.1), and the simulator copies it to fork replica states.
#ifndef SRC_ORM_DATABASE_H_
#define SRC_ORM_DATABASE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/orm/value.h"
#include "src/soir/schema.h"

namespace noctua::orm {

using Row = std::vector<Value>;  // data fields in schema order (pk is the map key)

class Database {
 public:
  explicit Database(const soir::Schema* schema);

  const soir::Schema& schema() const { return *schema_; }

  // --- Rows -----------------------------------------------------------------------------
  // Inserts or overwrites (merge semantics of SOIR update). New rows receive the next
  // order number; existing rows keep theirs.
  void Upsert(int model, int64_t pk, Row fields);
  // Removes the row and every association involving it. No-op if absent.
  void Erase(int model, int64_t pk);
  bool Exists(int model, int64_t pk) const;
  // Row accessor; the row must exist.
  const Row& Get(int model, int64_t pk) const;
  int64_t OrderOf(int model, int64_t pk) const;
  // Primary keys of all live rows, sorted by order number (the storage order).
  std::vector<int64_t> AllPks(int model) const;
  size_t RowCount(int model) const;

  // --- Relations ------------------------------------------------------------------------
  // Links from/to; for many-to-one relations any previous target of `from` is replaced
  // (a foreign key holds at most one target).
  void Link(int relation, int64_t from, int64_t to);
  void Delink(int relation, int64_t from, int64_t to);
  void ClearLinks(int relation, int64_t obj, bool obj_is_from);
  bool Linked(int relation, int64_t from, int64_t to) const;
  // Targets associated with `from` (forward=true) or sources associated with `to`.
  std::vector<int64_t> Associated(int relation, int64_t obj, bool forward) const;

  // Allocates a fresh, never-used primary key for the model (the database-generated
  // globally-unique ID of §5.2). The returned keys are unique across all sites when each
  // site allocates from a disjoint stripe — see StripeNewIds.
  int64_t NewId(int model);
  // Configures ID striping: site s of n allocates s, s+n, s+2n, ... (unique across sites).
  void StripeNewIds(int64_t site, int64_t num_sites);

  // Deep structural equality: rows and relations must match everywhere; relative
  // insertion order is compared only for the models in `order_models` (order divergence
  // elsewhere is unobservable — §4.2's decoupling, mirrored concretely). Used by the
  // convergence property tests and the simulator.
  bool SameState(const Database& other, const std::set<int>& order_models = {}) const;

  std::string ToString() const;

 private:
  struct Table {
    std::map<int64_t, Row> rows;
    std::map<int64_t, int64_t> order;  // pk -> order number
    int64_t next_order = 0;
    int64_t next_id = 0;
  };

  const soir::Schema* schema_;
  std::vector<Table> tables_;
  std::vector<std::set<std::pair<int64_t, int64_t>>> relations_;
  int64_t id_offset_ = 0;
  int64_t id_stride_ = 1;
};

}  // namespace noctua::orm

#endif  // SRC_ORM_DATABASE_H_
