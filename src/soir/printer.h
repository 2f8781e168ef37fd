// Pretty printer for SOIR expressions, commands and code paths, plus the canonical
// printer used to fingerprint verification queries for the verdict cache.
#ifndef SRC_SOIR_PRINTER_H_
#define SRC_SOIR_PRINTER_H_

#include <map>
#include <string>
#include <vector>

#include "src/soir/ast.h"
#include "src/soir/schema.h"

namespace noctua::soir {

std::string PrintExpr(const Schema& schema, const Expr& e);
std::string PrintCommand(const Schema& schema, const Command& c);

// Renders the full path: header, arguments, then one command per line.
std::string PrintCodePath(const Schema& schema, const CodePath& path);

// --- Canonical fingerprints ---------------------------------------------------------------
//
// CanonicalPath renders a code path with every schema-dependent identifier replaced by a
// dense canonical id assigned in first-use order: models become m0, m1, ..., relations
// r0, r1, ..., arguments a0, a1, ... (declaration order), and field names become tuple
// slot indices. Two paths that are isomorphic up to model/relation/argument/field *names*
// — e.g. the per-model CRUD endpoints a viewset stamps out — therefore render to the
// same string, which is what lets the verifier share one solver verdict between them.
//
// The renaming context is shared across the two paths of a pair (and across repeated
// mentions within one path), so cross-path identity of models and relations is preserved:
// "both paths touch the same model" and "the paths touch different models of the same
// shape" fingerprint differently, as they must.
//
// Everything the SMT encoding depends on beyond the path text — field sorts, unique
// flags, relation kinds and delete behavior — is captured by SchemaSignature(), which
// renders the schema fragment for exactly the models/relations mentioned so far, in
// canonical order. A fingerprint is only valid as (canonical paths + schema signature).
class CanonicalizationCtx {
 public:
  explicit CanonicalizationCtx(const Schema& schema) : schema_(schema) {}

  // Canonical id for an absolute model/relation id, assigned on first use.
  int ModelId(int m);
  int RelationId(int r);

  // Schema fragment signature for every model/relation assigned so far (canonical
  // order): field sort kinds + unique flags per model, kind/on-delete/endpoints per
  // relation.
  std::string SchemaSignature() const;

  // Absolute ids in canonical (first-use) order.
  const std::vector<int>& models() const { return models_; }
  const std::vector<int>& relations() const { return relations_; }

  const Schema& schema() const { return schema_; }

 private:
  const Schema& schema_;
  std::map<int, int> model_map_;
  std::map<int, int> relation_map_;
  std::vector<int> models_;
  std::vector<int> relations_;
};

// Renders `path` canonically under `ctx` (see above). Argument names are canonicalized
// per path in declaration order, mirroring the encoder's pre-registration order.
std::string CanonicalPath(const Schema& schema, const CodePath& path, CanonicalizationCtx* ctx);

// One path's share of every fingerprint it takes part in, rendered once: `text` is the
// path's CanonicalPath under a fresh CanonicalizationCtx, a newline, and that context's
// SchemaSignature (exactly what PathDigest hashes); `models` and `relations` are the
// context's canonical lists, which a pair key needs to relate two paths' renamings.
struct PathFingerprint {
  std::string text;
  std::vector<int> models;
  std::vector<int> relations;
};
PathFingerprint FingerprintPath(const Schema& schema, const CodePath& path);

}  // namespace noctua::soir

#endif  // SRC_SOIR_PRINTER_H_
