// Stable serialization and content digests for SOIR artifacts — the foundation of the
// incremental analysis engine (and of any future multi-process verification).
//
// Two distinct notions of identity live here, and they are deliberately different:
//
//  * The *serialized form* is exact: it round-trips a Schema / CodePath byte-for-byte
//    through save→load, names included. It is versioned (kArtifactVersion) and parsed
//    defensively — a truncated, corrupted, or newer-versioned artifact makes the reader
//    fail closed rather than crash, so callers can fall back to a cold run.
//
//  * The *content digest* of a path is renaming-invariant: it hashes the canonical
//    rendering (soir::CanonicalPath) plus the canonical schema fragment the path touches
//    (SchemaSignature). Renaming a model, field, relation, or argument does not change a
//    digest; changing a guard, a field's sort, a relation's on-delete policy, or anything
//    else the SMT encoding can see does. Digest equality therefore means "every
//    verification verdict involving this path is reusable as-is".
#ifndef SRC_SOIR_SERIALIZE_H_
#define SRC_SOIR_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/soir/ast.h"
#include "src/soir/schema.h"

namespace noctua::soir {

// Bump when the serialized form of any artifact changes incompatibly. Readers reject
// files written under any other version (the caller falls back to a cold run).
// Version 2: verdict keys are built from per-path parts, and the verdicts file stores
// each part once (see verifier::VerdictCache::SaveToFile).
inline constexpr int64_t kArtifactVersion = 2;

// --- Token stream ---------------------------------------------------------------------------
//
// Artifacts are whitespace-separated token streams: atoms (no whitespace), integers, and
// quoted strings with \-escapes. Text keeps the format diffable and debuggable; counts
// are written before every repeated group so the reader never guesses.

class ArtifactWriter {
 public:
  void Atom(std::string_view s);     // raw token; must contain no whitespace
  void Int(int64_t v);
  void Str(std::string_view s);      // quoted, escaped — arbitrary content
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

class ArtifactReader {
 public:
  explicit ArtifactReader(std::string data) : data_(std::move(data)) {}

  // All accessors degrade to defaults once the stream has failed; check ok() at the end
  // (or at any checkpoint) rather than after every token.
  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }

  std::string Atom();
  int64_t Int();
  std::string Str();
  // Consumes one atom and fails the stream unless it equals `expected`.
  void ExpectAtom(std::string_view expected);
  // Reads a count and fails unless 0 <= n <= max (guards allocations against corruption).
  size_t Count(size_t max);
  // True when every token has been consumed (trailing whitespace allowed).
  bool AtEnd();

 private:
  bool SkipSpace();  // false at end of input

  std::string data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Schema / path serialization ------------------------------------------------------------

void SerializeSchema(const Schema& schema, ArtifactWriter* w);
// Appends models/fields/relations into `out` (which must be empty). Returns false —
// leaving `out` unspecified — on malformed input.
bool DeserializeSchema(ArtifactReader* r, Schema* out);

// Paths are serialized against a schema: model/relation/field identifiers are the
// schema's ids, so a path only deserializes meaningfully under the same (or an equal)
// schema — which is why artifacts carry their schema alongside.
void SerializeCodePath(const CodePath& path, ArtifactWriter* w);
bool DeserializeCodePath(ArtifactReader* r, const Schema& schema, CodePath* out);

// --- Content digests ------------------------------------------------------------------------

// FNV-1a, the 64-bit flavor: tiny, dependency-free, and stable across platforms. Not
// cryptographic — the store trusts its own artifacts; paranoia sampling (see
// verifier::ParallelOptions) is the defense against silent corruption.
uint64_t Fnv1a64(std::string_view s);
std::string DigestHex(uint64_t digest);

// Renaming-invariant content digest of one code path (see file header).
std::string PathDigest(const Schema& schema, const CodePath& path);

// Exact content digest of a whole schema (names included — NOT renaming-invariant).
std::string SchemaContentDigest(const Schema& schema);

// Structural digest of a whole schema: every name (model, pk, field, relation, reverse)
// is blanked before hashing, leaving exactly what model/relation/field *ids* and the SMT
// encoding depend on — counts, declaration order, field sorts and constraints, relation
// endpoints/kinds/delete policies. A rename-only schema edit preserves it; any other
// edit changes it. Artifact loaders gate on this digest: under structural equality the
// stored paths' ids still mean the same thing and every verdict fingerprint is intact,
// so a pure rename replays 100% of a prior run.
std::string SchemaStructuralDigest(const Schema& schema);

// Rewrites every field / pk reference in `paths` (expressions store them by *name*) from
// `stored`'s names to `current`'s, matching fields by (model id, declaration slot). The
// two schemas must be structurally equal (same SchemaStructuralDigest) — the caller
// gates. Returns false without touching `paths` when the rename is ambiguous: some name
// maps to two different new names in different models, so a bare name occurrence cannot
// be remapped without type inference, and the caller must fall back to a cold run. A
// no-rename (identical names) adaptation is a cheap no-op.
bool AdaptPathsToSchema(const Schema& stored, const Schema& current,
                        std::vector<CodePath>* paths);

}  // namespace noctua::soir

#endif  // SRC_SOIR_SERIALIZE_H_
