// The artifact store's token stream and the content digests of SOIR code paths.
//
// Artifacts (the store's manifest and verdicts files) are versioned (kArtifactVersion)
// and parsed defensively: a truncated, corrupted, or other-versioned artifact makes the
// reader fail closed rather than crash, so callers can fall back to a cold run.
//
// The content digest of a path is renaming-invariant: it hashes the canonical rendering
// (soir::CanonicalPath) plus the canonical schema fragment the path touches
// (SchemaSignature). Renaming a model, field, relation, or argument does not change a
// digest; changing a guard, a field's sort, a relation's on-delete policy, or anything
// else the SMT encoding can see does.
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
// Version 3: the store is a manifest of endpoint digests plus the verdicts, and every
// key head names the checker options the verdict depends on (verifier::KeyOptions).
inline constexpr int64_t kArtifactVersion = 3;

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

// --- Content digests ------------------------------------------------------------------------

// FNV-1a, the 64-bit flavor: tiny, dependency-free, and stable across platforms. Not
// cryptographic — the store trusts its own artifacts; paranoia sampling (see
// verifier::ParallelOptions) is the defense against silent corruption.
uint64_t Fnv1a64(std::string_view s);
std::string DigestHex(uint64_t digest);

// Renaming-invariant content digest of one code path (see file header).
std::string PathDigest(const Schema& schema, const CodePath& path);

}  // namespace noctua::soir

#endif  // SRC_SOIR_SERIALIZE_H_
