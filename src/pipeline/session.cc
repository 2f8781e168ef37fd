#include "src/pipeline/session.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/soir/serialize.h"
#include "src/support/check.h"
#include "src/support/env.h"

namespace noctua {

namespace {

constexpr const char* kManifestFile = "manifest";
constexpr const char* kSchemaFile = "schema";
constexpr const char* kAnalysisFile = "analysis";
constexpr const char* kVerdictsFile = "verdicts";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << data;
  return static_cast<bool>(out);
}

}  // namespace

bool Session::LoadPrior(const app::App& app, analyzer::AnalysisResult* analysis,
                        verifier::VerdictCache* verdicts) const {
  const std::string app_structure = soir::SchemaStructuralDigest(app.schema());

  // Manifest: version + app name + schema digests. The gate is the *structural* digest:
  // stored paths carry model/relation ids and verdict fingerprints cover the canonical
  // (renaming-invariant) schema fragment, so both survive a rename-only schema edit —
  // but nothing else. The exact digest is informational (it additionally distinguishes
  // renames from no-ops).
  std::string data;
  if (!ReadFile(Path(kManifestFile), &data)) {
    return false;
  }
  {
    soir::ArtifactReader r(std::move(data));
    r.ExpectAtom("noctua-manifest");
    if (r.Int() != soir::kArtifactVersion) {
      return false;
    }
    std::string name = r.Str();
    r.Str();  // exact content digest, not gated on
    std::string structure = r.Str();
    if (!r.ok() || !r.AtEnd() || name != app.name() || structure != app_structure) {
      return false;
    }
  }

  // Stored schema must round-trip to the same structural digest the manifest promised.
  // It is kept around: the stored paths reference fields by the *stored* names, which a
  // rename-only edit may have moved.
  if (!ReadFile(Path(kSchemaFile), &data)) {
    return false;
  }
  soir::Schema stored;
  {
    soir::ArtifactReader r(std::move(data));
    if (!soir::DeserializeSchema(&r, &stored) || !r.AtEnd() ||
        soir::SchemaStructuralDigest(stored) != app_structure) {
      return false;
    }
  }

  if (!ReadFile(Path(kAnalysisFile), &data)) {
    return false;
  }
  {
    soir::ArtifactReader r(std::move(data));
    r.ExpectAtom("noctua-analysis");
    if (r.Int() != soir::kArtifactVersion) {
      return false;
    }
    if (!analyzer::DeserializeAnalysis(&r, app.schema(), analysis) || !r.AtEnd()) {
      return false;
    }
  }
  // Follow any rename-only schema edit: rewrite the stored paths' field names to the
  // current ones (by model/slot correspondence). Ambiguous renames degrade to cold.
  if (!soir::AdaptPathsToSchema(stored, app.schema(), &analysis->paths)) {
    return false;
  }
  // Digests must recompute from the stored paths: catches artifacts whose paths and
  // metadata were corrupted consistently enough to parse.
  if (!analyzer::ValidateAnalysisDigests(app.schema(), *analysis)) {
    return false;
  }

  return verdicts->LoadFromFile(Path(kVerdictsFile));
}

bool Session::Save(const app::App& app, const analyzer::AnalysisResult& analysis,
                   const verifier::VerdictCache& verdicts) const {
  std::error_code ec;
  std::filesystem::create_directories(store_dir_, ec);
  if (ec) {
    return false;
  }

  soir::ArtifactWriter manifest;
  manifest.Atom("noctua-manifest");
  manifest.Int(soir::kArtifactVersion);
  manifest.Str(app.name());
  manifest.Str(soir::SchemaContentDigest(app.schema()));
  manifest.Str(soir::SchemaStructuralDigest(app.schema()));

  soir::ArtifactWriter schema;
  soir::SerializeSchema(app.schema(), &schema);

  soir::ArtifactWriter analysis_w;
  analysis_w.Atom("noctua-analysis");
  analysis_w.Int(soir::kArtifactVersion);
  analyzer::SerializeAnalysis(analysis, &analysis_w);

  return WriteFile(Path(kSchemaFile), schema.str()) &&
         WriteFile(Path(kAnalysisFile), analysis_w.str()) &&
         verdicts.SaveToFile(Path(kVerdictsFile)) &&
         // Manifest last: a crash mid-save leaves a store whose manifest (if any) is the
         // old one, which then fails the schema/analysis cross-checks and reads as cold.
         WriteFile(Path(kManifestFile), manifest.str());
}

std::string ArtifactDirFromEnv() {
  if (!env::IsSet("NOCTUA_ARTIFACT_DIR")) {
    return "";
  }
  std::string dir(env::Raw("NOCTUA_ARTIFACT_DIR"));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  NOCTUA_CHECK_MSG(!ec, "NOCTUA_ARTIFACT_DIR is set to \""
                            << dir << "\" but the directory cannot be created ("
                            << ec.message()
                            << ") — fix the path or unset the variable; refusing to "
                               "silently run cold");
  // Probe with a real write: create_directories succeeding does not imply writability
  // (read-only mounts, permission bits).
  const std::string probe = dir + "/.noctua-write-probe";
  bool writable = WriteFile(probe, "probe");
  if (writable) {
    std::filesystem::remove(probe, ec);
  }
  NOCTUA_CHECK_MSG(writable, "NOCTUA_ARTIFACT_DIR is set to \""
                                 << dir
                                 << "\" but the directory is not writable — fix the "
                                    "permissions or unset the variable; refusing to "
                                    "silently run cold");
  return dir;
}

}  // namespace noctua
