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
constexpr const char* kVerdictsFile = "verdicts";
// Cap on the manifest's endpoint count: far above any real application, far below
// anything that could make a corrupted count allocate unreasonably.
constexpr size_t kMaxEndpoints = 1000000;

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
  std::string data;
  if (!ReadFile(Path(kManifestFile), &data)) {
    return false;
  }
  soir::ArtifactReader r(std::move(data));
  r.ExpectAtom("noctua-manifest");
  if (r.Int() != soir::kArtifactVersion || r.Str() != app.name()) {
    return false;
  }
  const size_t num_endpoints = r.Count(kMaxEndpoints);
  for (size_t i = 0; r.ok() && i < num_endpoints; ++i) {
    std::string view = r.Str();
    analysis->endpoint_digests[std::move(view)] = r.Str();
  }
  if (!r.ok() || !r.AtEnd()) {
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
  manifest.Int(static_cast<int64_t>(analysis.endpoint_digests.size()));
  for (const auto& [view, digest] : analysis.endpoint_digests) {
    manifest.Str(view);
    manifest.Str(digest);
  }
  return verdicts.SaveToFile(Path(kVerdictsFile)) &&
         // Manifest last: a crash mid-save leaves the previous manifest (or none) next to
         // a verdicts file that either parses whole — every entry keyed by content, so
         // replaying it is sound — or fails the load and reads as cold.
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
