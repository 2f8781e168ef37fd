#include "src/pipeline/session.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/soir/serialize.h"
#include "src/support/check.h"

namespace noctua {

namespace {

constexpr const char* kManifestFile = "manifest";
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

bool Session::LoadPrior(const app::App& app, analyzer::AnalysisResult* /*analysis*/,
                        verifier::VerdictCache* verdicts) const {
  std::string data;
  if (!ReadFile(Path(kManifestFile), &data)) {
    return false;
  }
  soir::ArtifactReader r(std::move(data));
  r.ExpectAtom("noctua-manifest");
  if (r.Int() != soir::kArtifactVersion || r.Str() != app.name() || !r.ok() ||
      !r.AtEnd()) {
    return false;
  }
  return verdicts->LoadFromFile(Path(kVerdictsFile));
}

bool Session::Save(const app::App& app, const analyzer::AnalysisResult& /*analysis*/,
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
  return verdicts.SaveToFile(Path(kVerdictsFile)) &&
         // Manifest last: a crash mid-save leaves the previous manifest (or none) next to
         // a verdicts file that either parses whole — every entry keyed by content, so
         // replaying it is sound — or fails the load and reads as cold.
         WriteFile(Path(kManifestFile), manifest.str());
}

void ProbeArtifactDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  NOCTUA_CHECK_MSG(!ec, "artifact root \"" << dir << "\" cannot be created ("
                                            << ec.message()
                                            << ") — fix the path; refusing to silently "
                                               "run cold");
  // Probe with a real write: create_directories succeeding does not imply writability
  // (read-only mounts, permission bits).
  const std::string probe = dir + "/.noctua-write-probe";
  bool writable = WriteFile(probe, "probe");
  if (writable) {
    std::filesystem::remove(probe, ec);
  }
  NOCTUA_CHECK_MSG(writable, "artifact root \"" << dir
                                                << "\" is not writable — fix the "
                                                   "permissions; refusing to silently "
                                                   "run cold");
}

}  // namespace noctua
