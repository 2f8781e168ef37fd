#include "src/smt/backend.h"

#include "src/smt/cdcl.h"
#include "src/support/check.h"
#include "src/support/env.h"

namespace noctua::smt {

const char* BackendKindName(BackendKind k) {
  switch (k) {
    case BackendKind::kAuto:
      return "auto";
    case BackendKind::kDfs:
      return "dfs";
    case BackendKind::kCdcl:
      return "cdcl";
  }
  return "?";
}

bool ParseBackendKind(const std::string& name, BackendKind* out) {
  if (name == "dfs") {
    *out = BackendKind::kDfs;
  } else if (name == "cdcl") {
    *out = BackendKind::kCdcl;
  } else {
    return false;
  }
  return true;
}

BackendKind BackendKindFromEnv() {
  // Strict-parse discipline lives in env::EnumOr: unset means dfs, a typo is rejected
  // with a one-shot warning rather than silently absorbed into the default.
  std::string name = env::EnumOr("NOCTUA_SOLVER", {"dfs", "cdcl"}, "dfs");
  BackendKind k = BackendKind::kDfs;
  ParseBackendKind(name, &k);
  return k;
}

BackendKind ResolveBackendKind(BackendKind k) {
  return k == BackendKind::kAuto ? BackendKindFromEnv() : k;
}

bool ParseToggle(const std::string& value, Toggle* out) {
  bool on = false;
  if (!env::ParseOnOff(value, &on)) {
    return false;
  }
  *out = on ? Toggle::kOn : Toggle::kOff;
  return true;
}

bool SymmetryFromEnv() { return env::OnOffOr("NOCTUA_SYMMETRY", true); }

bool IncrementalFromEnv() { return env::OnOffOr("NOCTUA_INCREMENTAL", true); }

bool SymmetryEnabled(const SolverOptions& options) {
  return options.symmetry == Toggle::kAuto ? SymmetryFromEnv()
                                           : options.symmetry == Toggle::kOn;
}

bool IncrementalEnabled(const SolverOptions& options) {
  return options.incremental == Toggle::kAuto ? IncrementalFromEnv()
                                              : options.incremental == Toggle::kOn;
}

namespace {

// The bounded model finder behind the backend interface: a thin adapter over Solver.
class DfsBackend : public SolverBackend {
 public:
  explicit DfsBackend(const SolverOptions& options) : solver_(options) {}

  const char* name() const override { return "dfs"; }
  const SmtModel& model() const override { return solver_.model(); }
  const SolverStats& stats() const override { return solver_.stats(); }

 protected:
  SolveResult DoCheck(TermFactory& factory, const std::vector<Term>& assertions) override {
    return solver_.CheckSat(factory, assertions);
  }

 private:
  Solver solver_;
};

}  // namespace

std::unique_ptr<SolverBackend> MakeBackend(BackendKind kind, const SolverOptions& options) {
  switch (ResolveBackendKind(kind)) {
    case BackendKind::kDfs:
      return std::make_unique<DfsBackend>(options);
    case BackendKind::kCdcl:
      return std::make_unique<CdclBackend>(options);
    case BackendKind::kAuto:
      break;  // ResolveBackendKind never returns kAuto
  }
  NOCTUA_UNREACHABLE("unresolved backend kind");
}

std::unique_ptr<SolverBackend> MakeBackend(const SolverOptions& options) {
  return MakeBackend(options.backend, options);
}

}  // namespace noctua::smt
