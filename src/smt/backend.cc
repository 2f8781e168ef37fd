#include "src/smt/backend.h"

namespace noctua::smt {

namespace {

// The bounded model finder behind the backend interface: a thin adapter over Solver.
class DfsBackend : public SolverBackend {
 public:
  explicit DfsBackend(const SolverOptions& options) : solver_(options) {}

  const char* name() const override { return "dfs"; }
  const SmtModel& model() const override { return solver_.model(); }
  const SolverStats& stats() const override { return solver_.stats(); }

  SolveResult Check(TermFactory& factory, const std::vector<Term>& assertions) override {
    return solver_.CheckSat(factory, assertions);
  }

 private:
  Solver solver_;
};

}  // namespace

std::unique_ptr<SolverBackend> MakeBackend(const SolverOptions& options) {
  if (options.backend != nullptr) {
    return options.backend(options);
  }
  return std::make_unique<DfsBackend>(options);
}

}  // namespace noctua::smt
