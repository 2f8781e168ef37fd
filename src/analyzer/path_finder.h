// Code-path discovery: the systematic branch-state exploration of paper Figure 5.
//
// The analyzer repeatedly re-executes a view function with the same symbolic arguments.
// Whenever the function is about to branch on a *symbolic* condition, the runtime hook
// (our SymBool -> bool conversion, the counterpart of Python's __bool__) asks the
// PathFinder which way to go. New conditions take the true branch first; after the run
// completes, the trailing decision state is advanced (last true flipped to false) until
// every combination reachable through the function has been visited.
//
// Conditions are keyed by their printed SOIR expression plus an occurrence counter, so a
// loop whose condition expression repeats gets distinct decision points per iteration
// (finite unrolling, the deliberately unsound choice discussed in paper §5.3). Exploration
// is bounded by max_decisions_per_path and max_paths.
#ifndef SRC_ANALYZER_PATH_FINDER_H_
#define SRC_ANALYZER_PATH_FINDER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace noctua::analyzer {

class PathFinder {
 public:
  struct Options {
    size_t max_decisions_per_path = 64;
    size_t max_paths = 100000;
  };

  PathFinder() : PathFinder(Options()) {}
  explicit PathFinder(Options options) : options_(options) {}

  // Begins (re-)execution of the function for the next path.
  void StartPath();

  // The onBranch hook: returns the branch decision for the condition with the given
  // canonical key. Concrete conditions must not reach here (the Sym layer evaluates them
  // eagerly, Fig. 5 line 7).
  bool Branch(const std::string& cond_key);

  // Advances the branch state after a completed run. Returns true if another path
  // remains to explore (Fig. 5 lines 24-29).
  bool NextPath();

  size_t paths_explored() const { return paths_explored_; }
  bool budget_exhausted() const { return budget_exhausted_; }

 private:
  struct Decision {
    std::string key;
    bool value;
  };

  Options options_;
  std::vector<Decision> decisions_;  // the ordered branching state (curState in Fig. 5)
  size_t cursor_ = 0;                // decisions consumed during the current run
  std::map<std::string, int> occurrence_;  // per-path occurrence counts per condition
  size_t paths_explored_ = 0;
  bool budget_exhausted_ = false;
};

}  // namespace noctua::analyzer

#endif  // SRC_ANALYZER_PATH_FINDER_H_
