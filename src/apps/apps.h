// Registry of every application evaluated in the paper (§6.1, Table 4).
#ifndef SRC_APPS_APPS_H_
#define SRC_APPS_APPS_H_

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/apps/blog.h"
#include "src/apps/courseware.h"
#include "src/apps/ownphotos.h"
#include "src/apps/postgraduation.h"
#include "src/apps/smallbank.h"
#include "src/apps/todo.h"
#include "src/apps/zhihu.h"

namespace noctua::apps {

struct AppEntry {
  std::string name;
  std::function<app::App()> make;
};

// Prints an entry as its name. gtest finds this overload for a test suite parameterized
// by AppEntry and puts its output in the suite's full test names; without it gtest
// prints the entry's raw bytes, which hold heap addresses, so the names would change
// from run to run.
inline void PrintTo(const AppEntry& entry, std::ostream* os) { *os << entry.name; }

// The four real-world codebases followed by the two standard benchmarks, in the paper's
// Table 4 order.
inline std::vector<AppEntry> EvaluatedApps() {
  return {
      {"Todo", MakeTodoApp},
      {"PostGraduation", MakePostGraduationApp},
      {"Zhihu", MakeZhihuApp},
      {"OwnPhotos", MakeOwnPhotosApp},
      {"SmallBank", MakeSmallBankApp},
      {"Courseware", MakeCoursewareApp},
  };
}

}  // namespace noctua::apps

#endif  // SRC_APPS_APPS_H_
