// Application container: a schema plus HTTP endpoints (view functions).
//
// This is the C++ counterpart of a Django project: models.py is the Schema, urls.py +
// views.py are the registered views. View functions are written once against the symbolic
// ORM API (ViewCtx); the analyzer explores them, and the extracted SOIR paths are executed
// concretely by the replication simulator.
#ifndef SRC_APP_APP_H_
#define SRC_APP_APP_H_

#include <functional>
#include <string>
#include <vector>

#include "src/analyzer/view_ctx.h"
#include "src/soir/schema.h"

namespace noctua::app {

using ViewFn = std::function<void(analyzer::ViewCtx&)>;

struct View {
  std::string name;  // endpoint name, e.g. "batch_update"
  ViewFn fn;
  // An opaque tag for the handler's source. The analyzer ignores it: every run analyzes
  // every endpoint.
  std::string fingerprint;
};

class App {
 public:
  App(std::string name, std::string source_file)
      : name_(std::move(name)), source_file_(std::move(source_file)) {}

  const std::string& name() const { return name_; }
  // Path of the C++ source defining this app (used by the Table 4 bench to count LoC).
  const std::string& source_file() const { return source_file_; }

  soir::Schema& schema() { return schema_; }
  const soir::Schema& schema() const { return schema_; }

  void AddView(const std::string& name, ViewFn fn, std::string fingerprint = "") {
    views_.push_back(View{name, std::move(fn), std::move(fingerprint)});
  }
  // Swaps an endpoint's handler (the "developer edited this view" refactor). Returns
  // false if no view has that name.
  bool ReplaceView(const std::string& name, ViewFn fn) {
    for (View& v : views_) {
      if (v.name == name) {
        v.fn = std::move(fn);
        return true;
      }
    }
    return false;
  }
  const std::vector<View>& views() const { return views_; }

 private:
  std::string name_;
  std::string source_file_;
  soir::Schema schema_;
  std::vector<View> views_;
};

}  // namespace noctua::app

#endif  // SRC_APP_APP_H_
