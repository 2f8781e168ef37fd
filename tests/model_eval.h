// Reads a solver model back through the independent three-valued Evaluator (eval.h),
// which shares no evaluation code with either solver: the check that a sat verdict's
// model really satisfies its formula.
#ifndef TESTS_MODEL_EVAL_H_
#define TESTS_MODEL_EVAL_H_

#include <string>
#include <vector>

#include "src/smt/eval.h"
#include "src/smt/solver.h"
#include "src/smt/term.h"

namespace noctua::smt {

// Evaluates `t` under the assignment parsed from `model`; atoms the model omits stay
// unknown.
inline Value EvalUnderModel(const Scope& scope, Term t, const SmtModel& model) {
  AtomTable atoms(scope, {t});
  std::vector<Value> assignment(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Atom& a = atoms.atoms()[i];
    auto it = model.values.find(a.Name());
    if (it == model.values.end()) {
      continue;
    }
    const std::string& v = it->second;
    if (a.sort->is_bool()) {
      assignment[i] = Value::Bool(v == "true");
    } else if (a.sort->is_int()) {
      assignment[i] = Value::Int(std::stoll(v));
    } else if (a.sort->is_ref()) {
      assignment[i] = Value::Ref(std::stoll(v.substr(1)));  // "#k"
    } else if (a.sort->is_string()) {
      assignment[i] = Value::Str(v.substr(1, v.size() - 2));  // quoted
    }
  }
  Evaluator eval(scope, atoms, assignment);
  return eval.Eval(t);
}

}  // namespace noctua::smt

#endif  // TESTS_MODEL_EVAL_H_
