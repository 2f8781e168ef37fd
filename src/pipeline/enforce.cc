#include "src/pipeline/enforce.h"

namespace noctua {

repl::ConflictTable EnforcementTable(const verifier::RestrictionReport& report) {
  repl::ConflictTable table;
  for (const auto& [p, q] : report.RestrictedViewPairs()) {
    table.AddPair(p, q);
  }
  return table;
}

}  // namespace noctua
