#include "src/smt/sort.h"

#include "src/support/check.h"

namespace noctua::smt {

std::string SortData::ToString() const {
  switch (kind_) {
    case SortKind::kBool:
      return "Bool";
    case SortKind::kInt:
      return "Int";
    case SortKind::kString:
      return "String";
    case SortKind::kRef:
      return "Ref<" + std::to_string(model_id_) + ">";
    case SortKind::kPair:
      return "Pair<" + children_[0]->ToString() + "," + children_[1]->ToString() + ">";
    case SortKind::kTuple: {
      std::string out = "Tuple<";
      for (uint32_t i = 0; i < num_children_; ++i) {
        if (i != 0) {
          out += ",";
        }
        out += children_[i]->ToString();
      }
      return out + ">";
    }
    case SortKind::kArray:
      return "Array<" + children_[0]->ToString() + "," + children_[1]->ToString() + ">";
  }
  NOCTUA_UNREACHABLE("bad sort kind");
}

}  // namespace noctua::smt
