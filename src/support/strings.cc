#include "src/support/strings.h"

#include <cstdio>

namespace noctua {

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string Pad(const std::string& s, size_t width, Align align) {
  if (s.size() >= width) {
    return s;
  }
  std::string spaces(width - s.size(), ' ');
  return align == Align::kLeft ? s + spaces : spaces + s;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

}  // namespace noctua
