// Small string utilities shared by the printer, reports and benchmarks.
#ifndef SRC_SUPPORT_STRINGS_H_
#define SRC_SUPPORT_STRINGS_H_

#include <string>
#include <vector>

namespace noctua {

// Joins the elements of `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// Left-pads (Align::kRight) or right-pads (Align::kLeft) `s` with spaces to `width`.
enum class Align { kLeft, kRight };
std::string Pad(const std::string& s, size_t width, Align align = Align::kLeft);

// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

}  // namespace noctua

#endif  // SRC_SUPPORT_STRINGS_H_
