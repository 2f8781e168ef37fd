// The JSON both ways, without an external dependency.
//
// Reading: a minimal recursive-descent parser producing an immutable DOM. It accepts
// strict RFC 8259 JSON (which is all the writer emits); it is not a general-purpose
// lenient parser. The server parses `/v1/analyze` request bodies with it; the tests,
// `noctua-cli metrics --check` and the benches parse back the documents the program
// writes (traces, `/metrics`, `RunReport`, log lines) to validate them.
//
// Writing: JsonWriter, the one place that spells JSON's output syntax. Every document
// the daemon, the obs exporters and bench/ emit goes through it, so commas, quoting
// and escaping are decided here and nowhere else.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/strings.h"

namespace noctua::obs {

class JsonValue;
using JsonPtr = std::shared_ptr<const JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  int64_t AsInt() const { return static_cast<int64_t>(number_); }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonPtr>& AsArray() const { return array_; }
  const std::map<std::string, JsonPtr>& AsObject() const { return object_; }

  // Object member lookup; nullptr when this is not an object or the key is absent.
  JsonPtr Get(const std::string& key) const;

  static JsonPtr MakeNull();
  static JsonPtr MakeBool(bool b);
  static JsonPtr MakeNumber(double n);
  static JsonPtr MakeString(std::string s);
  static JsonPtr MakeArray(std::vector<JsonPtr> items);
  static JsonPtr MakeObject(std::map<std::string, JsonPtr> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonPtr> array_;
  std::map<std::string, JsonPtr> object_;
};

// Parses `text` as one JSON document. Returns nullptr and sets `*error` (position and
// reason) on malformed input or trailing garbage.
JsonPtr ParseJson(const std::string& text, std::string* error);

// Escapes a string for embedding in a JSON string literal (quotes, backslashes, control
// characters); bytes >= 0x80 pass through, so UTF-8 text stays UTF-8.
std::string JsonEscape(std::string_view s);

// Streaming writer. Calls append in document order; the writer places the separators
// itself: ", " between members and elements, ": " after a key, so the documents read as
// `{"a": 1, "b": [true, "x"]}`. Every call returns the writer, so a flat run of members
// chains: w.Key("pairs").Uint(n).Key("seconds").Double(s, 3). Structure is the caller's
// to keep balanced; the writer does not check it.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  // An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value) { return Token(std::to_string(value)); }
  JsonWriter& Uint(uint64_t value) { return Token(std::to_string(value)); }
  // `digits` fixed digits after the point ("%.*f", as FormatDouble spells it).
  JsonWriter& Double(double value, int digits) { return Token(FormatDouble(value, digits)); }
  JsonWriter& Bool(bool value) { return Token(value ? "true" : "false"); }

  // The document written so far; leaves the writer empty.
  std::string Take();

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  // Appends the separator the next key or value needs, then `token`.
  JsonWriter& Token(std::string_view token);

  std::string out_;
  bool first_ = true;       // nothing written yet in the innermost container
  bool after_key_ = false;  // a key was written and awaits its value
};

}  // namespace noctua::obs

#endif  // SRC_OBS_JSON_H_
