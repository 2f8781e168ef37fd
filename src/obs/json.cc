#include "src/obs/json.h"

#include <cctype>
#include <cstdlib>

namespace noctua::obs {

JsonPtr JsonValue::Get(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : it->second;
}

JsonPtr JsonValue::MakeNull() { return std::make_shared<JsonValue>(); }

JsonPtr JsonValue::MakeBool(bool b) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kBool;
  v->bool_ = b;
  return v;
}

JsonPtr JsonValue::MakeNumber(double n) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kNumber;
  v->number_ = n;
  return v;
}

JsonPtr JsonValue::MakeString(std::string s) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kString;
  v->string_ = std::move(s);
  return v;
}

JsonPtr JsonValue::MakeArray(std::vector<JsonPtr> items) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kArray;
  v->array_ = std::move(items);
  return v;
}

JsonPtr JsonValue::MakeObject(std::map<std::string, JsonPtr> members) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kObject;
  v->object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  JsonPtr Parse() {
    JsonPtr v = ParseValue();
    if (v == nullptr) {
      return nullptr;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return v;
  }

 private:
  JsonPtr Fail(const std::string& why) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "json parse error at offset " + std::to_string(pos_) + ": " + why;
    }
    return nullptr;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  JsonPtr ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return nullptr;
        }
        return JsonValue::MakeString(std::move(s));
      }
      case 't':
        return ConsumeLiteral("true") ? JsonValue::MakeBool(true) : Fail("bad literal");
      case 'f':
        return ConsumeLiteral("false") ? JsonValue::MakeBool(false) : Fail("bad literal");
      case 'n':
        return ConsumeLiteral("null") ? JsonValue::MakeNull() : Fail("bad literal");
      default:
        return ParseNumber();
    }
  }

  JsonPtr ParseObject() {
    ++pos_;  // '{'
    std::map<std::string, JsonPtr> members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue::MakeObject(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return nullptr;
      }
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      JsonPtr value = ParseValue();
      if (value == nullptr) {
        return nullptr;
      }
      members[std::move(key)] = std::move(value);
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return JsonValue::MakeObject(std::move(members));
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  JsonPtr ParseArray() {
    ++pos_;  // '['
    std::vector<JsonPtr> items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue::MakeArray(std::move(items));
    }
    while (true) {
      JsonPtr value = ParseValue();
      if (value == nullptr) {
        return nullptr;
      }
      items.push_back(std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return JsonValue::MakeArray(std::move(items));
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad hex digit in \\u escape");
              return false;
            }
          }
          pos_ += 4;
          // UTF-8 encode (surrogate pairs not recombined; the exporter never emits them).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          Fail("bad escape character");
          return false;
      }
    }
    Fail("unterminated string");
    return false;
  }

  JsonPtr ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("expected number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected digits after decimal point");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected exponent digits");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return JsonValue::MakeNumber(std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr));
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

JsonPtr ParseJson(const std::string& text, std::string* error) {
  Parser p(text, error);
  return p.Parse();
}

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  static const char* hex = "0123456789abcdef";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += static_cast<char>(c);
    } else if (c == '\n' || c == '\r' || c == '\t') {
      *out += c == '\n' ? "\\n" : c == '\r' ? "\\r" : "\\t";
    } else if (c < 0x20) {
      *out += "\\u00";
      *out += hex[c >> 4];
      *out += hex[c & 0xf];
    } else {
      *out += static_cast<char>(c);
    }
  }
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  AppendEscaped(&out, s);
  return out;
}

JsonWriter& JsonWriter::Token(std::string_view token) {
  if (!first_ && !after_key_) {
    out_ += ", ";
  }
  first_ = after_key_ = false;
  out_ += token;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Token(std::string_view(&bracket, 1));
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Token("\"");
  AppendEscaped(&out_, value);
  out_ += '"';
  return *this;
}

std::string JsonWriter::Take() {
  std::string out = std::move(out_);
  *this = JsonWriter();
  return out;
}

}  // namespace noctua::obs
