#include "src/soir/serialize.h"

#include <cctype>

namespace noctua::soir {

// --- Token stream ---------------------------------------------------------------------------

void ArtifactWriter::Atom(std::string_view s) {
  if (!out_.empty()) {
    out_ += ' ';
  }
  out_ += s;
}

void ArtifactWriter::Int(int64_t v) { Atom(std::to_string(v)); }

void ArtifactWriter::Str(std::string_view s) {
  if (!out_.empty()) {
    out_ += ' ';
  }
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      default:
        out_ += c;
        break;
    }
  }
  out_ += '"';
}

bool ArtifactReader::SkipSpace() {
  while (pos_ < data_.size() && std::isspace(static_cast<unsigned char>(data_[pos_]))) {
    ++pos_;
  }
  return pos_ < data_.size();
}

std::string ArtifactReader::Atom() {
  if (!ok_ || !SkipSpace()) {
    Fail();
    return "";
  }
  size_t start = pos_;
  while (pos_ < data_.size() && !std::isspace(static_cast<unsigned char>(data_[pos_]))) {
    ++pos_;
  }
  return data_.substr(start, pos_ - start);
}

int64_t ArtifactReader::Int() {
  std::string tok = Atom();
  if (!ok_) {
    return 0;
  }
  size_t used = 0;
  int64_t v = 0;
  try {
    v = std::stoll(tok, &used);
  } catch (...) {
    Fail();
    return 0;
  }
  if (used != tok.size()) {
    Fail();
    return 0;
  }
  return v;
}

std::string ArtifactReader::Str() {
  if (!ok_ || !SkipSpace() || data_[pos_] != '"') {
    Fail();
    return "";
  }
  ++pos_;
  std::string out;
  while (pos_ < data_.size()) {
    char c = data_[pos_++];
    if (c == '"') {
      return out;
    }
    if (c == '\\') {
      if (pos_ >= data_.size()) {
        break;
      }
      char e = data_[pos_++];
      out += e == 'n' ? '\n' : e;
    } else {
      out += c;
    }
  }
  Fail();  // unterminated string
  return "";
}

void ArtifactReader::ExpectAtom(std::string_view expected) {
  if (Atom() != expected) {
    Fail();
  }
}

size_t ArtifactReader::Count(size_t max) {
  int64_t n = Int();
  if (!ok_ || n < 0 || static_cast<uint64_t>(n) > max) {
    Fail();
    return 0;
  }
  return static_cast<size_t>(n);
}

bool ArtifactReader::AtEnd() { return !SkipSpace(); }

// --- Content hash ---------------------------------------------------------------------------

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string DigestHex(uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

}  // namespace noctua::soir
