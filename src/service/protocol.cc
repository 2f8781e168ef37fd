#include "src/service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

namespace noctua::service {

namespace {

// Appends up to `cap` more bytes to *buf; false on EOF/error/timeout.
bool ReadSome(int fd, std::string* buf, size_t cap) {
  char chunk[4096];
  size_t want = cap < sizeof(chunk) ? cap : sizeof(chunk);
  ssize_t n = ::recv(fd, chunk, want, 0);
  if (n <= 0) {
    return false;
  }
  buf->append(chunk, static_cast<size_t>(n));
  return true;
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// Splits a CRLF-terminated header block into lines; strict about the CRLFs.
bool ParseHeaderLines(const std::string& block, std::map<std::string, std::string>* headers,
                      std::string* error) {
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string::npos) {
      *error = "header line not CRLF-terminated";
      return false;
    }
    std::string line = block.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      *error = "malformed header line: " + line;
      return false;
    }
    (*headers)[ToLower(line.substr(0, colon))] = Trim(line.substr(colon + 1));
  }
  return true;
}

// Reads start-line + headers (up to the blank line), then Content-Length body bytes.
// Shared by the request and response readers; `start_line` receives the first line.
bool ReadMessage(int fd, std::string* start_line, std::map<std::string, std::string>* headers,
                 std::string* body, std::string* error) {
  std::string buf;
  size_t header_end = std::string::npos;
  while (true) {
    header_end = buf.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      break;
    }
    if (buf.size() >= kMaxHeaderBytes) {
      *error = "header block exceeds limit";
      return false;
    }
    if (!ReadSome(fd, &buf, kMaxHeaderBytes + 1 - buf.size())) {
      *error = buf.empty() ? "connection closed before request" : "connection closed mid-header";
      return false;
    }
  }

  size_t line_end = buf.find("\r\n");
  *start_line = buf.substr(0, line_end);
  if (!ParseHeaderLines(buf.substr(line_end + 2, header_end + 2 - (line_end + 2)), headers,
                        error)) {
    return false;
  }

  size_t content_length = 0;
  auto it = headers->find("content-length");
  if (it != headers->end()) {
    const std::string& v = it->second;
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      *error = "malformed Content-Length";
      return false;
    }
    // from_chars, not stoull: an all-digit value that overflows uint64 must be a
    // rejected request, not an exception escaping the read thread.
    uint64_t parsed = 0;
    auto res = std::from_chars(v.data(), v.data() + v.size(), parsed);
    if (res.ec != std::errc() || res.ptr != v.data() + v.size() ||
        parsed > kMaxBodyBytes) {
      *error = "body exceeds limit";
      return false;
    }
    content_length = static_cast<size_t>(parsed);
  }
  if (headers->count("transfer-encoding") != 0) {
    *error = "chunked transfer encoding not supported";
    return false;
  }

  *body = buf.substr(header_end + 4);
  while (body->size() < content_length) {
    if (!ReadSome(fd, body, content_length - body->size())) {
      *error = "connection closed mid-body";
      return false;
    }
  }
  body->resize(content_length);
  return true;
}

}  // namespace

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

bool ReadHttpRequest(int fd, HttpRequest* req, std::string* error) {
  std::string start;
  if (!ReadMessage(fd, &start, &req->headers, &req->body, error)) {
    return false;
  }
  size_t sp1 = start.find(' ');
  size_t sp2 = start.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    *error = "malformed request line: " + start;
    return false;
  }
  req->method = start.substr(0, sp1);
  req->target = start.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string version = start.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    *error = "unsupported HTTP version: " + version;
    return false;
  }
  if (req->method.empty() || req->target.empty() || req->target[0] != '/') {
    *error = "malformed request line: " + start;
    return false;
  }
  return true;
}

bool WriteHttpResponse(int fd, const HttpResponse& resp) {
  std::string msg = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    StatusText(resp.status) + "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + resp.body;
  return WriteAll(fd, msg);
}

bool WriteHttpRequest(int fd, const std::string& method, const std::string& target,
                      const std::string& host, const std::string& body,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra_headers) {
  std::string msg = method + " " + target + " HTTP/1.1\r\nHost: " + host +
                    "\r\nContent-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size());
  for (const auto& [key, value] : extra_headers) {
    msg += "\r\n" + key + ": " + value;
  }
  msg += "\r\nConnection: close\r\n\r\n" + body;
  return WriteAll(fd, msg);
}

void SplitTarget(const std::string& target, std::string* path, std::string* query) {
  size_t q = target.find('?');
  if (q == std::string::npos) {
    *path = target;
    query->clear();
    return;
  }
  *path = target.substr(0, q);
  *query = target.substr(q + 1);
}

std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    std::string pair =
        query.substr(pos, amp == std::string::npos ? std::string::npos : amp - pos);
    size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string::npos) {
      break;
    }
    pos = amp + 1;
  }
  return "";
}

bool ReadHttpResponse(int fd, HttpResponse* resp, std::string* error) {
  std::string start;
  std::map<std::string, std::string> headers;
  if (!ReadMessage(fd, &start, &headers, &resp->body, error)) {
    return false;
  }
  // "HTTP/1.1 200 OK"
  size_t sp1 = start.find(' ');
  if (sp1 == std::string::npos || start.size() < sp1 + 4) {
    *error = "malformed status line: " + start;
    return false;
  }
  std::string code = start.substr(sp1 + 1, 3);
  if (code.find_first_not_of("0123456789") != std::string::npos) {
    *error = "malformed status code: " + start;
    return false;
  }
  resp->status = std::stoi(code);
  auto it = headers.find("content-type");
  resp->content_type = it != headers.end() ? it->second : "";
  return true;
}

}  // namespace noctua::service
