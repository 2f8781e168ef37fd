// The wire protocol of Noctua-as-a-service: a deliberately small HTTP/1.1 subset over a
// local TCP socket.
//
// Why HTTP and not a bespoke framed protocol: the daemon's consumers are the bundled
// noctua-cli, tests, and ad-hoc curl during CI smoke checks — being curl-able is worth
// more than saving a few header bytes on a loopback socket. The subset is exactly what
// those consumers need:
//
//   * requests:  one method + target + headers + optional Content-Length body
//   * responses: status line + Content-Type/Content-Length/Connection headers + body
//   * one request per connection (the server always answers Connection: close)
//   * no chunked transfer, no keep-alive, no continuation lines, no TLS
//
// Inputs are bounded (kMaxHeaderBytes / kMaxBodyBytes) and reads are timeout-guarded by
// the caller (the server sets SO_RCVTIMEO), so a stalled or hostile client cannot wedge
// a handler thread forever. All parsing is strict: a malformed request is an error, not
// a guess.
#ifndef SRC_SERVICE_PROTOCOL_H_
#define SRC_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace noctua::service {

// Upper bounds on one message's header block and body. Requests carry small JSON
// descriptors and responses carry restriction sets — megabytes is already generous.
inline constexpr size_t kMaxHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;

struct HttpRequest {
  std::string method;   // "GET", "POST"
  std::string target;   // origin-form, e.g. "/v1/analyze"
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

// Standard reason phrase for the handful of statuses the service emits.
const char* StatusText(int status);

// Reads one request from `fd` (blocking; honors the socket's receive timeout). Returns
// false — with a human-readable reason in *error — on EOF, timeout, a malformed message,
// or a size-bound violation.
bool ReadHttpRequest(int fd, HttpRequest* req, std::string* error);

// Writes one response (adds Content-Length and Connection: close). False on I/O error.
bool WriteHttpResponse(int fd, const HttpResponse& resp);

// Client-side halves of the same subset. `extra_headers` are emitted verbatim after
// the fixed ones (the client uses this for x-noctua-trace).
bool WriteHttpRequest(int fd, const std::string& method, const std::string& target,
                      const std::string& host, const std::string& body,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra_headers = {});
bool ReadHttpResponse(int fd, HttpResponse* resp, std::string* error);

// Splits an origin-form target at the first '?': "/metrics?format=x" -> path
// "/metrics", query "format=x" (query is "" when absent). No %-decoding — the service
// only routes on literal ASCII paths and parameter values.
void SplitTarget(const std::string& target, std::string* path, std::string* query);

// Value of `key` in a "k=v&k2=v2" query string; "" when absent.
std::string QueryParam(const std::string& query, const std::string& key);

}  // namespace noctua::service

#endif  // SRC_SERVICE_PROTOCOL_H_
