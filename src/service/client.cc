#include "src/service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/obs/json.h"

namespace noctua::service {

namespace {

int Connect(const std::string& host, int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid host address: " + host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect to ") + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RoundTrip(const std::string& host, int port, const std::string& method,
               const std::string& target, const std::string& body, HttpResponse* resp,
               std::string* error,
               const std::vector<std::pair<std::string, std::string>>& extra_headers =
                   {}) {
  int fd = Connect(host, port, error);
  if (fd < 0) {
    return false;
  }
  bool ok = WriteHttpRequest(fd, method, target, host + ":" + std::to_string(port), body,
                             extra_headers) &&
            ReadHttpResponse(fd, resp, error);
  if (!ok && error->empty()) {
    *error = "request I/O failed";
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool Client::Get(const std::string& target, HttpResponse* resp, std::string* error) {
  return RoundTrip(host_, port_, "GET", target, "", resp, error);
}

bool Client::Post(const std::string& target, const std::string& body, HttpResponse* resp,
                  std::string* error) {
  return RoundTrip(host_, port_, "POST", target, body, resp, error);
}

std::string AnalyzeRequestBody(const std::string& tenant, const std::string& app,
                               const std::vector<std::string>& omit_views) {
  AnalyzeParams params;
  params.tenant = tenant;
  params.app = app;
  params.omit_views = omit_views;
  return AnalyzeRequestBody(params);
}

std::string AnalyzeRequestBody(const AnalyzeParams& params) {
  obs::JsonWriter w;
  w.BeginObject().Key("tenant").String(params.tenant).Key("app").String(params.app);
  if (!params.omit_views.empty()) {
    w.Key("omit_views").BeginArray();
    for (const std::string& view : params.omit_views) {
      w.String(view);
    }
    w.EndArray();
  }
  if (params.trace) {
    w.Key("trace").Bool(true);
  }
  return w.EndObject().Take();
}

bool Client::Analyze(const std::string& tenant, const std::string& app,
                     const std::vector<std::string>& omit_views, HttpResponse* resp,
                     std::string* error) {
  AnalyzeParams params;
  params.tenant = tenant;
  params.app = app;
  params.omit_views = omit_views;
  return Analyze(params, resp, error);
}

bool Client::Analyze(const AnalyzeParams& params, HttpResponse* resp,
                     std::string* error) {
  std::vector<std::pair<std::string, std::string>> headers;
  if (!params.trace_id.empty()) {
    headers.emplace_back("x-noctua-trace", params.trace_id);
  }
  return RoundTrip(host_, port_, "POST", "/v1/analyze", AnalyzeRequestBody(params), resp,
                   error, headers);
}

}  // namespace noctua::service
