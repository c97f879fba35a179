#include "obs/metrics_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/manifest.h"
#include "obs/prom_text.h"
#include "util/logging.h"

namespace ucad::obs {

namespace {

/// Writes the whole buffer, retrying short writes and EINTR. Returns false
/// as soon as send() reports the peer is gone (0) or a hard error —
/// best-effort (a scraper hanging up mid-response is its problem, not
/// ours), but the loop must never spin on a dead socket.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string HttpResponse(int code, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Parsed request line ("GET /metrics HTTP/1.1"): method and path, split
/// so the handler can answer 405 (method known, not GET) distinctly from
/// 400 (no parseable request line at all).
struct RequestLine {
  std::string method;
  std::string path;
};

RequestLine ParseRequestLine(const std::string& request) {
  RequestLine line;
  const size_t method_end = request.find(' ');
  if (method_end == std::string::npos || method_end == 0) return line;
  const size_t path_end = request.find(' ', method_end + 1);
  if (path_end == std::string::npos) return line;
  line.method = request.substr(0, method_end);
  line.path = request.substr(method_end + 1, path_end - method_end - 1);
  // Reject anything that is not a plausible HTTP token/path — a random
  // byte stream splitting on spaces should stay a 400, not a 405.
  for (const char c : line.method) {
    if (c < 'A' || c > 'Z') return RequestLine{};
  }
  if (line.path.empty() || line.path[0] != '/') return RequestLine{};
  return line;
}

/// The served routes. obs/http_requests_total labels any other path as
/// "other", so clients probing arbitrary paths cannot grow the registry.
bool IsRoute(const std::string& path) {
  return path == "/metrics" || path == "/healthz" || path == "/history";
}

/// Splits "/history?ticks=60&prefix=canary/" into the bare path and its
/// query parameters (unknown keys ignored; no %-decoding — our values are
/// digits and metric-name characters).
std::string SplitQuery(const std::string& path, size_t* ticks,
                       std::string* prefix) {
  const size_t q = path.find('?');
  if (q == std::string::npos) return path;
  std::string rest = path.substr(q + 1);
  size_t pos = 0;
  while (pos < rest.size()) {
    size_t amp = rest.find('&', pos);
    if (amp == std::string::npos) amp = rest.size();
    const std::string param = rest.substr(pos, amp - pos);
    const size_t eq = param.find('=');
    if (eq != std::string::npos) {
      const std::string key = param.substr(0, eq);
      const std::string value = param.substr(eq + 1);
      if (key == "ticks") {
        *ticks = static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
      } else if (key == "prefix") {
        *prefix = value;
      }
    }
    pos = amp + 1;
  }
  return path.substr(0, q);
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &DefaultMetrics()) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::SetHealthHandler(HealthHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mu_);
  health_handler_ = std::move(handler);
}

void MetricsHttpServer::SetHistorySource(const TimeSeriesStore* store) {
  history_source_.store(store);
}

util::Status MetricsHttpServer::Start(int port) {
  if (serving()) {
    return util::Status::FailedPrecondition("metrics server already running");
  }
  // Every scrape self-identifies: obs/build_info carries the binary's
  // provenance labels and proc/uptime_seconds is refreshed per scrape.
  PublishBuildInfo(registry_);
  uptime_gauge_ = registry_->GetGauge("proc/uptime_seconds");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("bind 127.0.0.1:" + std::to_string(port) +
                                  ": " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_.store(fd);
  thread_ = std::thread(&MetricsHttpServer::AcceptLoop, this);
  return util::Status::Ok();
}

void MetricsHttpServer::AcceptLoop() {
  while (true) {
    const int fd = listen_fd_.load();
    if (fd < 0) return;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // The listening socket was shut down by Stop() (or an unrecoverable
      // error): exit the thread either way.
      return;
    }
    // Bounds how long one silent or stalled client can hold this thread.
    timeval timeout{};
    timeout.tv_sec = kIoTimeoutMs / 1000;
    timeout.tv_usec = (kIoTimeoutMs % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    HandleConnection(client);
    ::close(client);
  }
}

void MetricsHttpServer::HandleConnection(int client_fd) {
  // One read is enough for a scrape request line; we never need the body.
  char buf[2048];
  const ssize_t n = ::recv(client_fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  const RequestLine line = ParseRequestLine(buf);
  size_t history_ticks = 0;
  std::string history_prefix;
  const std::string path =
      SplitQuery(line.path, &history_ticks, &history_prefix);
  requests_.fetch_add(1);
  if (MetricsEnabled()) {
    registry_
        ->GetCounter("obs/http_requests_total",
                     {{"path", IsRoute(path) ? path : "other"}})
        ->Increment();
  }
  if (line.method.empty()) {
    SendAll(client_fd,
            HttpResponse(400, "Bad Request", "text/plain", "bad request\n"));
    return;
  }
  if (line.method != "GET") {
    // The scrape surface is read-only by design: every route answers the
    // same 405 so probes (HEAD, POST health pushes) fail loudly instead of
    // being misread as scrapes.
    std::string response =
        HttpResponse(405, "Method Not Allowed", "text/plain",
                     "method not allowed; this endpoint is GET-only\n");
    const size_t header_end = response.find("\r\n\r\n");
    response.insert(header_end, "\r\nAllow: GET");
    SendAll(client_fd, response);
    return;
  }
  if (path == "/metrics") {
    if (uptime_gauge_ != nullptr) uptime_gauge_->Set(ProcessUptimeSeconds());
    SendAll(client_fd,
            HttpResponse(200, "OK", "text/plain; version=0.0.4",
                         PromText(*registry_)));
  } else if (path == "/healthz") {
    HealthHandler handler;
    {
      std::lock_guard<std::mutex> lock(handler_mu_);
      handler = health_handler_;
    }
    if (handler == nullptr) {
      SendAll(client_fd, HttpResponse(200, "OK", "text/plain", "ok\n"));
    } else {
      const auto [code, body] = handler();
      SendAll(client_fd,
              HttpResponse(code, code >= 500 ? "Service Unavailable" : "OK",
                           "text/plain", body));
    }
  } else if (path == "/history") {
    const TimeSeriesStore* store = history_source_.load();
    if (store == nullptr) {
      SendAll(client_fd,
              HttpResponse(404, "Not Found", "text/plain",
                           "no time-series store attached\n"));
    } else {
      SendAll(client_fd,
              HttpResponse(200, "OK", "application/json",
                           store->HistoryJson(history_ticks, history_prefix)));
    }
  } else {
    SendAll(client_fd,
            HttpResponse(404, "Not Found", "text/plain",
                         "not found: " + path +
                             " (routes: /metrics /healthz /history)\n"));
  }
}

void MetricsHttpServer::Stop() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // Unblocks the accept() so the thread exits; the fd is closed only
    // after the join so it cannot be recycled under the accept loop.
    ::shutdown(fd, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  if (fd >= 0) ::close(fd);
  port_ = 0;
}

}  // namespace ucad::obs
