#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "obs/prom_text.h"
#include "obs/timeseries.h"

namespace ucad::obs {
namespace {

// ---------- Name / label sanitization ----------

TEST(PromNameTest, SlashSeparatorsBecomeUnderscores) {
  EXPECT_EQ(PromName("detector/drift/psi"), "detector_drift_psi");
  EXPECT_EQ(PromName("eval/deeplog/train_ms"), "eval_deeplog_train_ms");
}

TEST(PromNameTest, IllegalCharactersAndLeadingDigits) {
  EXPECT_EQ(PromName("9lives"), "_lives");
  EXPECT_EQ(PromName("a-b.c"), "a_b_c");
  EXPECT_EQ(PromName(""), "_");
  EXPECT_EQ(PromName("name:with:colons"), "name:with:colons");
}

TEST(PromNameTest, LabelNamesRejectColons) {
  EXPECT_EQ(PromLabelName("le:gal"), "le_gal");
  EXPECT_EQ(PromLabelName("method"), "method");
}

TEST(PromLabelValueTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(PromLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PromLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PromLabelValue("two\nlines"), "two\\nlines");
}

/// Inverse of PromLabelValue's escaping (what a scraper does when parsing
/// a label value back out of the exposition).
std::string PromUnescape(const std::string& escaped) {
  std::string out;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      const char next = escaped[++i];
      out += next == 'n' ? '\n' : next;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

TEST(PromLabelValueTest, EscapingRoundTrips) {
  const std::vector<std::string> values = {
      "plain",
      "back\\slash",
      "trailing backslash\\",
      "\\\\double",
      "quote\"inside\"",
      "line\none\ntwo",
      "mix\\\"of\nall\\n three",
      "utf-8 bytes: caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e",
      std::string("embedded\0nul", 12),
  };
  for (const std::string& v : values) {
    const std::string escaped = PromLabelValue(v);
    // The escaped form must not contain a raw quote or newline (either
    // would corrupt the sample line)...
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << v;
    for (size_t i = 0; i < escaped.size(); ++i) {
      if (escaped[i] == '"') {
        ASSERT_GT(i, 0u) << v;
        size_t backslashes = 0;
        for (size_t j = i; j-- > 0 && escaped[j] == '\\';) ++backslashes;
        EXPECT_EQ(backslashes % 2, 1u) << "unescaped quote in: " << escaped;
      }
    }
    // ...and unescaping must reproduce the original byte-for-byte.
    EXPECT_EQ(PromUnescape(escaped), v);
  }
}

// ---------- Text exposition ----------

TEST(PromTextTest, CountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("detector/operations_total")->Increment(42);
  registry.GetGauge("detector/anomaly_rate")->Set(0.125);
  const std::string text = PromText(registry);
  EXPECT_NE(text.find("# TYPE detector_operations_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("detector_operations_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE detector_anomaly_rate gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("detector_anomaly_rate 0.125\n"), std::string::npos);
}

TEST(PromTextTest, TypeLineEmittedOncePerNameAcrossLabelVariants) {
  MetricsRegistry registry;
  registry.GetCounter("eval/runs_total", {{"method", "DeepLog"}})
      ->Increment();
  registry.GetCounter("eval/runs_total", {{"method", "USAD"}})->Increment(2);
  const std::string text = PromText(registry);
  size_t type_lines = 0;
  size_t pos = 0;
  while ((pos = text.find("# TYPE eval_runs_total", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("eval_runs_total{method=\"DeepLog\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("eval_runs_total{method=\"USAD\"} 2\n"),
            std::string::npos);
}

TEST(PromTextTest, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("req/latency_ms", {}, {1.0, 5.0, 10.0});
  h->Observe(0.5);   // bucket le=1
  h->Observe(4.0);   // bucket le=5
  h->Observe(4.5);   // bucket le=5
  h->Observe(100.0); // overflow
  const std::string text = PromText(registry);
  EXPECT_NE(text.find("# TYPE req_latency_ms histogram\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("req_latency_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_latency_ms_bucket{le=\"5\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_latency_ms_bucket{le=\"10\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_latency_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("req_latency_ms_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("req_latency_ms_sum 109\n"), std::string::npos);
}

TEST(PromTextTest, NonFiniteGaugeUsesPrometheusSpelling) {
  MetricsRegistry registry;
  registry.GetGauge("weird/pos_inf")->Set(INFINITY);
  registry.GetGauge("weird/neg_inf")->Set(-INFINITY);
  registry.GetGauge("weird/nan")->Set(NAN);
  const std::string text = PromText(registry);
  EXPECT_NE(text.find("weird_pos_inf +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("weird_neg_inf -Inf\n"), std::string::npos);
  EXPECT_NE(text.find("weird_nan NaN\n"), std::string::npos);
}

TEST(PromTextTest, EveryLineIsTypeCommentOrSample) {
  // Structural validity: each line is either "# TYPE <name> <type>" or
  // "<name>[{labels}] <value>" — what a Prometheus scraper requires.
  MetricsRegistry registry;
  registry.GetCounter("a/b_total", {{"k", "v1"}})->Increment();
  registry.GetGauge("c/d")->Set(1.5);
  registry.GetHistogram("e/f_ms", {}, {1.0, 2.0})->Observe(1.5);
  std::istringstream lines(PromText(registry));
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value in: " << line;
    ++samples;
  }
  EXPECT_GE(samples, 6);  // counter + gauge + 2 buckets + inf + sum + count
}

TEST(PromTextTest, DeterministicUnderLabelInsertionOrder) {
  // Two registries populated with the same series but with label maps
  // built in opposite orders must render byte-identical expositions —
  // snapshot diffs and scrape checksums depend on it.
  MetricsRegistry forward;
  forward.GetCounter("eval/runs_total", {{"method", "USAD"}, {"arm", "a"}})
      ->Increment(3);
  forward.GetGauge("obs/build_info", {{"git_sha", "abc"}, {"build_type", "R"}})
      ->Set(1.0);
  MetricsRegistry reverse;
  reverse.GetGauge("obs/build_info", {{"build_type", "R"}, {"git_sha", "abc"}})
      ->Set(1.0);
  reverse.GetCounter("eval/runs_total", {{"arm", "a"}, {"method", "USAD"}})
      ->Increment(3);
  const std::string a = PromText(forward);
  const std::string b = PromText(reverse);
  EXPECT_EQ(a, b);
  // Label keys themselves render sorted.
  EXPECT_NE(a.find("eval_runs_total{arm=\"a\",method=\"USAD\"} 3\n"),
            std::string::npos)
      << a;
  EXPECT_NE(a.find("obs_build_info{build_type=\"R\",git_sha=\"abc\"} 1\n"),
            std::string::npos);
}

// ---------- HTTP endpoint ----------

/// One blocking HTTP/1.0 round-trip against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = request_line + "\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesMetricsAndHealthz) {
  MetricsRegistry registry;
  registry.GetGauge("detector/anomaly_rate")->Set(0.25);
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());  // ephemeral port
  ASSERT_TRUE(server.serving());
  ASSERT_GT(server.port(), 0);

  const std::string health = HttpGet(server.port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics =
      HttpGet(server.port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("detector_anomaly_rate 0.25"), std::string::npos);

  // The endpoint's own request counter observes both requests (it may or
  // may not include the in-flight one depending on registry identity; here
  // the counter lives in the served registry).
  EXPECT_GE(server.requests(), 2u);
  server.Stop();
  EXPECT_FALSE(server.serving());
}

TEST(MetricsHttpServerTest, UnknownRouteIs404WithHelpfulBody) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response =
      HttpGet(server.port(), "GET /nope HTTP/1.0");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos)
      << response;
  // The body names the path it rejected and the routes that do exist, so a
  // misconfigured scraper fails with a self-explanatory answer.
  EXPECT_NE(response.find("not found: /nope"), std::string::npos);
  EXPECT_NE(response.find("/metrics"), std::string::npos);
  EXPECT_NE(response.find("/healthz"), std::string::npos);
  EXPECT_NE(response.find("/history"), std::string::npos);
}

TEST(MetricsHttpServerTest, NonGetMethodsAre405WithAllowHeader) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  for (const char* request :
       {"POST /metrics HTTP/1.0", "PUT /healthz HTTP/1.0",
        "DELETE /history HTTP/1.0", "HEAD /metrics HTTP/1.0"}) {
    const std::string response = HttpGet(server.port(), request);
    EXPECT_NE(response.find("HTTP/1.0 405 Method Not Allowed"),
              std::string::npos)
        << request << " -> " << response;
    EXPECT_NE(response.find("Allow: GET"), std::string::npos) << request;
    EXPECT_NE(response.find("method not allowed"), std::string::npos)
        << request;
  }
  // GET on the same routes keeps working after the rejects.
  const std::string metrics = HttpGet(server.port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST(MetricsHttpServerTest, HistoryWithoutStoreIs404) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response =
      HttpGet(server.port(), "GET /history HTTP/1.0");
  EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos) << response;
  EXPECT_NE(response.find("no time-series store attached"),
            std::string::npos);
}

TEST(MetricsHttpServerTest, HistoryServesStoreJsonWithQueryParameters) {
  MetricsRegistry registry;
  registry.GetCounter("canary/probes_total")->Increment(5);
  registry.GetCounter("detector/sessions_total")->Increment(7);
  TimeSeriesStore store(&registry);
  store.Sample(1000);
  store.Sample(2000);
  store.Sample(3000);
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  server.SetHistorySource(&store);

  const std::string all = HttpGet(server.port(), "GET /history HTTP/1.0");
  EXPECT_NE(all.find("HTTP/1.0 200 OK"), std::string::npos) << all;
  EXPECT_NE(all.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(all.find("\"ticks\":[1000,2000,3000]"), std::string::npos);
  EXPECT_NE(all.find("canary/probes_total"), std::string::npos);
  EXPECT_NE(all.find("detector/sessions_total"), std::string::npos);

  // ?ticks= limits the view, ?prefix= filters series.
  const std::string filtered = HttpGet(
      server.port(), "GET /history?ticks=2&prefix=canary/ HTTP/1.0");
  EXPECT_NE(filtered.find("\"ticks\":[2000,3000]"), std::string::npos)
      << filtered;
  EXPECT_NE(filtered.find("canary/probes_total"), std::string::npos);
  EXPECT_EQ(filtered.find("detector/sessions_total"), std::string::npos);

  // Detaching the store restores the 404.
  server.SetHistorySource(nullptr);
  const std::string detached =
      HttpGet(server.port(), "GET /history HTTP/1.0");
  EXPECT_NE(detached.find("HTTP/1.0 404"), std::string::npos);
}

TEST(MetricsHttpServerTest, MalformedRequestIs400) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = HttpGet(server.port(), "BOGUS");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
}

TEST(MetricsHttpServerTest, StopIsIdempotentAndRestartable) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const int first_port = server.port();
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.serving());
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.serving());
  (void)first_port;
  const std::string health = HttpGet(server.port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("200"), std::string::npos);
}

TEST(MetricsHttpServerTest, StartTwiceFails) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());
}

TEST(MetricsHttpServerTest, PublishesBuildInfoAndUptime) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string metrics =
      HttpGet(server.port(), "GET /metrics HTTP/1.0");
  // Every scrape self-identifies the binary: a constant-1 info gauge
  // labeled with the build's provenance, plus a per-scrape uptime gauge.
  EXPECT_NE(metrics.find("obs_build_info{build_type=\""), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("git_sha=\""), std::string::npos);
  EXPECT_NE(metrics.find("} 1\n"), std::string::npos);
  // Uptime advances between scrapes. Anchor at the sample line (the
  // "# TYPE proc_uptime_seconds gauge" comment also matches a bare find).
  const auto uptime_sample = [](const std::string& text) {
    const size_t at = text.find("\nproc_uptime_seconds ");
    EXPECT_NE(at, std::string::npos) << text;
    return std::strtod(text.c_str() + at + 21, nullptr);
  };
  const double first = uptime_sample(metrics);
  EXPECT_GT(first, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double second =
      uptime_sample(HttpGet(server.port(), "GET /metrics HTTP/1.0"));
  EXPECT_GT(second, first);
}

TEST(MetricsHttpServerTest, SurvivesClientClosingMidResponse) {
  MetricsRegistry registry;
  // A deliberately huge exposition, so the response cannot fit in the
  // socket buffers and SendAll must keep writing after the peer is gone.
  for (int i = 0; i < 20000; ++i) {
    registry.GetCounter("stress/series_total",
                        {{"i", std::to_string(i)}})
        ->Increment();
  }
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());

  // Client 1: request /metrics, then slam the connection shut with an RST
  // (SO_LINGER, zero timeout) without reading the body.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const linger hard_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);  // RST: the server's next send() fails instead of blocking

  // Client 2: the server must shrug off the dead peer and keep serving.
  // (Regression: a SendAll that retried on send()<=0 would spin forever
  // in the accept thread and this request would hang.)
  const std::string health = HttpGet(server.port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("200"), std::string::npos) << health;
  const std::string metrics =
      HttpGet(server.port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("stress_series_total"), std::string::npos);
}

TEST(MetricsHttpServerTest, JunkPathsShareOneRequestSeries) {
  MetricsRegistry registry;
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  // A scanner walking 100 distinct paths must not mint 100 label values.
  for (int i = 0; i < 100; ++i) {
    HttpGet(server.port(), "GET /probe-" + std::to_string(i) + " HTTP/1.0");
  }
  HttpGet(server.port(), "GET /healthz?x=1 HTTP/1.0");
  std::vector<std::string> paths;
  uint64_t other = 0;
  registry.ForEachSeries([&](const MetricsRegistry::SeriesRef& ref) {
    if (ref.name != "obs/http_requests_total") return;
    for (const auto& [key, value] : ref.labels) {
      if (key == "path") paths.push_back(value);
      if (key == "path" && value == "other") other = ref.counter->Value();
    }
  });
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(other, 100u);
  EXPECT_EQ(registry
                .GetCounter("obs/http_requests_total", {{"path", "/healthz"}})
                ->Value(),
            1u);
}

TEST(MetricsHttpServerTest, SilentClientDoesNotStallLaterScrape) {
  MetricsRegistry registry;
  registry.GetGauge("detector/anomaly_rate")->Set(0.5);
  MetricsHttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Client 1 connects and never sends a byte, holding its connection open.
  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  ASSERT_EQ(
      ::connect(silent, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Client 2 scrapes. Its own receive timeout keeps a regression (a
  // server blocked forever on client 1) from hanging the test binary.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval client_timeout{};
  client_timeout.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &client_timeout,
               sizeof(client_timeout));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  ::close(fd);
  ::close(silent);
  EXPECT_NE(response.find("detector_anomaly_rate 0.5"), std::string::npos)
      << response;
  EXPECT_LT(waited_ms, MetricsHttpServer::kIoTimeoutMs + 5000.0);
}

}  // namespace
}  // namespace ucad::obs
