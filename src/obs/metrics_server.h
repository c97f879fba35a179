#ifndef UCAD_OBS_METRICS_SERVER_H_
#define UCAD_OBS_METRICS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/status.h"

namespace ucad::obs {

/// Minimal single-threaded HTTP/1.0 scrape endpoint on a dedicated
/// blocking-accept thread. Serves:
///
///   GET /metrics  -> Prometheus text exposition of the registry
///   GET /healthz  -> health handler when set (SLO rollup), else "ok"
///   GET /history  -> retained time-series JSON when a store is attached
///                    (?ticks=N limits to the newest N ticks, ?prefix=p
///                    filters series by name prefix)
///
/// Unknown paths get 404 with a body; non-GET methods get 405 with an
/// Allow header. One request per connection (Connection: close), which is
/// exactly the Prometheus scrape model — this is deliberately not a
/// general HTTP server. The accept thread touches the registry only
/// through its thread-safe read surface, so serving concurrently with
/// scoring is safe. Opt-in (e.g. `ucad_cli ... --serve-metrics <port>`);
/// nothing is spawned unless Start() is called.
class MetricsHttpServer {
 public:
  /// Serves `registry` (DefaultMetrics() when null).
  explicit MetricsHttpServer(MetricsRegistry* registry = nullptr);
  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Readiness answer: HTTP status code + text body. The server maps any
  /// code >= 500 to reason "Service Unavailable".
  using HealthHandler = std::function<std::pair<int, std::string>()>;

  /// Routes /healthz through `handler` (the SLO rollup). May be replaced
  /// while serving: the handler cell is swapped under a lock and invoked
  /// outside it. Null restores the static "ok" answer.
  void SetHealthHandler(HealthHandler handler);

  /// Serves `store`'s HistoryJson from /history. The store must outlive
  /// the server (or be detached with nullptr first). Without a store,
  /// /history answers 404.
  void SetHistorySource(const TimeSeriesStore* store);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()) and starts
  /// the accept thread. Fails if already serving or the bind/listen fails.
  util::Status Start(int port);

  /// Closes the listening socket and joins the accept thread. Idempotent;
  /// called by the destructor.
  void Stop();

  /// Receive/send timeout on every accepted connection: a client that
  /// connects and sends nothing (or stops reading) holds the single accept
  /// thread for at most this long before its connection is dropped.
  static constexpr int kIoTimeoutMs = 2000;

  bool serving() const { return listen_fd_.load() >= 0; }
  /// The bound port (resolved after Start; 0 when not serving).
  int port() const { return port_; }
  /// Requests answered so far (any route).
  uint64_t requests() const { return requests_.load(); }

 private:
  void AcceptLoop();
  void HandleConnection(int client_fd);

  MetricsRegistry* registry_;
  /// proc/uptime_seconds, refreshed per /metrics scrape (set by Start).
  Gauge* uptime_gauge_ = nullptr;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;

  mutable std::mutex handler_mu_;
  HealthHandler health_handler_;
  std::atomic<const TimeSeriesStore*> history_source_{nullptr};
};

}  // namespace ucad::obs

#endif  // UCAD_OBS_METRICS_SERVER_H_
