// Dependency-free HTTP/1.1 server: one epoll event loop + a worker
// pool (DESIGN.md §14).
//
// Threading model:
//
//   * The event-loop thread owns the listener and the epoll set. Every
//     connection is registered EPOLLIN | EPOLLONESHOT: when it becomes
//     readable, epoll disarms it and the loop enqueues the connection
//     for a worker — so exactly one thread touches a connection at a
//     time, with no per-connection locks.
//
//   * A worker drains the socket, feeds the incremental HttpParser,
//     and for every complete request calls the handler and writes the
//     response (keep-alive: repeatedly, including pipelined requests
//     already buffered). When the connection goes quiet it re-arms the
//     oneshot registration and hands ownership back to the loop.
//
//   * Overload sheds at the front door: when the worker queue is full
//     the event loop answers 503 + Connection: close itself with a
//     best-effort nonblocking write — a saturated worker pool must not
//     translate into unbounded queueing.
//
//   * The loop's epoll_wait timeout doubles as the idle sweep: keep-
//     alive connections idle past idle_timeout are closed (only while
//     not checked out to a worker).
//
// Shutdown is graceful: Stop() closes the listener, wakes the loop via
// a pipe, lets workers finish in-flight requests, then closes every
// connection and joins all threads.
//
// Observability (obs::MetricsRegistry::Default()): crossem_http_
// connections/requests/responses by class, parse errors, overload
// sheds, request latency histogram, active-connection gauge.
#ifndef CROSSEM_NET_SERVER_H_
#define CROSSEM_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "util/status.h"

namespace crossem {
namespace net {

struct HttpServerOptions {
  /// Bind address. Default loopback: exposing the matcher to a network
  /// is an explicit operator decision (--host 0.0.0.0).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (tests); port() reports the real one.
  int port = 0;
  int64_t workers = 4;
  /// Accepted connections beyond this are closed immediately.
  int64_t max_connections = 1024;
  /// Dispatch backlog; overflow is answered 503 by the event loop.
  int64_t worker_queue = 256;
  /// Keep-alive connections idle past this are reaped.
  int64_t idle_timeout_micros = 30 * 1000 * 1000;
  /// Per-response write budget before the connection is dropped.
  int64_t write_timeout_micros = 5 * 1000 * 1000;
  HttpParserLimits limits;
};

/// Application hook: one complete request in, one response out. Called
/// from worker threads (must be thread-safe).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer(HttpServerOptions options, HttpHandler handler);
  ~HttpServer();  // implies Stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the loop + workers. Fails with
  /// IOError if the address cannot be bound.
  Status Start();

  /// Graceful stop; idempotent.
  void Stop();

  /// The bound port (after Start); useful with options.port == 0.
  int port() const { return port_; }

  int64_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser{HttpParser::Mode::kRequest};
    bool busy = false;          // checked out to a worker
    bool peer_closed = false;   // recv returned 0
    std::chrono::steady_clock::time_point last_active;
  };

  void EventLoop();
  void WorkerLoop();
  /// Services one checked-out connection: read, parse, respond.
  void ServeConnection(Connection* conn);
  /// Blocking-with-timeout full write (poll on EAGAIN).
  bool WriteAll(int fd, const std::string& data);
  void CloseConnection(Connection* conn);  // must hold conns_mu_
  bool RearmConnection(Connection* conn);
  void AcceptNew();
  void SweepIdle(std::chrono::steady_clock::time_point now);

  const HttpServerOptions options_;
  const HttpHandler handler_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex conns_mu_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::atomic<int64_t> active_connections_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> work_queue_;  // connection fds checked out to workers

  std::thread loop_;
  std::vector<std::thread> workers_;

  struct Instruments;
  const Instruments* instruments_ = nullptr;
};

}  // namespace net
}  // namespace crossem

#endif  // CROSSEM_NET_SERVER_H_
