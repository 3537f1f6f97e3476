// HttpExporter — the live telemetry plane's front door (DESIGN.md §13).
//
// A deliberately small HTTP/1.1 server: one daemon thread, one connection
// at a time, GET only, Connection: close per request. That is the right
// size for its one job — letting `curl`, Prometheus, and seer_inspect
// --connect read a running seer_serve — and keeps the failure surface
// auditable: there is no request parsing beyond the request line, no
// keep-alive state machine, and the handlers it invokes only READ from
// wait-free structures (registry slabs, hub atomics), so a slow or
// malicious scraper can delay at most the next scraper, never a producer
// or worker thread.
//
// Routes are registered before start() and immutable afterwards, so the
// serving thread walks them lock-free. Handlers run on the exporter
// thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/tcp_listener.hpp"

namespace seer::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse()>;

class HttpExporter {
 public:
  HttpExporter() = default;
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;
  ~HttpExporter() { stop(); }

  // Register before start(); exact path match (query strings are stripped).
  void route(std::string path, HttpHandler handler) {
    routes_.emplace_back(std::move(path), std::move(handler));
  }

  // Binds 127.0.0.1:`port` (0 = ephemeral, see port()) and spawns the
  // serving thread. False with *err set on bind failure.
  bool start(std::uint16_t port, std::string* err = nullptr);

  // Closes the listener and joins the serving thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return serving_.load(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

 private:
  void serve_loop();
  void handle_connection(util::SocketFd conn);

  std::vector<std::pair<std::string, HttpHandler>> routes_;
  util::TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> serving_{false};
};

}  // namespace seer::obs
