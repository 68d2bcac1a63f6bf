// Minimal epoll-based HTTP/1.1 server for the SPARQL Protocol endpoint.
//
// One event thread owns every socket: it accepts connections, reads and
// parses requests (http/http_parser.h), and flushes response bytes. Request
// handling is pushed out through a Handler callback that receives an
// HttpExchange — a thread-safe handle the handler (or any worker thread it
// forwards the exchange to) uses to send the response:
//
//   server.Start();
//   ...
//   void Handle(std::shared_ptr<HttpExchange> ex) {
//     if (ex->request().path == "/healthz") {
//       ex->Respond(200, "text/plain", "ok\n");
//       return;                       // synchronous, on the event thread
//     }
//     pool->Submit([ex] {             // or asynchronous, from any thread
//       ex->BeginStreaming(200, "application/sparql-results+json");
//       while (...) if (!ex->Write(chunk)) break;   // blocks on backpressure
//       ex->EndStreaming();
//     });
//   }
//
// Who sends: a worker sends its response bytes itself while the
// connection's output queue is empty; what the socket does not take goes
// into that per-connection bounded queue, which the event thread drains.
// A streaming exchange holds each piece until the next one (the head rides
// with the first chunk, the terminal chunk with the last), so a response
// under one flush leaves in one send, with no event-thread wake-up but the
// one that turns the connection around.
//
// Backpressure: Write() from a worker blocks once the queue holds
// Options::out_queue_high_water bytes and resumes as the client reads — so
// streaming a huge result set holds O(high_water) memory, not the whole
// body. A client that stops reading trips the write-stall timeout; the
// event thread closes the connection, which unblocks the worker with
// Write() == false (same as any disconnect mid-response).
//
// Keep-alive and pipelining: reads are disabled while a request is being
// handled (a pipelined burst is buffered by the kernel / parser, bounding
// per-connection memory) and re-enabled when its response finishes, at
// which point an already-buffered next request dispatches immediately.
// Connections idle longer than Options::idle_timeout while waiting for a
// request are closed (slow-loris guard).
//
// The server never touches query machinery; src/server/sparql_endpoint.h
// supplies the Handler that routes to QueryService.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/http_parser.h"
#include "util/status.h"

namespace sparqluo {

class Counter;
class Gauge;
struct HttpConnection;  // internal to http_server.cc
struct HttpWaker;       // internal to http_server.cc

/// Canonical reason phrase for an HTTP status code ("OK", "Not Found", ...).
const char* HttpStatusReason(int status);

/// A single request/response exchange, handed to the server's Handler.
///
/// Thread-safe handle: the handler may respond synchronously on the event
/// thread or hand the exchange to a worker and respond later — the
/// connection stays open (reads paused) until the response completes.
/// Exactly one response per exchange: either one Respond() call, or
/// BeginStreaming() + Write()* + EndStreaming(). Dropping the last
/// reference without responding sends a 500 (or, mid-stream, severs the
/// connection, since a truncated chunked body must not look complete).
class HttpExchange {
 public:
  ~HttpExchange();
  HttpExchange(const HttpExchange&) = delete;
  HttpExchange& operator=(const HttpExchange&) = delete;

  const HttpRequest& request() const { return request_; }

  /// Sends a complete response with a Content-Length body.
  void Respond(int status, std::string_view content_type, std::string body,
               std::vector<HttpHeader> extra_headers = {});

  /// Starts a streaming response (Transfer-Encoding: chunked on HTTP/1.1;
  /// close-delimited on HTTP/1.0). Returns false if the client is gone.
  bool BeginStreaming(int status, std::string_view content_type,
                      std::vector<HttpHeader> extra_headers = {});

  /// Appends one piece of the streaming body. The piece is held until the
  /// next Write or EndStreaming, which hands it over; that hand-over blocks
  /// while the connection's output queue is at its high-water mark
  /// (client-paced backpressure). Returns false once the client has
  /// disconnected or the server closed the connection (write stall,
  /// shutdown) — the response is abandoned.
  bool Write(std::string_view data);

  /// Completes a streaming response: hands over what is held with the
  /// terminal chunk.
  void EndStreaming();

  /// True once the connection is known dead. A false result is advisory —
  /// the client can vanish at any moment; Write()'s result is the truth.
  bool client_gone() const;

  /// Forces Connection: close after this response (e.g. server draining).
  void set_close_after_response() { force_close_ = true; }

 private:
  friend class HttpServer;
  HttpExchange(std::shared_ptr<HttpConnection> conn, HttpRequest request);

  /// Builds the status line + headers block. Content length of SIZE_MAX
  /// means chunked; SIZE_MAX - 1 means close-delimited (no framing header).
  std::string BuildHead(int status, std::string_view content_type,
                        const std::vector<HttpHeader>& extra_headers,
                        size_t content_length, bool keep_alive) const;

  enum class Stage { kHead, kStreaming, kDone };

  std::shared_ptr<HttpConnection> conn_;
  HttpRequest request_;
  std::mutex mu_;          ///< Serializes stage transitions.
  Stage stage_ = Stage::kHead;
  bool chunked_ = false;   ///< Streaming with chunked framing (HTTP/1.1).
  bool close_ = false;     ///< Streaming response ends the connection.
  bool force_close_ = false;
  std::string held_;       ///< Streamed bytes not yet handed over.
  bool holds_chunk_ = false;  ///< held_ ends with a body chunk.
};

class HttpServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";  ///< IPv4 dotted quad.
    uint16_t port = 0;                       ///< 0 picks an ephemeral port.
    int backlog = 128;
    HttpRequestParser::Limits limits;
    /// Close connections that sit without sending a (complete) request.
    std::chrono::milliseconds idle_timeout{30'000};
    /// Close connections whose client stops reading mid-response.
    std::chrono::milliseconds write_stall_timeout{30'000};
    /// Accepted connections beyond this are closed immediately.
    size_t max_connections = 10'000;
    /// Response-queue bytes at which HttpExchange::Write blocks.
    size_t out_queue_high_water = 4 * 1024 * 1024;
  };

  using Handler = std::function<void(std::shared_ptr<HttpExchange>)>;

  HttpServer(Options options, Handler handler);
  ~HttpServer();  ///< Runs Stop().

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the event thread. On success port() holds
  /// the actual (possibly ephemeral) port.
  Status Start();

  /// Closes the listener and every connection (unblocking any worker
  /// stuck in HttpExchange::Write), then joins the event thread.
  /// In-flight exchanges remain safe to use; their writes return false.
  /// Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Currently-open connections (approximate; for tests and metrics).
  size_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  void EventLoop();
  void AcceptConnections();
  void ReadSome(const std::shared_ptr<HttpConnection>& conn);
  void MaybeDispatch(const std::shared_ptr<HttpConnection>& conn);
  /// Drains the connection's output queue into the socket; finishes the
  /// response (keep-alive turnaround or close) when it completes.
  void FlushOut(const std::shared_ptr<HttpConnection>& conn);
  void CloseConnection(const std::shared_ptr<HttpConnection>& conn);
  void SweepTimeouts();
  /// Re-arms the epoll interest set for the connection's current state.
  void UpdateInterest(const std::shared_ptr<HttpConnection>& conn,
                      bool want_read, bool want_write);

  Options options_;
  Handler handler_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::thread event_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> active_{0};

  std::shared_ptr<HttpWaker> waker_;
  std::unordered_map<uint64_t, std::shared_ptr<HttpConnection>> connections_;
  uint64_t next_key_ = 2;  ///< Next connection's epoll key (0, 1: see .cc).

  // sparqluo_http_* series in MetricRegistry::Global(), resolved at
  // construction.
  Counter* const accepted_total_;
  Counter* const requests_total_;
  Counter* const parse_errors_total_;
  Counter* const idle_timeouts_total_;
  Counter* const stall_timeouts_total_;
  Counter* const bytes_read_total_;
  Counter* const bytes_written_total_;
  Gauge* const active_gauge_;

  std::mutex lifecycle_mu_;  ///< Serializes Start/Stop.
};

}  // namespace sparqluo
