#include "http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace sparqluo {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Sentinels for HttpExchange::BuildHead's content_length parameter.
constexpr size_t kChunkedBody = static_cast<size_t>(-1);
constexpr size_t kCloseDelimitedBody = static_cast<size_t>(-2);

/// epoll keys of the listener and the waker. Connections count up from 2
/// and never reuse a key, so an event reported for a connection closed
/// earlier in the same batch cannot reach a newer one that was handed the
/// same fd number.
constexpr uint64_t kListenKey = 0;
constexpr uint64_t kWakerKey = 1;

}  // namespace

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 406: return "Not Acceptable";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 415: return "Unsupported Media Type";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Status";
  }
}

/// Wakes the event thread from other threads. Owns the eventfd, and is
/// held via shared_ptr by the server AND every connection, so a producer
/// notifying after the server object is gone still writes a live fd.
/// `pending` holds weak refs: connections are owned by the server's map,
/// and a strong back-reference here would cycle with HttpConnection's
/// waker pointer, leaking any connection notified but never drained
/// (e.g. when the event loop stops with wakeups still queued).
struct HttpWaker {
  int efd = -1;
  std::thread::id event_thread;  ///< Set once, before any dispatch.
  std::mutex mu;
  std::vector<std::weak_ptr<HttpConnection>> pending;

  HttpWaker() : efd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~HttpWaker() {
    if (efd >= 0) ::close(efd);
  }

  void Ping() {
    uint64_t one = 1;
    ssize_t rc = ::write(efd, &one, sizeof(one));
    (void)rc;  // EAGAIN just means a wakeup is already pending
  }

  /// Queues `conn` for the event thread. Only the first entry of a batch
  /// pings: the event thread reads the eventfd before taking the list, so
  /// a non-empty list always has a ping outstanding.
  void Notify(const std::shared_ptr<HttpConnection>& conn) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lk(mu);
      was_empty = pending.empty();
      pending.push_back(conn);
    }
    if (was_empty) Ping();
  }

  std::vector<std::shared_ptr<HttpConnection>> Drain() {
    uint64_t buf;
    while (::read(efd, &buf, sizeof(buf)) > 0) {
    }
    std::vector<std::weak_ptr<HttpConnection>> taken;
    {
      std::lock_guard<std::mutex> lk(mu);
      taken = std::exchange(pending, {});
    }
    std::vector<std::shared_ptr<HttpConnection>> live;
    live.reserve(taken.size());
    for (const auto& weak : taken)
      if (auto conn = weak.lock()) live.push_back(std::move(conn));
    return live;
  }
};

/// Per-connection state. Parser and epoll bookkeeping belong to the event
/// thread exclusively; the output queue block is the only state shared
/// with producer threads, guarded by `mu`. The socket is the event
/// thread's, except that a producer may send on it under `mu` while the
/// queue is empty (see Enqueue); the event thread closes it under `mu`.
struct HttpConnection {
  // --- written by the event thread only, under mu; producers read it
  // under mu ---
  int fd = -1;

  // --- event thread only ---
  uint64_t key = 0;        ///< epoll key and connections_ map key.
  HttpRequestParser parser;
  bool handling = false;   ///< A request was dispatched; reads are paused.
  bool peer_eof = false;   ///< recv() saw EOF; never keep-alive afterwards.
  bool armed_read = false;
  bool armed_write = false;
  SteadyClock::time_point last_read_activity;
  SteadyClock::time_point stall_since{};  ///< Zero = output is not stalled.
  size_t front_consumed = 0;  ///< Bytes of outq.front() already sent.

  // --- shared with producers, guarded by mu ---
  std::mutex mu;
  std::condition_variable cv;  ///< Producers wait here for queue drain.
  std::deque<std::string> outq;
  size_t outq_bytes = 0;
  bool response_done = false;  ///< Current response fully enqueued.
  bool close_after = false;
  bool closed = false;

  // --- immutable after accept ---
  std::shared_ptr<HttpWaker> waker;
  size_t high_water = 0;
  Counter* bytes_written = nullptr;  ///< The server's byte counter.

  explicit HttpConnection(const HttpRequestParser::Limits& limits)
      : parser(limits) {}
};

namespace {

/// Sends what the socket takes of `data` now, without blocking; returns
/// the byte count. Called with conn.mu held and the connection open. On
/// EAGAIN the event thread sends the rest; on an error it meets the same
/// error and closes the connection.
size_t SendNow(HttpConnection& conn, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(conn.fd, data.data() + sent, data.size() - sent,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  if (sent > 0) conn.bytes_written->Increment(static_cast<uint64_t>(sent));
  return sent;
}

/// Hands the response's next bytes to the connection. `last` marks the
/// response complete; `close` requests connection close once everything
/// is flushed. Returns false when the connection is already dead.
///
/// On a producer thread this blocks while the output queue is at its
/// high-water mark, then, if the queue is empty, sends what it can itself
/// and queues only the remainder. The event thread never blocks on itself:
/// it always queues. It is woken only when it must act — bytes were
/// queued, or the response ended and the connection must turn around.
/// Byte order holds because the event thread pops a piece only after
/// sending all of it, so a non-empty queue covers any send in flight.
bool Enqueue(const std::shared_ptr<HttpConnection>& conn, std::string data,
             bool last, bool close) {
  const bool event_thread =
      std::this_thread::get_id() == conn->waker->event_thread;
  bool queued = false;
  {
    std::unique_lock<std::mutex> lk(conn->mu);
    if (!event_thread) {
      conn->cv.wait(lk, [&] {
        return conn->closed || conn->outq_bytes < conn->high_water;
      });
    }
    if (conn->closed) return false;
    size_t sent = 0;
    if (!event_thread && conn->outq.empty()) sent = SendNow(*conn, data);
    if (sent < data.size()) {
      data.erase(0, sent);
      conn->outq_bytes += data.size();
      conn->outq.push_back(std::move(data));
      queued = true;
    }
    if (last) conn->response_done = true;
    if (close) conn->close_after = true;
  }
  if (queued || last) conn->waker->Notify(conn);
  return true;
}

}  // namespace

// ----------------------------------------------------------------------
// HttpExchange
// ----------------------------------------------------------------------

HttpExchange::HttpExchange(std::shared_ptr<HttpConnection> conn,
                           HttpRequest request)
    : conn_(std::move(conn)), request_(std::move(request)) {}

HttpExchange::~HttpExchange() {
  if (stage_ == Stage::kHead) {
    // The handler dropped the exchange without answering.
    Respond(500, "text/plain; charset=utf-8",
            "request handler produced no response\n");
  } else if (stage_ == Stage::kStreaming) {
    // A chunked body without its terminal chunk must not look complete:
    // send what is held, then sever the connection so the client sees the
    // truncation.
    Enqueue(conn_, std::move(held_), /*last=*/true, /*close=*/true);
  }
}

std::string HttpExchange::BuildHead(
    int status, std::string_view content_type,
    const std::vector<HttpHeader>& extra_headers, size_t content_length,
    bool keep_alive) const {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(status);
  head += ' ';
  head += HttpStatusReason(status);
  head += "\r\n";
  if (!content_type.empty()) {
    head += "Content-Type: ";
    head += content_type;
    head += "\r\n";
  }
  if (content_length == kChunkedBody) {
    head += "Transfer-Encoding: chunked\r\n";
  } else if (content_length != kCloseDelimitedBody) {
    head += "Content-Length: ";
    head += std::to_string(content_length);
    head += "\r\n";
  }
  for (const HttpHeader& h : extra_headers) {
    head += h.name;
    head += ": ";
    head += h.value;
    head += "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  return head;
}

void HttpExchange::Respond(int status, std::string_view content_type,
                           std::string body,
                           std::vector<HttpHeader> extra_headers) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stage_ != Stage::kHead) return;  // one response per exchange
  stage_ = Stage::kDone;
  bool keep_alive = request_.keep_alive && !force_close_;
  std::string out =
      BuildHead(status, content_type, extra_headers, body.size(), keep_alive);
  out += body;
  Enqueue(conn_, std::move(out), /*last=*/true, /*close=*/!keep_alive);
}

bool HttpExchange::BeginStreaming(int status, std::string_view content_type,
                                  std::vector<HttpHeader> extra_headers) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stage_ != Stage::kHead) return false;
  stage_ = Stage::kStreaming;
  bool keep_alive = request_.keep_alive && !force_close_;
  size_t framing = kChunkedBody;
  if (request_.version_minor < 1) {
    // HTTP/1.0 has no chunked framing: stream raw and delimit by close.
    chunked_ = false;
    keep_alive = false;
    framing = kCloseDelimitedBody;
  } else {
    chunked_ = true;
  }
  close_ = !keep_alive;
  held_ = BuildHead(status, content_type, extra_headers, framing, keep_alive);
  return !client_gone();
}

bool HttpExchange::Write(std::string_view data) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stage_ != Stage::kStreaming) return false;
  if (data.empty()) return !client_gone();
  if (holds_chunk_ &&
      !Enqueue(conn_, std::exchange(held_, {}), /*last=*/false, close_))
    return false;
  char size_line[20];
  int n = chunked_ ? std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                                   data.size())
                   : 0;
  held_.reserve(held_.size() + static_cast<size_t>(n) + data.size() + 2);
  held_.append(size_line, static_cast<size_t>(n));
  held_.append(data);
  if (chunked_) held_ += "\r\n";
  holds_chunk_ = true;
  return !client_gone();
}

void HttpExchange::EndStreaming() {
  std::lock_guard<std::mutex> lk(mu_);
  if (stage_ != Stage::kStreaming) return;
  stage_ = Stage::kDone;
  if (chunked_) held_ += "0\r\n\r\n";
  Enqueue(conn_, std::move(held_), /*last=*/true, close_);
}

bool HttpExchange::client_gone() const {
  std::lock_guard<std::mutex> lk(conn_->mu);
  return conn_->closed;
}

// ----------------------------------------------------------------------
// HttpServer
// ----------------------------------------------------------------------

HttpServer::HttpServer(Options options, Handler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      accepted_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_connections_accepted_total",
          "TCP connections accepted")),
      requests_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_requests_total",
          "HTTP requests dispatched to the handler")),
      parse_errors_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_parse_errors_total",
          "Requests rejected by the HTTP parser (4xx/5xx before dispatch)")),
      idle_timeouts_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_timeouts_total",
          "Connections closed by a server-side timeout", "kind=\"idle\"")),
      stall_timeouts_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_timeouts_total",
          "Connections closed by a server-side timeout",
          "kind=\"write_stall\"")),
      bytes_read_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_io_bytes_total", "Bytes moved over HTTP connections",
          "direction=\"read\"")),
      bytes_written_total_(MetricRegistry::Global().GetCounter(
          "sparqluo_http_io_bytes_total", "Bytes moved over HTTP connections",
          "direction=\"write\"")),
      active_gauge_(MetricRegistry::Global().GetGauge(
          "sparqluo_http_connections_active",
          "Currently open HTTP connections")) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (running_.load()) return Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    Status status = Status::Internal(std::string("bind/listen on ") +
                                     options_.bind_address + ": " +
                                     std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  waker_ = std::make_shared<HttpWaker>();
  if (epoll_fd_ < 0 || waker_->efd < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    waker_.reset();
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakerKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, waker_->efd, &ev);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  event_thread_ = std::thread(&HttpServer::EventLoop, this);
  return Status::OK();
}

void HttpServer::Stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (!running_.load()) return;
  stopping_.store(true, std::memory_order_release);
  waker_->Ping();
  if (event_thread_.joinable()) event_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void HttpServer::EventLoop() {
  waker_->event_thread = std::this_thread::get_id();
  std::vector<epoll_event> events(128);
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), 250);
    if (n < 0) {
      if (errno == EINTR) continue;
      SPARQLUO_LOG(kError) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t key = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (key == kListenKey) {
        AcceptConnections();
        continue;
      }
      if (key == kWakerKey) {
        for (const auto& conn : waker_->Drain())
          if (conn->fd >= 0) FlushOut(conn);
        continue;
      }
      auto it = connections_.find(key);
      if (it == connections_.end()) continue;
      std::shared_ptr<HttpConnection> conn = it->second;
      if (ev & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if ((ev & EPOLLOUT) && conn->fd >= 0) FlushOut(conn);
      if ((ev & EPOLLIN) && conn->fd >= 0) ReadSome(conn);
    }
    SweepTimeouts();
  }
  // Shutdown: close every connection (unblocks producers) and bail.
  std::vector<std::shared_ptr<HttpConnection>> all;
  all.reserve(connections_.size());
  for (const auto& [key, conn] : connections_) all.push_back(conn);
  for (const auto& conn : all) CloseConnection(conn);
}

void HttpServer::AcceptConnections() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      SPARQLUO_LOG(kWarn) << "accept4: " << std::strerror(errno);
      return;
    }
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<HttpConnection>(options_.limits);
    conn->fd = fd;
    conn->key = next_key_++;
    conn->waker = waker_;
    conn->high_water = options_.out_queue_high_water;
    conn->bytes_written = bytes_written_total_;
    conn->last_read_activity = SteadyClock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->key;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->armed_read = true;
    connections_[conn->key] = std::move(conn);
    active_.fetch_add(1, std::memory_order_relaxed);
    accepted_total_->Increment();
    active_gauge_->Add(1);
  }
}

void HttpServer::UpdateInterest(const std::shared_ptr<HttpConnection>& conn,
                                bool want_read, bool want_write) {
  if (conn->fd < 0) return;
  if (conn->armed_read == want_read && conn->armed_write == want_write) return;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->key;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->armed_read = want_read;
  conn->armed_write = want_write;
}

void HttpServer::ReadSome(const std::shared_ptr<HttpConnection>& conn) {
  char buf[16 * 1024];
  for (;;) {
    if (conn->handling) break;  // reads paused; kernel buffers pipelining
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_read_total_->Increment(static_cast<uint64_t>(n));
      conn->last_read_activity = SteadyClock::now();
      conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (conn->parser.state() != HttpRequestParser::State::kNeedMore) break;
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        queue_empty = conn->outq.empty();
      }
      // No complete request pending and nothing left to send: plain close.
      if (!conn->handling && queue_empty &&
          conn->parser.state() == HttpRequestParser::State::kNeedMore) {
        CloseConnection(conn);
        return;
      }
      UpdateInterest(conn, false, conn->armed_write);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn);
    return;
  }
  if (conn->fd >= 0) MaybeDispatch(conn);
}

void HttpServer::MaybeDispatch(const std::shared_ptr<HttpConnection>& conn) {
  if (conn->handling || conn->fd < 0) return;
  switch (conn->parser.state()) {
    case HttpRequestParser::State::kNeedMore:
      return;
    case HttpRequestParser::State::kComplete: {
      HttpRequest request = conn->parser.TakeRequest();
      conn->handling = true;
      UpdateInterest(conn, false, conn->armed_write);
      requests_total_->Increment();
      std::shared_ptr<HttpExchange> exchange(
          new HttpExchange(conn, std::move(request)));
      try {
        handler_(exchange);
      } catch (const std::exception& e) {
        SPARQLUO_LOG(kError) << "HTTP handler threw: " << e.what();
        exchange->Respond(500, "text/plain; charset=utf-8",
                          "internal server error\n");
      } catch (...) {
        SPARQLUO_LOG(kError) << "HTTP handler threw an unknown exception";
        exchange->Respond(500, "text/plain; charset=utf-8",
                          "internal server error\n");
      }
      FlushOut(conn);  // a synchronous response is usually ready right now
      return;
    }
    case HttpRequestParser::State::kError: {
      parse_errors_total_->Increment();
      conn->handling = true;  // no further dispatch on this connection
      UpdateInterest(conn, false, conn->armed_write);
      int status = conn->parser.error_status();
      std::string body = conn->parser.error_message() + "\n";
      std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                        HttpStatusReason(status) +
                        "\r\nContent-Type: text/plain; charset=utf-8"
                        "\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
      Enqueue(conn, std::move(out), /*last=*/true, /*close=*/true);
      FlushOut(conn);
      return;
    }
  }
}

void HttpServer::FlushOut(const std::shared_ptr<HttpConnection>& conn) {
  if (conn->fd < 0) return;
  bool progressed = false;
  for (;;) {
    std::string* front = nullptr;
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      if (conn->outq.empty()) break;
      // Safe to use outside the lock: producers only push_back (which
      // never invalidates front()) and only this thread pops.
      front = &conn->outq.front();
    }
    ssize_t n = ::send(conn->fd, front->data() + conn->front_consumed,
                       front->size() - conn->front_consumed, MSG_NOSIGNAL);
    if (n > 0) {
      progressed = true;
      bytes_written_total_->Increment(static_cast<uint64_t>(n));
      conn->front_consumed += static_cast<size_t>(n);
      if (conn->front_consumed == front->size()) {
        std::lock_guard<std::mutex> lk(conn->mu);
        conn->outq_bytes -= front->size();
        conn->outq.pop_front();
        conn->front_consumed = 0;
        if (conn->outq_bytes < conn->high_water) conn->cv.notify_all();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);  // EPIPE / ECONNRESET: client is gone
    return;
  }

  bool queue_empty, response_done, close_after;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    queue_empty = conn->outq.empty();
    response_done = conn->response_done;
    close_after = conn->close_after;
    if (queue_empty && response_done) conn->response_done = false;
  }
  if (progressed) conn->stall_since = SteadyClock::time_point{};
  if (!queue_empty) {
    if (conn->stall_since == SteadyClock::time_point{})
      conn->stall_since = SteadyClock::now();
    UpdateInterest(conn, conn->armed_read, true);
    return;
  }
  conn->stall_since = SteadyClock::time_point{};
  if (!response_done) {
    UpdateInterest(conn, conn->armed_read, false);
    return;
  }
  // Response complete: close, or turn the connection around for the next
  // request (which may already be parsed, when the client pipelined).
  conn->handling = false;
  if (close_after || conn->peer_eof ||
      stopping_.load(std::memory_order_acquire)) {
    CloseConnection(conn);
    return;
  }
  conn->last_read_activity = SteadyClock::now();
  UpdateInterest(conn, true, false);
  MaybeDispatch(conn);
}

void HttpServer::CloseConnection(const std::shared_ptr<HttpConnection>& conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  connections_.erase(conn->key);
  {
    // Under mu, so no producer is mid-send on this fd and none sends on
    // it (or on a later connection that reuses the number) afterwards.
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->closed = true;
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->cv.notify_all();  // unblock any producer stuck in Enqueue
  active_.fetch_sub(1, std::memory_order_relaxed);
  active_gauge_->Add(-1);
}

void HttpServer::SweepTimeouts() {
  SteadyClock::time_point now = SteadyClock::now();
  std::vector<std::shared_ptr<HttpConnection>> idle, stalled;
  for (const auto& [key, conn] : connections_) {
    if (conn->stall_since != SteadyClock::time_point{} &&
        now - conn->stall_since > options_.write_stall_timeout) {
      stalled.push_back(conn);
    } else if (!conn->handling &&
               now - conn->last_read_activity > options_.idle_timeout) {
      idle.push_back(conn);
    }
  }
  for (const auto& conn : idle) {
    idle_timeouts_total_->Increment();
    CloseConnection(conn);
  }
  for (const auto& conn : stalled) {
    stall_timeouts_total_->Increment();
    CloseConnection(conn);
  }
}

}  // namespace sparqluo
