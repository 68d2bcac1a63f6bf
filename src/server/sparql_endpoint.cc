#include "server/sparql_endpoint.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sparqluo {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Per-status-code response counter. Each code's series is resolved from
/// the global registry on its first response and cached here, so later
/// responses cost one atomic load; completion hooks can record it without
/// referencing the endpoint.
Counter* ResponseCounter(int status) {
  static std::array<std::atomic<Counter*>, 600> by_code{};
  assert(status >= 100 && status < 600);
  std::atomic<Counter*>& slot = by_code[static_cast<size_t>(status)];
  Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    c = MetricRegistry::Global().GetCounter(
        "sparqluo_http_responses_total", "HTTP responses by status code",
        "code=\"" + std::to_string(status) + "\"");
    slot.store(c, std::memory_order_release);
  }
  return c;
}

void ObserveLatency(SteadyClock::time_point start) {
  static Histogram* const latency = MetricRegistry::Global().GetHistogram(
      "sparqluo_http_request_ms",
      "HTTP request latency, from dispatch to the response handed to the "
      "connection (ms)");
  latency->Observe(
      std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
          .count());
}

/// Maps an engine Status to the HTTP status code of the error response.
/// `metrics` (null for updates) disambiguates kResourceExhausted: an abort
/// the client caused or configured — deadline, explicit cancel — is 408,
/// while hitting the server's row-limit guard is 503 (the request was too
/// heavy for current limits; retrying a smaller one can succeed). Admission
/// rejection has its own code, kOverloaded, and is always a retryable 503
/// — never 500, which is reserved for genuine engine faults.
int HttpStatusFor(const Status& status, const ExecMetrics* metrics) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kOverloaded:
    case StatusCode::kUnavailable:  // durable-I/O failure: commit refused,
      return 503;                   // reads keep serving — retryable
    case StatusCode::kResourceExhausted:
      if (metrics != nullptr &&
          (metrics->abort_reason == AbortReason::kDeadline ||
           metrics->abort_reason == AbortReason::kCancelled)) {
        return 408;
      }
      return 503;
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnsupported:
      return 400;
    case StatusCode::kFailedPrecondition:
      return 403;  // e.g. update against a read-only service
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

/// Sends a plain-text response and counts it.
void Reply(const std::shared_ptr<HttpExchange>& exchange, int status,
           std::string body, std::vector<HttpHeader> extra_headers = {}) {
  ResponseCounter(status)->Increment();
  exchange->Respond(status, "text/plain; charset=utf-8", std::move(body),
                    std::move(extra_headers));
}

/// Error response for a failed engine Status (503s carry Retry-After).
void ReplyStatus(const std::shared_ptr<HttpExchange>& exchange,
                 const Status& status, const ExecMetrics* metrics,
                 int retry_after_seconds) {
  int http = HttpStatusFor(status, metrics);
  std::vector<HttpHeader> extra;
  if (http == 503 && retry_after_seconds > 0)
    extra.push_back({"Retry-After", std::to_string(retry_after_seconds)});
  Reply(exchange, http, status.ToString() + "\n", std::move(extra));
}

/// Answers a finished query: an error status, or the rows streamed in
/// `format` (CONSTRUCT upgrades to N-Triples when the client stated no
/// Accept preference).
void AnswerQuery(const std::shared_ptr<HttpExchange>& exchange,
                 const QueryResponse& r, const Dictionary& dict,
                 WireFormat format, bool accept_empty, size_t flush_bytes,
                 int retry_after) {
  if (!r.status.ok() || r.plan == nullptr) {
    Status status = r.status.ok()
                        ? Status::Internal("query succeeded without a plan")
                        : r.status;
    ReplyStatus(exchange, status, &r.metrics, retry_after);
    return;
  }
  const bool is_construct = r.plan->query.form == QueryForm::kConstruct;
  if (accept_empty && is_construct) format = WireFormat::kNTriples;
  if (format == WireFormat::kNTriples && !is_construct) {
    Reply(exchange, 406,
          "not acceptable: application/n-triples serves CONSTRUCT "
          "results only\n");
    return;
  }
  ResponseCounter(200)->Increment();
  if (!exchange->BeginStreaming(200, WireFormatContentType(format))) return;
  StreamingResultWriter writer(
      format,
      [&exchange](std::string_view piece) { return exchange->Write(piece); },
      flush_bytes);
  if (r.plan->query.form == QueryForm::kAsk) {
    writer.WriteBoolean(!r.rows.empty());
  } else if (is_construct) {
    writer.WriteTriples(r.rows, dict);
  } else {
    writer.WriteAll(r.rows, r.plan->query.vars, dict);
  }
  exchange->EndStreaming();
}

/// Ceiling for the client-supplied `timeout` parameter. Values above this are
/// clamped rather than rejected: a huge timeout means "don't time me out",
/// and feeding it verbatim into steady_clock arithmetic can overflow the
/// deadline into the past, aborting the query instantly with a spurious 408.
constexpr std::chrono::milliseconds kMaxClientTimeout{
    std::chrono::hours(24)};

/// Parses the `timeout` parameter (non-negative integer milliseconds).
/// Well-formed values larger than kMaxClientTimeout clamp to it.
bool ParseTimeoutMs(const std::string& value, std::chrono::milliseconds* out) {
  if (value.empty()) return false;
  for (char c : value)
    if (c < '0' || c > '9') return false;
  if (value.size() > 18) {  // > 18 digits overflows int64 and the ceiling
    *out = kMaxClientTimeout;
    return true;
  }
  auto parsed = std::chrono::milliseconds(
      std::strtoll(value.c_str(), nullptr, 10));
  *out = std::min(parsed, kMaxClientTimeout);
  return true;
}

}  // namespace

SparqlEndpoint::SparqlEndpoint(QueryService& service, const Dictionary& dict,
                               Options options)
    : service_(service),
      dict_(dict),
      options_(std::move(options)),
      server_(options_.http, [this](std::shared_ptr<HttpExchange> exchange) {
        Handle(std::move(exchange));
      }) {}

SparqlEndpoint::~SparqlEndpoint() { Stop(); }

void SparqlEndpoint::Handle(std::shared_ptr<HttpExchange> exchange) {
  const HttpRequest& request = exchange->request();
  if (request.path == "/healthz") {
    if (request.method != "GET")
      return Reply(exchange, 405, "method not allowed\n", {{"Allow", "GET"}});
    return Reply(exchange, 200, "ok\n");
  }
  if (request.path == "/metrics") {
    if (request.method != "GET")
      return Reply(exchange, 405, "method not allowed\n", {{"Allow", "GET"}});
    ResponseCounter(200)->Increment();
    return exchange->Respond(200, "text/plain; version=0.0.4; charset=utf-8",
                             MetricRegistry::Global().RenderPrometheus());
  }
  if (request.path == "/sparql") return HandleSparql(exchange);
  if (request.path == "/update") return HandleUpdate(exchange);
  Reply(exchange, 404, "no such route: " + request.path + "\n");
}

void SparqlEndpoint::HandleSparql(
    const std::shared_ptr<HttpExchange>& exchange) {
  const HttpRequest& request = exchange->request();
  if (request.method != "GET" && request.method != "POST")
    return Reply(exchange, 405, "method not allowed\n",
                 {{"Allow", "GET, POST"}});

  // Collect parameters: always the URL query string, plus — for POST — a
  // form body, or the whole body as query text for the direct media type.
  std::vector<std::pair<std::string, std::string>> params;
  if (!ParseFormUrlEncoded(request.query_string, &params))
    return Reply(exchange, 400, "malformed percent-encoding in query string\n");
  std::string query_text;
  bool have_query = false;
  if (request.method == "POST") {
    const std::string* ct = request.FindHeader("Content-Type");
    std::string media = MediaTypeOf(ct != nullptr ? *ct : "");
    if (media == "application/x-www-form-urlencoded") {
      std::vector<std::pair<std::string, std::string>> body_params;
      if (!ParseFormUrlEncoded(request.body, &body_params))
        return Reply(exchange, 400,
                     "malformed percent-encoding in form body\n");
      for (auto& kv : body_params) params.push_back(std::move(kv));
    } else if (media == "application/sparql-query") {
      query_text = request.body;
      have_query = true;
    } else {
      return Reply(exchange, 415,
                   "unsupported media type: use "
                   "application/x-www-form-urlencoded or "
                   "application/sparql-query\n");
    }
  }
  std::chrono::milliseconds timeout{0};
  for (const auto& [key, value] : params) {
    if (key == "query") {
      query_text = value;
      have_query = true;
    } else if (key == "timeout") {
      if (!ParseTimeoutMs(value, &timeout))
        return Reply(exchange, 400,
                     "bad timeout parameter (integer milliseconds)\n");
    }
  }
  if (!have_query || query_text.empty())
    return Reply(exchange, 400, "missing query parameter\n");
  if (options_.max_timeout.count() > 0 &&
      (timeout.count() == 0 || timeout > options_.max_timeout)) {
    timeout = options_.max_timeout;
  }

  const std::string* accept = request.FindHeader("Accept");
  WireFormat format = WireFormat::kJson;
  if (!NegotiateResultFormat(accept != nullptr ? *accept : "", &format))
    return Reply(exchange, 406,
                 "not acceptable: supported result formats are "
                 "application/sparql-results+json, "
                 "text/tab-separated-values and "
                 "application/n-triples (CONSTRUCT only)\n");
  // With no Accept preference a CONSTRUCT response upgrades to N-Triples
  // (the natural triples format); the decision needs the parsed query
  // form, so it happens in the completion hook.
  const bool accept_empty =
      accept == nullptr ||
      accept->find_first_not_of(" \t") == std::string::npos;

  QueryRequest qr;
  qr.text = std::move(query_text);
  qr.deadline = timeout;
  // The completion hook runs on the worker that finished the query (or
  // inline on rejection) and must not reference the endpoint — only
  // self-contained state — since the endpoint can be torn down while a
  // query is still in flight.
  qr.on_complete = [exchange, dict = &dict_, format, accept_empty,
                    flush_bytes = options_.flush_bytes,
                    retry_after = options_.retry_after_seconds,
                    start = SteadyClock::now()](const QueryResponse& r) {
    AnswerQuery(exchange, r, *dict, format, accept_empty, flush_bytes,
                retry_after);
    ObserveLatency(start);
  };
  // The future is intentionally dropped: the response flows through the
  // completion hook (including inline admission rejections).
  service_.Submit(std::move(qr));
}

void SparqlEndpoint::HandleUpdate(
    const std::shared_ptr<HttpExchange>& exchange) {
  const HttpRequest& request = exchange->request();
  if (request.method != "POST")
    return Reply(exchange, 405, "method not allowed\n", {{"Allow", "POST"}});
  const std::string* ct = request.FindHeader("Content-Type");
  std::string media = MediaTypeOf(ct != nullptr ? *ct : "");
  std::string update_text;
  if (media == "application/x-www-form-urlencoded") {
    std::vector<std::pair<std::string, std::string>> params;
    if (!ParseFormUrlEncoded(request.body, &params))
      return Reply(exchange, 400, "malformed percent-encoding in form body\n");
    for (const auto& [key, value] : params)
      if (key == "update") update_text = value;
  } else if (media == "application/sparql-update") {
    update_text = request.body;
  } else {
    return Reply(exchange, 415,
                 "unsupported media type: use "
                 "application/x-www-form-urlencoded or "
                 "application/sparql-update\n");
  }
  if (update_text.empty())
    return Reply(exchange, 400, "missing update parameter\n");

  UpdateRequest ur;
  ur.text = std::move(update_text);
  ur.on_complete = [exchange, retry_after = options_.retry_after_seconds,
                    start = SteadyClock::now()](const UpdateResponse& r) {
    if (r.status.ok()) {
      Reply(exchange, 200, "ok\n");
    } else {
      ReplyStatus(exchange, r.status, nullptr, retry_after);
    }
    ObserveLatency(start);
  };
  service_.SubmitUpdate(std::move(ur));
}

}  // namespace sparqluo
