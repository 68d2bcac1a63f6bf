// Networked SPARQL Protocol endpoint: HTTP routes over a QueryService.
//
// Implements the SPARQL 1.1 Protocol subset the engine supports
// (https://www.w3.org/TR/sparql11-protocol/), plus operational routes:
//
//   GET  /sparql?query=...      query via URL parameter
//   POST /sparql                query via application/x-www-form-urlencoded
//                               (query=...) or application/sparql-query body
//   POST /update                update via form (update=...) or
//                               application/sparql-update body
//   GET  /metrics               Prometheus text exposition (obs/metrics.h)
//   GET  /healthz               liveness probe ("ok")
//
// Results stream incrementally: the worker that finished the query runs
// QueryRequest::on_complete, which serializes rows through
// sparql/result_writer.h straight into the connection's chunked response —
// a large result set never materializes as one body string, and socket
// backpressure propagates into the serializer (HttpExchange::Write blocks,
// and aborts serialization when the client disconnects).
//
// Status mapping (docs/http_endpoint.md has the full table): admission
// rejection (StatusCode::kOverloaded) is 503 with Retry-After; an in-flight
// deadline/cancellation abort is 408; a row-limit abort is 503; parse and
// protocol errors are 4xx; only genuine engine faults surface as 500.
//
// A `timeout` form/URL parameter (milliseconds) installs a per-request
// deadline, clamped to Options::max_timeout.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "http/http_server.h"
#include "server/query_service.h"
#include "sparql/result_writer.h"

namespace sparqluo {

class SparqlEndpoint {
 public:
  struct Options {
    HttpServer::Options http;
    /// Upper bound on the client-supplied `timeout` parameter; 0 = no cap.
    /// (The service's default_deadline still applies to requests without
    /// a timeout parameter.)
    std::chrono::milliseconds max_timeout{0};
    /// Retry-After header value on 503 responses.
    int retry_after_seconds = 1;
    /// Streaming serializer flush granularity (bytes per response chunk).
    size_t flush_bytes = StreamingResultWriter::kDefaultFlushBytes;
  };

  /// `service` and `dict` (the database's term dictionary, shared across
  /// versions) must outlive the endpoint. Stop() the endpoint before
  /// shutting the service down so in-flight completions find live workers.
  SparqlEndpoint(QueryService& service, const Dictionary& dict,
                 Options options);
  ~SparqlEndpoint();  ///< Runs Stop().

  SparqlEndpoint(const SparqlEndpoint&) = delete;
  SparqlEndpoint& operator=(const SparqlEndpoint&) = delete;

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.port(); }
  bool running() const { return server_.running(); }

 private:
  void Handle(std::shared_ptr<HttpExchange> exchange);
  void HandleSparql(const std::shared_ptr<HttpExchange>& exchange);
  void HandleUpdate(const std::shared_ptr<HttpExchange>& exchange);

  QueryService& service_;
  const Dictionary& dict_;
  Options options_;
  HttpServer server_;
};

}  // namespace sparqluo
