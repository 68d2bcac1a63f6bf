// SPARQL Protocol conformance tests for the HTTP endpoint
// (src/server/sparql_endpoint.h): content negotiation, GET/POST parity,
// percent-decoding, the status-code contract (including the
// kOverloaded -> 503 / deadline -> 408 regression), and bit-identical
// results between the in-process QueryService API and over-the-wire
// bodies for the full LUBM paper workload at parallelism 1 and 8.
//
// The client side is tests/http_client.h — an independent blocking-socket
// implementation, so both ends of the protocol are exercised by code that
// shares nothing with src/http.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/result_writer.h"
#include "http_client.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "server/sparql_endpoint.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

using testhttp::Fetch;
using testhttp::Response;
using testhttp::SparqlGet;
using testhttp::TestHttpClient;
using testhttp::UrlEncode;

constexpr char kSimpleQuery[] = "SELECT ?x WHERE { ?x ?p ?o } LIMIT 5";

/// Service + endpoint bundle over the suite-shared database.
struct Endpoint {
  explicit Endpoint(Database& db, QueryService::Options sopts = {},
                    SparqlEndpoint::Options eopts = {})
      : service(db, FillDefaults(sopts)),
        endpoint(service, db.dict(), eopts) {
    Status s = endpoint.Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  static QueryService::Options FillDefaults(QueryService::Options o) {
    if (o.num_threads == 0) o.num_threads = 4;
    return o;
  }

  uint16_t port() const { return endpoint.port(); }

  QueryService service;
  SparqlEndpoint endpoint;
};

class HttpProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    LubmConfig cfg;
    cfg.universities = 1;
    GenerateLubm(cfg, db_);
    db_->Finalize(EngineKind::kWco);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* HttpProtocolTest::db_ = nullptr;

// --- Routes and basic responses -----------------------------------------

TEST_F(HttpProtocolTest, HealthzMetricsAndUnknownRoute) {
  Endpoint ep(*db_);
  Response health = Fetch(ep.port(),
                          "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                          "Connection: close\r\n\r\n");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  Response metrics = Fetch(ep.port(),
                           "GET /metrics HTTP/1.1\r\nHost: t\r\n"
                           "Connection: close\r\n\r\n");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("sparqluo_http_requests_total"),
            std::string::npos);
  const std::string* ct = metrics.FindHeader("Content-Type");
  ASSERT_NE(ct, nullptr);
  EXPECT_NE(ct->find("text/plain"), std::string::npos);

  Response missing = Fetch(ep.port(),
                           "GET /nope HTTP/1.1\r\nHost: t\r\n"
                           "Connection: close\r\n\r\n");
  ASSERT_TRUE(missing.ok);
  EXPECT_EQ(missing.status, 404);

  Response wrong_method = Fetch(ep.port(),
                                "POST /healthz HTTP/1.1\r\nHost: t\r\n"
                                "Content-Length: 0\r\n"
                                "Connection: close\r\n\r\n");
  ASSERT_TRUE(wrong_method.ok);
  EXPECT_EQ(wrong_method.status, 405);
  ASSERT_NE(wrong_method.FindHeader("Allow"), nullptr);
  EXPECT_EQ(*wrong_method.FindHeader("Allow"), "GET");
}

TEST_F(HttpProtocolTest, GetQueryStreamsJsonChunked) {
  Endpoint ep(*db_);
  Response r = Fetch(ep.port(), SparqlGet(kSimpleQuery));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  const std::string* ct = r.FindHeader("Content-Type");
  ASSERT_NE(ct, nullptr);
  EXPECT_EQ(*ct, "application/sparql-results+json");
  const std::string* te = r.FindHeader("Transfer-Encoding");
  ASSERT_NE(te, nullptr);
  EXPECT_EQ(*te, "chunked");
  EXPECT_NE(r.body.find("\"bindings\""), std::string::npos);
  EXPECT_NE(r.body.find("\"vars\":[\"x\"]"), std::string::npos);
}

// --- GET/POST parity ----------------------------------------------------

TEST_F(HttpProtocolTest, GetAndPostVariantsAreBitIdentical) {
  Endpoint ep(*db_);
  Response via_get = Fetch(ep.port(), SparqlGet(kSimpleQuery));

  std::string form = "query=" + UrlEncode(kSimpleQuery);
  Response via_form =
      Fetch(ep.port(),
            "POST /sparql HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/x-www-form-urlencoded\r\n"
            "Content-Length: " + std::to_string(form.size()) + "\r\n"
            "Connection: close\r\n\r\n" + form);

  std::string raw(kSimpleQuery);
  Response via_raw =
      Fetch(ep.port(),
            "POST /sparql HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/sparql-query\r\n"
            "Content-Length: " + std::to_string(raw.size()) + "\r\n"
            "Connection: close\r\n\r\n" + raw);

  ASSERT_TRUE(via_get.ok);
  ASSERT_TRUE(via_form.ok);
  ASSERT_TRUE(via_raw.ok);
  EXPECT_EQ(via_get.status, 200);
  EXPECT_EQ(via_form.status, 200);
  EXPECT_EQ(via_raw.status, 200);
  EXPECT_EQ(via_get.body, via_form.body);
  EXPECT_EQ(via_get.body, via_raw.body);
}

// --- Content negotiation ------------------------------------------------

TEST_F(HttpProtocolTest, ContentNegotiation) {
  Endpoint ep(*db_);
  struct Case {
    const char* accept;
    int status;
    const char* content_type;  // null: don't check
  };
  const Case cases[] = {
      {"", 200, "application/sparql-results+json"},  // absent header
      {"application/sparql-results+json", 200,
       "application/sparql-results+json"},
      {"application/json", 200, "application/sparql-results+json"},
      {"text/tab-separated-values", 200, "text/tab-separated-values"},
      {"text/*", 200, "text/tab-separated-values"},
      {"*/*", 200, "application/sparql-results+json"},
      // q-values override specificity order.
      {"application/sparql-results+json;q=0.1, "
       "text/tab-separated-values;q=0.9",
       200, "text/tab-separated-values"},
      // Specific match beats a wildcard at equal q.
      {"*/*;q=0.5, text/tab-separated-values;q=0.5", 200,
       "text/tab-separated-values"},
      {"image/png", 406, nullptr},
      {"application/sparql-results+json;q=0, text/html", 406, nullptr},
  };
  for (const Case& c : cases) {
    Response r = Fetch(ep.port(), SparqlGet(kSimpleQuery, c.accept));
    ASSERT_TRUE(r.ok) << "Accept: " << c.accept;
    EXPECT_EQ(r.status, c.status) << "Accept: " << c.accept;
    if (c.content_type != nullptr) {
      const std::string* ct = r.FindHeader("Content-Type");
      ASSERT_NE(ct, nullptr) << "Accept: " << c.accept;
      EXPECT_EQ(*ct, c.content_type) << "Accept: " << c.accept;
    }
  }
}

// A CONSTRUCT answer reads the same over the wire as from the in-process
// writer the CLI prints it with (WriteConstructResults): in the bindings
// formats, three columns named subject, predicate and object, never the
// parser's hidden template variables.
TEST_F(HttpProtocolTest, ConstructAnswerMatchesCliWriter) {
  Endpoint ep(*db_);
  const std::string query =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "CONSTRUCT { ?x ub:head ?d } WHERE { ?x ub:headOf ?d }";
  QueryResponse ref = ep.service.Submit(QueryRequest{.text = query}).get();
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  ASSERT_FALSE(ref.rows.empty());
  struct Case {
    const char* accept;
    ResultFormat format;
    const char* header;
  };
  const Case cases[] = {
      {"text/tab-separated-values", ResultFormat::kTsv,
       "?subject\t?predicate\t?object\n"},
      {"application/sparql-results+json", ResultFormat::kJson,
       "{\"head\":{\"vars\":[\"subject\",\"predicate\",\"object\"]}"},
      {"application/n-triples", ResultFormat::kNTriples, "<http://"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.accept);
    std::ostringstream cli;
    WriteConstructResults(ref.rows, db_->dict(), c.format, cli);
    const std::string expect = cli.str();
    EXPECT_EQ(expect.rfind(c.header, 0), 0u) << expect.substr(0, 80);
    Response r = Fetch(ep.port(), SparqlGet(query, c.accept));
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, expect);
  }
}

// --- Percent-decoding ---------------------------------------------------

TEST_F(HttpProtocolTest, PercentDecodingPlusAndUtf8) {
  Endpoint ep(*db_);
  // Spaces ride as '+', the UTF-8 literal as %C3%A9, the newline as %0A:
  // a parse on the server side proves every decoding step survived.
  std::string query =
      "SELECT ?x\nWHERE { ?x ?p \"h\xC3\xA9llo\" }";
  std::string encoded = UrlEncode(query);
  EXPECT_NE(encoded.find('+'), std::string::npos);
  EXPECT_NE(encoded.find("%C3%A9"), std::string::npos);
  EXPECT_NE(encoded.find("%0A"), std::string::npos);
  Response r = Fetch(ep.port(), SparqlGet(query));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  // No such literal in LUBM: a well-formed empty result set.
  EXPECT_NE(r.body.find("\"bindings\":[]"), std::string::npos);

  // A malformed escape in the query string is a client error.
  Response bad = Fetch(ep.port(),
                       "GET /sparql?query=%GG HTTP/1.1\r\nHost: t\r\n"
                       "Connection: close\r\n\r\n");
  ASSERT_TRUE(bad.ok);
  EXPECT_EQ(bad.status, 400);
}

// --- Status-code contract -----------------------------------------------

TEST_F(HttpProtocolTest, ClientErrorStatusCodes) {
  Endpoint ep(*db_);
  // Missing query parameter.
  Response r = Fetch(ep.port(),
                     "GET /sparql HTTP/1.1\r\nHost: t\r\n"
                     "Connection: close\r\n\r\n");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);

  // Query syntax error.
  r = Fetch(ep.port(), SparqlGet("SELECT * WHERE { ?x ?p }"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);

  // Malformed timeout parameter.
  r = Fetch(ep.port(), SparqlGet(kSimpleQuery, "", "timeout=abc"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);

  // Unsupported method on /sparql.
  r = Fetch(ep.port(),
            "DELETE /sparql HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 405);
  ASSERT_NE(r.FindHeader("Allow"), nullptr);
  EXPECT_EQ(*r.FindHeader("Allow"), "GET, POST");

  // Unsupported POST media type.
  r = Fetch(ep.port(),
            "POST /sparql HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: text/plain\r\nContent-Length: 3\r\n"
            "Connection: close\r\n\r\nfoo");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 415);

  // /update accepts POST only.
  r = Fetch(ep.port(),
            "GET /update HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 405);
  ASSERT_NE(r.FindHeader("Allow"), nullptr);
  EXPECT_EQ(*r.FindHeader("Allow"), "POST");
}

// Admission rejection (kOverloaded) maps to 503 + Retry-After — never 500.
// Regression test for the status introduced alongside this endpoint: a
// shut-down (or full-queue) service rejects inline with kOverloaded.
TEST_F(HttpProtocolTest, OverloadedMapsTo503WithRetryAfter) {
  Endpoint ep(*db_);
  ep.service.Shutdown();
  Response r = Fetch(ep.port(), SparqlGet(kSimpleQuery));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 503);
  const std::string* retry = r.FindHeader("Retry-After");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(*retry, "1");
}

// A deadline abort of an admitted query is the client's 408, not a 500
// and not the overload 503.
TEST_F(HttpProtocolTest, DeadlineAbortMapsTo408) {
  Endpoint ep(*db_);
  // Cross product over the whole store: cannot finish within 1 ms; the
  // morsel checkpoints convert the deadline into a clean abort.
  Response r = Fetch(
      ep.port(),
      SparqlGet("SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }", "", "timeout=1"),
      /*timeout_ms=*/30000);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 408);
}

// Regression: a huge-but-well-formed timeout used to be fed verbatim into
// steady_clock deadline arithmetic; the overflow put the deadline in the
// past and a trivially-cheap query came back as a spurious instant 408.
// Any all-digit timeout must clamp to the server's ceiling and succeed.
TEST_F(HttpProtocolTest, HugeTimeoutClampsInsteadOfInstant408) {
  Endpoint ep(*db_);
  // 12 digits: accepted by the old length check, overflowed the deadline.
  Response r =
      Fetch(ep.port(), SparqlGet(kSimpleQuery, "", "timeout=999999999999"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200) << r.body;

  // 19 digits (> int64 max milliseconds): clamped, not rejected.
  r = Fetch(ep.port(),
            SparqlGet(kSimpleQuery, "", "timeout=9999999999999999999"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200) << r.body;

  // 40 digits: still well-formed, still clamped.
  std::string forty(40, '9');
  r = Fetch(ep.port(), SparqlGet(kSimpleQuery, "", "timeout=" + forty));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200) << r.body;

  // Non-digit values stay rejected.
  r = Fetch(ep.port(), SparqlGet(kSimpleQuery, "", "timeout=1e9"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 400);
}

// A repeat of an identical query is served from the result cache with a
// byte-identical body, in both negotiated formats.
TEST_F(HttpProtocolTest, ResultCacheRepeatBodiesAreIdentical) {
  Endpoint ep(*db_);
  for (const char* accept :
       {"application/sparql-results+json", "text/tab-separated-values"}) {
    Response cold = Fetch(ep.port(), SparqlGet(kSimpleQuery, accept));
    ASSERT_TRUE(cold.ok);
    ASSERT_EQ(cold.status, 200);
    Response warm = Fetch(ep.port(), SparqlGet(kSimpleQuery, accept));
    ASSERT_TRUE(warm.ok);
    ASSERT_EQ(warm.status, 200);
    EXPECT_EQ(warm.body, cold.body) << accept;
  }
  EXPECT_GT(ep.service.ResultCacheStats().hits, 0u);

  // The new cache/dedup metric families render on /metrics.
  Response metrics = Fetch(ep.port(),
                           "GET /metrics HTTP/1.1\r\nHost: t\r\n"
                           "Connection: close\r\n\r\n");
  ASSERT_TRUE(metrics.ok);
  for (const char* family :
       {"sparqluo_result_cache_hits_total", "sparqluo_result_cache_misses_total",
        "sparqluo_result_cache_bytes", "sparqluo_dedup_followers_total",
        "sparqluo_dedup_served_total", "sparqluo_pinned_requests"}) {
    EXPECT_NE(metrics.body.find(family), std::string::npos)
        << family << " missing from /metrics";
  }
}

// --- Metrics the send paths keep -----------------------------------------

/// Polls until `h` holds `count` observations: the worker observes after
/// handing the response over, which can be after the client read it.
bool WaitForCount(const Histogram& h, uint64_t count) {
  for (int i = 0; i < 1000 && h.Count() < count; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  return h.Count() >= count;
}

// sparqluo_http_request_ms ends when the response has been handed to the
// connection, so it covers rendering: a result-cache hit of a large
// answer executes nothing, and its observation is still at least the
// answer's in-process render time.
TEST_F(HttpProtocolTest, RequestLatencyCoversRendering) {
  Endpoint ep(*db_);
  const std::string query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
  Histogram* latency =
      MetricRegistry::Global().GetHistogram("sparqluo_http_request_ms");
  ASSERT_NE(latency, nullptr);
  const uint64_t before_cold = latency->Count();
  Response cold = Fetch(ep.port(), SparqlGet(query), /*timeout_ms=*/60000);
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.status, 200);
  ASSERT_TRUE(WaitForCount(*latency, before_cold + 1));

  QueryResponse ref = ep.service.Submit(QueryRequest{.text = query}).get();
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  double render_ms = 1e9;
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    StreamingResultWriter writer(WireFormat::kJson,
                                 [](std::string_view) { return true; });
    ASSERT_TRUE(writer.WriteAll(ref.rows, ref.plan->query.vars, db_->dict()));
    render_ms = std::min(
        render_ms, std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }

  const uint64_t count = latency->Count();
  const double sum = latency->Sum();
  Response warm = Fetch(ep.port(), SparqlGet(query), /*timeout_ms=*/60000);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(warm.body, cold.body);
  ASSERT_TRUE(WaitForCount(*latency, count + 1));
  EXPECT_GE(latency->Sum() - sum, render_ms)
      << "the request histogram stopped before the answer was rendered";
}

// sparqluo_http_io_bytes_total{direction="write"} counts every byte sent,
// by the event thread or by the worker that rendered the answer: over
// answers small and large, its delta is exactly what the clients read.
TEST_F(HttpProtocolTest, WriteCounterMatchesBytesRead) {
  Endpoint ep(*db_);
  Counter* written = MetricRegistry::Global().GetCounter(
      "sparqluo_http_io_bytes_total", "", "direction=\"write\"");
  ASSERT_NE(written, nullptr);
  const std::vector<std::string> requests = {
      SparqlGet(kSimpleQuery),
      SparqlGet("SELECT ?s ?p ?o WHERE { ?s ?p ?o }"),
      SparqlGet(kSimpleQuery, "text/tab-separated-values"),
      SparqlGet("SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
                "text/tab-separated-values"),
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
      "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
      "GET /healthz HTTP/9.9\r\n\r\n",
  };
  const uint64_t before = written->value();
  uint64_t read = 0;
  for (int round = 0; round < 2; ++round) {  // cold, then result-cache hits
    for (const std::string& request : requests) {
      TestHttpClient client(ep.port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.SendRaw(request));
      // Every request closes its connection, so EOF ends each answer and
      // the server counted its bytes before it closed.
      const std::string answer = client.ReadAll(60000);
      EXPECT_EQ(answer.compare(0, 9, "HTTP/1.1 "), 0) << request;
      read += answer.size();
    }
  }
  EXPECT_GT(read, 1000000u);
  EXPECT_EQ(written->value() - before, read);
}

// --- Updates ------------------------------------------------------------

TEST_F(HttpProtocolTest, UpdateRoundTripAndReadOnly) {
  // A private database: this test commits to it.
  Database db;
  LubmConfig cfg;
  cfg.universities = 1;
  cfg.density = 0.05;
  GenerateLubm(cfg, &db);
  db.Finalize(EngineKind::kWco);
  Endpoint ep(db);

  std::string update =
      "INSERT DATA { <http://ex.org/s> <http://ex.org/p> <http://ex.org/o> }";
  std::string form = "update=" + UrlEncode(update);
  Response r =
      Fetch(ep.port(),
            "POST /update HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/x-www-form-urlencoded\r\n"
            "Content-Length: " + std::to_string(form.size()) + "\r\n"
            "Connection: close\r\n\r\n" + form);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");

  // The committed triple is visible to a follow-up query.
  Response check = Fetch(
      ep.port(),
      SparqlGet("SELECT ?o WHERE { <http://ex.org/s> <http://ex.org/p> ?o }"));
  ASSERT_TRUE(check.ok);
  EXPECT_EQ(check.status, 200);
  EXPECT_NE(check.body.find("http://ex.org/o"), std::string::npos);

  // The raw media type works too.
  std::string update2 =
      "INSERT DATA { <http://ex.org/s2> <http://ex.org/p> <http://ex.org/o> }";
  r = Fetch(ep.port(),
            "POST /update HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/sparql-update\r\n"
            "Content-Length: " + std::to_string(update2.size()) + "\r\n"
            "Connection: close\r\n\r\n" + update2);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);

  // An update against a read-only service is the caller's 403.
  const Database& ro = db;
  QueryService ro_service(ro, Endpoint::FillDefaults({}));
  SparqlEndpoint ro_endpoint(ro_service, db.dict(), {});
  ASSERT_TRUE(ro_endpoint.Start().ok());
  r = Fetch(ro_endpoint.port(),
            "POST /update HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/sparql-update\r\n"
            "Content-Length: " + std::to_string(update.size()) + "\r\n"
            "Connection: close\r\n\r\n" + update);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 403);
}

// --- Keep-alive and chunked request bodies ------------------------------

TEST_F(HttpProtocolTest, KeepAliveServesSequentialRequests) {
  Endpoint ep(*db_);
  TestHttpClient client(ep.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
    Response r = client.ReadResponse();
    ASSERT_TRUE(r.ok) << "request " << i;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "ok\n");
  }
}

TEST_F(HttpProtocolTest, ChunkedRequestBody) {
  Endpoint ep(*db_);
  std::string q(kSimpleQuery);
  std::string req =
      "POST /sparql HTTP/1.1\r\nHost: t\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
  // Two chunks with a split size line, plus a trailer-free terminator.
  char size_line[16];
  size_t half = q.size() / 2;
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", half);
  req += size_line;
  req += q.substr(0, half) + "\r\n";
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", q.size() - half);
  req += size_line;
  req += q.substr(half) + "\r\n0\r\n\r\n";
  Response r = Fetch(ep.port(), req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"bindings\""), std::string::npos);
}

// --- Bit-identity over the wire: the full paper workload ----------------

// Over-the-wire bodies must match in-process FormatResults output byte for
// byte, for every LUBM paper query, in both formats, at intra-query
// parallelism 1 and 8 (the parallel evaluation already guarantees
// bit-identical BindingSets; this extends the guarantee through the
// serializer and the HTTP path).
TEST_F(HttpProtocolTest, PaperWorkloadBitIdenticalOverTheWire) {
  for (size_t parallelism : {size_t{1}, size_t{8}}) {
    QueryService::Options sopts;
    sopts.num_threads = 8;
    sopts.intra_query_parallelism = parallelism;
    Endpoint ep(*db_, sopts);
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));

    for (const PaperQuery& pq : LubmPaperQueries()) {
      SCOPED_TRACE(pq.id);
      // In-process reference through the same service.
      QueryResponse ref =
          ep.service.Submit(QueryRequest{.text = pq.sparql}).get();
      ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
      ASSERT_NE(ref.plan, nullptr);
      std::string expect_json = FormatResults(
          ref.rows, ref.plan->query.vars, db_->dict(), ResultFormat::kJson);
      std::string expect_tsv = FormatResults(
          ref.rows, ref.plan->query.vars, db_->dict(), ResultFormat::kTsv);

      Response json = Fetch(
          ep.port(), SparqlGet(pq.sparql, "application/sparql-results+json"),
          /*timeout_ms=*/60000);
      ASSERT_TRUE(json.ok);
      ASSERT_EQ(json.status, 200);
      EXPECT_EQ(json.body, expect_json);

      Response tsv = Fetch(ep.port(),
                           SparqlGet(pq.sparql, "text/tab-separated-values"),
                           /*timeout_ms=*/60000);
      ASSERT_TRUE(tsv.ok);
      ASSERT_EQ(tsv.status, 200);
      EXPECT_EQ(tsv.body, expect_tsv);
    }
  }
}

}  // namespace
}  // namespace sparqluo
