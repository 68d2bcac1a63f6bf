// Torture tests for the HTTP server (src/http/http_server.h): every-prefix
// truncation, split-at-every-byte feeds, pipelined keep-alive, oversize
// request lines/headers/bodies, slow-loris idle timeouts, write-stall
// timeouts, abrupt mid-response disconnects, and the two send paths (a
// worker sending its own answer, the event thread draining the queue).
// Every scenario ends by
// proving the server still serves a clean request — the invariant under
// torture is "no wedged connections, no wedged workers".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

namespace sparqluo {
namespace {

using testhttp::Fetch;
using testhttp::Response;
using testhttp::SparqlGet;
using testhttp::TestHttpClient;

constexpr char kHealthz[] =
    "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";

class HttpTortureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    LubmConfig cfg;
    cfg.universities = 1;
    GenerateLubm(cfg, db_);
    db_->Finalize(EngineKind::kWco);

    QueryService::Options sopts;
    sopts.num_threads = 4;
    service_ = new QueryService(*db_, sopts);
    SparqlEndpoint::Options eopts;
    endpoint_ = new SparqlEndpoint(*service_, db_->dict(), eopts);
    Status s = endpoint_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  static void TearDownTestSuite() {
    delete endpoint_;
    endpoint_ = nullptr;
    delete service_;
    service_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static uint16_t port() { return endpoint_->port(); }

  /// The liveness invariant checked after every torture scenario.
  static void ExpectHealthy() {
    Response r = Fetch(port(), kHealthz);
    ASSERT_TRUE(r.ok) << "server no longer serves requests";
    EXPECT_EQ(r.status, 200);
  }

  static Database* db_;
  static QueryService* service_;
  static SparqlEndpoint* endpoint_;
};

Database* HttpTortureTest::db_ = nullptr;
QueryService* HttpTortureTest::service_ = nullptr;
SparqlEndpoint* HttpTortureTest::endpoint_ = nullptr;

// --- Truncation and fragmentation ---------------------------------------

// A request cut off after any prefix must never produce a 200 — the
// server either answers with an error or closes quietly, and stays up.
TEST_F(HttpTortureTest, EveryPrefixTruncation) {
  const std::string request(kHealthz);
  for (size_t cut = 0; cut < request.size(); ++cut) {
    TestHttpClient client(port());
    ASSERT_TRUE(client.connected()) << "cut=" << cut;
    ASSERT_TRUE(client.SendRaw(std::string_view(request).substr(0, cut)));
    client.ShutdownWrite();
    std::string answer = client.ReadAll(2000);
    EXPECT_EQ(answer.find("HTTP/1.1 200"), std::string::npos)
        << "truncated request at byte " << cut << " got a 200";
  }
  ExpectHealthy();
}

// The same bytes split across two writes at every boundary must parse
// identically to a single write.
TEST_F(HttpTortureTest, SplitAtEveryByteHealthz) {
  const std::string request(kHealthz);
  for (size_t cut = 1; cut < request.size(); ++cut) {
    TestHttpClient client(port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(std::string_view(request).substr(0, cut)));
    ASSERT_TRUE(client.SendRaw(std::string_view(request).substr(cut)));
    Response r = client.ReadResponse();
    ASSERT_TRUE(r.ok) << "split at byte " << cut;
    EXPECT_EQ(r.status, 200) << "split at byte " << cut;
    EXPECT_EQ(r.body, "ok\n");
  }
}

// Splitting a real query request (request line, percent-escapes, headers,
// everywhere) never changes the result.
TEST_F(HttpTortureTest, SplitAtEveryByteSparqlQuery) {
  const std::string request =
      SparqlGet("SELECT ?x WHERE { ?x ?p ?o } LIMIT 1");
  Response whole = Fetch(port(), request);
  ASSERT_TRUE(whole.ok);
  ASSERT_EQ(whole.status, 200);
  for (size_t cut = 1; cut < request.size(); ++cut) {
    TestHttpClient client(port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(std::string_view(request).substr(0, cut)));
    ASSERT_TRUE(client.SendRaw(std::string_view(request).substr(cut)));
    Response r = client.ReadResponse();
    ASSERT_TRUE(r.ok) << "split at byte " << cut;
    ASSERT_EQ(r.status, 200) << "split at byte " << cut;
    EXPECT_EQ(r.body, whole.body) << "split at byte " << cut;
  }
}

// --- Pipelining ---------------------------------------------------------

// Several requests in one TCP segment, answered strictly in order on one
// connection (reads are paused while a request is being handled, so
// responses can never interleave).
TEST_F(HttpTortureTest, PipelinedKeepAlive) {
  std::string batch;
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i)
    batch += "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  batch += SparqlGet("SELECT ?x WHERE { ?x ?p ?o } LIMIT 2");

  TestHttpClient client(port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(batch));
  for (int i = 0; i < kRequests; ++i) {
    Response r = client.ReadResponse();
    ASSERT_TRUE(r.ok) << "pipelined response " << i;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "ok\n");
  }
  Response query = client.ReadResponse();
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.status, 200);
  EXPECT_NE(query.body.find("\"bindings\""), std::string::npos);
}

// --- Size limits --------------------------------------------------------

TEST_F(HttpTortureTest, OversizeRequestLineIs414) {
  std::string request = "GET /" + std::string(9000, 'a') +
                        " HTTP/1.1\r\nHost: t\r\n\r\n";
  Response r = Fetch(port(), request);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 414);
  ExpectHealthy();
}

TEST_F(HttpTortureTest, OversizeHeadersAre431) {
  std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n";
  for (int i = 0; i < 10; ++i)
    request += "X-Pad-" + std::to_string(i) + ": " + std::string(7000, 'x') +
               "\r\n";
  request += "\r\n";
  Response r = Fetch(port(), request);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 431);
  ExpectHealthy();
}

// A Content-Length beyond the body cap is rejected from the headers alone
// — the server never waits for (or buffers) the body.
TEST_F(HttpTortureTest, OversizeBodyIs413WithoutReadingIt) {
  TestHttpClient client(port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(
      "POST /sparql HTTP/1.1\r\nHost: t\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: 17825792\r\n\r\n"));  // 17 MB declared, none sent
  Response r = client.ReadResponse(5000);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 413);
  ExpectHealthy();
}

TEST_F(HttpTortureTest, ChunkedBodyOverflowIs413) {
  TestHttpClient client(port());
  ASSERT_TRUE(client.connected());
  // One declared 17 MB chunk; the size line alone trips the cap.
  ASSERT_TRUE(client.SendRaw(
      "POST /sparql HTTP/1.1\r\nHost: t\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Transfer-Encoding: chunked\r\n\r\n1100000\r\n"));
  Response r = client.ReadResponse(5000);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 413);
  ExpectHealthy();
}

// --- Malformed and unsupported requests ---------------------------------

TEST_F(HttpTortureTest, ProtocolErrors) {
  struct Case {
    const char* raw;
    int status;
  };
  const Case cases[] = {
      {"\x01\x02garbage\r\n\r\n", 400},
      {"GET /healthz\r\n\r\n", 400},                    // no version
      {"GET  /healthz HTTP/1.1\r\n\r\n", 400},          // double space
      {"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", 505},        // h2 preface
      {"GET /healthz HTTP/9.9\r\n\r\n", 505},
      {"GET /healthz HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},  // space in name
      {"GET /healthz HTTP/1.1\r\nHost: t\r\n folded\r\n\r\n", 400},  // obs-fold
      {"POST /sparql HTTP/1.1\r\nHost: t\r\n"
       "Transfer-Encoding: gzip\r\n\r\n",
       501},
      {"POST /sparql HTTP/1.1\r\nHost: t\r\n"
       "Transfer-Encoding: chunked\r\nContent-Length: 10\r\n\r\n",
       400},  // smuggling: TE + CL
      {"POST /sparql HTTP/1.1\r\nHost: t\r\n"
       "Content-Length: 5\r\nContent-Length: 6\r\n\r\n",
       400},  // conflicting CL
      {"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n", 400},
  };
  for (const Case& c : cases) {
    Response r = Fetch(port(), c.raw);
    ASSERT_TRUE(r.ok) << c.raw;
    EXPECT_EQ(r.status, c.status) << c.raw;
    // Parse errors are terminal for the connection.
    const std::string* conn = r.FindHeader("Connection");
    ASSERT_NE(conn, nullptr) << c.raw;
    EXPECT_EQ(*conn, "close") << c.raw;
  }
  ExpectHealthy();
}

// --- Timeouts -----------------------------------------------------------

// Slow-loris: a client that dribbles (or stops sending) a request must be
// evicted by the idle timeout, not hold a connection forever.
TEST_F(HttpTortureTest, SlowLorisIsEvictedByIdleTimeout) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(*db_, sopts);
  SparqlEndpoint::Options eopts;
  eopts.http.idle_timeout = std::chrono::milliseconds(100);
  SparqlEndpoint endpoint(service, db_->dict(), eopts);
  ASSERT_TRUE(endpoint.Start().ok());

  // Sends a partial request, then goes quiet.
  TestHttpClient dribbler(endpoint.port());
  ASSERT_TRUE(dribbler.connected());
  ASSERT_TRUE(dribbler.SendRaw("GET /healthz HTTP/1.1\r\nHos"));
  EXPECT_TRUE(dribbler.WaitForClose(3000))
      << "slow-loris connection survived the idle timeout";

  // Sends nothing at all.
  TestHttpClient silent(endpoint.port());
  ASSERT_TRUE(silent.connected());
  EXPECT_TRUE(silent.WaitForClose(3000))
      << "silent connection survived the idle timeout";

  // A live connection with completed requests is unaffected mid-response.
  Response r = Fetch(endpoint.port(), kHealthz);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
}

// A client that requests a huge result and then stops reading must be cut
// off by the write-stall timeout, releasing the worker mid-stream.
TEST_F(HttpTortureTest, WriteStallTimeoutReleasesWorker) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(*db_, sopts);
  SparqlEndpoint::Options eopts;
  eopts.http.write_stall_timeout = std::chrono::milliseconds(200);
  SparqlEndpoint endpoint(service, db_->dict(), eopts);
  ASSERT_TRUE(endpoint.Start().ok());

  TestHttpClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  // The whole store as JSON: far larger than socket buffers + the 4 MB
  // output queue high-water mark, so the producer must block on the queue.
  ASSERT_TRUE(client.SendRaw(SparqlGet("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")));
  // Read nothing. The server must give up on us and close.
  EXPECT_TRUE(client.WaitForClose(10000))
      << "stalled connection survived the write-stall timeout";

  // The worker that was streaming is free again: new queries finish.
  Response r = Fetch(endpoint.port(),
                     SparqlGet("SELECT ?x WHERE { ?x ?p ?o } LIMIT 1"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
}

// --- Abrupt disconnects -------------------------------------------------

// Clients that vanish mid-response (after reading part of a large body)
// must abort serialization server-side without wedging anything. Repeated
// to shake out races between the close and in-flight writes.
TEST_F(HttpTortureTest, AbruptDisconnectMidResponse) {
  for (int round = 0; round < 5; ++round) {
    TestHttpClient client(port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(
        client.SendRaw(SparqlGet("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")));
    // Read a little of the response, then vanish without a FIN handshake.
    // The first-byte wait is generous: sanitized builds run the full-store
    // query an order of magnitude slower.
    std::string some = client.ReadSome(30000);
    EXPECT_FALSE(some.empty()) << "no response bytes before disconnect";
    client.Close();
    ExpectHealthy();
  }
}

// --- The two send paths -------------------------------------------------
//
// A worker sends its answer itself while the connection's output queue is
// empty and queues only what the socket does not take; the event thread
// drains queued bytes. These cases mix both paths on purpose.

/// The in-process JSON body of `query` (the over-the-wire oracle).
std::string ExpectedJson(QueryService& service, const Database& db,
                         const std::string& query) {
  QueryResponse r = service.Submit(QueryRequest{.text = query}).get();
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  if (r.plan == nullptr) return {};
  return FormatResults(r.rows, r.plan->query.vars, db.dict(),
                       ResultFormat::kJson);
}

/// A keep-alive GET /sparql request (SparqlGet's closes the connection).
std::string KeepAliveGet(const std::string& query) {
  return "GET /sparql?query=" + testhttp::UrlEncode(query) +
         " HTTP/1.1\r\nHost: t\r\n\r\n";
}

// One client asks for a multi-MB answer and stops reading, so its bytes
// sit in the output queue. Small answers on another connection must still
// complete promptly and whole, long before the stalled connection is
// evicted by the write-stall timeout — which must still happen.
TEST_F(HttpTortureTest, StalledLargeAnswerDoesNotDelaySmallOnes) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(*db_, sopts);
  SparqlEndpoint::Options eopts;
  eopts.http.write_stall_timeout = std::chrono::milliseconds(3000);
  SparqlEndpoint endpoint(service, db_->dict(), eopts);
  ASSERT_TRUE(endpoint.Start().ok());

  const std::vector<std::string> small = {
      "SELECT ?x WHERE { ?x ?p ?o } LIMIT 3",
      "SELECT ?p WHERE { ?x ?p ?o } LIMIT 7",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?d WHERE { ?x ub:headOf ?d }"};
  std::vector<std::string> expected;
  for (const std::string& q : small)
    expected.push_back(ExpectedJson(service, *db_, q));

  Counter* stalls = MetricRegistry::Global().GetCounter(
      "sparqluo_http_timeouts_total", "", "kind=\"write_stall\"");
  const uint64_t stalls_before = stalls->value();
  TestHttpClient staller(endpoint.port());
  ASSERT_TRUE(staller.connected());
  const auto stalled_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      staller.SendRaw(SparqlGet("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  TestHttpClient client(endpoint.port());
  ASSERT_TRUE(client.connected());
  for (int round = 0; round < 10; ++round) {
    for (size_t i = 0; i < small.size(); ++i) {
      ASSERT_TRUE(client.SendRaw(KeepAliveGet(small[i])));
      Response r = client.ReadResponse(2000);
      ASSERT_TRUE(r.ok) << "round " << round << ", query " << i;
      ASSERT_EQ(r.status, 200);
      EXPECT_EQ(r.body, expected[i]) << "round " << round << ", query " << i;
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - stalled_at,
            eopts.http.write_stall_timeout)
      << "small answers waited for the stalled connection's eviction";

  // Eviction, seen on the stall counter; reading afterwards finds the
  // body cut short of its terminal chunk.
  for (int i = 0; i < 300 && stalls->value() == stalls_before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(stalls->value(), stalls_before + 1)
      << "stalled connection survived the write-stall timeout";
  const std::string cut = staller.ReadAll(15000);
  EXPECT_EQ(cut.compare(0, 9, "HTTP/1.1 "), 0);
  EXPECT_FALSE(cut.ends_with("\r\n0\r\n\r\n"));
  Response after = client.Request(KeepAliveGet(small[0]), 5000);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.body, expected[0]);
}

// Clients that vanish while a worker is sending straight to the socket:
// right after the request (the worker's send meets the reset), or after
// the first bytes. Answers of one flush and of many are both covered; a
// concurrent client keeps getting whole answers throughout.
TEST_F(HttpTortureTest, CloseWhileWorkerSendsDirectly) {
  const std::string small = "SELECT ?x WHERE { ?x ?p ?o } LIMIT 3";
  const std::string expected = ExpectedJson(*service_, *db_, small);
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::thread steady([&] {
    while (!done.load()) {
      Response r = Fetch(port(), SparqlGet(small), 30000);
      if (!r.ok || r.status != 200 || r.body != expected) bad.fetch_add(1);
    }
  });
  const char* queries[] = {
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",             // many flushes
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 400",  // one flush
  };
  for (int round = 0; round < 20; ++round) {
    TestHttpClient client(port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(SparqlGet(queries[round % 2])));
    if (round % 4 >= 2) client.ReadSome(30000);
    client.Close();
  }
  done.store(true);
  steady.join();
  EXPECT_EQ(bad.load(), 0);
  ExpectHealthy();
}

// Pipelined keep-alive queries whose answers take both send paths (one
// spans many flushes) arrive whole and in order; HTTP/1.0 answers, which
// are close-delimited, arrive whole for one flush and for many.
TEST_F(HttpTortureTest, PipelinedAndHttp10AnswersArriveWholeAndInOrder) {
  const std::vector<std::string> queries = {
      "SELECT ?x WHERE { ?x ?p ?o } LIMIT 2",
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 20000",
      "SELECT ?p WHERE { ?x ?p ?o } LIMIT 5",
      "SELECT ?o WHERE { ?x ?p ?o } LIMIT 3000",
      "SELECT ?x WHERE { ?x ?p ?o } LIMIT 1"};
  std::vector<std::string> expected;
  for (const std::string& q : queries)
    expected.push_back(ExpectedJson(*service_, *db_, q));
  ASSERT_GT(expected[1].size(), 4 * StreamingResultWriter::kDefaultFlushBytes);

  std::string batch;
  for (const std::string& q : queries) batch += KeepAliveGet(q);
  TestHttpClient client(port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(batch));
  for (size_t i = 0; i < queries.size(); ++i) {
    Response r = client.ReadResponse(30000);
    ASSERT_TRUE(r.ok) << "pipelined response " << i;
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, expected[i]) << "pipelined response " << i;
  }

  for (size_t i : {size_t{0}, size_t{1}}) {
    TestHttpClient old(port());
    ASSERT_TRUE(old.connected());
    ASSERT_TRUE(old.SendRaw("GET /sparql?query=" +
                            testhttp::UrlEncode(queries[i]) +
                            " HTTP/1.0\r\n\r\n"));
    const std::string answer = old.ReadAll(30000);
    const size_t body_at = answer.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    EXPECT_EQ(answer.find("Transfer-Encoding"), std::string::npos);
    EXPECT_EQ(answer.substr(body_at + 4), expected[i]) << "HTTP/1.0 " << i;
  }
}

// Disconnecting exactly between pipelined requests is routine, not a race.
TEST_F(HttpTortureTest, DisconnectBetweenPipelinedRequests) {
  for (int round = 0; round < 10; ++round) {
    TestHttpClient client(port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
    Response first = client.ReadResponse();
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(first.status, 200);
    client.Close();  // the second pipelined request may be mid-dispatch
  }
  ExpectHealthy();
}

}  // namespace
}  // namespace sparqluo
