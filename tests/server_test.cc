#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "server/plan_cache.h"
#include "server/query_service.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

constexpr size_t kRowLimit = 2000000;

/// Exact (bitwise) equality: same schema, same rows in the same order.
/// Stronger than BagEquals on purpose — the service must not perturb
/// evaluation at all relative to the sequential path.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

class QueryServiceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    LubmConfig cfg;
    cfg.universities = 2;
    GenerateLubm(cfg, &db_);
    db_.Finalize(GetParam());
  }

  ExecOptions GuardedFull() {
    ExecOptions o = ExecOptions::Full();
    o.max_intermediate_rows = kRowLimit;
    return o;
  }

  Database db_;
};

INSTANTIATE_TEST_SUITE_P(Engines, QueryServiceTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

// (a) N-threaded execution of the paper query workload returns bit-identical
// BindingSets to sequential execution.
TEST_P(QueryServiceTest, ConcurrentMatchesSequentialOnPaperWorkload) {
  const auto& workload = LubmPaperQueries();
  ExecOptions exec = GuardedFull();

  // Sequential reference, straight through the executor.
  std::vector<BindingSet> expected;
  std::vector<bool> expected_ok;
  for (const PaperQuery& q : workload) {
    auto r = db_.Query(q.sparql, exec);
    expected_ok.push_back(r.ok());
    expected.push_back(r.ok() ? std::move(*r) : BindingSet());
  }

  QueryService::Options sopts;
  sopts.num_threads = 8;
  sopts.max_queue = 1024;
  QueryService service(db_, sopts);

  constexpr size_t kRepeats = 3;
  std::vector<QueryRequest> batch;
  for (size_t rep = 0; rep < kRepeats; ++rep)
    for (const PaperQuery& q : workload)
      batch.push_back(QueryRequest{q.sparql, exec, {}, nullptr});
  std::vector<QueryResponse> responses = service.RunBatch(std::move(batch));

  ASSERT_EQ(responses.size(), workload.size() * kRepeats);
  for (size_t i = 0; i < responses.size(); ++i) {
    size_t qi = i % workload.size();
    const QueryResponse& r = responses[i];
    ASSERT_EQ(r.status.ok(), expected_ok[qi])
        << workload[qi].id << ": " << r.status.ToString();
    if (r.status.ok()) {
      EXPECT_TRUE(BitIdentical(r.rows, expected[qi]))
          << workload[qi].id << " diverges from sequential execution";
    }
  }
  EXPECT_EQ(service.num_threads(), 8u);
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, workload.size() * kRepeats);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.latency_samples, 0u);
}

// (b) Deadline expiry yields a clean ResourceExhausted-style abort.
TEST_P(QueryServiceTest, DeadlineExpiryAbortsCleanly) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(db_, sopts);

  // Cross product over the whole store: far too large to finish in 1 ms.
  QueryRequest req;
  req.text = "SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }";
  req.options = ExecOptions::Full();
  req.deadline = std::chrono::milliseconds(1);
  QueryResponse r = service.Submit(std::move(req)).get();

  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.metrics.aborted);
  EXPECT_EQ(r.metrics.abort_reason, AbortReason::kDeadline);
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.aborted_deadline, 1u);
}

// Explicit cancellation through an externally-owned token.
TEST_P(QueryServiceTest, ExplicitCancellationAborts) {
  QueryService::Options sopts;
  sopts.num_threads = 1;
  QueryService service(db_, sopts);

  auto token = std::make_shared<CancelToken>();
  token->RequestCancel();  // pre-cancelled: aborts at the first checkpoint
  QueryRequest req;
  req.text = "SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }";
  req.options = ExecOptions::Full();
  req.cancel = token;
  QueryResponse r = service.Submit(std::move(req)).get();

  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.metrics.abort_reason, AbortReason::kCancelled);
}

// (c) Plan-cache hits skip transformation and return correct results.
TEST_P(QueryServiceTest, PlanCacheHitSkipsTransformAndMatches) {
  QueryService::Options sopts;
  sopts.num_threads = 1;  // serialize so hit/miss order is deterministic
  // This test exercises the plan-cache layer; without this the repeat is
  // served from the result cache and never consults the plan cache.
  sopts.result_cache_bytes = 0;
  QueryService service(db_, sopts);

  const std::string q = LubmPaperQueries()[0].sparql;
  QueryResponse first =
      service.Submit(QueryRequest{q, GuardedFull(), {}, nullptr}).get();
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.plan_cache_hit);

  // Same text with different whitespace still hits thanks to normalization.
  std::string reformatted = "\n \t " + q + "   \n";
  QueryResponse second =
      service.Submit(QueryRequest{reformatted, GuardedFull(), {}, nullptr})
          .get();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(second.metrics.transform_ms, 0.0);   // transform skipped entirely
  // Hits still report the cached plan's transform decisions.
  EXPECT_EQ(second.metrics.transform.merges, first.metrics.transform.merges);
  EXPECT_TRUE(BitIdentical(first.rows, second.rows));

  PlanCache::Stats cache = service.CacheStats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.entries, 1u);
}

// Cache accounting with both caches on: the first request misses both, and
// every repeat is a result-cache hit that never consults the plan cache.
TEST_P(QueryServiceTest, RepeatsCountAsResultCacheHitsOnly) {
  QueryService::Options sopts;
  sopts.num_threads = 1;
  QueryService service(db_, sopts);

  QueryRequest req;
  req.text = LubmPaperQueries()[0].sparql;
  req.options = GuardedFull();
  for (int i = 0; i < 5; ++i) {
    QueryResponse r = service.Submit(req).get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.result_cache_hit, i > 0);
  }
  PlanCache::Stats plan = service.CacheStats();
  EXPECT_EQ(plan.hits, 0u);
  EXPECT_EQ(plan.misses, 1u);
  ResultCache::Stats result = service.ResultCacheStats();
  EXPECT_EQ(result.hits, 4u);
  EXPECT_EQ(result.misses, 1u);
  EXPECT_EQ(service.Stats().completed, 5u);
}

// Admission control: a full queue rejects with kOverloaded — a status
// distinct from the kResourceExhausted an admitted query earns by blowing
// a deadline/row guard, so front-ends can map "retry later" (503) apart
// from "your query died" (408).
TEST_P(QueryServiceTest, AdmissionControlRejectsWhenQueueFull) {
  QueryService::Options sopts;
  sopts.num_threads = 1;
  sopts.max_queue = 2;
  QueryService service(db_, sopts);

  // Block the single worker on a long-running cross product we can cancel.
  // The 10 s deadline is only an anti-hang backstop; cancellation below is
  // what releases the worker.
  auto token = std::make_shared<CancelToken>();
  QueryRequest blocker;
  blocker.text = "SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }";
  blocker.options = ExecOptions::Full();
  blocker.deadline = std::chrono::seconds(10);
  blocker.cancel = token;
  std::future<QueryResponse> blocked = service.Submit(std::move(blocker));
  // The worker has dequeued the blocker once its plan-cache miss lands.
  for (int spin = 0; service.CacheStats().misses == 0 && spin < 5000; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(service.CacheStats().misses, 1u) << "worker never started";

  const std::string fast = LubmPaperQueries()[0].sparql;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(
        service.Submit(QueryRequest{fast, GuardedFull(), {}, nullptr}));

  token->RequestCancel();  // release the worker
  size_t rejected = 0, finished_ok = 0;
  for (auto& f : futures) {
    QueryResponse r = f.get();
    if (r.status.code() == StatusCode::kOverloaded) {
      EXPECT_FALSE(r.metrics.aborted);  // never ran at all
      ++rejected;
    } else if (r.status.ok()) {
      ++finished_ok;
    }
  }
  QueryResponse br = blocked.get();
  EXPECT_TRUE(br.metrics.aborted);
  // The admitted-then-cancelled blocker keeps the in-flight abort code.
  EXPECT_EQ(br.status.code(), StatusCode::kResourceExhausted);
  // Queue depth 2 with a busy worker: at least 8 of the 10 must bounce, and
  // everything admitted must finish.
  EXPECT_GE(rejected, 8u);
  EXPECT_EQ(finished_ok + rejected, 10u);
  EXPECT_GE(service.Stats().rejected, 8u);
}

// Shutdown rejects new submissions but resolves them (no hangs).
TEST_P(QueryServiceTest, SubmitAfterShutdownResolves) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(db_, sopts);
  service.Shutdown();
  QueryResponse r =
      service
          .Submit(QueryRequest{LubmPaperQueries()[0].sparql, GuardedFull(),
                               {}, nullptr})
          .get();
  EXPECT_FALSE(r.status.ok());
}

// The completion hook fires before the future resolves — on the worker
// for processed requests, inline for rejected ones — and successful
// responses carry the executed plan (VarTable + query form) so push-style
// consumers can serialize rows without re-parsing.
TEST_P(QueryServiceTest, CompletionHookAndPlanOnResponse) {
  QueryService service(db_, {.num_threads = 2});
  std::promise<QueryResponse> hooked;
  QueryRequest req;
  req.text = "SELECT ?x WHERE { ?x ?p ?o } LIMIT 3";
  req.on_complete = [&](const QueryResponse& r) { hooked.set_value(r); };
  QueryResponse via_future = service.Submit(std::move(req)).get();
  QueryResponse via_hook = hooked.get_future().get();
  ASSERT_TRUE(via_future.status.ok()) << via_future.status.ToString();
  ASSERT_NE(via_future.plan, nullptr);
  EXPECT_EQ(via_future.plan->query.form, QueryForm::kSelect);
  EXPECT_EQ(via_hook.rows.size(), via_future.rows.size());

  // Rejection path: the hook still runs, with the kOverloaded status.
  service.Shutdown();
  bool rejected_hook = false;
  QueryRequest after;
  after.text = "ASK { ?s ?p ?o }";
  after.on_complete = [&](const QueryResponse& r) {
    rejected_hook = true;
    EXPECT_EQ(r.status.code(), StatusCode::kOverloaded);
    EXPECT_EQ(r.plan, nullptr);
  };
  service.Submit(std::move(after)).get();
  EXPECT_TRUE(rejected_hook);
}

// Parse errors surface through the future, not as crashes.
TEST_P(QueryServiceTest, ParseErrorPropagatesThroughFuture) {
  QueryService service(db_, {});
  QueryResponse r =
      service.Submit(QueryRequest{"SELECT * WHERE { ?x ?p }",
                                  ExecOptions::Full(), {}, nullptr})
          .get();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kParseError);
}

// --- PlanCache unit tests (no service involved) -------------------------

TEST(PlanCacheTest, NormalizationCollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(PlanCache::NormalizeQuery("SELECT  *\nWHERE {\t?x ?p ?o }"),
            "SELECT * WHERE { ?x ?p ?o }");
  // Whitespace inside string literals is preserved.
  EXPECT_EQ(PlanCache::NormalizeQuery("FILTER(?n = \"a  b\")"),
            "FILTER(?n = \"a  b\")");
  // Leading/trailing whitespace is dropped.
  EXPECT_EQ(PlanCache::NormalizeQuery("  ASK { }  "), "ASK { }");
}

TEST(PlanCacheTest, NormalizationStripsCommentsLikeTheLexer) {
  // Queries that differ only in where a '#' comment line ends must NOT
  // share a key: "# note\nLIMIT 1" has an active LIMIT, "# note LIMIT 1"
  // does not.
  std::string active = "SELECT ?s WHERE { ?s ?p ?o } # note\nLIMIT 1";
  std::string commented = "SELECT ?s WHERE { ?s ?p ?o } # note LIMIT 1";
  EXPECT_EQ(PlanCache::NormalizeQuery(active),
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1");
  EXPECT_EQ(PlanCache::NormalizeQuery(commented),
            "SELECT ?s WHERE { ?s ?p ?o }");
  EXPECT_NE(PlanCache::NormalizeQuery(active),
            PlanCache::NormalizeQuery(commented));
  // '#' inside an IRI ref is part of the IRI, not a comment.
  EXPECT_EQ(PlanCache::NormalizeQuery("ASK { ?s a <http://x.org/ns#A> }"),
            "ASK { ?s a <http://x.org/ns#A> }");
  // '#' inside a string literal is literal text.
  EXPECT_EQ(PlanCache::NormalizeQuery("FILTER(?n = \"#tag\")"),
            "FILTER(?n = \"#tag\")");
}

TEST(PlanCacheTest, KeySeparatesOptimizationModes) {
  const std::string q = "SELECT * WHERE { ?x ?p ?o }";
  EXPECT_NE(PlanCache::MakeKey(q, ExecOptions::Base()),
            PlanCache::MakeKey(q, ExecOptions::TT()));
  EXPECT_NE(PlanCache::MakeKey(q, ExecOptions::TT()),
            PlanCache::MakeKey(q, ExecOptions::Full()));
  // Execution-only knobs do not split the cache.
  ExecOptions a = ExecOptions::Full(), b = ExecOptions::Full();
  b.max_intermediate_rows = 123;
  EXPECT_EQ(PlanCache::MakeKey(q, a), PlanCache::MakeKey(q, b));
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCache cache(/*capacity=*/2, /*shards=*/1);
  auto plan = std::make_shared<const CachedPlan>();
  cache.Put("a", plan);
  cache.Put("b", plan);
  EXPECT_NE(cache.Get("a"), nullptr);  // touch a; b is now LRU
  cache.Put("c", plan);                // evicts b
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, EvictUnreachableIsVersionScoped) {
  PlanCache cache(/*capacity=*/8, /*shards=*/2);
  auto plan = std::make_shared<const CachedPlan>();
  cache.Put("q1@v0", plan, /*version=*/0);
  cache.Put("q2@v0", plan, /*version=*/0);
  cache.Put("q1@v1", plan, /*version=*/1);
  cache.Put("q1@v2", plan, /*version=*/2);

  // Current v2 with a reader pinned to v1: only the v0 entries go.
  cache.EvictUnreachable(2, {1});
  EXPECT_EQ(cache.Get("q1@v0"), nullptr);
  EXPECT_EQ(cache.Get("q2@v0"), nullptr);
  EXPECT_NE(cache.Get("q1@v1"), nullptr);
  EXPECT_NE(cache.Get("q1@v2"), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 2u);
  EXPECT_EQ(cache.GetStats().entries, 2u);

  // The v1 pin released: the v1 entry is unreachable at the next commit.
  cache.EvictUnreachable(2, {});
  EXPECT_EQ(cache.Get("q1@v1"), nullptr);
  EXPECT_NE(cache.Get("q1@v2"), nullptr);
}

TEST(PlanCacheTest, EvictUnreachableReclaimsIntermediateVersions) {
  // One long-running reader pinned to v0 while commits advance to v4:
  // entries for the intermediate versions v1..v3 are reachable by no
  // reader (new snapshots are v4, only v0 is pinned) and must go, while
  // the pinned v0 entry and the current v4 entry both survive.
  PlanCache cache(/*capacity=*/8, /*shards=*/1);
  auto plan = std::make_shared<const CachedPlan>();
  for (uint64_t v = 0; v <= 4; ++v)
    cache.Put("q@v" + std::to_string(v), plan, v);
  cache.EvictUnreachable(4, {0});
  EXPECT_NE(cache.Get("q@v0"), nullptr);
  EXPECT_EQ(cache.Get("q@v1"), nullptr);
  EXPECT_EQ(cache.Get("q@v2"), nullptr);
  EXPECT_EQ(cache.Get("q@v3"), nullptr);
  EXPECT_NE(cache.Get("q@v4"), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 3u);
}

TEST(PlanCacheTest, EvictUnreachableAtVersionZeroKeepsEverything) {
  PlanCache cache(/*capacity=*/4, /*shards=*/1);
  auto plan = std::make_shared<const CachedPlan>();
  cache.Put("a", plan, /*version=*/0);
  cache.Put("b", plan, /*version=*/3);
  cache.EvictUnreachable(0, {});
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
}

// Service-level version-scoped eviction: a commit with no in-flight
// readers drops exactly the entries keyed under now-unreachable versions
// (counted as evictions — the old whole-cache Clear() counted nothing),
// and plans built after the commit are cached and hittable as usual.
TEST(QueryServiceUpdateCacheTest, CommitEvictsOnlyUnreachableVersions) {
  Database db;
  Term p = Term::Iri("http://ex.org/p");
  for (int i = 0; i < 4; ++i) {
    db.AddTriple(Term::Iri("http://ex.org/s" + std::to_string(i)), p,
                 Term::Iri("http://ex.org/o" + std::to_string(i)));
  }
  db.Finalize(EngineKind::kWco);

  QueryService::Options options;
  options.num_threads = 2;
  // Plan-cache-layer test: keep repeats off the result-cache fast path.
  options.result_cache_bytes = 0;
  QueryService service(db, options);
  const std::string q = "SELECT ?s WHERE { ?s <http://ex.org/p> ?o }";

  // Prime the cache under version 0.
  auto r0 = service.Submit({.text = q}).get();
  ASSERT_TRUE(r0.status.ok());
  EXPECT_EQ(r0.version, 0u);
  EXPECT_EQ(service.CacheStats().entries, 1u);

  // Commit version 1 through the service. With no readers pinned to v0,
  // the eviction floor is the commit version and the v0 entry goes.
  UpdateRequest update;
  update.text =
      "INSERT DATA { <http://ex.org/s9> <http://ex.org/p> "
      "<http://ex.org/o9> }";
  auto committed = service.SubmitUpdate(std::move(update)).get();
  ASSERT_TRUE(committed.status.ok()) << committed.status.ToString();
  EXPECT_EQ(committed.commit.version, 1u);
  PlanCache::Stats after = service.CacheStats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.evictions, 1u);  // version-scoped, not a blanket Clear()

  // Replan under v1 (miss), then hit on the repeat.
  auto r1 = service.Submit({.text = q}).get();
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.version, 1u);
  EXPECT_FALSE(r1.plan_cache_hit);
  auto r2 = service.Submit({.text = q}).get();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_TRUE(r2.plan_cache_hit);
}

// Regression: the old ServiceStats kept at most 2^18 raw latency samples and
// its percentiles froze once the cap filled. The histogram-backed stats must
// keep tracking the live distribution long past that point.
TEST(ServiceStatsTest, PercentilesKeepMovingPastOldSampleCap) {
  constexpr size_t kOldCap = size_t{1} << 18;
  ServiceStats stats;
  ExecMetrics m;
  Status ok;
  for (size_t i = 0; i < kOldCap + 500; ++i)
    stats.RecordFinished(ok, m, /*latency_ms=*/1.0, /*rows=*/0);
  ServiceStatsSnapshot before = stats.Snapshot();
  EXPECT_GT(before.latency_samples, kOldCap);  // never capped
  EXPECT_NEAR(before.p50_ms, 1.0, 0.1);

  // Everything after the old cap would have been dropped by the vector
  // design; here it must drag both the median and the tail up.
  for (size_t i = 0; i < 4 * kOldCap; ++i)
    stats.RecordFinished(ok, m, /*latency_ms=*/50.0, /*rows=*/0);
  ServiceStatsSnapshot after = stats.Snapshot();
  EXPECT_EQ(after.latency_samples, kOldCap + 500 + 4 * kOldCap);
  EXPECT_NEAR(after.p50_ms, 50.0, 2.0);
  EXPECT_NEAR(after.p999_ms, 50.0, 2.0);
  EXPECT_GT(after.p50_ms, before.p50_ms);
}

// enable_metrics = false (the bench overhead baseline) still keeps the plain
// counters but records no latency samples.
TEST(ServiceStatsTest, DisabledMetricsSkipHistogram) {
  ServiceStats stats(/*enable_metrics=*/false);
  EXPECT_FALSE(stats.metrics_enabled());
  ExecMetrics m;
  stats.RecordFinished(Status(), m, 5.0, 3);
  ServiceStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.rows_returned, 3u);
  EXPECT_EQ(snap.latency_samples, 0u);
  EXPECT_EQ(snap.p50_ms, 0.0);
}

// Each service's Stats() counts only its own requests, while the global
// registry series they both mirror rises by the sum.
TEST(ServiceStatsTest, TwoServicesCountOnlyTheirOwn) {
  Database db;
  Term p = Term::Iri("http://ex.org/p");
  db.AddTriple(Term::Iri("http://ex.org/s"), p, Term::Iri("http://ex.org/o"));
  db.Finalize(EngineKind::kWco);

  Counter* completed_total = MetricRegistry::Global().GetCounter(
      "sparqluo_queries_completed_total");
  const uint64_t before = completed_total->value();
  QueryService first(db, {.num_threads = 2});
  QueryService second(db, {.num_threads = 2});
  auto run = [](QueryService& service, size_t n) {
    std::vector<QueryRequest> batch;
    for (size_t i = 0; i < n; ++i)
      batch.push_back({.text = "SELECT ?s WHERE { ?s ?p ?o }"});
    for (const auto& r : service.RunBatch(std::move(batch)))
      ASSERT_TRUE(r.status.ok());
  };
  run(first, 3);
  run(second, 5);

  ServiceStatsSnapshot a = first.Stats();
  ServiceStatsSnapshot b = second.Stats();
  EXPECT_EQ(a.submitted, 3u);
  EXPECT_EQ(a.completed, 3u);
  EXPECT_EQ(a.latency_samples, 3u);
  EXPECT_EQ(b.submitted, 5u);
  EXPECT_EQ(b.completed, 5u);
  EXPECT_EQ(b.latency_samples, 5u);
  EXPECT_EQ(completed_total->value() - before, 8u);
}

// Record* from several threads while another thread snapshots: counters
// never run backwards mid-flight and the final counts are exact.
TEST(ServiceStatsTest, RecordWhileSnapshotting) {
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 2000;
  ServiceStats stats;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last_completed = 0;
    while (!done.load()) {
      ServiceStatsSnapshot s = stats.Snapshot();
      EXPECT_GE(s.completed, last_completed);
      last_completed = s.completed;
    }
  });
  std::vector<std::thread> writers;
  for (uint64_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&stats, t] {
      ExecMetrics ok;
      ok.bgp.morsels = 2;
      ExecMetrics aborted;
      aborted.aborted = true;
      aborted.abort_reason = AbortReason::kDeadline;
      CommitStats commit;
      commit.inserted = 1;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        stats.RecordSubmitted();
        stats.RecordFinished(Status(), ok, 1.0, 3, /*deduped=*/i % 2 == 0);
        stats.RecordFinished(Status::ResourceExhausted("deadline"), aborted,
                             2.0, 0);
        stats.RecordUpdateSubmitted();
        commit.version = t * kPerThread + i + 1;
        stats.RecordUpdateFinished(Status(), commit);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true);
  reader.join();

  constexpr uint64_t kEach = kThreads * kPerThread;
  ServiceStatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.submitted, kEach);
  EXPECT_EQ(s.completed, kEach);
  EXPECT_EQ(s.aborted_deadline, kEach);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.deduped, kEach / 2);
  EXPECT_EQ(s.rows_returned, 3 * kEach);
  EXPECT_EQ(s.morsels, 2 * kEach);
  EXPECT_EQ(s.latency_samples, 2 * kEach);
  EXPECT_EQ(s.updates_submitted, kEach);
  EXPECT_EQ(s.updates_committed, kEach);
  EXPECT_EQ(s.triples_inserted, kEach);
  EXPECT_EQ(s.store_version, kEach);
}

// A ~0 threshold makes every query slow: the counter matches the workload
// and sampling (every Nth) only limits the log, never the count.
TEST(SlowQueryTest, ThresholdCountsEveryFinishedQuery) {
  Database db;
  Term p = Term::Iri("http://ex.org/p");
  db.AddTriple(Term::Iri("http://ex.org/s"), p, Term::Iri("http://ex.org/o"));
  db.Finalize(EngineKind::kWco);

  QueryService::Options options;
  options.num_threads = 2;
  options.slow_query_ms = 1e-9;
  options.slow_query_sample = 100;  // Log almost nothing; count everything.
  QueryService service(db, options);

  const std::string q = "SELECT ?s WHERE { ?s <http://ex.org/p> ?o }";
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 7; ++i) batch.push_back({.text = q});
  auto responses = service.RunBatch(std::move(batch));
  for (const auto& r : responses) ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(service.Stats().slow_queries, 7u);
}

TEST(SlowQueryTest, ZeroThresholdDisablesCounting) {
  Database db;
  Term p = Term::Iri("http://ex.org/p");
  db.AddTriple(Term::Iri("http://ex.org/s"), p, Term::Iri("http://ex.org/o"));
  db.Finalize(EngineKind::kWco);

  QueryService service(db, {.num_threads = 2});
  auto r = service.Submit({.text = "SELECT ?s WHERE { ?s ?p ?o }"}).get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(service.Stats().slow_queries, 0u);
}

}  // namespace
}  // namespace sparqluo
