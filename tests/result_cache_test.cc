// Result cache, in-flight dedup and cache/pin lifecycle tests
// (src/server/result_cache.h, src/server/query_service.h):
//
//   - ResultCache unit behavior: byte-budgeted LRU, oversize rejection,
//     version-scoped EvictUnreachable, zero-budget no-op,
//   - byte-identity of cached responses against cold execution across
//     engines (WCO, hash-join, adaptive), parallelism 1 and 8, and the
//     JSON/TSV wire serializations,
//   - in-flight dedup: followers share a leader's rows, a follower's
//     deadline never cancels the leader, and a failed leader makes
//     followers execute for themselves (errors are never shared or
//     cached),
//   - the pin lifecycle: entries for a version pinned by in-flight
//     requests survive commits until the last pin releases, and the
//     distinct-version pin gauge vs the total-request pin gauge,
//   - the commit-time invalidation hook runs with the plan cache
//     disabled (regression: it used to be gated on enable_plan_cache),
//   - the adaptive engine records per-BGP choices in counters and trace
//     spans.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/result_writer.h"
#include "obs/metrics.h"
#include "server/plan_cache.h"
#include "server/query_service.h"
#include "server/result_cache.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

/// Exact (bitwise) equality: same schema, same rows in the same order.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

/// A knows-chain: its all-pairs closure ?x knows+ ?y yields ~n^2/2 rows,
/// slow enough (hundreds of ms) that followers reliably register against
/// the leader, but bounded — it completes with an OK status.
std::string ChainNTriples(int n) {
  std::string nt;
  for (int i = 0; i < n; ++i)
    nt += "<http://ex.org/n" + std::to_string(i) + "> <http://ex.org/knows> " +
          "<http://ex.org/n" + std::to_string(i + 1) + "> .\n";
  return nt;
}

const char* kClosureQuery =
    "SELECT ?x ?y WHERE { ?x <http://ex.org/knows>+ ?y }";

/// Cross product over a LUBM store: effectively unbounded, used as a
/// blocker that holds its pinned version until explicitly cancelled.
const char* kBlockerQuery = "SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }";

std::shared_ptr<const CachedResult> MakeResult(size_t rows, size_t width) {
  auto result = std::make_shared<CachedResult>();
  std::vector<VarId> schema;
  for (size_t c = 0; c < width; ++c) schema.push_back(static_cast<VarId>(c));
  result->rows = BindingSet(std::move(schema));
  std::vector<TermId> row(width, TermId{1});
  for (size_t r = 0; r < rows; ++r) result->rows.AppendRow(row);
  return result;
}

// --- ResultCache unit behavior ------------------------------------------

TEST(ResultCacheTest, HitReturnsSharedResultMissReturnsNull) {
  ResultCache cache(/*byte_budget=*/1 << 20, /*shards=*/1);
  auto result = MakeResult(10, 2);
  cache.Put("k", result, /*version=*/0);
  EXPECT_EQ(cache.Get("absent"), nullptr);
  auto hit = cache.Get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), result.get());  // shared, not copied
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.cost, 0u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  auto result = MakeResult(10, 2);
  const size_t entry = ResultCache::EntryBytes("a", *result);
  // Room for two entries but not three.
  const size_t budget = 2 * entry + entry / 2;
  ResultCache cache(budget, /*shards=*/1);
  cache.Put("a", result, 0);
  cache.Put("b", result, 0);
  EXPECT_NE(cache.Get("a"), nullptr);  // touch a; b is now LRU
  cache.Put("c", result, 0);           // evicts b
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.cost, budget);
}

TEST(ResultCacheTest, OversizeResultIsNeverCached) {
  auto small = MakeResult(2, 2);
  auto big = MakeResult(100000, 4);
  ResultCache cache(ResultCache::EntryBytes("s", *small) * 3, /*shards=*/1);
  cache.Put("s", small, 0);
  cache.Put("big", big, 0);  // larger than the whole shard budget
  EXPECT_EQ(cache.Get("big"), nullptr);
  // The oversize insert must not have evicted the resident small entry.
  EXPECT_NE(cache.Get("s"), nullptr);
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, ZeroBudgetDisablesInsertion) {
  ResultCache cache(/*byte_budget=*/0, /*shards=*/4);
  cache.Put("k", MakeResult(1, 1), 0);
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, EvictUnreachableIsVersionScoped) {
  ResultCache cache(/*byte_budget=*/1 << 20, /*shards=*/2);
  auto result = MakeResult(4, 1);
  cache.Put("q1@v0", result, 0);
  cache.Put("q2@v0", result, 0);
  cache.Put("q1@v1", result, 1);
  cache.Put("q1@v2", result, 2);

  // Current v2 with a reader pinned to v1: only the v0 entries go.
  cache.EvictUnreachable(2, {1});
  EXPECT_EQ(cache.Get("q1@v0"), nullptr);
  EXPECT_EQ(cache.Get("q2@v0"), nullptr);
  EXPECT_NE(cache.Get("q1@v1"), nullptr);
  EXPECT_NE(cache.Get("q1@v2"), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 2u);

  // The v1 pin released: the v1 entry is unreachable at the next sweep.
  cache.EvictUnreachable(2, {});
  EXPECT_EQ(cache.Get("q1@v1"), nullptr);
  EXPECT_NE(cache.Get("q1@v2"), nullptr);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

// Same-key Put, the path concurrent executors race on: the newest value
// replaces the entry in place and the shard is charged its cost only.
TEST(ResultCacheTest, SameKeyPutReplacesAndRecharges) {
  ResultCache cache(/*byte_budget=*/1 << 20, /*shards=*/1);
  auto r1 = MakeResult(2, 1);
  auto r2 = MakeResult(50, 3);
  cache.Put("k", r1, 0);
  cache.Put("k", r2, 0);
  auto hit = cache.Get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), r2.get());
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.cost, ResultCache::EntryBytes("k", *r2));
  EXPECT_EQ(stats.evictions, 0u);
}

// --- Byte-identity of cached responses ----------------------------------

class ResultCacheServiceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    LubmConfig cfg;
    cfg.universities = 1;
    GenerateLubm(cfg, &db_);
    db_.Finalize(GetParam());
  }

  Database db_;
};

INSTANTIATE_TEST_SUITE_P(Engines, ResultCacheServiceTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

// A result-cache hit returns the exact bytes a cold execution produced:
// same BindingSet bit for bit and same JSON/TSV serializations, at
// sequential and 8-way intra-query parallelism.
TEST_P(ResultCacheServiceTest, CachedRepeatIsByteIdenticalToColdRun) {
  const auto& workload = LubmPaperQueries();
  for (size_t parallelism : {size_t{1}, size_t{8}}) {
    QueryService::Options sopts;
    sopts.num_threads = 2;
    sopts.intra_query_parallelism = parallelism;
    QueryService service(static_cast<const Database&>(db_), sopts);

    for (const PaperQuery& q : workload) {
      QueryRequest cold_req;
      cold_req.text = q.sparql;
      QueryResponse cold = service.Submit(std::move(cold_req)).get();
      if (!cold.status.ok()) continue;  // row-limit-guarded heavy queries
      EXPECT_FALSE(cold.result_cache_hit);

      QueryRequest warm_req;
      warm_req.text = q.sparql;
      QueryResponse warm = service.Submit(std::move(warm_req)).get();
      ASSERT_TRUE(warm.status.ok()) << q.id << ": " << warm.status.ToString();
      EXPECT_TRUE(warm.result_cache_hit) << q.id;
      EXPECT_TRUE(BitIdentical(warm.rows, cold.rows)) << q.id;
      ASSERT_NE(warm.plan, nullptr);
      ASSERT_NE(cold.plan, nullptr);
      // The wire bytes must match too, in both formats.
      EXPECT_EQ(FormatResults(warm.rows, warm.plan->query.vars, db_.dict(),
                              ResultFormat::kJson),
                FormatResults(cold.rows, cold.plan->query.vars, db_.dict(),
                              ResultFormat::kJson))
          << q.id;
      EXPECT_EQ(FormatResults(warm.rows, warm.plan->query.vars, db_.dict(),
                              ResultFormat::kTsv),
                FormatResults(cold.rows, cold.plan->query.vars, db_.dict(),
                              ResultFormat::kTsv))
          << q.id;
      // A result-cache hit does no engine work (metrics stay zero).
      EXPECT_EQ(warm.metrics.exec_ms, 0.0) << q.id;
      EXPECT_EQ(warm.metrics.result_rows, 0u) << q.id;
    }
    EXPECT_GT(service.ResultCacheStats().hits, 0u);
  }
}

// --- In-flight dedup -----------------------------------------------------

class DedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadNTriplesString(ChainNTriples(3000)).ok());
    db_.Finalize(EngineKind::kWco);
  }

  /// Spins until the service has started executing `n` cold queries
  /// (observable as plan-cache misses: recorded before execution starts).
  static void WaitForMisses(const QueryService& service, uint64_t n) {
    while (service.CacheStats().misses < n)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Database db_;
};

// Followers submitted while an identical query is executing wait for the
// leader and share its rows: one execution, K+1 identical responses.
TEST_F(DedupTest, FollowersShareLeaderRows) {
  QueryService::Options sopts;
  sopts.num_threads = 4;
  QueryService service(static_cast<const Database&>(db_), sopts);

  QueryRequest leader_req;
  leader_req.text = kClosureQuery;
  auto leader_future = service.Submit(std::move(leader_req));
  WaitForMisses(service, 1);  // leader is past the caches and executing

  constexpr int kFollowers = 3;
  std::vector<std::future<QueryResponse>> followers;
  for (int i = 0; i < kFollowers; ++i) {
    QueryRequest req;
    req.text = kClosureQuery;
    followers.push_back(service.Submit(std::move(req)));
  }

  QueryResponse leader = leader_future.get();
  ASSERT_TRUE(leader.status.ok()) << leader.status.ToString();
  EXPECT_FALSE(leader.deduped);
  EXPECT_GT(leader.rows.size(), 1000000u);

  for (auto& f : followers) {
    QueryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.deduped) << "follower executed instead of joining leader";
    EXPECT_TRUE(BitIdentical(r.rows, leader.rows));
    // Dedup does no engine work on the follower (metrics stay zero).
    EXPECT_EQ(r.metrics.exec_ms, 0.0);
  }
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.dedup_followers, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(stats.deduped, static_cast<uint64_t>(kFollowers));
  // Exactly one execution: every response beyond the leader's was shared.
  EXPECT_EQ(service.CacheStats().misses, 1u);
}

// A follower's own deadline aborts only its wait: the leader keeps
// running, and the follower's abort is reported exactly like any other
// deadline abort (408 over HTTP).
TEST_F(DedupTest, FollowerDeadlineDoesNotCancelLeader) {
  Database lubm;
  LubmConfig cfg;
  cfg.universities = 1;
  GenerateLubm(cfg, &lubm);
  lubm.Finalize(EngineKind::kWco);

  QueryService::Options sopts;
  sopts.num_threads = 4;
  QueryService service(static_cast<const Database&>(lubm), sopts);

  auto token = std::make_shared<CancelToken>();
  QueryRequest leader_req;
  leader_req.text = kBlockerQuery;
  leader_req.cancel = token;
  auto leader_future = service.Submit(std::move(leader_req));
  WaitForMisses(service, 1);

  QueryRequest follower_req;
  follower_req.text = kBlockerQuery;
  follower_req.deadline = std::chrono::milliseconds(20);
  QueryResponse follower = service.Submit(std::move(follower_req)).get();
  ASSERT_FALSE(follower.status.ok());
  EXPECT_EQ(follower.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(follower.metrics.aborted);
  EXPECT_EQ(follower.metrics.abort_reason, AbortReason::kDeadline);
  EXPECT_FALSE(follower.deduped);

  // The leader must still be running: the follower's deadline expired,
  // the leader's (absent) one did not.
  EXPECT_EQ(leader_future.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout)
      << "follower deadline cancelled the leader";

  token->RequestCancel();
  QueryResponse leader = leader_future.get();
  ASSERT_FALSE(leader.status.ok());
  EXPECT_EQ(leader.metrics.abort_reason, AbortReason::kCancelled);
  // Nothing was cached: neither the follower's abort nor the leader's.
  EXPECT_EQ(service.ResultCacheStats().entries, 0u);
}

// A failed leader never poisons followers: they fall through and execute
// for themselves, and no error is ever cached.
TEST_F(DedupTest, FailedLeaderMakesFollowersExecuteThemselves) {
  QueryService::Options sopts;
  sopts.num_threads = 4;
  QueryService service(static_cast<const Database&>(db_), sopts);

  // Cold reference for the follower's self-executed rows.
  BindingSet expected;
  {
    auto r = db_.Query(kClosureQuery, ExecOptions::Full());
    ASSERT_TRUE(r.ok());
    expected = std::move(*r);
  }
  auto token = std::make_shared<CancelToken>();
  QueryRequest leader_req;
  leader_req.text = kClosureQuery;
  leader_req.cancel = token;
  auto leader_future = service.Submit(std::move(leader_req));
  WaitForMisses(service, 1);

  QueryRequest follower_req;
  follower_req.text = kClosureQuery;
  auto follower_future = service.Submit(std::move(follower_req));
  // Only cancel the leader once the follower is provably waiting on it.
  while (service.Stats().dedup_followers < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  token->RequestCancel();

  QueryResponse leader = leader_future.get();
  ASSERT_FALSE(leader.status.ok());
  EXPECT_EQ(leader.metrics.abort_reason, AbortReason::kCancelled);

  QueryResponse follower = follower_future.get();
  ASSERT_TRUE(follower.status.ok())
      << "failed leader poisoned its follower: "
      << follower.status.ToString();
  EXPECT_FALSE(follower.deduped);
  EXPECT_TRUE(BitIdentical(follower.rows, expected));

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.dedup_followers, 1u);
  EXPECT_EQ(stats.deduped, 0u);
  EXPECT_EQ(stats.aborted_cancelled, 1u);
  // Two executions happened: the aborted leader (a plan-cache miss) and
  // the follower retry, which reused the plan the leader built (a hit)
  // but had to run the engines itself.
  EXPECT_EQ(service.CacheStats().misses, 1u);
  EXPECT_EQ(service.CacheStats().hits, 1u);
}

// --- Pin lifecycle and commit-time invalidation --------------------------

// Two in-flight requests pinning one version count as one distinct pinned
// version (the gauge regression) and keep that version's plan- and
// result-cache entries alive across commits until the LAST pin releases.
TEST(CachePinLifecycleTest, EntriesSurviveUntilLastPinReleases) {
  Database db;
  LubmConfig cfg;
  cfg.universities = 1;
  GenerateLubm(cfg, &db);
  db.Finalize(EngineKind::kWco);

  QueryService::Options options;
  options.num_threads = 4;
  QueryService service(db, options);
  Gauge* pinned_versions =
      MetricRegistry::Global().GetGauge("sparqluo_pinned_versions");
  Gauge* pinned_requests =
      MetricRegistry::Global().GetGauge("sparqluo_pinned_requests");

  // Prime both caches at v0 with a cheap query.
  const std::string q = "SELECT ?x WHERE { ?x ?p ?o } LIMIT 5";
  QueryRequest prime;
  prime.text = q;
  ASSERT_TRUE(service.Submit(std::move(prime)).get().status.ok());
  ASSERT_EQ(service.ResultCacheStats().entries, 1u);
  ASSERT_GE(service.CacheStats().entries, 1u);

  // Two blockers pin v0. Both executing == both pinned.
  auto t1 = std::make_shared<CancelToken>();
  auto t2 = std::make_shared<CancelToken>();
  QueryRequest b1, b2;
  b1.text = kBlockerQuery;
  b1.cancel = t1;
  // A distinct text for the second blocker so it is a leader, not a
  // dedup follower (followers do not appear in the in-flight pin set
  // any differently, but two executions make the gauge check stronger).
  b2.text = "SELECT * WHERE { ?c ?q ?d . ?a ?p ?b . }";
  b2.cancel = t2;
  auto f1 = service.Submit(std::move(b1));
  auto f2 = service.Submit(std::move(b2));
  while (service.CacheStats().misses < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Both requests pin the same version: one distinct version, two pins.
  EXPECT_EQ(pinned_versions->value(), 1);
  EXPECT_EQ(pinned_requests->value(), 2);

  auto commit = [&service](int i) {
    UpdateRequest u;
    u.text = "INSERT DATA { <http://ex.org/c" + std::to_string(i) +
             "> <http://ex.org/p> <http://ex.org/o> }";
    return service.SubmitUpdate(std::move(u)).get();
  };

  // Commit v1: v0 is pinned by both blockers, its entries survive.
  ASSERT_TRUE(commit(1).status.ok());
  EXPECT_EQ(service.ResultCacheStats().entries, 1u);

  // First pin releases; the second still protects v0 across a commit.
  t1->RequestCancel();
  f1.get();
  ASSERT_TRUE(commit(2).status.ok());
  EXPECT_EQ(service.ResultCacheStats().entries, 1u);
  EXPECT_EQ(pinned_versions->value(), 1);
  EXPECT_EQ(pinned_requests->value(), 1);

  // Last pin releases: the next commit's sweep reclaims the v0 entries.
  t2->RequestCancel();
  f2.get();
  EXPECT_EQ(pinned_versions->value(), 0);
  EXPECT_EQ(pinned_requests->value(), 0);
  ASSERT_TRUE(commit(3).status.ok());
  EXPECT_EQ(service.ResultCacheStats().entries, 0u);
  EXPECT_EQ(service.CacheStats().entries, 0u);

  // And the repeat query now executes against the new version — never a
  // stale cached answer.
  QueryRequest again;
  again.text = q;
  QueryResponse r = service.Submit(std::move(again)).get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.result_cache_hit);
  EXPECT_EQ(r.version, 3u);
}

// Regression: commit-time invalidation used to be gated on
// enable_plan_cache, so a service running with the plan cache disabled
// never swept the result cache. The sweep must run unconditionally.
TEST(CachePinLifecycleTest, InvalidationRunsWithPlanCacheDisabled) {
  Database db;
  db.AddTriple(Term::Iri("http://ex.org/s"), Term::Iri("http://ex.org/p"),
               Term::Iri("http://ex.org/o"));
  db.Finalize(EngineKind::kWco);

  QueryService::Options options;
  options.num_threads = 2;
  options.enable_plan_cache = false;
  QueryService service(db, options);

  const std::string q = "SELECT ?s WHERE { ?s <http://ex.org/p> ?o }";
  QueryRequest prime;
  prime.text = q;
  QueryResponse r0 = service.Submit(std::move(prime)).get();
  ASSERT_TRUE(r0.status.ok());
  EXPECT_EQ(r0.rows.size(), 1u);
  ASSERT_EQ(service.ResultCacheStats().entries, 1u);

  UpdateRequest u;
  u.text =
      "INSERT DATA { <http://ex.org/s2> <http://ex.org/p> "
      "<http://ex.org/o2> }";
  ASSERT_TRUE(service.SubmitUpdate(std::move(u)).get().status.ok());

  ResultCache::Stats after = service.ResultCacheStats();
  EXPECT_EQ(after.entries, 0u)
      << "plan cache disabled: commit did not sweep the result cache";
  EXPECT_EQ(after.evictions, 1u);

  // The repeat re-executes at v1 and sees the inserted triple.
  QueryRequest again;
  again.text = q;
  QueryResponse r1 = service.Submit(std::move(again)).get();
  ASSERT_TRUE(r1.status.ok());
  EXPECT_FALSE(r1.result_cache_hit);
  EXPECT_EQ(r1.version, 1u);
  EXPECT_EQ(r1.rows.size(), 2u);
}

// The invalidation hook is a store commit listener: it fires even for
// commits that bypass this service entirely (Database::Apply directly).
TEST(CachePinLifecycleTest, DirectDatabaseCommitSweepsServiceCaches) {
  Database db;
  db.AddTriple(Term::Iri("http://ex.org/s"), Term::Iri("http://ex.org/p"),
               Term::Iri("http://ex.org/o"));
  db.Finalize(EngineKind::kWco);

  QueryService::Options options;
  options.num_threads = 2;
  QueryService service(db, options);

  QueryRequest prime;
  prime.text = "SELECT ?s WHERE { ?s <http://ex.org/p> ?o }";
  ASSERT_TRUE(service.Submit(std::move(prime)).get().status.ok());
  ASSERT_EQ(service.ResultCacheStats().entries, 1u);
  ASSERT_GE(service.CacheStats().entries, 1u);

  UpdateBatch batch;
  batch.Insert(Term::Iri("http://ex.org/s3"), Term::Iri("http://ex.org/p"),
               Term::Iri("http://ex.org/o3"));
  auto stats = db.Apply(batch);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(service.ResultCacheStats().entries, 0u)
      << "direct Database::Apply commit did not reach the service's sweep";
  EXPECT_EQ(service.CacheStats().entries, 0u);
}

// Disabled result cache: repeats re-execute and no entries ever appear.
TEST(CachePinLifecycleTest, DisabledResultCacheNeverServesRepeats) {
  Database db;
  db.AddTriple(Term::Iri("http://ex.org/s"), Term::Iri("http://ex.org/p"),
               Term::Iri("http://ex.org/o"));
  db.Finalize(EngineKind::kWco);

  QueryService::Options options;
  options.num_threads = 1;
  options.result_cache_bytes = 0;
  QueryService service(static_cast<const Database&>(db), options);

  QueryRequest a, b;
  a.text = b.text = "SELECT ?s WHERE { ?s <http://ex.org/p> ?o }";
  QueryResponse ra = service.Submit(std::move(a)).get();
  QueryResponse rb = service.Submit(std::move(b)).get();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_FALSE(rb.result_cache_hit);
  EXPECT_TRUE(BitIdentical(ra.rows, rb.rows));
  ResultCache::Stats stats = service.ResultCacheStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

}  // namespace
}  // namespace sparqluo
