// Morsel-driven intra-query parallelism: bit-identical results, abort
// behavior, the ExecutorPool primitive, and the deterministic sharded Join.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "algebra/operators.h"
#include "engine/database.h"
#include "server/query_service.h"
#include "sparql/parser.h"
#include "util/executor_pool.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

constexpr size_t kRowLimit = 2000000;

/// Exact (bitwise) equality: same schema, same rows in the same order.
/// Stronger than BagEquals on purpose — parallel evaluation must not
/// perturb results at all relative to the sequential path.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

// --- ExecutorPool unit tests --------------------------------------------

TEST(ExecutorPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ExecutorPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), 0, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecutorPoolTest, ParallelForRunsSequentiallyWithOneWorker) {
  ExecutorPool pool(2);
  std::vector<size_t> order;
  pool.ParallelFor(16, 1, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // max_workers=1: caller runs all, in order
}

TEST(ExecutorPoolTest, ParallelForPropagatesFirstException) {
  ExecutorPool pool(2);
  struct Boom {};
  EXPECT_THROW(pool.ParallelFor(64, 0,
                                [&](size_t i) {
                                  if (i % 7 == 0) throw Boom{};
                                }),
               Boom);
}

TEST(ExecutorPoolTest, ParallelForMakesProgressOnSaturatedPool) {
  // Block every pool worker; ParallelFor must still complete because the
  // calling thread drains the morsel counter itself.
  ExecutorPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i)
    pool.Submit([&] {
      while (!release.load()) std::this_thread::yield();
    });
  std::atomic<int> done{0};
  pool.ParallelFor(32, 0, [&](size_t) { ++done; });
  EXPECT_EQ(done.load(), 32);
  release.store(true);
}

TEST(ExecutorPoolTest, SubmitAfterShutdownRunsInline) {
  ExecutorPool pool(1);
  pool.Shutdown();
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ExecutorPoolTest, MorselCountMath) {
  ParallelSpec spec;
  spec.morsel_size = 100;
  EXPECT_EQ(spec.MorselCount(0), 0u);
  EXPECT_EQ(spec.MorselCount(1), 1u);
  EXPECT_EQ(spec.MorselCount(100), 1u);
  EXPECT_EQ(spec.MorselCount(101), 2u);
  EXPECT_EQ(spec.MorselCount(1000), 10u);
}

// --- Sharded Join determinism --------------------------------------------

class ShardedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override { pool_ = std::make_unique<ExecutorPool>(3); }

  ParallelSpec Spec(size_t morsel_size) {
    ParallelSpec spec;
    spec.pool = pool_.get();
    spec.parallelism = 4;
    spec.morsel_size = morsel_size;
    return spec;
  }

  std::unique_ptr<ExecutorPool> pool_;
};

TEST_F(ShardedJoinTest, MatchesJoinOnSharedVariable) {
  BindingSet a({1, 2}), b({2, 3});
  for (TermId i = 1; i <= 200; ++i) a.AppendRow({i, i % 10});
  for (TermId i = 1; i <= 150; ++i) b.AppendRow({i % 10, i});
  uint64_t morsels = 0;
  BindingSet par = Join(a, b, nullptr, Spec(16), &morsels);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
  EXPECT_GT(morsels, 1u);
}

// Fan-out is allowed (a + b exceeds a morsel), but the streamed side fits
// one morsel, so the probe runs inline on the caller: no morsel is issued.
TEST_F(ShardedJoinTest, OneMorselProbeCountsNoMorsels) {
  BindingSet a({1, 2}), b({2, 3});
  for (TermId i = 1; i <= 600; ++i) a.AppendRow({i, i % 50});
  for (TermId i = 1; i <= 600; ++i) b.AppendRow({i % 50, i});
  uint64_t morsels = 0;
  BindingSet par = Join(a, b, nullptr, Spec(1024), &morsels);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
  EXPECT_EQ(morsels, 0u);
}

TEST_F(ShardedJoinTest, MatchesJoinOnCrossProduct) {
  BindingSet a({1}), b({2});
  for (TermId i = 1; i <= 40; ++i) a.AppendRow({i});
  for (TermId i = 1; i <= 30; ++i) b.AppendRow({i});
  BindingSet par = Join(a, b, nullptr, Spec(8), nullptr);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
}

TEST_F(ShardedJoinTest, MatchesJoinWithUnboundBuildRows) {
  // Unbound join-key cells on the build side force the single-shard
  // fallback (partial rows are emitted after bucket matches); the result
  // must still be bit-identical to the sequential join.
  BindingSet a({1, 2}), b({2, 3});
  for (TermId i = 1; i <= 30; ++i)
    a.AppendRow({i, i % 3 == 0 ? kUnboundTerm : i % 5});
  for (TermId i = 1; i <= 90; ++i) b.AppendRow({i % 5, i});
  BindingSet par = Join(a, b, nullptr, Spec(8), nullptr);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
}

TEST_F(ShardedJoinTest, MatchesJoinOnMultiVariableKey) {
  BindingSet a({1, 2, 3}), b({2, 3, 4});
  for (TermId i = 1; i <= 120; ++i) a.AppendRow({i, i % 4, i % 6});
  for (TermId i = 1; i <= 80; ++i) b.AppendRow({i % 4, i % 6, i});
  BindingSet par = Join(a, b, nullptr, Spec(16), nullptr);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
}

// --- Engine-level morsel execution --------------------------------------

class ParallelEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    LubmConfig cfg;
    cfg.universities = 2;
    GenerateLubm(cfg, &db_);
    db_.Finalize(GetParam());
    pool_ = std::make_unique<ExecutorPool>(7);
  }

  ExecOptions Sequential() {
    ExecOptions o = ExecOptions::Full();
    o.max_intermediate_rows = kRowLimit;
    return o;
  }

  /// Full mode with the given parallelism and a small morsel size, so even
  /// the modest test dataset splits into many morsels.
  ExecOptions Parallel(size_t parallelism, size_t morsel_size = 64) {
    ExecOptions o = Sequential();
    o.parallel.parallelism = parallelism;
    o.parallel.morsel_size = morsel_size;
    o.parallel.pool = pool_.get();
    return o;
  }

  Database db_;
  std::unique_ptr<ExecutorPool> pool_;
};

INSTANTIATE_TEST_SUITE_P(Engines, ParallelEngineTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

// Morsel execution is bit-identical to sequential execution on the whole
// paper workload, across parallelism degrees.
TEST_P(ParallelEngineTest, BitIdenticalToSequentialOnPaperWorkload) {
  const auto& workload = LubmPaperQueries();
  uint64_t total_morsels = 0;
  for (const PaperQuery& q : workload) {
    auto seq = db_.Query(q.sparql, Sequential());
    for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      ExecMetrics metrics;
      auto par = db_.Query(q.sparql, Parallel(parallelism), &metrics);
      ASSERT_EQ(par.ok(), seq.ok()) << q.id << " @ parallelism " << parallelism;
      if (!seq.ok()) continue;
      EXPECT_TRUE(BitIdentical(*par, *seq))
          << q.id << " diverges at parallelism " << parallelism;
      if (parallelism > 1) {
        total_morsels += metrics.bgp.morsels;
      } else {
        EXPECT_EQ(metrics.bgp.morsels, 0u);  // parallelism 1 stays sequential
      }
    }
  }
  // A query whose seed fan-out fits one morsel legitimately completes
  // sequentially, but across the whole workload the morsel path must fire.
  EXPECT_GT(total_morsels, 0u);
}

// LUBM q2.1-q2.3 are the paper queries whose plans postpone OPTIONALs past
// their sibling joins. The postponed bodies are pruned by the joined rows,
// and every parallelism degree still reproduces sequential evaluation bit
// for bit, down to one-row morsels.
TEST_P(ParallelEngineTest, PostponedOptionalPlansBitIdenticalToSequential) {
  for (const char* id : {"q2.1", "q2.2", "q2.3"}) {
    const PaperQuery* q = FindQuery(LubmPaperQueries(), id);
    ASSERT_NE(q, nullptr) << id;
    ExecMetrics seq_metrics;
    auto seq = db_.Query(q->sparql, Sequential(), &seq_metrics);
    ASSERT_TRUE(seq.ok()) << id << ": " << seq.status().ToString();
    EXPECT_GT(seq_metrics.optionals_postponed, 0u) << id;
    EXPECT_FALSE(seq->empty()) << id;
    for (size_t parallelism : {size_t{2}, size_t{8}}) {
      for (size_t morsel_size : {size_t{1}, size_t{64}}) {
        auto par = db_.Query(q->sparql, Parallel(parallelism, morsel_size));
        ASSERT_TRUE(par.ok()) << id;
        EXPECT_TRUE(BitIdentical(*par, *seq))
            << id << " diverges at parallelism " << parallelism
            << ", morsel size " << morsel_size;
      }
    }
  }
}

// Candidate-seeded extension: a candidate set smaller than the edge seeds
// its variable from the candidates instead of the edge's projection. The
// rows equal unpruned evaluation filtered by the candidates, and every
// parallelism degree reproduces them bit for bit. WCO probes each
// candidate once instead of extending every projected value, so it issues
// fewer index probes than the edge has distinct values, and it counts the
// projection values it skipped as pruned. Hash join scans each pattern
// once either way.
TEST_P(ParallelEngineTest, CandidateSeededEvaluationMatchesFilteredUnpruned) {
  const std::string ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
  VarTable vars;
  auto g = ParseGroupGraphPattern("{ ?x <" + ub + "worksFor> ?d . ?x <" + ub +
                                      "name> ?n . }",
                                  &vars);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  Bgp bgp;
  for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
  const VarId d = vars.Lookup("d");

  CandidateMap cands;
  CandidateMap::Set depts;
  for (const char* iri : {"http://www.Department0.University0.edu",
                          "http://www.Department2.University1.edu",
                          "http://www.Department1.University0.edu"}) {
    TermId id = db_.dict().Lookup(Term::Iri(iri));
    ASSERT_NE(id, kInvalidTermId) << iri;
    depts.push_back(id);
  }
  cands.Set_(d, depts);

  const BgpEngine& engine = db_.engine();
  BgpEvalCounters unseeded, seeded;
  BindingSet all = engine.Evaluate(bgp, nullptr, &unseeded);
  BindingSet got = engine.Evaluate(bgp, &cands, &seeded);

  BindingSet expected(all.schema());
  for (size_t r = 0; r < all.size(); ++r)
    if (CandidateMap::Contains(*cands.Get(d), all.Value(r, d)))
      expected.AppendRow(std::vector<TermId>(all.Row(r), all.Row(r) + all.width()));
  ASSERT_GT(expected.size(), 0u);
  EXPECT_TRUE(BagEquals(expected, got));
  EXPECT_GT(seeded.candidates_pruned, 0u);
  if (GetParam() == EngineKind::kWco) {
    const PredicateStats& works_for = db_.stats().ForPredicate(
        db_.dict().Lookup(Term::Iri(ub + "worksFor")));
    EXPECT_LT(seeded.index_probes, unseeded.index_probes);
    EXPECT_LT(seeded.index_probes, works_for.distinct_subjects);
    EXPECT_EQ(seeded.candidates_pruned,
              works_for.distinct_objects - depts.size());
  } else {
    EXPECT_LE(seeded.index_probes, unseeded.index_probes);
  }

  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
    ParallelSpec spec;
    spec.pool = pool_.get();
    spec.parallelism = parallelism;
    spec.morsel_size = 4;
    BindingSet par = engine.Evaluate(bgp, &cands, nullptr, nullptr, spec);
    EXPECT_TRUE(BitIdentical(par, got)) << "parallelism " << parallelism;
  }
}

// Single-pattern BGPs: WCO copies the pattern's index range (or probes the
// candidates when a candidate set seeds the first variable) on both the
// sequential and the parallel entry point. Every parallelism degree and
// morsel size reproduces sequential evaluation bit for bit, on both
// engines.
TEST_P(ParallelEngineTest, SinglePatternBgpsBitIdenticalToSequential) {
  const std::string ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
  const std::string dept = "<http://www.Department0.University0.edu>";
  VarTable vars;
  auto parse = [&](const std::string& body) {
    auto g = ParseGroupGraphPattern("{" + body + "}", &vars);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    Bgp bgp;
    for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
    return bgp;
  };
  const std::vector<Bgp> bgps = {
      parse("?x <" + ub + "emailAddress> ?e ."),
      parse("?x <" + ub + "worksFor> " + dept + " ."),
      parse(dept + " <" + ub + "subOrganizationOf> ?u ."),
      parse("?x <" + ub + "subOrganizationOf> ?x ."),
  };
  const VarId x = vars.Lookup("x"), e = vars.Lookup("e"), u = vars.Lookup("u");

  // Candidate cases: none; a few subjects (seeds x); every subject with a
  // name except some (larger than most ranges: filters while copying).
  CandidateMap::Set few, many;
  const TermId name = db_.dict().Lookup(Term::Iri(ub + "name"));
  const TermId works_for = db_.dict().Lookup(Term::Iri(ub + "worksFor"));
  TriplePatternIds wq;
  wq.p = works_for;
  db_.store().Scan(wq, [&](const Triple& t) {
    if (few.size() < 5 && t.s % 3 == 0 &&
        std::find(few.begin(), few.end(), t.s) == few.end())
      few.push_back(t.s);
    return true;
  });
  TriplePatternIds nq;
  nq.p = name;
  db_.store().Scan(nq, [&](const Triple& t) {
    if (t.s % 7 != 0) many.push_back(t.s);  // Set_ deduplicates
    return true;
  });
  ASSERT_EQ(few.size(), 5u);
  std::vector<CandidateMap> cases(3);
  cases[1].Set_(x, few);
  cases[2].Set_(x, many);
  cases[2].Set_(e, CandidateMap::Set{});  // no email survives
  CandidateMap on_u;
  on_u.Set_(u, CandidateMap::Set{db_.dict().Lookup(
                   Term::Iri("http://www.University0.edu"))});
  cases.push_back(on_u);

  const BgpEngine& engine = db_.engine();
  for (size_t b = 0; b < bgps.size(); ++b) {
    for (size_t c = 0; c < cases.size(); ++c) {
      BgpEvalCounters seq_counters;
      BindingSet seq = engine.Evaluate(bgps[b], &cases[c], &seq_counters);
      if (b == 0 && c == 0) EXPECT_GT(seq.size(), 1000u);
      for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
        for (size_t morsel_size : {size_t{1}, size_t{64}}) {
          ParallelSpec spec;
          spec.pool = pool_.get();
          spec.parallelism = parallelism;
          spec.morsel_size = morsel_size;
          BgpEvalCounters par_counters;
          BindingSet par = engine.Evaluate(bgps[b], &cases[c],
                                           &par_counters, nullptr, spec);
          EXPECT_TRUE(BitIdentical(par, seq))
              << "bgp " << b << ", case " << c << ", parallelism "
              << parallelism << ", morsel size " << morsel_size;
          EXPECT_EQ(par_counters.rows_materialized,
                    seq_counters.rows_materialized);
          EXPECT_EQ(par_counters.candidates_pruned,
                    seq_counters.candidates_pruned);
          if (parallelism == 1) EXPECT_EQ(par_counters.morsels, 0u);
        }
      }
    }
  }
}

// parallelism = 0 means "all pool workers + 1" and stays bit-identical.
TEST_P(ParallelEngineTest, AutoParallelismMatchesSequential) {
  const PaperQuery* q = FindQuery(LubmPaperQueries(), "q1.1");
  ASSERT_NE(q, nullptr);
  auto seq = db_.Query(q->sparql, Sequential());
  ASSERT_TRUE(seq.ok());
  auto par = db_.Query(q->sparql, Parallel(0));
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(BitIdentical(*par, *seq));
}

// A deadline expiring mid-evaluation aborts the parallel path cleanly with
// the same reason the sequential path reports.
TEST_P(ParallelEngineTest, DeadlineAbortsParallelEvaluation) {
  CancelToken token =
      CancelToken::WithTimeout(std::chrono::milliseconds(1));
  ExecOptions o = Parallel(8);
  o.cancel = &token;
  ExecMetrics metrics;
  auto r = db_.Query("SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }", o, &metrics);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(metrics.aborted);
  EXPECT_EQ(metrics.abort_reason, AbortReason::kDeadline);
}

// Explicit cancellation propagates out of morsel workers.
TEST_P(ParallelEngineTest, CancellationAbortsParallelEvaluation) {
  CancelToken token;
  token.RequestCancel();
  ExecOptions o = Parallel(4);
  o.cancel = &token;
  ExecMetrics metrics;
  auto r = db_.Query(LubmPaperQueries()[0].sparql, o, &metrics);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(metrics.aborted);
  EXPECT_EQ(metrics.abort_reason, AbortReason::kCancelled);
}

// --- Service-level pool sharing -----------------------------------------

TEST_P(ParallelEngineTest, ServiceIntraQueryParallelismMatchesSequential) {
  const auto& workload = LubmPaperQueries();
  ExecOptions exec = Sequential();

  std::vector<BindingSet> expected;
  std::vector<bool> expected_ok;
  for (const PaperQuery& q : workload) {
    auto r = db_.Query(q.sparql, exec);
    expected_ok.push_back(r.ok());
    expected.push_back(r.ok() ? std::move(*r) : BindingSet());
  }

  QueryService::Options sopts;
  sopts.num_threads = 4;
  sopts.intra_query_parallelism = 4;
  QueryService service(db_, sopts);

  std::vector<QueryRequest> batch;
  for (const PaperQuery& q : workload) {
    QueryRequest req;
    req.text = q.sparql;
    req.options = exec;
    req.options.parallel.morsel_size = 64;  // force morsels on the test dataset
    batch.push_back(std::move(req));
  }
  std::vector<QueryResponse> responses = service.RunBatch(std::move(batch));

  ASSERT_EQ(responses.size(), workload.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status.ok(), expected_ok[i])
        << workload[i].id << ": " << responses[i].status.ToString();
    if (responses[i].status.ok()) {
      EXPECT_TRUE(BitIdentical(responses[i].rows, expected[i]))
          << workload[i].id << " diverges under service-side parallelism";
    }
  }
  // Morsel activity is aggregated into the service stats.
  EXPECT_GT(service.Stats().morsels, 0u);

  // A request can opt out of the service-wide parallelism and force
  // sequential evaluation.
  QueryRequest seq_req;
  seq_req.text = workload[0].sparql;
  seq_req.options = exec;
  seq_req.inherit_parallelism = false;
  QueryResponse seq_resp = service.Submit(std::move(seq_req)).get();
  ASSERT_TRUE(seq_resp.status.ok()) << seq_resp.status.ToString();
  EXPECT_EQ(seq_resp.metrics.bgp.morsels, 0u);
  if (expected_ok[0])
    EXPECT_TRUE(BitIdentical(seq_resp.rows, expected[0]));
}

TEST_P(ParallelEngineTest, TwoServicesShareOneExecutorPool) {
  auto shared = std::make_shared<ExecutorPool>(3);
  QueryService::Options sopts;
  sopts.pool = shared;
  sopts.intra_query_parallelism = 2;
  QueryService s1(db_, sopts);
  QueryService s2(db_, sopts);
  EXPECT_EQ(s1.pool().get(), shared.get());
  EXPECT_EQ(s2.pool().get(), shared.get());
  EXPECT_EQ(s1.num_threads(), 3u);

  const std::string q = LubmPaperQueries()[0].sparql;
  QueryRequest r1{q, ExecOptions::Full(), {}, nullptr};
  QueryRequest r2{q, ExecOptions::Full(), {}, nullptr};
  QueryResponse a = s1.Submit(std::move(r1)).get();
  QueryResponse b = s2.Submit(std::move(r2)).get();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_TRUE(BitIdentical(a.rows, b.rows));

  s1.Shutdown();  // must not stop the shared pool...
  QueryResponse c = s2.Submit(QueryRequest{q, ExecOptions::Full(), {},
                                           nullptr})
                        .get();
  EXPECT_TRUE(c.status.ok()) << "...which still serves the other service";
}

}  // namespace
}  // namespace sparqluo
