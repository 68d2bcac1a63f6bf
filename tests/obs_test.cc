// Tests for the observability layer (src/obs/): histogram accuracy bounds,
// registry interning + Prometheus rendering, concurrent recording, and
// span-tree invariants on real traced queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/query_service.h"
#include "util/random.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

// ---------------------------------------------------------------------------
// Histogram

/// Exact percentile of a sorted sample vector, nearest-rank style matching
/// Histogram::Quantile's rank definition.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

TEST(HistogramTest, CountAndSum) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.5);
  h.Observe(100.0);
  EXPECT_EQ(h.Count(), 3u);
  // Sum is stored at 2^-10 resolution; 1.0 + 2.5 + 100.0 is exactly
  // representable there.
  EXPECT_DOUBLE_EQ(h.Sum(), 103.5);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Count(), 0u);
}

// The core accuracy contract: for any quantile, the histogram answer is
// within one bucket width of the exact sample percentile. Exercised over
// several orders of magnitude (sub-millisecond to multi-second latencies in
// ms units) with a deterministic generator.
TEST(HistogramTest, QuantileWithinOneBucketOfExact) {
  Random rng(42);
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [0.01, 10000): decade picked uniformly, mantissa
    // uniform within it.
    double decade = static_cast<double>(rng.Uniform(6));  // 0..5
    double mantissa =
        1.0 + 9.0 * static_cast<double>(rng.Uniform(1u << 20)) /
                  static_cast<double>(1u << 20);
    double v = 0.01 * mantissa * std::pow(10.0, decade);
    samples.push_back(v);
    h.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(h.Count(), samples.size());

  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    double exact = ExactQuantile(samples, q);
    double approx = h.Quantile(q);
    double width = Histogram::BucketWidth(exact);
    EXPECT_GE(approx, exact - width) << "q=" << q;
    EXPECT_LE(approx, exact + width) << "q=" << q;
  }
}

// Regression for the old ServiceStats design, which kept at most 2^18 raw
// latency samples and silently stopped updating percentiles after that. The
// histogram must keep moving arbitrarily far past that cap.
TEST(HistogramTest, PercentilesKeepMovingPastOldSampleCap) {
  constexpr size_t kOldCap = size_t{1} << 18;
  Histogram h;
  // Fill well past the old cap with 1.0 ms observations...
  for (size_t i = 0; i < kOldCap + 1000; ++i) h.Observe(1.0);
  double p50_before = h.Quantile(0.5);
  EXPECT_NEAR(p50_before, 1.0, Histogram::BucketWidth(1.0));
  // ...then shift the distribution. A capped sample vector would ignore all
  // of this; the histogram's median must follow the new regime.
  for (size_t i = 0; i < 3 * (kOldCap + 1000); ++i) h.Observe(100.0);
  double p50_after = h.Quantile(0.5);
  EXPECT_NEAR(p50_after, 100.0, Histogram::BucketWidth(100.0));
  EXPECT_EQ(h.Count(), 4 * (kOldCap + 1000));
}

TEST(HistogramTest, ConcurrentObserversLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1.0 + (i % 64));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (const auto& b : h.NonEmptyBuckets()) bucket_total += b.count;
  EXPECT_EQ(bucket_total, h.Count());
}

TEST(HistogramTest, NonEmptyBucketsAreSortedAndCover) {
  Histogram h;
  h.Observe(0.5);
  h.Observe(7.0);
  h.Observe(7.1);
  h.Observe(5000.0);
  auto buckets = h.NonEmptyBuckets();
  ASSERT_GE(buckets.size(), 3u);
  uint64_t total = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    total += buckets[i].count;
    if (i > 0) {
      EXPECT_GT(buckets[i].upper_bound, buckets[i - 1].upper_bound);
    }
  }
  EXPECT_EQ(total, 4u);
}

// ---------------------------------------------------------------------------
// MetricRegistry

TEST(MetricRegistryTest, InterningReturnsStableHandles) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("test_total", "help", "k=\"1\"");
  Counter* b = reg.GetCounter("test_total", "ignored-on-reuse", "k=\"1\"");
  Counter* c = reg.GetCounter("test_total", "help", "k=\"2\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricRegistryTest, ConcurrentIncrementsThroughRegistry) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg] {
      // Re-resolving the handle every iteration also hammers the registry
      // mutex from all threads — interning must stay consistent.
      for (int i = 0; i < kPerThread; ++i)
        reg.GetCounter("concurrent_total")->Increment();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("concurrent_total")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricRegistryTest, PrometheusRenderIsWellFormed) {
  MetricRegistry reg;
  reg.GetCounter("req_total", "Requests served.")->Increment(5);
  reg.GetGauge("depth", "Queue depth.", "shard=\"0\"")->Set(-2);
  Histogram* h = reg.GetHistogram("lat_ms", "Latency.");
  h->Observe(1.0);
  h->Observe(2.0);
  h->Observe(512.0);

  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP req_total Requests served."), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth{shard=\"0\"} -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);

  // Bucket counts must be cumulative and non-decreasing per series.
  std::istringstream in(text);
  std::string line;
  uint64_t prev = 0;
  bool saw_bucket = false;
  while (std::getline(in, line)) {
    if (line.rfind("lat_ms_bucket{", 0) != 0) continue;
    saw_bucket = true;
    uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, prev) << line;
    prev = v;
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_EQ(prev, 3u);  // +Inf bucket equals _count.
}

// ---------------------------------------------------------------------------
// TraceContext

TEST(TraceContextTest, NullContextScopedSpanIsNoOp) {
  ScopedSpan s(nullptr, "anything");
  EXPECT_EQ(s.id(), TraceContext::kNoSpan);
  s.Attr("ignored", "x");  // Must not crash.
}

TEST(TraceContextTest, SpanCapDropsAndCounts) {
  TraceContext ctx(/*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    auto id = ctx.StartSpan("s");
    ctx.EndSpan(id);
  }
  EXPECT_EQ(ctx.size(), 4u);
  EXPECT_EQ(ctx.dropped(), 6u);
  // Operations on a dropped id are harmless no-ops.
  ctx.AddAttr(TraceContext::kNoSpan, "k", "v");
  ctx.EndSpan(TraceContext::kNoSpan);
}

TEST(TraceContextTest, RenderersProduceOutput) {
  TraceContext ctx;
  auto root = ctx.StartSpan("query");
  auto child = ctx.StartSpan("parse", root);
  ctx.AddAttr(child, "chars", "17");
  ctx.EndSpan(child);
  ctx.EndSpan(root);

  std::string tree = ctx.RenderTree();
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("parse"), std::string::npos);

  std::string json;
  size_t n = ctx.AppendChromeTraceEvents(/*pid=*/1, /*ts_offset_us=*/0, &json);
  EXPECT_EQ(n, 2u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
}

/// Checks the structural invariants of a recorded trace: exactly one root,
/// every parent index valid and started before (and closed no earlier than)
/// each of its children, every span closed.
void CheckSpanTree(const std::vector<TraceSpan>& spans) {
  ASSERT_FALSE(spans.empty());
  size_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    ASSERT_GE(s.dur_us, 0) << "span '" << s.name << "' left open";
    if (s.parent == TraceContext::kNoSpan) {
      ++roots;
      continue;
    }
    ASSERT_LT(s.parent, spans.size()) << "span '" << s.name << "'";
    const TraceSpan& p = spans[s.parent];
    // Parent must enclose the child (start before, end no earlier).
    EXPECT_LE(p.start_us, s.start_us)
        << "'" << p.name << "' starts after child '" << s.name << "'";
    EXPECT_GE(p.start_us + p.dur_us, s.start_us + s.dur_us)
        << "'" << p.name << "' ends before child '" << s.name << "'";
  }
  EXPECT_EQ(roots, 1u);
}

class TracedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LubmConfig cfg;
    cfg.universities = 1;
    GenerateLubm(cfg, &db_);
    db_.Finalize(EngineKind::kWco);
  }
  Database db_;
};

// A real query through the service with trace_queries on: the span tree is
// well-formed and covers the whole lifecycle.
TEST_F(TracedQueryTest, ServiceTraceCoversLifecycle) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  sopts.trace_queries = true;
  QueryService service(db_, sopts);

  const auto& workload = LubmPaperQueries();
  std::vector<QueryRequest> batch;
  for (const PaperQuery& q : workload)
    batch.push_back(QueryRequest{q.sparql, ExecOptions::Full(), {}, nullptr});
  auto responses = service.RunBatch(std::move(batch));

  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.trace, nullptr);
    auto spans = r.trace->Snapshot();
    CheckSpanTree(spans);

    std::map<std::string, int> names;
    for (const TraceSpan& s : spans) ++names[s.name];
    EXPECT_EQ(names["query"], 1);
    EXPECT_EQ(names["queue_wait"], 1);
    EXPECT_EQ(names["eval"], 1);
    EXPECT_EQ(names["serialize"], 1);
    EXPECT_GE(names["bgp"], 1);
    if (!r.plan_cache_hit) {
      EXPECT_EQ(names["parse"], 1);
      EXPECT_EQ(names["plan"], 1);
      EXPECT_EQ(names["transform"], 1);
    }
    EXPECT_EQ(spans[0].name, "query");
  }
}

// Parallel evaluation records per-morsel spans from pool worker threads,
// parented under a bgp span, without corrupting the tree.
TEST_F(TracedQueryTest, ParallelQueryRecordsMorselSpans) {
  QueryService::Options sopts;
  sopts.num_threads = 4;
  sopts.trace_queries = true;
  sopts.intra_query_parallelism = 4;
  QueryService service(db_, sopts);

  // LUBM q1.1: its multi-pattern BGPs have enough work to split into
  // several morsels.
  const PaperQuery& query = LubmPaperQueries()[0];
  ASSERT_EQ(query.id, "q1.1");
  std::vector<QueryRequest> batch;
  batch.push_back(
      QueryRequest{query.sparql, ExecOptions::Full(), {}, nullptr});
  auto responses = service.RunBatch(std::move(batch));
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].status.ok());
  ASSERT_NE(responses[0].trace, nullptr);

  auto spans = responses[0].trace->Snapshot();
  CheckSpanTree(spans);
  size_t morsels = 0;
  std::set<uint32_t> tids;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "morsel") continue;
    ++morsels;
    tids.insert(spans[i].tid);
    ASSERT_NE(spans[i].parent, TraceContext::kNoSpan);
    const TraceSpan& bgp = spans[spans[i].parent];
    EXPECT_EQ(bgp.name, "bgp");
    for (const auto& [key, value] : bgp.attrs)
      if (key == "patterns") EXPECT_GE(std::stoi(value), 2);
  }
  EXPECT_GE(morsels, 1u);
}

// Per-request opt-in without trace_queries: caller-owned context is used and
// echoed back; untraced requests in the same service get no trace.
TEST_F(TracedQueryTest, PerRequestTraceOptIn) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(db_, sopts);

  const auto& workload = LubmPaperQueries();
  auto ctx = std::make_shared<TraceContext>();
  std::vector<QueryRequest> batch;
  QueryRequest traced{workload[0].sparql, ExecOptions::Full(), {}, nullptr};
  traced.trace = ctx;
  batch.push_back(std::move(traced));
  batch.push_back(
      QueryRequest{workload[0].sparql, ExecOptions::Full(), {}, nullptr});
  auto responses = service.RunBatch(std::move(batch));

  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].trace.get(), ctx.get());
  EXPECT_GT(ctx->size(), 0u);
  ASSERT_TRUE(responses[1].status.ok());
  EXPECT_EQ(responses[1].trace, nullptr);
}

}  // namespace
}  // namespace sparqluo
