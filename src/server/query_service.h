// Concurrent query service over a finalized Database.
//
// After Database::Finalize() the read path is a chain of immutable
// DatabaseVersions (src/store/versioned_store.h): every query pins the
// current version for its whole execution, so queries run in parallel
// without any locking on the data — and, when the service is constructed
// over a mutable Database, SubmitUpdate() applies INSERT DATA/DELETE DATA
// batches whose commits publish new versions without ever disturbing
// in-flight readers. This service adds the traffic-facing machinery on
// top:
//
//   - a shared ExecutorPool (util/executor_pool.h) serving both whole-query
//     tasks and the morsel batches of intra-query parallel BGP evaluation,
//     so inter- and intra-query work share one set of workers; admission
//     control rejects submissions beyond pool size + max_queue in flight
//     with ResourceExhausted,
//   - per-query deadlines and explicit cancellation, enforced through the
//     executor's cooperative CancelToken checkpoints (each morsel polls the
//     same token),
//   - a sharded LRU plan cache keyed by normalized query text *and the
//     database version*, so repeated queries skip parsing and tree
//     transformation entirely while commits implicitly invalidate every
//     cached plan (after each commit, eviction is version-scoped: entries
//     for the new current version or a version an in-flight request still
//     pins survive, every unreachable entry is dropped),
//   - a byte-budgeted result cache (server/result_cache.h) one level up,
//     the same VersionedLru (server/versioned_lru.h) charged by bytes:
//     repeat queries against an unchanged version are served their full
//     finished rows without touching the engines, invalidated by the same
//     post-commit version-reachability sweep as the plan cache — both run
//     from one InvalidateCaches hook registered as a store commit
//     listener, so every published version sweeps both caches no matter
//     which code path committed it,
//   - in-flight dedup: a submission identical to one already executing
//     (same normalized text, options and pinned version) waits on the
//     leader's shared future instead of executing; the follower's
//     deadline/cancellation never touches the leader, and a failed leader
//     makes followers execute for themselves — errors are never shared,
//   - serialized, admission-controlled updates (SubmitUpdate) that report
//     per-commit stats into the service counters,
//   - thread-safe aggregation of per-query ExecMetrics/BgpEvalCounters into
//     service-level counters (QPS, p50/p99 latency, aborts, morsel
//     counts); the caches count their own hits and misses (CacheStats,
//     ResultCacheStats).
//
// The same freeze-then-serve organization RDF-3x-style stores use: load,
// Finalize, then serve reads from arbitrarily many threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "engine/database.h"
#include "server/plan_cache.h"
#include "server/result_cache.h"
#include "server/service_stats.h"
#include "util/executor_pool.h"

namespace sparqluo {

struct QueryResponse;

/// One query submission.
struct QueryRequest {
  std::string text;
  ExecOptions options = ExecOptions::Full();
  /// Per-request deadline measured from submission; <= 0 means the service
  /// default (QueryService::Options::default_deadline), itself <= 0 for
  /// "no deadline".
  std::chrono::milliseconds deadline{0};
  /// Optional externally-owned cancellation token. When set, the service
  /// installs the effective deadline on it and evaluation polls it, so the
  /// caller can abort the request mid-flight with RequestCancel().
  std::shared_ptr<CancelToken> cancel;
  /// When true (default), a request leaving options.parallel.parallelism
  /// at 1 inherits the service-wide intra_query_parallelism. Set to false
  /// to take the request's value literally — in particular, 1 then forces
  /// sequential evaluation for this request.
  bool inherit_parallelism = true;
  /// Per-request trace opt-in: when set, the whole lifecycle (queue wait,
  /// plan-cache lookup, parse, plan/transform, eval down to morsels,
  /// serialize) is recorded into this context and echoed back on the
  /// response. Null (and Options::trace_queries false) means no tracing —
  /// the request pays only null-pointer checks.
  std::shared_ptr<TraceContext> trace;
  /// Completion hook for push-style consumers (the HTTP endpoint streams
  /// the response body from here instead of blocking a thread on the
  /// future). Runs on the worker that finished the request — or inline on
  /// the submitting thread when admission rejects — after stats are
  /// recorded and just before the future resolves. The response is passed
  /// by reference; the hook may read it but the future still receives the
  /// full (moved-from-here-afterwards) value. Exceptions thrown by the
  /// hook are swallowed (a worker must never unwind).
  std::function<void(const QueryResponse&)> on_complete;
};

/// Outcome of one query.
struct QueryResponse {
  Status status;            ///< OK, or why the query failed/was cut short.
  BindingSet rows;          ///< Valid when status.ok().
  ExecMetrics metrics;
  bool plan_cache_hit = false;
  /// Rows served straight from the result cache — no parsing, planning or
  /// engine work happened on this request (metrics are all zero).
  bool result_cache_hit = false;
  /// Rows copied from an identical in-flight leader request instead of
  /// executing (in-flight dedup). Like a result-cache hit, metrics stay
  /// zero: the engine work was the leader's, already recorded there.
  bool deduped = false;
  double total_ms = 0.0;    ///< Queue wait + parse/plan + execution.
  uint64_t version = 0;     ///< Database version the query executed on.
  /// The request's trace (or the service-created one when
  /// Options::trace_queries is set); null when the query was not traced.
  std::shared_ptr<TraceContext> trace;
  /// The executed plan (cache hit or freshly built): carries the parsed
  /// Query — its VarTable and form — which serializers need to render
  /// `rows`. Null when the request failed before a plan existed (parse
  /// error, admission rejection).
  std::shared_ptr<const CachedPlan> plan;
};

/// Outcome of one update.
struct UpdateResponse {
  Status status;        ///< OK once the batch is durably committed.
  CommitStats commit;   ///< Valid when status.ok().
  double total_ms = 0.0;
};

/// One update submission: SPARQL INSERT DATA / DELETE DATA text, or a
/// pre-built batch (used when `text` is empty).
struct UpdateRequest {
  std::string text;
  UpdateBatch batch;
  /// Same contract as QueryRequest::on_complete.
  std::function<void(const UpdateResponse&)> on_complete;
};

class QueryService {
 public:
  /// Plan-cache entry budget (both caches use the default 8 shards).
  static constexpr size_t kPlanCacheCapacity = 512;

  struct Options {
    /// Worker threads when the service creates its own pool (the in-flight
    /// bound). 0 = hardware concurrency. Ignored when `pool` is set.
    size_t num_threads = 0;
    /// Pending submissions beyond the in-flight bound; submissions past
    /// this are rejected immediately (admission control).
    size_t max_queue = 1024;
    /// Plan cache: kPlanCacheCapacity parsed + transformed plans.
    bool enable_plan_cache = true;
    /// Result cache: successful responses keyed by (normalized text,
    /// plan-relevant options, database version) are served without
    /// touching the engines. Invalidated by the same post-commit
    /// version-reachability sweep as the plan cache (InvalidateCaches).
    /// This is the total payload budget in bytes; 0 disables the cache.
    /// In-flight dedup rides on the same switch: while the cache is on, a
    /// submission whose cache key matches one already executing waits on
    /// the leader's result instead of executing. The follower's
    /// deadline/cancellation applies only to its own wait (it never
    /// cancels the leader), and a failed leader makes followers execute
    /// for themselves — errors are never shared or cached.
    size_t result_cache_bytes = 64ull << 20;
    /// Applied to requests that do not set their own deadline; <= 0 means
    /// unbounded.
    std::chrono::milliseconds default_deadline{0};
    /// Intra-query parallelism applied to requests that leave
    /// ExecOptions::parallel.parallelism at its default of 1 (0 = pool
    /// size + 1).
    /// Morsels run on the same pool as the queries themselves.
    size_t intra_query_parallelism = 1;
    /// Shared worker pool; null makes the service own a fresh pool with
    /// `num_threads` workers. Passing one pool to several services (or to
    /// standalone executors) keeps all work on one set of workers.
    std::shared_ptr<ExecutorPool> pool;
    /// When false, the service records nothing into its latency histogram
    /// or the process-global MetricRegistry (plain counters in Stats()
    /// still work). The bench_throughput overhead gate uses this as the
    /// no-observability baseline.
    bool enable_metrics = true;
    /// Trace every query (requests without their own TraceContext get a
    /// service-created one, capped at TraceContext::kDefaultMaxSpans and
    /// returned on the response). Off by default: tracing is per-request
    /// opt-in via QueryRequest::trace.
    bool trace_queries = false;
    /// Slow-query log: a finished query whose end-to-end latency reaches
    /// this threshold is counted and (subject to sampling) logged at WARN
    /// with its text and timings. <= 0 disables.
    double slow_query_ms = 0.0;
    /// Log every Nth slow query (1 = all). The counter is service-wide, so
    /// under sustained slowness the log rate is 1/N of the slow rate.
    size_t slow_query_sample = 1;
  };

  /// Read-only service: `db` must be finalized and must outlive the
  /// service. SubmitUpdate() fails with FailedPrecondition.
  QueryService(const Database& db, Options options);

  /// Updatable service: additionally accepts SubmitUpdate(). Writers are
  /// serialized by the database's versioned store; queries keep running
  /// against their pinned version while commits publish new ones.
  QueryService(Database& db, Options options);

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one query. The future resolves when the query finishes;
  /// rejected submissions resolve immediately with ResourceExhausted.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Blocking batch API: submits everything, waits, returns responses in
  /// submission order.
  std::vector<QueryResponse> RunBatch(std::vector<QueryRequest> requests);

  /// Submits one update batch. Updates share the worker pool and the
  /// admission bound with queries; commits are serialized against each
  /// other by the versioned store's writer lock. After a successful commit
  /// the plan cache drops every entry no reader can reach (neither the
  /// new current version nor one an in-flight request still pins) —
  /// plans for pinned older versions stay hittable until their last
  /// reader finishes. Requires the updatable constructor.
  std::future<UpdateResponse> SubmitUpdate(UpdateRequest request);

  /// Stops accepting new work and waits for all in-flight queries to
  /// finish. Idempotent; also run by the destructor. A service-owned pool
  /// is shut down too; a shared pool keeps serving its other users.
  void Shutdown();

  ServiceStatsSnapshot Stats() const { return stats_.Snapshot(); }
  PlanCache::Stats CacheStats() const { return cache_.GetStats(); }
  ResultCache::Stats ResultCacheStats() const {
    return result_cache_.GetStats();
  }
  size_t num_threads() const { return pool_->num_threads(); }
  const std::shared_ptr<ExecutorPool>& pool() const { return pool_; }

 private:
  struct Task {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  /// RAII pin of the current database version for one in-flight request:
  /// snapshots and registers the version in pinned_versions_ (the floor
  /// for version-scoped cache eviction) under one mu_ critical section,
  /// so a commit can never land between the snapshot read and the
  /// registration and evict the just-snapshotted version's plans.
  class VersionPin {
   public:
    /// Fills `*snap` with the pinned snapshot (never null).
    VersionPin(QueryService* service,
               std::shared_ptr<const DatabaseVersion>* snap);
    ~VersionPin();

    VersionPin(const VersionPin&) = delete;
    VersionPin& operator=(const VersionPin&) = delete;

   private:
    QueryService* service_;
    uint64_t version_;
  };

  /// One in-flight leader execution that identical submissions wait on.
  /// The future resolves to the leader's successful result — shared with
  /// the result cache's entry type, so publishing costs one rows copy —
  /// or to null when the leader failed (followers then execute for
  /// themselves rather than inherit the error).
  struct InflightQuery {
    std::promise<std::shared_ptr<const CachedResult>> promise;
    std::shared_future<std::shared_ptr<const CachedResult>> future;
    /// Followers currently (or ever) waiting; lets the leader count
    /// dedup fan-in without a map scan.
    std::atomic<uint64_t> waiters{0};
  };

  QueryResponse Process(Task& task);
  UpdateResponse ProcessUpdate(const UpdateRequest& request);

  /// Returns false (and resolves `reject` into the promise-completion
  /// callback) when the request cannot be admitted. Shared by Submit and
  /// SubmitUpdate.
  bool Admit(Status* reject);

  /// Post-commit sweep over both caches: drops every plan-cache and
  /// result-cache entry whose version is neither `current_version` nor
  /// pinned by an in-flight request. Runs unconditionally — registered as
  /// a VersionedStore commit listener, so it fires for every published
  /// version whichever path committed it (this service's SubmitUpdate, a
  /// sibling service sharing the database, or Database::Apply directly),
  /// and regardless of which caches are enabled.
  void InvalidateCaches(uint64_t current_version);

  /// Recomputes both pin gauges from pinned_versions_. Caller holds mu_.
  void UpdatePinnedGaugesLocked();

  const Database& db_;
  Database* updatable_db_ = nullptr;  ///< Null for read-only services.
  Options options_;
  PlanCache cache_;
  ResultCache result_cache_;
  ServiceStats stats_;
  /// Slow queries seen so far; drives every-Nth log sampling.
  std::atomic<uint64_t> slow_seen_{0};
  /// Distinct versions currently pinned by in-flight requests
  /// (obs/metrics.h); null when Options::enable_metrics is false. N
  /// requests pinning one version count as one pinned version here;
  /// pinned_requests_gauge_ carries the total pin count.
  Gauge* pinned_gauge_ = nullptr;
  Gauge* pinned_requests_gauge_ = nullptr;
  Counter* dedup_leaders_metric_ = nullptr;
  /// Token for the registered commit listener (InvalidateCaches).
  uint64_t commit_listener_ = 0;

  std::shared_ptr<ExecutorPool> pool_;
  bool owns_pool_ = false;

  std::mutex mu_;
  std::condition_variable cv_;   ///< Signalled when in_flight_ hits zero.
  size_t in_flight_ = 0;         ///< Submitted to the pool, not yet finished.
  bool shutdown_ = false;
  /// Versions pinned by in-flight queries; the minimum is the eviction
  /// floor after commits. Guarded by mu_.
  std::multiset<uint64_t> pinned_versions_;

  /// In-flight dedup table: cache key -> the leader execution identical
  /// submissions wait on. Its own mutex (not mu_): followers take it on
  /// the hot path while commits hold mu_ for pin collection.
  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<InflightQuery>> inflight_;
};

}  // namespace sparqluo
