// Thread-safe service-level aggregation of per-query metrics.
//
// Workers call Record* after each request; every Record* is a few relaxed
// atomic adds and takes no lock. Snapshot() only reads, so it is safe to
// call concurrently with recording (a snapshot taken mid-flight may show
// one request's counters partially applied).
//
// Each service owns its counters (obs::Counter, the registry's own type)
// and its latency Histogram, so Snapshot() reflects this service only.
// Unless constructed with enable_metrics = false, every Record* also bumps
// the process-global MetricRegistry series (the Prometheus export), whose
// handles are resolved once at construction; with metrics off, the
// histogram and registry are never touched — the "no observability"
// baseline the bench_throughput overhead gate compares against.
#pragma once

#include <atomic>
#include <cstdint>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "store/versioned_store.h"

namespace sparqluo {

/// Point-in-time view of the service counters.
struct ServiceStatsSnapshot {
  uint64_t submitted = 0;   ///< Accepted into the queue.
  uint64_t rejected = 0;    ///< Refused by admission control.
  uint64_t completed = 0;   ///< Finished with an OK status.
  uint64_t failed = 0;      ///< Finished with a non-abort error (e.g. parse).
  uint64_t aborted_deadline = 0;
  uint64_t aborted_cancelled = 0;
  uint64_t aborted_row_limit = 0;
  /// Requests that joined an identical in-flight leader (counted when the
  /// wait starts, whether or not the leader's result was ultimately used).
  uint64_t dedup_followers = 0;
  uint64_t deduped = 0;            ///< Requests resolved with a leader's rows.
  uint64_t rows_returned = 0;
  uint64_t slow_queries = 0;    ///< total_ms >= the service's slow threshold.
  uint64_t morsels = 0;         ///< Morsel tasks run by finished requests.
  double p50_ms = 0.0;          ///< End-to-end latency percentiles.
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  size_t latency_samples = 0;   ///< Histogram count (never capped).

  // Write-path counters (QueryService::SubmitUpdate).
  uint64_t updates_submitted = 0;
  uint64_t updates_committed = 0;  ///< Commits that published a version.
  uint64_t updates_failed = 0;     ///< Parse errors, read-only service, ...
  uint64_t triples_inserted = 0;   ///< Net inserts across all commits.
  uint64_t triples_deleted = 0;    ///< Net deletes across all commits.
  uint64_t store_version = 0;      ///< Highest version seen by a commit.
};

class ServiceStats {
 public:
  explicit ServiceStats(bool enable_metrics = true);

  void RecordSubmitted() { submitted_.Add(); }
  void RecordRejected() { rejected_.Add(); }

  /// A request that started waiting on an identical in-flight leader.
  /// Recorded at wait start (not resolution) so tests and dashboards can
  /// observe fan-in while the leader is still running.
  void RecordDedupFollower() { dedup_followers_.Add(); }

  /// One finished request: its status-derived outcome, metrics, end-to-end
  /// latency and whether its rows came from a deduped leader. Cache hits
  /// are counted by the caches themselves (QueryService::CacheStats,
  /// ResultCacheStats).
  void RecordFinished(const Status& status, const ExecMetrics& metrics,
                      double latency_ms, size_t rows, bool deduped = false) {
    if (status.ok()) {
      completed_.Add();
      rows_returned_.Add(rows);
    } else if (metrics.aborted) {
      switch (metrics.abort_reason) {
        case AbortReason::kDeadline: aborted_deadline_.Add(); break;
        case AbortReason::kCancelled: aborted_cancelled_.Add(); break;
        default: aborted_row_limit_.Add(); break;
      }
    } else {
      failed_.Add();
    }
    if (deduped) deduped_.Add();
    if (metrics.bgp.morsels != 0) morsels_.Increment(metrics.bgp.morsels);
    if (latency_metric_ != nullptr) {
      latency_hist_.Observe(latency_ms);
      latency_metric_->Observe(latency_ms);
    }
  }

  /// One request at or over the slow-query threshold (counted whether or
  /// not it was sampled into the log).
  void RecordSlowQuery() { slow_queries_.Add(); }

  void RecordUpdateSubmitted() { updates_submitted_.Increment(); }

  /// One finished update request.
  void RecordUpdateFinished(const Status& status, const CommitStats& commit);

  bool metrics_enabled() const { return latency_metric_ != nullptr; }

  ServiceStatsSnapshot Snapshot() const;

 private:
  /// A per-service counter plus, when metrics are on, the process-global
  /// registry series it mirrors (several tallies may share one series).
  struct Tally {
    Counter own;
    Counter* global = nullptr;

    void Add(uint64_t n = 1) {
      own.Increment(n);
      if (global != nullptr) global->Increment(n);
    }
    uint64_t value() const { return own.value(); }
  };

  Tally submitted_, rejected_, completed_, failed_;
  Tally aborted_deadline_, aborted_cancelled_, aborted_row_limit_;
  Tally dedup_followers_, deduped_, rows_returned_, slow_queries_;
  Counter morsels_;
  Counter updates_submitted_, updates_committed_, updates_failed_;
  Counter triples_inserted_, triples_deleted_;
  std::atomic<uint64_t> store_version_{0};

  /// Per-service latency distribution (fixed ~15 KB regardless of sample
  /// count); the source of the snapshot's p50/p99/p999.
  Histogram latency_hist_;
  /// Process-global latency series; null when metrics are off.
  Histogram* latency_metric_ = nullptr;
};

}  // namespace sparqluo
