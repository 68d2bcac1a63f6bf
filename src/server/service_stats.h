// Thread-safe service-level aggregation of per-query metrics.
//
// Workers call Record* after each request; Snapshot() is safe to call
// concurrently and computes derived figures (QPS, latency percentiles).
//
// Latency percentiles come from a fixed-memory log-linear Histogram
// (obs/metrics.h) instead of a capped sample vector: under sustained
// traffic the percentiles keep tracking the live distribution instead of
// freezing at the first 2^18 requests. Each service owns its histogram so
// Snapshot() reflects this service only, and mirrors its counters into the
// process-global MetricRegistry (the Prometheus export) unless constructed
// with enable_metrics = false — that path skips every histogram observe
// and registry increment and is the "no observability" baseline the
// bench_throughput overhead gate compares against.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "bgp/engine.h"
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
  BgpEvalCounters bgp;          ///< Merged engine counters.
  double total_exec_ms = 0.0;
  double total_transform_ms = 0.0;
  double uptime_s = 0.0;
  double qps = 0.0;             ///< Finished queries per second of uptime.
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
  double total_commit_ms = 0.0;
};

class ServiceStats {
 public:
  explicit ServiceStats(bool enable_metrics = true);

  void RecordSubmitted() {
    std::lock_guard<std::mutex> lock(mu_);
    ++snap_.submitted;
    if (enabled_) submitted_metric_->Increment();
  }
  void RecordRejected() {
    std::lock_guard<std::mutex> lock(mu_);
    ++snap_.rejected;
    if (enabled_) rejected_metric_->Increment();
  }

  /// A request that started waiting on an identical in-flight leader.
  /// Recorded at wait start (not resolution) so tests and dashboards can
  /// observe fan-in while the leader is still running.
  void RecordDedupFollower() {
    std::lock_guard<std::mutex> lock(mu_);
    ++snap_.dedup_followers;
    if (enabled_) dedup_followers_metric_->Increment();
  }

  /// One finished request: its status-derived outcome, metrics, end-to-end
  /// latency and whether its rows came from a deduped leader. Cache hits
  /// are counted by the caches themselves (QueryService::CacheStats,
  /// ResultCacheStats).
  void RecordFinished(const Status& status, const ExecMetrics& metrics,
                      double latency_ms, size_t rows, bool deduped = false) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ++snap_.completed;
      snap_.rows_returned += rows;
      if (enabled_) {
        completed_metric_->Increment();
        rows_metric_->Increment(rows);
      }
    } else if (metrics.aborted) {
      switch (metrics.abort_reason) {
        case AbortReason::kDeadline: ++snap_.aborted_deadline; break;
        case AbortReason::kCancelled: ++snap_.aborted_cancelled; break;
        default: ++snap_.aborted_row_limit; break;
      }
      if (enabled_) aborted_metric_->Increment();
    } else {
      ++snap_.failed;
      if (enabled_) failed_metric_->Increment();
    }
    if (deduped) {
      ++snap_.deduped;
      if (enabled_) deduped_metric_->Increment();
    }
    snap_.bgp.Merge(metrics.bgp);
    snap_.total_exec_ms += metrics.exec_ms;
    snap_.total_transform_ms += metrics.transform_ms;
    if (enabled_) {
      latency_hist_.Observe(latency_ms);
      latency_metric_->Observe(latency_ms);
    }
  }

  /// One request at or over the slow-query threshold (counted whether or
  /// not it was sampled into the log).
  void RecordSlowQuery() {
    std::lock_guard<std::mutex> lock(mu_);
    ++snap_.slow_queries;
    if (enabled_) slow_metric_->Increment();
  }

  void RecordUpdateSubmitted() {
    std::lock_guard<std::mutex> lock(mu_);
    ++snap_.updates_submitted;
  }

  /// One finished update request.
  void RecordUpdateFinished(const Status& status, const CommitStats& commit) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ++snap_.updates_committed;
      snap_.triples_inserted += commit.inserted;
      snap_.triples_deleted += commit.deleted;
      snap_.store_version = std::max(snap_.store_version, commit.version);
      snap_.total_commit_ms += commit.commit_ms;
    } else {
      ++snap_.updates_failed;
    }
  }

  bool metrics_enabled() const { return enabled_; }

  ServiceStatsSnapshot Snapshot() const;

 private:
  const bool enabled_;

  mutable std::mutex mu_;
  ServiceStatsSnapshot snap_;
  /// Per-service latency distribution (fixed ~15 KB regardless of sample
  /// count); the source of the snapshot's p50/p99/p999.
  Histogram latency_hist_;
  std::chrono::steady_clock::time_point start_;

  // Process-global mirrors (valid only when enabled_).
  Counter* submitted_metric_ = nullptr;
  Counter* rejected_metric_ = nullptr;
  Counter* completed_metric_ = nullptr;
  Counter* failed_metric_ = nullptr;
  Counter* aborted_metric_ = nullptr;
  Counter* rows_metric_ = nullptr;
  Counter* slow_metric_ = nullptr;
  Counter* dedup_followers_metric_ = nullptr;
  Counter* deduped_metric_ = nullptr;
  Histogram* latency_metric_ = nullptr;
};

}  // namespace sparqluo
