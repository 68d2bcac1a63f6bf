#include "server/service_stats.h"

namespace sparqluo {

ServiceStats::ServiceStats(bool enable_metrics) {
  if (!enable_metrics) return;
  MetricRegistry& reg = MetricRegistry::Global();
  submitted_.global = reg.GetCounter("sparqluo_queries_submitted_total",
                                     "Queries accepted into the queue");
  rejected_.global = reg.GetCounter("sparqluo_queries_rejected_total",
                                    "Queries refused by admission control");
  completed_.global = reg.GetCounter("sparqluo_queries_completed_total",
                                     "Queries finished with an OK status");
  failed_.global = reg.GetCounter("sparqluo_queries_failed_total",
                                  "Queries finished with a non-abort error");
  Counter* aborted = reg.GetCounter(
      "sparqluo_queries_aborted_total",
      "Queries cut short by a deadline, cancellation or row limit");
  aborted_deadline_.global = aborted;
  aborted_cancelled_.global = aborted;
  aborted_row_limit_.global = aborted;
  rows_returned_.global =
      reg.GetCounter("sparqluo_query_rows_total",
                     "Result rows returned by completed queries");
  slow_queries_.global =
      reg.GetCounter("sparqluo_slow_queries_total",
                     "Queries at or over the slow-query threshold");
  dedup_followers_.global =
      reg.GetCounter("sparqluo_dedup_followers_total",
                     "Queries that joined an identical in-flight leader");
  deduped_.global =
      reg.GetCounter("sparqluo_dedup_served_total",
                     "Queries resolved with a deduped leader's rows");
  latency_metric_ = reg.GetHistogram(
      "sparqluo_query_latency_ms",
      "End-to-end query latency (queue wait included) in milliseconds");
}

void ServiceStats::RecordUpdateFinished(const Status& status,
                                        const CommitStats& commit) {
  if (!status.ok()) {
    updates_failed_.Increment();
    return;
  }
  updates_committed_.Increment();
  triples_inserted_.Increment(commit.inserted);
  triples_deleted_.Increment(commit.deleted);
  uint64_t seen = store_version_.load(std::memory_order_relaxed);
  while (seen < commit.version &&
         !store_version_.compare_exchange_weak(seen, commit.version,
                                               std::memory_order_relaxed)) {
  }
}

ServiceStatsSnapshot ServiceStats::Snapshot() const {
  ServiceStatsSnapshot out;
  out.submitted = submitted_.value();
  out.rejected = rejected_.value();
  out.completed = completed_.value();
  out.failed = failed_.value();
  out.aborted_deadline = aborted_deadline_.value();
  out.aborted_cancelled = aborted_cancelled_.value();
  out.aborted_row_limit = aborted_row_limit_.value();
  out.dedup_followers = dedup_followers_.value();
  out.deduped = deduped_.value();
  out.rows_returned = rows_returned_.value();
  out.slow_queries = slow_queries_.value();
  out.morsels = morsels_.value();
  out.p50_ms = latency_hist_.Quantile(0.50);
  out.p99_ms = latency_hist_.Quantile(0.99);
  out.p999_ms = latency_hist_.Quantile(0.999);
  out.latency_samples = latency_hist_.Count();
  out.updates_submitted = updates_submitted_.value();
  out.updates_committed = updates_committed_.value();
  out.updates_failed = updates_failed_.value();
  out.triples_inserted = triples_inserted_.value();
  out.triples_deleted = triples_deleted_.value();
  out.store_version = store_version_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sparqluo
