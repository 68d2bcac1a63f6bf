// The traced run's decomposed request paths.
//
// Instead of one opaque call, each request runs as the chain of public
// calls it passes through, each wrapped in a span recorded by the
// benchmark (one TraceContext per client, a root span per request):
//
//   miss  (parse -> plan -> execute -> serialize on a pinned Snapshot; the
//          BE-tree build, which Plan includes, is timed again on its own
//          after the request): lubm-distinct, paper-embedded, lubm-rw
//          readers
//   hit   (http.request, server.submit and sparql.serialize of one text):
//          lubm-hot
//   write (Database::Stage, Database::Commit with the log attached):
//          the lubm-rw writer
//
// A chain the workload's own traffic does not take runs afterwards as a
// short probe on the workload's own requests, so every traced run reports
// every layer; a layer's numbers come from the workload's own traffic
// whenever that traffic passes through it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "trace_fold.h"

namespace sqbench {

/// Times and work counts taken at the calls the spans wrap.
struct LayerCounts {
  /// Duration of every call by span name, in ms at steady_clock resolution
  /// (the spans keep whole microseconds). The chains are flat - each call
  /// is a direct child of its request - so this is also each layer's self
  /// time. "betree.build" is the exception: it has no span and is timed
  /// after the request, since optimizer.plan already includes it.
  std::map<std::string, std::vector<double>> step_ms;
  /// Per hit-chain request: http.request - server.submit - sparql.serialize.
  std::vector<double> http_overhead_ms;
  size_t queries = 0;  ///< miss-chain executions
  double merges = 0, injects = 0, decide_calls = 0, join_space = 0;
  double rows_materialized = 0, index_probes = 0, candidates_pruned = 0,
         result_rows = 0;
  std::vector<double> transform_ms;
  double serialized_bytes = 0, serialized_rows = 0;
  double http_bytes = 0, http_responses = 0;
  void Merge(const LayerCounts& other);
};

struct Phase {
  std::vector<std::unique_ptr<sparqluo::TraceContext>> contexts;
  TraceFold fold;
  LayerCounts counts;
  size_t reads = 0;  ///< completed read roots
  double wall_s = 0.0;
  size_t attempted = 0, failed = 0;
  std::vector<sparqluo::UpdateBatch> batches;  ///< committed by the write chain
  std::vector<std::string> errors;
};

/// The workload's own traffic, decomposed and traced, for `seconds`.
Phase RunTracedWindow(const Config& cfg, Stack& stack, const Streams& streams,
                      double seconds);

/// The chains the workload's traffic does not take, on its own requests.
Phase RunProbes(const Config& cfg, Stack& stack, const Streams& streams);

/// Appends `batches` to a fresh log in `dir` (fsync always), timing each.
struct WalProbe {
  std::vector<double> append_ms;
  double bytes_per_commit = 0.0;
};
WalProbe ReplayIntoFreshWal(const std::string& dir,
                            const std::vector<sparqluo::UpdateBatch>& batches,
                            std::vector<std::string>* errors);

}  // namespace sqbench
