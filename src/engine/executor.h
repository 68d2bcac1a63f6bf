// SPARQL-UO query execution (Algorithm 1) with candidate pruning (§6).
//
// The four approaches evaluated in the paper map to ExecOptions:
//   base: tree_transform = false, candidate_pruning = false
//   TT:   tree_transform = true,  candidate_pruning = false
//   CP:   tree_transform = false, candidate_pruning = true  (fixed 1%)
//   full: tree_transform = true,  candidate_pruning = true  (adaptive)
#pragma once

#include "algebra/binding_set.h"
#include "betree/be_tree.h"
#include "bgp/engine.h"
#include "obs/trace.h"
#include "optimizer/transformer.h"
#include "sparql/ast.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace sparqluo {

struct ExecOptions {
  bool tree_transform = false;
  bool candidate_pruning = false;
  /// Fixed CP threshold as a fraction of the store's triple count
  /// (the paper's CP mode uses 1%). Full mode (tree_transform and
  /// candidate_pruning both on) raises the threshold to the estimated BGP
  /// result size when that is larger: the adaptive threshold.
  double fixed_threshold_fraction = 0.01;
  /// Cooperative guard: evaluation aborts with ResourceExhausted once an
  /// intermediate binding table exceeds this many rows (the benchmark
  /// harness's stand-in for the paper's out-of-memory condition).
  size_t max_intermediate_rows = SIZE_MAX;
  /// Cooperative deadline/cancellation: evaluation polls this token at its
  /// checkpoints and aborts with ResourceExhausted when it fires. Not
  /// owned; may be null (no deadline). The query service points this at a
  /// per-request token to enforce deadlines.
  const CancelToken* cancel = nullptr;
  /// Query-lifecycle tracing (obs/trace.h). Null disables tracing — the
  /// hot path then performs only null-pointer checks, no allocation or
  /// clock reads. Execution-only: does not affect planning, so plans are
  /// shared between traced and untraced requests. Not owned.
  TraceContext* trace = nullptr;
  /// Span under which the executor records its plan/transform/eval/
  /// serialize children (TraceContext::kNoSpan roots them).
  TraceContext::SpanId trace_parent = TraceContext::kNoSpan;
  /// Intra-query parallelism (pool, worker cap, morsel size), handed to
  /// every BGP engine Evaluate. When `parallel.enabled()` — a non-null
  /// pool and parallelism != 1 — the engine splits large evaluations into
  /// morsels; results are bit-identical to one-morsel execution. The
  /// pool is not owned; the query service points it at its own pool so
  /// inter- and intra-query work share one set of workers. Execution-only:
  /// does not affect planning, so plans cached at any parallelism are
  /// shared.
  ParallelSpec parallel;

  static ExecOptions Base() { return {}; }
  static ExecOptions TT() {
    ExecOptions o;
    o.tree_transform = true;
    return o;
  }
  static ExecOptions CP() {
    ExecOptions o;
    o.candidate_pruning = true;
    return o;
  }
  static ExecOptions Full() {
    ExecOptions o;
    o.tree_transform = true;
    o.candidate_pruning = true;
    return o;
  }
  const char* Name() const {
    if (tree_transform && candidate_pruning) return "full";
    if (tree_transform) return "TT";
    if (candidate_pruning) return "CP";
    return "base";
  }
};

/// Why an evaluation was cut short.
enum class AbortReason {
  kNone = 0,
  kRowLimit,   ///< max_intermediate_rows exceeded.
  kDeadline,   ///< CancelToken deadline expired.
  kCancelled,  ///< CancelToken::RequestCancel.
};

const char* AbortReasonName(AbortReason reason);

/// Per-query instrumentation.
struct ExecMetrics {
  double transform_ms = 0.0;  ///< Time spent deciding/applying transformations.
  double exec_ms = 0.0;       ///< Evaluation time (Algorithm 1).
  double join_space = 0.0;    ///< JS metric (§7.1) from actual BGP result sizes.
  size_t result_rows = 0;
  bool aborted = false;       ///< True when any guard fired.
  AbortReason abort_reason = AbortReason::kNone;
  BgpEvalCounters bgp;
  TransformStats transform;
  /// OPTIONALs the join-order pass postponed (candidate pruning only).
  size_t optionals_postponed = 0;
};

/// Evaluates queries against one store/engine pair.
class Executor {
 public:
  /// `intern` is a mutable handle to the SAME dictionary as `dict`, used to
  /// intern computed terms (aggregate results, CONSTRUCT constants,
  /// zero-length path endpoints). When null those features return an
  /// Internal error / drop the affected rows; plain SELECT/ASK evaluation
  /// is unaffected, so existing three-argument call sites keep working.
  Executor(const BgpEngine& engine, const Dictionary& dict,
           const TripleStore& store, Dictionary* intern = nullptr)
      : engine_(engine), dict_(dict), store_(store), intern_(intern) {}

  /// Parses nothing: takes a parsed query, builds + (optionally) transforms
  /// the BE-tree, evaluates it, applies projection/DISTINCT.
  Result<BindingSet> Execute(const Query& query, const ExecOptions& options,
                             ExecMetrics* metrics = nullptr) const;

  /// Executes a query against an already-planned (built + transformed)
  /// BE-tree, applying the query's solution modifiers. This is the
  /// plan-cache fast path: Execute == Plan + Validate + ExecutePlanned.
  Result<BindingSet> ExecutePlanned(const Query& query, const BeTree& tree,
                                    const ExecOptions& options,
                                    ExecMetrics* metrics = nullptr) const;

  /// Evaluates an already-built BE-tree (no transformation). Used by tests
  /// and by Execute after transformation.
  BindingSet EvaluateTree(const BeTree& tree, const ExecOptions& options,
                          ExecMetrics* metrics = nullptr) const;

  /// Builds and transforms the BE-tree per `options`, without evaluating.
  BeTree Plan(const Query& query, const ExecOptions& options,
              ExecMetrics* metrics = nullptr) const;

 private:
  /// ORDER BY: stable sort by the decoded term order of each key
  /// (unbound sorts first, per the SPARQL ordering of unbound < bound).
  BindingSet OrderRows(const BindingSet& rows,
                       const std::vector<OrderKey>& keys) const;

  /// OFFSET/LIMIT slice.
  static BindingSet Slice(const BindingSet& rows, size_t offset, size_t limit);

  /// CONSTRUCT instantiation: applies the template to every solution (in
  /// row order, template order within a row), drops rows with unbound
  /// template variables and ill-formed triples (literal subject, non-IRI
  /// predicate), and deduplicates keeping first occurrence. Returns a
  /// three-column BindingSet over the hidden construct_s/p/o variables.
  Result<BindingSet> ConstructTriples(const Query& query,
                                      const BindingSet& rows) const;

  const BgpEngine& engine_;
  const Dictionary& dict_;
  const TripleStore& store_;
  Dictionary* intern_;
};

}  // namespace sparqluo
