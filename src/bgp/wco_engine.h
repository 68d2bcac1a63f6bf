// gStore-style worst-case-optimal (WCO) join BGP engine.
//
// Evaluation proceeds vertex-at-a-time over the query graph: each step picks
// the next variable and, for every partial binding, intersects the adjacency
// lists of all already-bound neighbors to produce the variable's matches
// (Section 5.1.2). Order and per-step edge lists are fixed at plan time, and
// partial bindings live in one flat buffer per step. Candidate pruning sets
// restrict the values a variable may take before any intersection result
// is materialized, and they steer the
// extension: a small candidate set puts its variable first and seeds it
// directly, one index probe per candidate, instead of projecting an edge —
// which is what makes the CP optimization effective on this engine.
//
// A BGP that is one constant-predicate pattern with two distinct variables
// (or one) skips vertex extension: its matches are one index range, copied
// straight into the result (the range-copy path). A self-loop `?x p ?x`
// keeps the general path.
//
// Counters (BgpEvalCounters), as this engine defines them:
//   rows_materialized  binding rows built, partial ones included: every
//                      row an extension step or a residual pattern
//                      produces; on the range-copy path, the rows emitted.
//   index_probes       index range lookups during evaluation: one per
//                      adjacency list (each edge of a step's recipe, per
//                      row, until the intersection runs empty), per
//                      candidate probed when seeding from candidates, and
//                      per residual-pattern scan; on the range-copy path,
//                      one for the pattern plus one per candidate probed.
//                      Plan-time counts are not probes.
//   candidates_pruned  values a candidate set kept out of a binding: one
//                      per extension value or residual match it rejects
//                      (one per matched triple on the range-copy path),
//                      plus, for each row a candidate-seeded step extends,
//                      the edge projection's values that were never
//                      enumerated (distinct values minus seeds that match).
#pragma once

#include "bgp/engine.h"

namespace sparqluo {

class WcoEngine : public BgpEngine {
 public:
  WcoEngine(const TripleStore& store, const Dictionary& dict,
            const Statistics& stats)
      : store_(store), dict_(dict), stats_(stats),
        estimator_(store, dict, stats) {}

  const char* name() const override { return "gStore-WCO"; }

  using BgpEngine::Evaluate;

  /// The first extension step binds the seed variable over all rows.
  /// With `spec` enabled and more than one morsel of seeds, they are split
  /// into contiguous morsels, each running the remaining vertex extensions
  /// and residual expansion independently; otherwise the same remaining
  /// work runs over all seeds at once. Morsel outputs concatenate in seed
  /// order, which is already the sorted order unless residual patterns
  /// ran; then the global sort+dedup makes the merge deterministic.
  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters, const CancelToken* cancel,
                      const ParallelSpec& spec) const override;

  /// The column order rows are built in: the extension order, then the
  /// variables residual (variable-predicate) patterns bind. Without
  /// residual patterns, Evaluate's rows come out ascending and distinct
  /// in this order, which is why they need no final sort. Empty when a
  /// constant of the BGP is absent from the dictionary or a ground triple
  /// fails.
  std::vector<VarId> RowOrder(const Bgp& bgp, const CandidateMap* cands) const;

  /// WCO join cost: sum over extension steps of
  ///   card({v1..vk-1}) * min_i average_size(vi, p).
  double EstimateCost(const Bgp& bgp) const override;

  const CardinalityEstimator& estimator() const override { return estimator_; }

 private:
  const TripleStore& store_;
  const Dictionary& dict_;
  const Statistics& stats_;
  CardinalityEstimator estimator_;
};

}  // namespace sparqluo
