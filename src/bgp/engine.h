// BGP evaluation engine interface.
//
// The SPARQL-UO layer (src/engine, src/optimizer) treats BGP evaluation as a
// black box with a cost model, exactly as the paper prescribes: "our
// proposed optimization techniques operate on a higher level than BGP
// evaluation techniques". Two engines are provided, mirroring the paper's
// two host systems:
//   - WcoEngine       (gStore-style worst-case-optimal vertex extension)
//   - HashJoinEngine  (Jena-style binary hash joins)
#pragma once

#include <memory>

#include "algebra/binding_set.h"
#include "bgp/bgp.h"
#include "bgp/candidates.h"
#include "bgp/cardinality.h"
#include "util/cancellation.h"
#include "util/executor_pool.h"

namespace sparqluo {

/// Instrumentation counters filled during evaluation.
struct BgpEvalCounters {
  uint64_t rows_materialized = 0;  ///< Partial + final bindings produced.
  uint64_t index_probes = 0;       ///< Store scans issued.
  uint64_t candidates_pruned = 0;  ///< Extensions rejected by candidate sets.
  uint64_t morsels = 0;            ///< Morsel tasks run by parallel paths.

  void Merge(const BgpEvalCounters& other) {
    rows_materialized += other.rows_materialized;
    index_probes += other.index_probes;
    candidates_pruned += other.candidates_pruned;
    morsels += other.morsels;
  }
};

/// Abstract BGP evaluator with the engine-specific cost model of §5.1.2.
class BgpEngine {
 public:
  virtual ~BgpEngine() = default;

  virtual const char* name() const = 0;

  /// Evaluates `bgp` to a BindingSet whose schema is bgp.Variables().
  /// `cands` (nullable) carries candidate pruning sets; variables with a
  /// candidate set only take values from it. `counters` (nullable) collects
  /// instrumentation. `cancel` (nullable) is polled at evaluation
  /// checkpoints; a fired token aborts with a CancelledError that the
  /// Executor converts to a ResourceExhausted status. When `spec` is
  /// enabled, heavy per-row work is split into morsels fanned out over
  /// `spec.pool` (morsel-driven, as in aggregates and property paths);
  /// the result (schema and row order) is bit-identical either way.
  virtual BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                              BgpEvalCounters* counters,
                              const CancelToken* cancel,
                              const ParallelSpec& spec) const = 0;

  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters,
                      const CancelToken* cancel) const {
    return Evaluate(bgp, cands, counters, cancel, ParallelSpec{});
  }

  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters) const {
    return Evaluate(bgp, cands, counters, nullptr);
  }

  BindingSet Evaluate(const Bgp& bgp) const {
    return Evaluate(bgp, nullptr, nullptr, nullptr);
  }

  /// cost(P): estimated evaluation cost of the BGP under this engine's join
  /// strategy (WCO join cost or binary join cost).
  virtual double EstimateCost(const Bgp& bgp) const = 0;

  /// |res(P)| estimate, shared across engines.
  double EstimateCardinality(const Bgp& bgp) const {
    return estimator().EstimateBgp(bgp);
  }

  virtual const CardinalityEstimator& estimator() const = 0;
};

/// Which host system's BGP engine to instantiate; the engine's name() is
/// its human-readable name ("gStore-WCO" / "Jena-HashJoin").
enum class EngineKind { kWco, kHashJoin };

/// Creates an engine bound to the given store/dictionary/statistics. All
/// referenced objects must outlive the engine.
std::unique_ptr<BgpEngine> MakeEngine(EngineKind kind, const TripleStore& store,
                                      const Dictionary& dict,
                                      const Statistics& stats);

}  // namespace sparqluo
