// Per-BGP adaptive engine selection.
//
// Holds both host engines (gStore-WCO and Jena-HashJoin) over the same
// store/dictionary/statistics and, for every BGP it is asked to evaluate,
// delegates to whichever engine's own cost model (§5.1.2) estimates the
// cheaper evaluation — the WCO extension cost vs the binary-join cost,
// both driven by the shared cardinality pilot. This replaces the global
// engine flag with a per-BGP decision: one query can evaluate its star
// subpattern with WCO vertex extension and its chain subpattern with
// binary hash joins.
//
// Correctness rides on the existing bit-identity discipline: both engines
// produce identical BindingSets (schema and row order) for every BGP, so
// the choice affects speed only — cached plans, cached results and deduped
// responses stay byte-identical regardless of which engine ran.
//
// The delegate counts its own evaluation in BgpEvalCounters (wco_evals /
// hashjoin_evals); the executor stamps it on the BGP's trace span so
// --explain-analyze shows which engine evaluated each BGP.
#pragma once

#include "bgp/engine.h"
#include "bgp/hashjoin_engine.h"
#include "bgp/wco_engine.h"

namespace sparqluo {

class AdaptiveEngine : public BgpEngine {
 public:
  AdaptiveEngine(const TripleStore& store, const Dictionary& dict,
                 const Statistics& stats)
      : wco_(store, dict, stats), hashjoin_(store, dict, stats) {}

  const char* name() const override { return "Adaptive"; }

  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters,
                      const CancelToken* cancel) const override {
    return ChooseFor(bgp).Evaluate(bgp, cands, counters, cancel);
  }

  BindingSet ParallelEvaluate(const Bgp& bgp, const CandidateMap* cands,
                              BgpEvalCounters* counters,
                              const CancelToken* cancel,
                              const ParallelSpec& spec) const override {
    return ChooseFor(bgp).ParallelEvaluate(bgp, cands, counters, cancel, spec);
  }

  /// The cost the engine will actually pay: the cheaper of the two models.
  double EstimateCost(const Bgp& bgp) const override {
    double wco = wco_.EstimateCost(bgp);
    double hash = hashjoin_.EstimateCost(bgp);
    return wco <= hash ? wco : hash;
  }

  /// Both engines build identical estimators over the same statistics;
  /// expose one of them as the shared pilot.
  const CardinalityEstimator& estimator() const override {
    return wco_.estimator();
  }

  /// The engine EstimateCost picked for `bgp`: ties go to WCO (the paper's
  /// default host system).
  const BgpEngine& ChooseFor(const Bgp& bgp) const {
    return wco_.EstimateCost(bgp) <= hashjoin_.EstimateCost(bgp)
               ? static_cast<const BgpEngine&>(wco_)
               : static_cast<const BgpEngine&>(hashjoin_);
  }

 private:
  WcoEngine wco_;
  HashJoinEngine hashjoin_;
};

}  // namespace sparqluo
