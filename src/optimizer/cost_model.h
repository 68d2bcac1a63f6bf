// SPARQL-UO cost model (Section 5.1.1, Equations 1-8).
//
// The cost of a transformation site is the sum of
//   (a) the BGP evaluation costs of the site's BGP nodes (engine cost
//       model, Section 5.1.2), and
//   (b) the algebra cost of combining partial results:
//         f_AND(|res(X)|, |res(l(X))|, |res(r(X))|)  per BGP node X,
//         f_UNION(|res(P2)|, ..., |res(Pn)|)         per UNION site,
//         f_OPTIONAL(|res(P1)|, |res(P2)|)           per OPTIONAL site,
//       with f_AND = product, f_UNION = sum, f_OPTIONAL = product, matching
//       the instantiations used in the paper's experiments.
//
// Result sizes of non-BGP nodes follow the assumed distribution of §5.1.1:
// joins (AND, OPTIONAL) multiply, UNION adds.
//
// Deviation note (documented in docs/transformations.md): when computing a site's local
// cost we include the f_AND terms of *all* BGP children at the affected
// levels, not only the transformed ones. Unchanged terms cancel in the
// Δ-cost, and terms whose left/right sibling sizes change are accounted
// for — a strict superset of Equations 2-3 and 6-7.
#pragma once

#include "betree/be_tree.h"
#include "bgp/engine.h"

namespace sparqluo {

class CostModel {
 public:
  explicit CostModel(const BgpEngine& engine) : engine_(engine) {}

  /// |res(node)| estimate.
  double EstimateResultSize(const BeNode& node) const;

  /// cost(P) of a BGP node under the bound engine.
  double BgpCost(const Bgp& bgp) const {
    return bgp.empty() ? 0.0 : engine_.EstimateCost(bgp);
  }

  /// Σ over BGP children X of `group` of
  ///   BgpCost(X) + f_AND(|res(X)|, |res(l(X))|, |res(r(X))|).
  ///
  /// `skip_idx` (optional) names the child whose size is treated as 1 in the
  /// l/r products: the transformation's target UNION/OPTIONAL node. Its
  /// combination cost is carried by the dedicated f_UNION / f_OPTIONAL term,
  /// so including its result size in every sibling's f_AND would double
  /// count it and make every transformation look favorable regardless of
  /// selectivity (which would contradict the paper's Figure 7 analysis).
  double LevelBgpCost(const BeNode& group, size_t skip_idx = SIZE_MAX) const;

  /// Local cost of a merge site: the parent level, every UNION branch
  /// level, and the f_UNION term (Equations 1-3).
  double MergeSiteCost(const BeNode& group, size_t union_idx) const;

  /// Local cost of an inject site: the parent level, the OPTIONAL-right
  /// level, and the f_OPTIONAL term (Equations 5-7). `res_p1` is |res(P1)|
  /// of the BGP node considered for injection.
  double InjectSiteCost(const BeNode& group, size_t opt_idx,
                        double res_p1) const;

  const BgpEngine& engine() const { return engine_; }

 private:
  const BgpEngine& engine_;
};

}  // namespace sparqluo
