// Well-designed pattern analysis (Pérez et al., TODS 2009; the WDPT work of
// Letelier et al. the paper discusses as related).
//
// A graph pattern is *well-designed* when for every OPTIONAL sub-pattern
// (P1 OPTIONAL P2), each variable of P2 that also occurs elsewhere in the
// query outside the OPTIONAL already occurs in P1. Well-designed queries
// are the class on which OPTIONAL behaves "intuitively", and the class on
// which the local safety guards of optimizer/transformations.cc almost
// always pass.
//
// The check is syntactic: a variable "occurs in P1" when any non-OPTIONAL
// element of P1 mentions it, even one UNION branch of several. So it does
// not prove a variable bound in every row of P1, and no rewrite is decided
// by it: it feeds diagnostics (`--explain` prints `well-designed=`) and
// workload studies. OPTIONAL postponement (optimizer/join_order.h) decides
// with its own certain-variable check on the BE-tree instead.
#pragma once

#include <vector>

#include "sparql/ast.h"

namespace sparqluo {

/// One well-designedness violation: an OPTIONAL whose right side shares
/// `variable` with the outside without it being bound on the left.
struct WellDesignedViolation {
  VarId variable = kInvalidVarId;
  /// Depth of the offending OPTIONAL (root group = 0).
  size_t depth = 0;
};

/// Analyzes the pattern; returns all violations (empty = well-designed).
std::vector<WellDesignedViolation> FindWellDesignedViolations(
    const GroupGraphPattern& pattern);

/// Convenience predicate.
inline bool IsWellDesigned(const GroupGraphPattern& pattern) {
  return FindWellDesignedViolations(pattern).empty();
}
inline bool IsWellDesigned(const Query& query) {
  return IsWellDesigned(query.where);
}

}  // namespace sparqluo
