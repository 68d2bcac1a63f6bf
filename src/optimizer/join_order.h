// Join-run ordering and OPTIONAL postponement for candidate pruning (§6).
//
// Candidate pruning only pays off when a small result is evaluated before
// the large pattern it can prune, but a group evaluates its children in
// query order. This plan-time pass walks the tree bottom-up and, in every
// group, handles each maximal run of two or more consecutive join children
// (BGP, group, UNION, path) in two steps.
//
// 1. OPTIONAL postponement. Each child *group* of the run gives up its
//    trailing OPTIONAL children, and the parent re-inserts them directly
//    after the run, in their original order. An OPTIONAL moves only when
//    every variable of its body that also occurs in another child of the
//    parent is certain in what stays behind: bound in every row of it.
//    Then (P1 OPT P2) AND P3 == (P1 AND P3) OPT P2 (Pérez, Arenas and
//    Gutierrez, TODS 2009; the argument holds for bags), so the mandatory
//    parts join first and the postponed bodies are pruned by their rows.
//    OPTIONALs move only out of child groups of a run: never out of a UNION
//    branch, an OPTIONAL body, or past a FILTER.
// 2. Ordering. The child with the smallest estimated result goes first,
//    then the remaining children follow in their original order, except
//    that the next one taken is always the first that shares a variable
//    with those already placed. Nothing crosses an OPTIONAL or FILTER
//    child, so every reorder permutes operands of one associative,
//    commutative join.
//
// The cost model picks only the leading child, not a full join order: a
// group's estimate multiplies in its OPTIONAL sizes, so sorting a whole
// run by estimate misorders groups (Leis et al., VLDB 2015, on how far
// such estimates can be trusted).
#pragma once

#include <cstddef>

#include "betree/be_tree.h"
#include "optimizer/cost_model.h"

namespace sparqluo {

struct JoinOrderStats {
  size_t runs_reordered = 0;       ///< Join runs whose order changed.
  size_t optionals_postponed = 0;  ///< OPTIONALs moved past their run.
};

/// Postpones the OPTIONALs and reorders the join runs of every group in
/// `tree`.
JoinOrderStats OrderJoinRuns(BeTree* tree, const CostModel& cost);

}  // namespace sparqluo
