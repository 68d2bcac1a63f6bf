// Join-run ordering for candidate pruning (§6).
//
// Candidate pruning only pays off when a small result is evaluated before
// the large pattern it can prune, but a group evaluates its children in
// query order. This plan-time pass reorders, in every group, each maximal
// run of consecutive join children (BGP, group, UNION, path): the child
// with the smallest estimated result goes first, then the remaining
// children follow in their original order, except that the next one taken
// is always the first that shares a variable with those already placed.
// OPTIONAL and FILTER children never move, and nothing crosses them, so
// every reorder permutes operands of one associative, commutative join.
//
// The cost model picks only the leading child, not a full join order: a
// group's estimate multiplies in its OPTIONAL sizes, so sorting a whole
// run by estimate misorders groups (Leis et al., VLDB 2015, on how far
// such estimates can be trusted).
#pragma once

#include "betree/be_tree.h"
#include "optimizer/cost_model.h"

namespace sparqluo {

/// Reorders the join runs of every group in `tree`. Returns the number of
/// runs whose order changed.
size_t OrderJoinRuns(BeTree* tree, const CostModel& cost);

}  // namespace sparqluo
