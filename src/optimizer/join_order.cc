#include "optimizer/join_order.h"

#include <algorithm>

namespace sparqluo {

namespace {

bool IsJoinChild(const BeNode& node) {
  return node.is_bgp() || node.is_group() || node.is_union() || node.is_path();
}

/// Orders kids[begin, end): the smallest estimate first (the earliest on
/// ties), then the original order, always preferring the first remaining
/// child that shares a variable with the placed ones. Returns true if the
/// order changed.
bool OrderRun(std::vector<std::unique_ptr<BeNode>>* kids, size_t begin,
              size_t end, const CostModel& cost) {
  size_t lead = begin;
  double lead_size = cost.EstimateResultSize(*(*kids)[begin]);
  for (size_t i = begin + 1; i < end; ++i) {
    double size = cost.EstimateResultSize(*(*kids)[i]);
    if (size < lead_size) {
      lead = i;
      lead_size = size;
    }
  }

  std::vector<size_t> order{lead};
  std::vector<size_t> remaining;
  for (size_t i = begin; i < end; ++i)
    if (i != lead) remaining.push_back(i);
  std::vector<VarId> bound;
  (*kids)[lead]->CollectVariables(&bound);
  auto shares_bound = [&](size_t i) {
    std::vector<VarId> vars;
    (*kids)[i]->CollectVariables(&vars);
    return std::any_of(vars.begin(), vars.end(), [&](VarId v) {
      return std::find(bound.begin(), bound.end(), v) != bound.end();
    });
  };
  while (!remaining.empty()) {
    auto next = std::find_if(remaining.begin(), remaining.end(), shares_bound);
    if (next == remaining.end()) next = remaining.begin();
    order.push_back(*next);
    (*kids)[*next]->CollectVariables(&bound);
    remaining.erase(next);
  }

  if (std::is_sorted(order.begin(), order.end())) return false;
  std::vector<std::unique_ptr<BeNode>> run;
  for (size_t i : order) run.push_back(std::move((*kids)[i]));
  std::move(run.begin(), run.end(), kids->begin() + begin);
  return true;
}

size_t OrderGroup(BeNode* group, const CostModel& cost) {
  size_t changed = 0;
  auto& kids = group->children;
  for (size_t begin = 0; begin < kids.size();) {
    size_t end = begin;
    while (end < kids.size() && IsJoinChild(*kids[end])) ++end;
    if (end - begin > 1 && OrderRun(&kids, begin, end, cost)) ++changed;
    begin = std::max(end, begin + 1);
  }
  for (auto& child : kids) {
    if (child->is_group()) {
      changed += OrderGroup(child.get(), cost);
    } else if (child->is_union() || child->is_optional()) {
      for (auto& sub : child->children) changed += OrderGroup(sub.get(), cost);
    }
  }
  return changed;
}

}  // namespace

size_t OrderJoinRuns(BeTree* tree, const CostModel& cost) {
  return OrderGroup(tree->root.get(), cost);
}

}  // namespace sparqluo
