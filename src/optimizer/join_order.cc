#include "optimizer/join_order.h"

#include <algorithm>
#include <iterator>

namespace sparqluo {

namespace {

bool IsJoinChild(const BeNode& node) {
  return node.is_bgp() || node.is_group() || node.is_union() || node.is_path();
}

bool Contains(const std::vector<VarId>& vars, VarId v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

/// Step 1 for kids[begin, end): every child group gives up the longest
/// suffix of its trailing OPTIONALs whose bodies share with the parent's
/// other children only variables certain in what the group keeps. The
/// moved OPTIONALs are inserted right after the run, in their original
/// order. Returns how many moved.
size_t PostponeOptionals(std::vector<std::unique_ptr<BeNode>>* kids,
                         size_t begin, size_t end) {
  std::vector<std::vector<VarId>> kid_vars;  // filled on first use
  std::vector<std::unique_ptr<BeNode>> moved;
  for (size_t i = begin; i < end; ++i) {
    if (!(*kids)[i]->is_group()) continue;
    auto& sub = (*kids)[i]->children;
    size_t keep = sub.size();
    while (keep > 0 && sub[keep - 1]->is_optional()) --keep;
    if (keep == 0 || keep == sub.size()) continue;

    if (kid_vars.empty()) {
      kid_vars.resize(kids->size());
      for (size_t j = 0; j < kids->size(); ++j)
        (*kids)[j]->CollectVariables(&kid_vars[j]);
    }
    std::vector<VarId> certain;
    for (size_t k = 0; k < keep; ++k)
      sub[k]->CollectCertainVariables(&certain);
    auto postponable = [&](const BeNode& optional) {
      std::vector<VarId> body;
      optional.CollectVariables(&body);
      return std::all_of(body.begin(), body.end(), [&](VarId v) {
        if (Contains(certain, v)) return true;
        for (size_t j = 0; j < kid_vars.size(); ++j)
          if (j != i && Contains(kid_vars[j], v)) return false;
        return true;
      });
    };
    size_t from = sub.size();
    while (from > keep && postponable(*sub[from - 1])) --from;
    std::move(sub.begin() + from, sub.end(), std::back_inserter(moved));
    sub.erase(sub.begin() + from, sub.end());
  }
  kids->insert(kids->begin() + end, std::make_move_iterator(moved.begin()),
               std::make_move_iterator(moved.end()));
  return moved.size();
}

/// Step 2: orders kids[begin, end): the smallest estimate first (the
/// earliest on ties), then the original order, always preferring the first
/// remaining child that shares a variable with the placed ones. Returns
/// true if the order changed.
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
    return std::any_of(vars.begin(), vars.end(),
                       [&](VarId v) { return Contains(bound, v); });
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

void OrderGroup(BeNode* group, const CostModel& cost, JoinOrderStats* stats) {
  // Bottom-up, so OPTIONALs a child group received from its own children
  // can move on up in the same pass.
  for (auto& child : group->children) {
    if (child->is_group()) {
      OrderGroup(child.get(), cost, stats);
    } else if (child->is_union() || child->is_optional()) {
      for (auto& sub : child->children) OrderGroup(sub.get(), cost, stats);
    }
  }
  auto& kids = group->children;
  for (size_t begin = 0; begin < kids.size();) {
    size_t end = begin;
    while (end < kids.size() && IsJoinChild(*kids[end])) ++end;
    if (end - begin > 1) {
      stats->optionals_postponed += PostponeOptionals(&kids, begin, end);
      if (OrderRun(&kids, begin, end, cost)) ++stats->runs_reordered;
    }
    begin = std::max(end, begin + 1);
  }
}

}  // namespace

JoinOrderStats OrderJoinRuns(BeTree* tree, const CostModel& cost) {
  JoinOrderStats stats;
  OrderGroup(tree->root.get(), cost, &stats);
  return stats;
}

}  // namespace sparqluo
