#include "optimizer/transformations.h"

#include <cassert>
#include <functional>
#include <numeric>

namespace sparqluo {

void CoalesceGroupBgps(BeNode* group) {
  auto& kids = group->children;
  std::vector<size_t> bgp_idx;
  for (size_t i = 0; i < kids.size(); ++i)
    if (kids[i]->is_bgp() && !kids[i]->bgp.empty()) bgp_idx.push_back(i);
  if (bgp_idx.size() < 2) return;

  // Union-find over the BGP children.
  std::vector<size_t> parent(bgp_idx.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t a = 0; a < bgp_idx.size(); ++a)
    for (size_t b = a + 1; b < bgp_idx.size(); ++b)
      if (kids[bgp_idx[a]]->bgp.CoalescableWith(kids[bgp_idx[b]]->bgp))
        parent[find(a)] = find(b);

  // Absorb each component into its leftmost member, in left-to-right order
  // so the coalesced BGP's triple order is stable.
  std::vector<bool> remove(kids.size(), false);
  for (size_t a = 0; a < bgp_idx.size(); ++a) {
    size_t root = find(a);
    size_t leader = SIZE_MAX;
    for (size_t b = 0; b < bgp_idx.size(); ++b) {
      if (find(b) == root) {
        leader = b;
        break;
      }
    }
    if (leader == a) continue;
    kids[bgp_idx[leader]]->bgp.Absorb(kids[bgp_idx[a]]->bgp);
    remove[bgp_idx[a]] = true;
  }
  // A single pass suffices: coalescability is preserved under absorption
  // (the union of two components stays one component), and components were
  // computed transitively up front.
  size_t w = 0;
  for (size_t i = 0; i < kids.size(); ++i) {
    if (!remove[i]) {
      if (w != i) kids[w] = std::move(kids[i]);
      ++w;
    }
  }
  kids.resize(w);
}

namespace {

/// True iff `branch` (a group node) has a BGP child coalescable with `bgp`.
bool HasCoalescableBgpChild(const BeNode& branch, const Bgp& bgp) {
  for (const auto& c : branch.children)
    if (c->is_bgp() && !c->bgp.empty() && c->bgp.CoalescableWith(bgp))
      return true;
  return false;
}

bool ContainsVar(const std::vector<VarId>& vars, VarId v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

/// Well-designedness guard for inserting `p1_vars` as the leftmost element
/// of `group`: every variable shared between P1 and a top-level OPTIONAL of
/// the group must already be bound by the group's certain part preceding
/// that OPTIONAL. Otherwise the insertion changes the OPTIONAL's left-join
/// base and Theorem 1/2 no longer applies (the theorems justify joining P1
/// with the group's *result*, not re-basing its left joins).
bool SafeToInsert(const BeNode& group, const std::vector<VarId>& p1_vars) {
  std::vector<VarId> certain;
  for (const auto& e : group.children) {
    if (e->is_optional()) {
      std::vector<VarId> evars;
      e->CollectVariables(&evars);
      for (VarId v : p1_vars)
        if (ContainsVar(evars, v) && !ContainsVar(certain, v)) return false;
    } else {
      // A UNION branch's or a FILTER's variables are not bound in every
      // result row: only the certain ones cover the OPTIONAL's base.
      e->CollectCertainVariables(&certain);
    }
  }
  return true;
}

/// Guard for moving P1's bindings across the OPTIONAL siblings lying
/// strictly between positions `lo` and `hi` in `group` (exclusive): a merge
/// relocates P1's join from its position into the UNION node, so any
/// intervening OPTIONAL whose right side shares an uncovered variable with
/// P1 would see a different left-join base.
bool SafeToRelocateAcross(const BeNode& group, size_t lo, size_t hi,
                          size_t p1_idx, const std::vector<VarId>& p1_vars) {
  std::vector<VarId> certain;
  for (size_t k = 0; k < hi && k < group.children.size(); ++k) {
    const BeNode& e = *group.children[k];
    if (e.is_optional()) {
      if (k > lo) {
        std::vector<VarId> evars;
        e.CollectVariables(&evars);
        for (VarId v : p1_vars)
          if (ContainsVar(evars, v) && !ContainsVar(certain, v)) return false;
      }
    } else if (k != p1_idx) {
      e.CollectCertainVariables(&certain);
    }
  }
  return true;
}

/// Inserts a copy of `bgp` as the leftmost child of `branch` and
/// re-coalesces to maximality.
void InsertAndCoalesce(BeNode* branch, const Bgp& bgp) {
  auto node = std::make_unique<BeNode>(BeNode::Type::kBgp);
  node->bgp = bgp;
  branch->children.insert(branch->children.begin(), std::move(node));
  CoalesceGroupBgps(branch);
}

}  // namespace

bool CanMerge(const BeNode& group, size_t bgp_idx, size_t union_idx) {
  if (bgp_idx >= group.children.size() || union_idx >= group.children.size())
    return false;
  if (bgp_idx == union_idx) return false;
  const BeNode& b = *group.children[bgp_idx];
  const BeNode& u = *group.children[union_idx];
  if (!b.is_bgp() || b.bgp.empty() || !u.is_union()) return false;
  bool coalescable = false;
  for (const auto& branch : u.children)
    if (HasCoalescableBgpChild(*branch, b.bgp)) coalescable = true;
  if (!coalescable) return false;
  // Semantic safety: the insertion must not re-base any OPTIONAL.
  std::vector<VarId> p1_vars = b.bgp.Variables();
  for (const auto& branch : u.children)
    if (!SafeToInsert(*branch, p1_vars)) return false;
  size_t lo = std::min(bgp_idx, union_idx);
  size_t hi = std::max(bgp_idx, union_idx);
  return SafeToRelocateAcross(group, lo, hi, bgp_idx, p1_vars);
}

void ApplyMerge(BeNode* group, size_t bgp_idx, size_t union_idx) {
  assert(CanMerge(*group, bgp_idx, union_idx));
  Bgp bgp = group->children[bgp_idx]->bgp;
  BeNode& u = *group->children[union_idx];
  for (auto& branch : u.children) InsertAndCoalesce(branch.get(), bgp);
  group->children.erase(group->children.begin() +
                        static_cast<std::ptrdiff_t>(bgp_idx));
}

bool CanInject(const BeNode& group, size_t bgp_idx, size_t opt_idx) {
  if (bgp_idx >= group.children.size() || opt_idx >= group.children.size())
    return false;
  if (opt_idx <= bgp_idx) return false;  // OPTIONAL must be to the right
  const BeNode& b = *group.children[bgp_idx];
  const BeNode& o = *group.children[opt_idx];
  if (!b.is_bgp() || b.bgp.empty() || !o.is_optional()) return false;
  if (!HasCoalescableBgpChild(*o.children[0], b.bgp)) return false;
  return SafeToInsert(*o.children[0], b.bgp.Variables());
}

void ApplyInject(BeNode* group, size_t bgp_idx, size_t opt_idx) {
  assert(CanInject(*group, bgp_idx, opt_idx));
  const Bgp& bgp = group->children[bgp_idx]->bgp;
  InsertAndCoalesce(group->children[opt_idx]->children[0].get(), bgp);
}

}  // namespace sparqluo
