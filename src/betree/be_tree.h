// BGP-based Evaluation Tree (Definition 8).
//
// Node types:
//   kGroup    — group graph pattern node; children evaluated left-to-right,
//               joined by implicit AND (Algorithm 1).
//   kBgp      — leaf holding a maximal BGP.
//   kUnion    — 2+ group children, results combined with ∪_bag.
//   kOptional — exactly 1 group child, left-outer-joined into the running
//               result.
//   kFilter   — retained from the query for semantic completeness; applied
//               to the running result when encountered. Filters are opaque
//               to the merge/inject transformations.
//   kPath     — leaf holding a `*`/`+` property-path closure, evaluated by
//               iterative reachability (src/engine/path_eval) and joined
//               into the running result like a BGP. Opaque to the
//               merge/inject transformations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bgp/bgp.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace sparqluo {

struct BeNode {
  enum class Type { kGroup, kBgp, kUnion, kOptional, kFilter, kPath };

  Type type = Type::kGroup;
  Bgp bgp;            ///< kBgp payload.
  FilterExpr filter;  ///< kFilter payload.
  PathPattern path;   ///< kPath payload.
  std::vector<std::unique_ptr<BeNode>> children;

  explicit BeNode(Type t) : type(t) {}

  bool is_group() const { return type == Type::kGroup; }
  bool is_bgp() const { return type == Type::kBgp; }
  bool is_union() const { return type == Type::kUnion; }
  bool is_optional() const { return type == Type::kOptional; }
  bool is_filter() const { return type == Type::kFilter; }
  bool is_path() const { return type == Type::kPath; }

  /// Deep copy.
  std::unique_ptr<BeNode> Clone() const;

  /// All variables that can be bound under this node.
  void CollectVariables(std::vector<VarId>* out) const;

  /// Adds to `out` the variables bound in every row of this node's result:
  /// those of BGPs and paths, of nested groups' certain variables, and
  /// those every UNION branch binds certainly. OPTIONAL and FILTER nodes
  /// add none.
  void CollectCertainVariables(std::vector<VarId>* out) const;
};

/// A BE-tree: the plan representation for one SPARQL-UO query. The root is
/// always a group node representing the outermost group graph pattern.
struct BeTree {
  std::unique_ptr<BeNode> root;

  BeTree() : root(std::make_unique<BeNode>(BeNode::Type::kGroup)) {}
  explicit BeTree(std::unique_ptr<BeNode> r) : root(std::move(r)) {}

  BeTree Clone() const { return BeTree(root->Clone()); }

  /// Checks the structural invariants of Definition 8: the root is a group
  /// node; UNION nodes have >= 2 children, all groups; OPTIONAL nodes have
  /// exactly one group child; BGP/FILTER nodes are leaves.
  Status Validate() const;

  /// Count_BGP(Q): number of BGP leaves.
  size_t CountBgp() const;

  /// Depth(Q): maximum nesting depth of group graph pattern nodes
  /// (the root group counts as 1).
  size_t Depth() const;
};

/// Debug rendering of the tree structure with BGP contents.
std::string DebugString(const BeTree& tree, const VarTable& vars);

}  // namespace sparqluo
