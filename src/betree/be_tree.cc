#include "betree/be_tree.h"

#include <algorithm>
#include <functional>

namespace sparqluo {

std::unique_ptr<BeNode> BeNode::Clone() const {
  auto copy = std::make_unique<BeNode>(type);
  copy->bgp = bgp;
  copy->filter = filter;
  copy->path = path;
  copy->children.reserve(children.size());
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

void BeNode::CollectVariables(std::vector<VarId>* out) const {
  auto add = [out](VarId v) {
    if (std::find(out->begin(), out->end(), v) == out->end()) out->push_back(v);
  };
  if (is_bgp()) {
    for (VarId v : bgp.Variables()) add(v);
    return;
  }
  if (is_path()) {
    if (path.subject.is_var) add(path.subject.var);
    if (path.object.is_var) add(path.object.var);
    return;
  }
  for (const auto& c : children) c->CollectVariables(out);
}

void BeNode::CollectCertainVariables(std::vector<VarId>* out) const {
  switch (type) {
    case Type::kBgp:
    case Type::kPath:
      CollectVariables(out);
      return;
    case Type::kGroup:
      for (const auto& c : children) c->CollectCertainVariables(out);
      return;
    case Type::kUnion: {
      auto contains = [](const std::vector<VarId>& vars, VarId v) {
        return std::find(vars.begin(), vars.end(), v) != vars.end();
      };
      std::vector<VarId> common;
      children[0]->CollectCertainVariables(&common);
      for (size_t b = 1; b < children.size(); ++b) {
        std::vector<VarId> branch;
        children[b]->CollectCertainVariables(&branch);
        common.erase(
            std::remove_if(common.begin(), common.end(),
                           [&](VarId v) { return !contains(branch, v); }),
            common.end());
      }
      for (VarId v : common)
        if (!contains(*out, v)) out->push_back(v);
      return;
    }
    case Type::kOptional:
    case Type::kFilter:
      return;
  }
}

namespace {

Status ValidateNode(const BeNode& node, bool is_root) {
  switch (node.type) {
    case BeNode::Type::kGroup:
      for (const auto& c : node.children) {
        SPARQLUO_RETURN_NOT_OK(ValidateNode(*c, false));
      }
      return Status::OK();
    case BeNode::Type::kBgp:
      if (is_root) return Status::Internal("BE-tree root must be a group node");
      if (!node.children.empty())
        return Status::Internal("BGP node must be a leaf");
      return Status::OK();
    case BeNode::Type::kUnion:
      if (is_root) return Status::Internal("BE-tree root must be a group node");
      if (node.children.size() < 2)
        return Status::Internal("UNION node must have >= 2 children");
      for (const auto& c : node.children) {
        if (!c->is_group())
          return Status::Internal("UNION children must be group nodes");
        SPARQLUO_RETURN_NOT_OK(ValidateNode(*c, false));
      }
      return Status::OK();
    case BeNode::Type::kOptional:
      if (is_root) return Status::Internal("BE-tree root must be a group node");
      if (node.children.size() != 1)
        return Status::Internal("OPTIONAL node must have exactly 1 child");
      if (!node.children[0]->is_group())
        return Status::Internal("OPTIONAL child must be a group node");
      return ValidateNode(*node.children[0], false);
    case BeNode::Type::kFilter:
      if (is_root) return Status::Internal("BE-tree root must be a group node");
      if (!node.children.empty())
        return Status::Internal("FILTER node must be a leaf");
      return Status::OK();
    case BeNode::Type::kPath:
      if (is_root) return Status::Internal("BE-tree root must be a group node");
      if (!node.children.empty())
        return Status::Internal("PATH node must be a leaf");
      return Status::OK();
  }
  return Status::Internal("unknown node type");
}

}  // namespace

Status BeTree::Validate() const {
  if (!root) return Status::Internal("BE-tree has no root");
  if (!root->is_group()) return Status::Internal("root must be a group node");
  return ValidateNode(*root, true);
}

size_t BeTree::CountBgp() const {
  size_t n = 0;
  std::function<void(const BeNode&)> walk = [&](const BeNode& node) {
    if (node.is_bgp() && !node.bgp.empty()) ++n;
    for (const auto& c : node.children) walk(*c);
  };
  walk(*root);
  return n;
}

size_t BeTree::Depth() const {
  std::function<size_t(const BeNode&)> walk = [&](const BeNode& node) -> size_t {
    size_t best = 0;
    for (const auto& c : node.children) best = std::max(best, walk(*c));
    return best + (node.is_group() ? 1 : 0);
  };
  return walk(*root);
}

namespace {

void Render(const BeNode& node, const VarTable& vars, int indent,
            std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (node.type) {
    case BeNode::Type::kGroup: *out += pad + "Group\n"; break;
    case BeNode::Type::kBgp:
      *out += pad + "BGP { " + node.bgp.ToString(vars) + " }\n";
      break;
    case BeNode::Type::kUnion: *out += pad + "UNION\n"; break;
    case BeNode::Type::kOptional: *out += pad + "OPTIONAL\n"; break;
    case BeNode::Type::kFilter: *out += pad + "FILTER\n"; break;
    case BeNode::Type::kPath: {
      auto slot = [&vars](const PatternSlot& s) {
        return s.is_var ? "?" + vars.Name(s.var) : s.term.ToString();
      };
      *out += pad + "PATH " + slot(node.path.subject) + " " +
              slot(node.path.object) + "\n";
      break;
    }
  }
  for (const auto& c : node.children) Render(*c, vars, indent + 1, out);
}

}  // namespace

std::string DebugString(const BeTree& tree, const VarTable& vars) {
  std::string out;
  Render(*tree.root, vars, 0, &out);
  return out;
}

}  // namespace sparqluo
