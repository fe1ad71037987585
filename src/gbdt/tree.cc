#include "src/gbdt/tree.h"

#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace safe {
namespace gbdt {

double RegressionTree::PredictRow(const std::vector<double>& row) const {
  return PredictRow(row.data());
}

double RegressionTree::PredictRow(const double* row) const {
  if (nodes_.empty()) return 0.0;
  int idx = 0;
  while (!nodes_[idx].is_leaf()) {
    const TreeNode& node = nodes_[idx];
    const double v = row[static_cast<size_t>(node.feature)];
    if (std::isnan(v)) {
      idx = node.default_left ? node.left : node.right;
    } else {
      idx = (v <= node.threshold) ? node.left : node.right;
    }
  }
  return nodes_[idx].value;
}

std::vector<TreePath> RegressionTree::ExtractPaths() const {
  std::vector<TreePath> paths;
  if (nodes_.empty() || nodes_[0].is_leaf()) return paths;
  // Iterative DFS carrying the current path of split steps.
  std::vector<std::pair<int, TreePath>> stack;
  stack.emplace_back(0, TreePath{});
  while (!stack.empty()) {
    auto [idx, path] = std::move(stack.back());
    stack.pop_back();
    const TreeNode& node = nodes_[static_cast<size_t>(idx)];
    if (node.is_leaf()) {
      if (!path.empty()) paths.push_back(std::move(path));
      continue;
    }
    TreePath extended = path;
    extended.push_back(PathStep{node.feature, node.threshold});
    stack.emplace_back(node.right, extended);
    stack.emplace_back(node.left, std::move(extended));
  }
  return paths;
}

std::string RegressionTree::Serialize() const {
  std::ostringstream out;
  out << "tree " << nodes_.size() << "\n";
  for (const TreeNode& n : nodes_) {
    out << n.left << " " << n.right << " " << n.feature << " "
        << FormatDoubleExact(n.threshold) << " " << FormatDoubleExact(n.value)
        << " " << FormatDoubleExact(n.gain) << " " << (n.default_left ? 1 : 0)
        << "\n";
  }
  return out.str();
}

Result<RegressionTree> RegressionTree::Deserialize(const std::string& text,
                                                   size_t num_features) {
  std::istringstream in(text);
  std::string tag;
  size_t count = 0;
  in >> tag >> count;
  if (!in || tag != "tree") {
    return Status::InvalidArgument("tree deserialize: bad header");
  }
  // Grown node by node: the count is untrusted, and a node line must be
  // read before its slot is allocated.
  std::vector<TreeNode> nodes;
  for (size_t i = 0; i < count; ++i) {
    TreeNode n;
    int default_left = 1;
    // Doubles parse token-wise through ParseDouble: thresholds can be
    // "inf" (the missing-vs-present split), which istream >> rejects.
    std::string threshold_token;
    std::string value_token;
    std::string gain_token;
    in >> n.left >> n.right >> n.feature >> threshold_token >>
        value_token >> gain_token >> default_left;
    if (!in) {
      return Status::InvalidArgument("tree deserialize: truncated at node " +
                                     std::to_string(i));
    }
    auto threshold = ParseDouble(threshold_token);
    auto value = ParseDouble(value_token);
    auto gain = ParseDouble(gain_token);
    if (!threshold.ok() || !value.ok() || !gain.ok()) {
      return Status::InvalidArgument("tree deserialize: bad number at node " +
                                     std::to_string(i));
    }
    n.threshold = *threshold;
    n.value = *value;
    n.gain = *gain;
    n.default_left = default_left != 0;
    nodes.push_back(n);
  }
  // Children point forward, so every traversal ends; one parent per node
  // keeps the node graph a tree (a shared child would let ExtractPaths
  // enumerate exponentially many paths).
  std::vector<char> has_parent(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    auto invalid = [&](const std::string& what) {
      return Status::InvalidArgument("tree deserialize: " + what +
                                     " at node " + std::to_string(i));
    };
    if (n.is_leaf()) {
      if (n.left != -1 || n.right != -1) {
        return invalid("leaf children must be -1");
      }
      continue;
    }
    if (n.feature < 0 || static_cast<size_t>(n.feature) >= num_features) {
      return invalid("split feature " + std::to_string(n.feature) +
                     " outside [0, " + std::to_string(num_features) + ")");
    }
    for (const int child : {n.left, n.right}) {
      if (child <= static_cast<int>(i) ||
          static_cast<size_t>(child) >= nodes.size() ||
          has_parent[static_cast<size_t>(child)]) {
        return invalid("bad child " + std::to_string(child));
      }
      has_parent[static_cast<size_t>(child)] = 1;
    }
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (!has_parent[i]) {
      return Status::InvalidArgument("tree deserialize: node " +
                                     std::to_string(i) + " has no parent");
    }
  }
  return RegressionTree(std::move(nodes));
}

}  // namespace gbdt
}  // namespace safe
