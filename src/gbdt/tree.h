#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace safe {
namespace gbdt {

/// \brief One node of a regression tree. Children index into the tree's
/// node array; leaves have left == -1.
struct TreeNode {
  int left = -1;
  int right = -1;
  /// Split feature (column index); -1 on leaves.
  int feature = -1;
  /// Rows with x[feature] <= threshold go left.
  double threshold = 0.0;
  /// Leaf weight (learning rate already applied); 0 on internal nodes.
  double value = 0.0;
  /// Loss reduction achieved by this split; 0 on leaves.
  double gain = 0.0;
  /// Direction for missing values.
  bool default_left = true;

  bool is_leaf() const { return left < 0; }
};

/// \brief One split step along a root→leaf path: the feature tested and
/// the threshold used. SAFE's combination miner consumes these.
struct PathStep {
  int feature = -1;
  double threshold = 0.0;
};

/// A root→leaf path as the ordered list of its split steps (the paper's
/// p_j, before de-duplicating repeated features).
using TreePath = std::vector<PathStep>;

/// \brief A single CART-style regression tree produced by boosting.
class RegressionTree {
 public:
  RegressionTree() = default;
  explicit RegressionTree(std::vector<TreeNode> nodes)
      : nodes_(std::move(nodes)) {}

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  bool empty() const { return nodes_.empty(); }

  /// Prediction for one dense feature row (NaN follows default_left).
  double PredictRow(const std::vector<double>& row) const;

  /// Pointer form of PredictRow; the vector overload forwards here. `row`
  /// must hold at least max-split-feature + 1 values. (Serving scores
  /// through gbdt::PackedForest, which reproduces this traversal.)
  double PredictRow(const double* row) const;

  /// All root→leaf paths. Paths to pure leaves of a stump (root == leaf)
  /// yield an empty path and are skipped.
  std::vector<TreePath> ExtractPaths() const;

  /// Serializes to a line-oriented text block (one node per line).
  std::string Serialize() const;

  /// Parses a block produced by Serialize for rows of `num_features`
  /// values. Rejects any tree a traversal could loop in or read past a
  /// row through: every node but the root is the child of exactly one
  /// node with a smaller index, leaves have both children at -1, and
  /// split features lie in [0, num_features).
  [[nodiscard]] static Result<RegressionTree> Deserialize(
      const std::string& text, size_t num_features);

 private:
  std::vector<TreeNode> nodes_;
};

}  // namespace gbdt
}  // namespace safe
