#include "src/gbdt/forest_layout.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace safe {
namespace gbdt {

namespace {

/// 1 when lane value `v` leaves a stepped node to the right: `v >
/// threshold`, or NaN at a node whose default is right. Built from
/// integer ops so the caller's `child[right]` stays a select.
inline int GoesRight(double v, double threshold, uint8_t right_on_missing) {
  return static_cast<int>(v > threshold) |
         (static_cast<int>(std::isnan(v)) &
          static_cast<int>(right_on_missing != 0));
}

}  // namespace

Result<PackedForest> PackedForest::Build(
    const std::vector<RegressionTree>& trees, size_t num_features) {
  return Build(trees, num_features, nullptr);
}

Result<PackedForest> PackedForest::Build(
    const std::vector<RegressionTree>& trees, size_t num_features,
    const std::vector<uint32_t>* feature_map) {
  if (feature_map != nullptr && feature_map->size() < num_features) {
    return Status::InvalidArgument(
        "forest layout: feature map covers " +
        std::to_string(feature_map->size()) + " of " +
        std::to_string(num_features) + " features");
  }
  auto remap = [&](int feature) {
    return feature_map == nullptr
               ? static_cast<uint32_t>(feature)
               : (*feature_map)[static_cast<size_t>(feature)];
  };
  PackedForest forest;
  forest.trees_.reserve(trees.size());
  // Per node of the current tree: leaves under it (capped one past the
  // bitvector limit, so a shared-node tree cannot overflow the count)
  // and its longest hop count to a leaf.
  std::vector<uint32_t> leaves;
  std::vector<uint32_t> depth;
  // PredictRow returns 0.0 for an empty tree; a single zero leaf (no
  // steps, no bitvector conditions) reproduces that contribution exactly.
  const std::vector<TreeNode> zero_leaf(1);

  for (size_t t = 0; t < trees.size(); ++t) {
    const std::vector<TreeNode>& src =
        trees[t].empty() ? zero_leaf : trees[t].nodes();
    TreeRef ref;
    ref.step_begin = static_cast<uint32_t>(forest.step_nodes_.size());

    // One reverse pass sizes every subtree: children come after their
    // parent, so both are final when the parent is reached. No recursion,
    // so a chain as deep as the node count cannot exhaust the stack.
    const size_t count = src.size();
    leaves.assign(count, 1);
    depth.assign(count, 0);
    for (size_t i = count; i-- > 0;) {
      const TreeNode& node = src[i];
      if (node.is_leaf()) continue;
      if (node.feature < 0 ||
          static_cast<size_t>(node.feature) >= num_features) {
        return Status::InvalidArgument(
            "forest layout: tree " + std::to_string(t) +
            " splits on feature " + std::to_string(node.feature) +
            " outside [0, " + std::to_string(num_features) + ")");
      }
      for (const int child : {node.left, node.right}) {
        if (child <= static_cast<int64_t>(i) ||
            static_cast<size_t>(child) >= count) {
          return Status::InvalidArgument(
              "forest layout: tree " + std::to_string(t) + " node " +
              std::to_string(i) + " has child " + std::to_string(child) +
              " outside (" + std::to_string(i) + ", " +
              std::to_string(count) + ")");
        }
      }
      const auto l = static_cast<size_t>(node.left);
      const auto r = static_cast<size_t>(node.right);
      leaves[i] = std::min<uint32_t>(leaves[l] + leaves[r],
                                     kMaxBitvectorLeaves + 1);
      depth[i] = 1 + std::max(depth[l], depth[r]);
    }

    // Stepped copy, built for every tree: the single-row walk reads it
    // for all trees, the block loop for the deep ones.
    ref.depth = depth[0];
    for (size_t i = 0; i < count; ++i) {
      const TreeNode& node = src[i];
      StepNode step;
      if (node.is_leaf()) {
        step.child[0] = step.child[1] = static_cast<int32_t>(i);  // self-loop
      } else {
        step.threshold = node.threshold;
        step.child[0] = node.left;
        step.child[1] = node.right;
        step.feature = remap(node.feature);
        step.right_on_missing = node.default_left ? 0 : 1;
      }
      forest.step_nodes_.push_back(step);
      forest.step_values_.push_back(node.value);
    }

    ref.bitvector = leaves[0] <= kMaxBitvectorLeaves;
    if (ref.bitvector) {
      ref.node_begin = static_cast<uint32_t>(forest.nodes_.size());
      ref.leaf_begin = static_cast<uint32_t>(forest.leaf_values_.size());
      // In-order DFS: assign leaf ids left-to-right, emit one condition
      // per internal node whose mask clears its left subtree's leaf bits.
      // (Any node order works — masks commute under AND — DFS keeps the
      // layout deterministic.) At most 64 leaves bound the recursion to
      // depth 63. The exit-leaf theorem: ANDing the masks of every node
      // whose condition routes RIGHT leaves the true exit leaf as the
      // lowest set bit, because each right turn removes exactly the
      // left-subtree leaves that turn makes unreachable, and any
      // surviving bit below the exit leaf would have been cleared by the
      // right turn that skipped it.
      size_t next_leaf = 0;
      auto dfs = [&](auto&& self, int idx) -> void {
        const TreeNode& node = src[static_cast<size_t>(idx)];
        if (node.is_leaf()) {
          forest.leaf_values_.push_back(node.value);
          ++next_leaf;
          return;
        }
        const size_t left_first = next_leaf;
        Node packed;  // placeholder; mask patched after the left subtree
        packed.threshold = node.threshold;
        packed.feature = remap(node.feature);
        packed.right_on_missing = node.default_left ? 0 : 1;
        const size_t slot = forest.nodes_.size();
        forest.nodes_.push_back(packed);
        self(self, node.left);
        const size_t width = next_leaf - left_first;
        // width < 64 always: the right sibling subtree holds >= 1 of the
        // <= 64 leaves, so the shift below never reaches 64.
        forest.nodes_[slot].mask =
            ~(((uint64_t{1} << width) - 1) << left_first);
        self(self, node.right);
      };
      dfs(dfs, 0);
      ref.node_end = static_cast<uint32_t>(forest.nodes_.size());
    }
    forest.trees_.push_back(ref);
  }
  return forest;
}

// lint: hot-path
void PackedForest::AccumulateMargins(const double* features, size_t stride,
                                     size_t n, double* margins) const {
  if (n == 1) {
    // A single row: the stepped walk over every tree, kGroup trees in
    // lock step. One tree's walk is a chain of dependent loads (node ->
    // feature -> child) with nothing to overlap it on the select path;
    // kGroup independent chains per step keep the core busy, whether the
    // row's branches would have been predictable or not. Self-looping
    // leaves let a group run its deepest tree's step count (boosters
    // grow every tree to one max_depth, so little of that is wasted).
    // Each group's exit leaves are added in tree order, so the sum is
    // unchanged.
    constexpr size_t kGroup = 8;
    double margin = margins[0];
    for (size_t t = 0; t < trees_.size(); t += kGroup) {
      const size_t g = std::min(kGroup, trees_.size() - t);
      const TreeRef* refs = trees_.data() + t;
      int32_t idx[kGroup] = {};
      uint32_t depth = 0;
      for (size_t k = 0; k < g; ++k) depth = std::max(depth, refs[k].depth);
      for (uint32_t d = 0; d < depth; ++d) {
        for (size_t k = 0; k < g; ++k) {
          const StepNode& node = step_nodes_[refs[k].step_begin + idx[k]];
          idx[k] = node.child[GoesRight(features[node.feature * stride],
                                        node.threshold,
                                        node.right_on_missing)];
        }
      }
      for (size_t k = 0; k < g; ++k) {
        margin += step_values_[refs[k].step_begin + idx[k]];
      }
    }
    margins[0] = margin;
    return;
  }
  // Bitvector trees run node-outer / lane-inner: one condition is
  // evaluated for a whole chunk of lanes before moving to the next node.
  // Each node reads one contiguous span of the panel (features +
  // feature * stride), and the mask update is a branch-free select, so
  // the inner loops carry no data-dependent branches or dependent loads
  // and auto-vectorize. The NaN default folds into the comparison
  // direction per node — `v > t` is false for NaN (routes left, the
  // default when right_on_missing == 0), `!(v <= t)` is true for NaN
  // (routes right) — so no explicit isnan test is needed, and the
  // vectorized compare agrees with the scalar one because IEEE ordered
  // comparisons treat NaN identically in both.
  constexpr size_t kChunk = 128;
  uint64_t bv[kChunk];
  int32_t idx[kChunk];
  for (const TreeRef& ref : trees_) {
    if (ref.bitvector) {
      const Node* begin = nodes_.data() + ref.node_begin;
      const Node* end = nodes_.data() + ref.node_end;
      const double* leaves = leaf_values_.data() + ref.leaf_begin;
      for (size_t base = 0; base < n; base += kChunk) {
        const size_t m = std::min(kChunk, n - base);
        for (size_t k = 0; k < m; ++k) bv[k] = ~0ULL;
        for (const Node* node = begin; node != end; ++node) {
          const double* f = features + node->feature * stride + base;
          const double threshold = node->threshold;
          const uint64_t mask = node->mask;
          // Masks commute under AND, so applying this node's mask to all
          // lanes before the next node's yields the same bitvector as a
          // per-lane node loop.
          if (node->right_on_missing != 0) {
            for (size_t k = 0; k < m; ++k) {
              bv[k] &= !(f[k] <= threshold) ? mask : ~0ULL;
            }
          } else {
            for (size_t k = 0; k < m; ++k) {
              bv[k] &= f[k] > threshold ? mask : ~0ULL;
            }
          }
        }
        for (size_t k = 0; k < m; ++k) {
          margins[base + k] += leaves[std::countr_zero(bv[k])];
        }
      }
    } else {
      // Deep tree: the stepped walk with the lanes of a chunk advancing
      // together, one level per pass.
      const StepNode* nodes = step_nodes_.data() + ref.step_begin;
      const double* values = step_values_.data() + ref.step_begin;
      for (size_t base = 0; base < n; base += kChunk) {
        const size_t m = std::min(kChunk, n - base);
        for (size_t k = 0; k < m; ++k) idx[k] = 0;
        for (uint32_t d = 0; d < ref.depth; ++d) {
          for (size_t k = 0; k < m; ++k) {
            const StepNode& node = nodes[idx[k]];
            idx[k] = node.child[GoesRight(
                features[node.feature * stride + (base + k)], node.threshold,
                node.right_on_missing)];
          }
        }
        for (size_t k = 0; k < m; ++k) margins[base + k] += values[idx[k]];
      }
    }
  }
}

}  // namespace gbdt
}  // namespace safe
