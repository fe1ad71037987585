// PackedForest (src/gbdt/forest_layout.h) must reproduce
// RegressionTree::PredictRow margins EXACTLY — same accumulation order,
// same bits — across randomized trees of depth 1..8, missing values
// routed in both directions, empty trees, trees over the 64-leaf
// bitvector limit, chains as deep as their node count, and remapped split
// features, for both the single-row walk (AccumulateMargins at n == 1)
// and the whole-block traversal.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/gbdt/forest_layout.h"
#include "src/gbdt/tree.h"

namespace safe {
namespace gbdt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

::testing::AssertionResult SameBits(double expected, double actual) {
  if (std::isnan(expected) && std::isnan(actual)) {
    return ::testing::AssertionSuccess();
  }
  if (Bits(expected) == Bits(actual)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bits differ: expected=" << expected << " actual=" << actual;
}

/// Recursively grows a random subtree; interior split probability decays
/// with depth so the sweep covers stumps through full depth-8 trees.
int GrowNode(std::vector<TreeNode>* nodes, Rng* rng, int depth, int max_depth,
             int num_features) {
  const int idx = static_cast<int>(nodes->size());
  nodes->push_back(TreeNode{});
  const bool leaf =
      depth >= max_depth || (depth > 0 && rng->NextDouble() < 0.25);
  if (leaf) {
    (*nodes)[idx].value = rng->NextDouble() * 2.0 - 1.0;
    return idx;
  }
  const int feature =
      static_cast<int>(rng->NextUint64Below(static_cast<uint64_t>(num_features)));
  const double threshold = rng->NextDouble() * 2.0 - 1.0;
  const bool default_left = rng->NextDouble() < 0.5;
  const int left = GrowNode(nodes, rng, depth + 1, max_depth, num_features);
  const int right = GrowNode(nodes, rng, depth + 1, max_depth, num_features);
  (*nodes)[idx].feature = feature;
  (*nodes)[idx].threshold = threshold;
  (*nodes)[idx].default_left = default_left;
  (*nodes)[idx].left = left;
  (*nodes)[idx].right = right;
  return idx;
}

RegressionTree RandomTree(Rng* rng, int max_depth, int num_features) {
  std::vector<TreeNode> nodes;
  GrowNode(&nodes, rng, 0, max_depth, num_features);
  return RegressionTree(std::move(nodes));
}

/// Full binary tree of the given depth: depth 7 has 128 leaves, which
/// exceeds kMaxBitvectorLeaves and leaves the tree to the stepped layout.
int GrowFullNode(std::vector<TreeNode>* nodes, Rng* rng, int depth,
                 int max_depth, int num_features) {
  const int idx = static_cast<int>(nodes->size());
  nodes->push_back(TreeNode{});
  if (depth >= max_depth) {
    (*nodes)[idx].value = rng->NextDouble() * 2.0 - 1.0;
    return idx;
  }
  const int feature =
      static_cast<int>(rng->NextUint64Below(static_cast<uint64_t>(num_features)));
  const double threshold = rng->NextDouble() * 2.0 - 1.0;
  const bool default_left = rng->NextDouble() < 0.5;
  const int left = GrowFullNode(nodes, rng, depth + 1, max_depth, num_features);
  const int right =
      GrowFullNode(nodes, rng, depth + 1, max_depth, num_features);
  (*nodes)[idx].feature = feature;
  (*nodes)[idx].threshold = threshold;
  (*nodes)[idx].default_left = default_left;
  (*nodes)[idx].left = left;
  (*nodes)[idx].right = right;
  return idx;
}

RegressionTree FullTree(Rng* rng, int depth, int num_features) {
  std::vector<TreeNode> nodes;
  GrowFullNode(&nodes, rng, 0, depth, num_features);
  return RegressionTree(std::move(nodes));
}

/// A chain of `depth` splits (2 * depth + 1 nodes): node 2k splits on
/// feature k % 2, its left child is a leaf and its right child the next
/// split. Thresholds rise along the chain, so a row's exit depth follows
/// its values. RegressionTree::Deserialize accepts the shape at any depth.
RegressionTree ChainTree(Rng* rng, size_t depth) {
  std::vector<TreeNode> nodes(2 * depth + 1);
  for (size_t k = 0; k < depth; ++k) {
    TreeNode& split = nodes[2 * k];
    split.left = static_cast<int>(2 * k + 1);
    split.right = static_cast<int>(2 * k + 2);
    split.feature = static_cast<int>(k % 2);
    split.threshold = -1.2 + 2.4 * static_cast<double>(k) /
                                 static_cast<double>(depth);
    split.default_left = k % 3 == 0;
    nodes[2 * k + 1].value = rng->NextDouble() * 2.0 - 1.0;
  }
  nodes[2 * depth].value = rng->NextDouble() * 2.0 - 1.0;
  return RegressionTree(std::move(nodes));
}

/// Random rows over [-1.2, 1.2] with a seed-dependent share of NaNs so
/// thresholds are straddled and missing routing fires on every tree.
std::vector<std::vector<double>> RandomRows(Rng* rng, size_t n,
                                            size_t num_features,
                                            double missing_rate) {
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(num_features);
    for (double& v : row) {
      v = rng->NextDouble() < missing_rate ? kNaN
                                           : rng->NextDouble() * 2.4 - 1.2;
    }
  }
  return rows;
}

/// Slot-major panel of `rows`: feature f of lane i at panel[f*stride+i].
std::vector<double> ToPanel(const std::vector<std::vector<double>>& rows,
                            size_t num_features, size_t stride) {
  std::vector<double> panel(num_features * stride, 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t f = 0; f < num_features; ++f) {
      panel[f * stride + i] = rows[i][f];
    }
  }
  return panel;
}

/// Margin of `forest` for the row at `features` (feature f at
/// features[f * stride]) through the single-row walk, from `base`.
double RowMargin(const PackedForest& forest, const double* features,
                 size_t stride, double base) {
  double margin = base;
  forest.AccumulateMargins(features, stride, 1, &margin);
  return margin;
}

/// One tree's own contribution through the single-row walk: a one-tree
/// forest at n == 1 started from -0.0, the additive identity, so the
/// result carries the exit leaf's exact bits.
double TreeMargin(const RegressionTree& tree, size_t num_features,
                  const double* features, size_t stride,
                  const std::vector<uint32_t>* feature_map = nullptr) {
  auto forest = PackedForest::Build({tree}, num_features, feature_map);
  if (!forest.ok()) {
    ADD_FAILURE() << forest.status().ToString();
    return kNaN;
  }
  return RowMargin(*forest, features, stride, -0.0);
}

void CheckForestMatchesPredictRow(const std::vector<RegressionTree>& trees,
                                  size_t num_features,
                                  const std::vector<std::vector<double>>& rows) {
  auto forest = PackedForest::Build(trees, num_features);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_EQ(forest->num_trees(), trees.size());
  const double base = 0.125;

  // Single-row walk, row addressing (stride 1): each tree on its own,
  // then the whole forest in the scalar accumulation order.
  for (size_t t = 0; t < trees.size(); ++t) {
    auto single = PackedForest::Build({trees[t]}, num_features);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_TRUE(SameBits(trees[t].PredictRow(rows[r]),
                           RowMargin(*single, rows[r].data(), 1, -0.0)))
          << "tree " << t << " row " << r;
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    double expected = base;
    for (const RegressionTree& tree : trees) expected += tree.PredictRow(rows[r]);
    EXPECT_TRUE(
        SameBits(expected, RowMargin(*forest, rows[r].data(), 1, base)))
        << "single row " << r;
  }

  // Whole-block traversal against the exact scalar accumulation order:
  // margins must match base + tree_0 + tree_1 + ... summed sequentially.
  const size_t stride = rows.size() + 3;  // spare lanes must be ignored
  const std::vector<double> panel = ToPanel(rows, num_features, stride);
  std::vector<double> margins(rows.size(), base);
  forest->AccumulateMargins(panel.data(), stride, rows.size(), margins.data());
  for (size_t r = 0; r < rows.size(); ++r) {
    double expected = base;
    for (const RegressionTree& tree : trees) expected += tree.PredictRow(rows[r]);
    EXPECT_TRUE(SameBits(expected, margins[r])) << "row " << r;
  }
}

TEST(PackedForestTest, RandomTreesDepth1Through8MatchPredictRow) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const size_t num_features = 6;
    std::vector<RegressionTree> trees;
    for (int depth = 1; depth <= 8; ++depth) {
      trees.push_back(RandomTree(&rng, depth, static_cast<int>(num_features)));
    }
    const double missing_rate = (seed % 2 == 0) ? 0.3 : 0.0;
    const auto rows = RandomRows(&rng, 150, num_features, missing_rate);
    CheckForestMatchesPredictRow(trees, num_features, rows);
  }
}

// A single row walks the trees in lock-step groups; 20 trees of mixed
// depth (empty ones and one over 64 leaves included) span two full
// groups and a ragged one.
TEST(PackedForestTest, ManyTreesSpanSeveralSingleRowGroups) {
  Rng rng(23);
  const size_t num_features = 5;
  std::vector<RegressionTree> trees;
  for (int t = 0; t < 19; ++t) {
    trees.push_back(t % 7 == 3 ? RegressionTree()
                               : RandomTree(&rng, 1 + t % 8,
                                            static_cast<int>(num_features)));
  }
  trees.push_back(FullTree(&rng, 7, static_cast<int>(num_features)));
  const auto rows = RandomRows(&rng, 60, num_features, 0.15);
  CheckForestMatchesPredictRow(trees, num_features, rows);
}

TEST(PackedForestTest, MissingRoutesBothDirections) {
  // One split each way: default-left sends NaN to the left leaf (-1),
  // default-right to the right leaf (+1).
  for (const bool default_left : {true, false}) {
    SCOPED_TRACE(default_left ? "default_left" : "default_right");
    std::vector<TreeNode> nodes(3);
    nodes[0].left = 1;
    nodes[0].right = 2;
    nodes[0].feature = 0;
    nodes[0].threshold = 0.5;
    nodes[0].default_left = default_left;
    nodes[1].value = -1.0;
    nodes[2].value = 1.0;
    const std::vector<RegressionTree> trees = {RegressionTree(nodes)};
    auto forest = PackedForest::Build(trees, 1);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();

    const std::vector<std::vector<double>> rows = {{kNaN}, {0.25}, {0.75}};
    CheckForestMatchesPredictRow(trees, 1, rows);
    const double missing = RowMargin(*forest, rows[0].data(), 1, -0.0);
    EXPECT_EQ(missing, default_left ? -1.0 : 1.0);
    // Non-missing routing is unaffected by the default.
    EXPECT_EQ(RowMargin(*forest, rows[1].data(), 1, -0.0), -1.0);
    EXPECT_EQ(RowMargin(*forest, rows[2].data(), 1, -0.0), 1.0);
  }
}

TEST(PackedForestTest, EmptyTreesContributeZero) {
  Rng rng(7);
  std::vector<RegressionTree> trees;
  trees.push_back(RegressionTree());  // empty
  trees.push_back(RandomTree(&rng, 3, 4));
  trees.push_back(RegressionTree());  // empty
  const auto rows = RandomRows(&rng, 40, 4, 0.2);
  CheckForestMatchesPredictRow(trees, 4, rows);

  EXPECT_EQ(TreeMargin(trees[0], 4, rows[0].data(), 1), 0.0);
  EXPECT_EQ(TreeMargin(trees[2], 4, rows[0].data(), 1), 0.0);
}

TEST(PackedForestTest, DeepTreesUseSteppedLayoutAndStillMatch) {
  Rng rng(11);
  const size_t num_features = 5;
  std::vector<RegressionTree> trees;
  // 128 leaves: over the bitvector limit, must take the stepped layout.
  trees.push_back(FullTree(&rng, 7, static_cast<int>(num_features)));
  // 64 leaves: exactly at the limit, must stay bitvector.
  trees.push_back(FullTree(&rng, 6, static_cast<int>(num_features)));
  auto forest = PackedForest::Build(trees, num_features);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_FALSE(forest->tree_uses_bitvector(0));
  EXPECT_TRUE(forest->tree_uses_bitvector(1));

  const auto rows = RandomRows(&rng, 100, num_features, 0.25);
  CheckForestMatchesPredictRow(trees, num_features, rows);
}

TEST(PackedForestTest, BuildRejectsOutOfRangeSplitFeature) {
  std::vector<TreeNode> nodes(3);
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = 5;
  nodes[1].value = 0.0;
  nodes[2].value = 1.0;
  const std::vector<RegressionTree> trees = {RegressionTree(nodes)};
  EXPECT_FALSE(PackedForest::Build(trees, 5).ok());  // 5 is out of [0, 5)
  EXPECT_FALSE(PackedForest::Build(trees, 3).ok());
  EXPECT_TRUE(PackedForest::Build(trees, 6).ok());
}

TEST(PackedForestTest, FeatureMapRemapsSplitsToPanelSlots) {
  Rng rng(13);
  const size_t num_features = 4;
  std::vector<RegressionTree> trees;
  for (int depth = 2; depth <= 5; ++depth) {
    trees.push_back(RandomTree(&rng, depth, static_cast<int>(num_features)));
  }
  // Scatter the 4 features across 9 panel slots.
  const std::vector<uint32_t> feature_map = {7, 0, 4, 2};
  auto forest = PackedForest::Build(trees, num_features, &feature_map);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();

  const auto rows = RandomRows(&rng, 60, num_features, 0.2);
  const size_t stride = rows.size();
  std::vector<double> panel(9 * stride, kNaN);  // unmapped slots poisoned
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t f = 0; f < num_features; ++f) {
      panel[feature_map[f] * stride + i] = rows[i][f];
    }
  }
  // Lane r of the panel as a single row: base pointer at the lane, the
  // panel's stride between features.
  for (size_t r = 0; r < rows.size(); ++r) {
    double expected = 0.0;
    for (size_t t = 0; t < trees.size(); ++t) {
      EXPECT_TRUE(SameBits(trees[t].PredictRow(rows[r]),
                           TreeMargin(trees[t], num_features, panel.data() + r,
                                      stride, &feature_map)))
          << "tree " << t << " row " << r;
      expected += trees[t].PredictRow(rows[r]);
    }
    EXPECT_TRUE(SameBits(expected,
                         RowMargin(*forest, panel.data() + r, stride, 0.0)))
        << "single row " << r;
  }
  std::vector<double> margins(rows.size(), 0.0);
  forest->AccumulateMargins(panel.data(), stride, rows.size(), margins.data());
  for (size_t r = 0; r < rows.size(); ++r) {
    double expected = 0.0;
    for (const RegressionTree& tree : trees) expected += tree.PredictRow(rows[r]);
    EXPECT_TRUE(SameBits(expected, margins[r])) << "row " << r;
  }
}

// Build sizes subtrees in one reverse pass, not by recursion: a chain a
// million splits deep (2,000,001 nodes, the shape Deserialize accepts)
// used to overflow the stack in a recursive leaf count.
TEST(PackedForestTest, MillionDeepChainBuildsAndMatches) {
  Rng rng(19);
  const size_t num_features = 2;
  ASSERT_TRUE(
      RegressionTree::Deserialize(ChainTree(&rng, 1000).Serialize(), 2).ok());
  const std::vector<RegressionTree> trees = {ChainTree(&rng, 1000000)};
  auto forest = PackedForest::Build(trees, num_features);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  EXPECT_FALSE(forest->tree_uses_bitvector(0));

  auto rows = RandomRows(&rng, 16, num_features, 0.2);
  rows[0] = {1.5, 1.5};  // above every threshold: exits at the last leaf
  CheckForestMatchesPredictRow(trees, num_features, rows);
}

TEST(PackedForestTest, BuildRejectsChildrenBeforeTheirParent) {
  // Node 0 splits into 3 (internal) and 4; node 3 splits into 1 and 2.
  // PredictRow walks it, but node 3's children precede it.
  std::vector<TreeNode> nodes(5);
  nodes[0].left = 3;
  nodes[0].right = 4;
  nodes[0].feature = 0;
  nodes[3].left = 1;
  nodes[3].right = 2;
  nodes[3].feature = 0;
  EXPECT_FALSE(PackedForest::Build({RegressionTree(nodes)}, 1).ok());

  // A self-loop and a child past the end are rejected the same way.
  std::vector<TreeNode> self_loop(3);
  self_loop[0].left = 0;
  self_loop[0].right = 2;
  self_loop[0].feature = 0;
  EXPECT_FALSE(PackedForest::Build({RegressionTree(self_loop)}, 1).ok());
  std::vector<TreeNode> past_end(3);
  past_end[0].left = 1;
  past_end[0].right = 3;
  past_end[0].feature = 0;
  EXPECT_FALSE(PackedForest::Build({RegressionTree(past_end)}, 1).ok());
}

TEST(PackedForestTest, BuildRejectsUndersizedFeatureMap) {
  Rng rng(17);
  const std::vector<RegressionTree> trees = {RandomTree(&rng, 3, 4)};
  const std::vector<uint32_t> too_small = {0, 1, 2};
  EXPECT_FALSE(PackedForest::Build(trees, 4, &too_small).ok());
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
