#include "src/gbdt/tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace safe {
namespace gbdt {
namespace {

// A small hand-built tree:
//   root: f0 <= 1.0 ? node1 : leaf(0.3)
//   node1: f1 <= 2.0 ? leaf(-1.0) : leaf(0.5)
RegressionTree MakeTree() {
  std::vector<TreeNode> nodes(5);
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = 0;
  nodes[0].threshold = 1.0;
  nodes[0].gain = 2.0;
  nodes[0].default_left = true;
  nodes[1].left = 3;
  nodes[1].right = 4;
  nodes[1].feature = 1;
  nodes[1].threshold = 2.0;
  nodes[1].gain = 1.0;
  nodes[1].default_left = false;
  nodes[2].value = 0.3;
  nodes[3].value = -1.0;
  nodes[4].value = 0.5;
  return RegressionTree(std::move(nodes));
}

TEST(TreeTest, PredictRoutesCorrectly) {
  RegressionTree tree = MakeTree();
  EXPECT_DOUBLE_EQ(tree.PredictRow({0.5, 1.0}), -1.0);
  EXPECT_DOUBLE_EQ(tree.PredictRow({0.5, 3.0}), 0.5);
  EXPECT_DOUBLE_EQ(tree.PredictRow({2.0, 0.0}), 0.3);
  // Boundary: x <= threshold goes left.
  EXPECT_DOUBLE_EQ(tree.PredictRow({1.0, 2.0}), -1.0);
}

TEST(TreeTest, MissingFollowsDefaultDirection) {
  RegressionTree tree = MakeTree();
  const double nan = std::nan("");
  // Root default_left=true -> down to f1; f1 default_left=false -> 0.5.
  EXPECT_DOUBLE_EQ(tree.PredictRow({nan, nan}), 0.5);
  EXPECT_DOUBLE_EQ(tree.PredictRow({nan, 1.0}), -1.0);
}

TEST(TreeTest, EmptyTreePredictsZero) {
  RegressionTree tree;
  EXPECT_DOUBLE_EQ(tree.PredictRow({1.0, 2.0}), 0.0);
  EXPECT_TRUE(tree.ExtractPaths().empty());
}

TEST(TreeTest, SingleLeafHasNoPaths) {
  std::vector<TreeNode> nodes(1);
  nodes[0].value = 0.7;
  RegressionTree tree(std::move(nodes));
  EXPECT_TRUE(tree.ExtractPaths().empty());
}

TEST(TreeTest, ExtractPathsEnumeratesRootToLeaf) {
  RegressionTree tree = MakeTree();
  auto paths = tree.ExtractPaths();
  ASSERT_EQ(paths.size(), 3u);  // three leaves
  // Each path starts at the root split (feature 0).
  for (const auto& path : paths) {
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path[0].feature, 0);
    EXPECT_DOUBLE_EQ(path[0].threshold, 1.0);
  }
  // Exactly two paths pass through the f1 split.
  int deep = 0;
  for (const auto& path : paths) {
    if (path.size() == 2) {
      ++deep;
      EXPECT_EQ(path[1].feature, 1);
    }
  }
  EXPECT_EQ(deep, 2);
}

TEST(TreeTest, SerializeRoundTrips) {
  RegressionTree tree = MakeTree();
  std::string text = tree.Serialize();
  auto back = RegressionTree::Deserialize(text, 2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->nodes().size(), tree.nodes().size());
  for (size_t i = 0; i < tree.nodes().size(); ++i) {
    const TreeNode& a = tree.nodes()[i];
    const TreeNode& b = back->nodes()[i];
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.feature, b.feature);
    EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_DOUBLE_EQ(a.gain, b.gain);
    EXPECT_EQ(a.default_left, b.default_left);
  }
  // Behavioural equality.
  for (double x0 : {0.0, 1.5}) {
    for (double x1 : {1.0, 3.0}) {
      EXPECT_DOUBLE_EQ(tree.PredictRow({x0, x1}),
                       back->PredictRow({x0, x1}));
    }
  }
}

TEST(TreeTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RegressionTree::Deserialize("nonsense", 2).ok());
  EXPECT_FALSE(
      RegressionTree::Deserialize("tree 2\n0 0 0 0 0 0 1\n", 2).ok());
}

TEST(TreeTest, DeserializeRejectsTreesTraversalCannotWalk) {
  const std::string leaves = "-1 -1 -1 0 1 0 1\n-1 -1 -1 0 2 0 1\n";
  // The well-formed shape every case below breaks.
  auto good = RegressionTree::Deserialize("tree 3\n1 2 1 0.5 0 1 1\n" + leaves,
                                          2);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->PredictRow({0.0, 0.5}), 1.0);
  EXPECT_EQ(good->PredictRow({0.0, 0.6}), 2.0);

  const std::string bad[] = {
      // A node that is its own child: PredictRow would never stop.
      "tree 1\n0 0 0 0.5 0 1 1\n",
      // A child past the node count.
      "tree 3\n1 3 0 0.5 0 1 1\n" + leaves,
      // A child before its parent (1 -> 0 closes a cycle).
      "tree 3\n1 2 0 0.5 0 1 1\n0 2 0 0.5 0 1 1\n-1 -1 -1 0 2 0 1\n",
      // A child shared by two parents.
      "tree 4\n1 2 0 0.5 0 1 1\n2 3 0 0.5 0 1 1\n" + leaves,
      // Leaves with a child, or a negative child other than -1.
      "tree 1\n-1 0 -1 0 1 0 1\n",
      "tree 1\n-2 -1 -1 0 1 0 1\n",
      // Nodes no split reaches.
      "tree 3\n-1 -1 -1 0 1 0 1\n" + leaves,
  };
  for (const std::string& text : bad) {
    EXPECT_FALSE(RegressionTree::Deserialize(text, 2).ok()) << text;
  }
}

TEST(TreeTest, DeserializeRejectsSplitFeaturesOutsideTheRow) {
  const std::string leaves = "-1 -1 -1 0 1 0 1\n-1 -1 -1 0 2 0 1\n";
  EXPECT_TRUE(
      RegressionTree::Deserialize("tree 3\n1 2 1 0.5 0 1 1\n" + leaves, 2)
          .ok());
  // Feature 2 of a 2-wide row would read past it.
  EXPECT_FALSE(
      RegressionTree::Deserialize("tree 3\n1 2 2 0.5 0 1 1\n" + leaves, 2)
          .ok());
  EXPECT_FALSE(
      RegressionTree::Deserialize("tree 3\n1 2 -1 0.5 0 1 1\n" + leaves, 2)
          .ok());
}

TEST(TreeTest, DeserializeDoesNotTrustTheNodeCount) {
  // Fails on the missing node lines instead of allocating 10^11 nodes.
  EXPECT_FALSE(RegressionTree::Deserialize("tree 99999999999\n", 2).ok());
  // An empty tree still round-trips.
  auto empty = RegressionTree::Deserialize(RegressionTree().Serialize(), 2);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
