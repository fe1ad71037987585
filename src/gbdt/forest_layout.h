#pragma once

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/gbdt/tree.h"

namespace safe {
namespace gbdt {

/// \brief The serving forest: one packed copy of a booster's trees that
/// scores a single row and a block of rows through one entry point,
/// AccumulateMargins, picking the traversal by the number of rows.
///
/// Two layouts live side by side:
///
/// - Bitvector (QuickScorer, Lucchese et al.), for trees with at most
///   kMaxBitvectorLeaves leaves: leaves are numbered left-to-right
///   (in-order), every internal node carries a 64-bit mask whose bits
///   clear exactly the leaves of its LEFT subtree, and scoring evaluates
///   *all* internal-node conditions of a tree branch-free — every node
///   whose condition routes RIGHT ANDs its mask into a per-row
///   bitvector, and the exit leaf is the lowest bit left set.
/// - Stepped (level-synchronous), for every tree: leaves are rewritten
///   as self-loops (child[0] == child[1] == self), so a tree of depth d
///   is traversed by exactly d branch-free select steps with no is-leaf
///   test.
///
/// Which one runs is decided by the input size (DESIGN.md §13):
///
/// - n == 1 (RowScorer, and the scoring server's single-request blocks):
///   the scalar stepped walk over every tree, eight trees in lock step.
///   The bitvector scan pays for every condition of a tree, which a
///   block amortizes and a single row does not; one tree walked at a
///   time is a single chain of dependent loads. Both measured slower
///   than the lock-step walk on every workload tried (DESIGN.md §13).
/// - n >= 2: bitvector trees run node-outer / lane-inner — one condition
///   is evaluated for a whole chunk of lanes (a contiguous panel span)
///   before moving to the next node, so the hot loop has no
///   data-dependent branches and no dependent loads and auto-vectorizes.
///   Deeper trees run the stepped walk with the lanes advancing
///   together.
///
/// The traversal semantics are exactly RegressionTree::PredictRow's:
/// `value <= threshold` routes left, NaN routes `default_left`, an empty
/// tree contributes 0.0 (a single zero leaf). gbdt_forest_layout_test
/// proves exact margin equality against PredictRow for both layouts at
/// n == 1 and in blocks.
///
/// Feature indirection: Build optionally remaps split-feature indices
/// through `feature_map` (the serving path maps booster features to the
/// compiled program's slots). Scoring reads feature f of lane `lane` at
/// `features[f * stride + lane]`, so the same code serves a plain row or
/// the program's scratch slots (stride 1, one lane) and a slot-major
/// block panel.
class PackedForest {
 public:
  static constexpr size_t kMaxBitvectorLeaves = 64;

  PackedForest() = default;

  /// Packs `trees`. Fails when any split references a feature outside
  /// [0, num_features) or, with a remap, outside feature_map's domain,
  /// and when a node's child does not come after it in the node array
  /// (the order RegressionTree::Deserialize enforces and both trainers
  /// emit; Build sizes every subtree in one reverse pass that needs it).
  [[nodiscard]] static Result<PackedForest> Build(
      const std::vector<RegressionTree>& trees, size_t num_features);
  [[nodiscard]] static Result<PackedForest> Build(
      const std::vector<RegressionTree>& trees, size_t num_features,
      const std::vector<uint32_t>* feature_map);

  size_t num_trees() const { return trees_.size(); }
  bool tree_uses_bitvector(size_t t) const { return trees_[t].bitvector; }

  /// margins[i] += tree_0(i) + tree_1(i) + ... for lanes [0, n). Each
  /// lane receives its tree contributions in tree order, so the per-row
  /// accumulation sequence — and therefore every intermediate rounding —
  /// is identical to Booster::PredictRowMargin's base + Σ tree_i loop.
  /// n == 1 takes the scalar stepped walk, larger n the block loops
  /// (class comment). Requires n <= stride.
  void AccumulateMargins(const double* features, size_t stride, size_t n,
                         double* margins) const;

 private:
  /// One internal-node condition of a bitvector tree.
  struct Node {
    double threshold = 0.0;
    uint64_t mask = ~0ULL;  // bits of the left subtree's leaves cleared
    uint32_t feature = 0;
    uint8_t right_on_missing = 0;  // !default_left
  };
  /// One node of the level-synchronous stepped layout: leaves self-loop
  /// (child[0] == child[1] == own index), so a step never needs an
  /// is-leaf test. Children are an indexable pair — `child[right]` — so
  /// the select is an address computation the compiler cannot turn back
  /// into a data-dependent branch (a ternary select here measurably
  /// regresses: real feature data defeats the branch predictor).
  struct StepNode {
    double threshold = 0.0;
    int32_t child[2] = {0, 0};  // [0] = left, [1] = right
    uint32_t feature = 0;
    uint8_t right_on_missing = 0;
  };
  struct TreeRef {
    uint32_t node_begin = 0;  // into nodes_ (bitvector trees only)
    uint32_t node_end = 0;
    uint32_t leaf_begin = 0;  // into leaf_values_ (bitvector trees only)
    uint32_t step_begin = 0;  // into step_nodes_ / step_values_
    uint32_t depth = 0;       // longest root->leaf hop count
    bool bitvector = true;
  };

  std::vector<Node> nodes_;          // all bitvector trees, concatenated
  std::vector<double> leaf_values_;  // in-order leaf values per tree
  std::vector<TreeRef> trees_;
  std::vector<StepNode> step_nodes_;  // all trees, self-looped leaves
  std::vector<double> step_values_;   // node value (leaves carry weights)
};

}  // namespace gbdt
}  // namespace safe
