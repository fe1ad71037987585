// Tests of the exact (pre-sorted) tree method and its agreement with the
// histogram method.

#include "src/gbdt/exact_trainer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "src/common/random.h"
#include "src/data/synthetic.h"
#include "src/gbdt/booster.h"
#include "src/stats/auc.h"
#include "tests/property_util.h"

namespace safe {
namespace gbdt {
namespace {

TEST(ExactTrainerTest, FindsExactMidpointThreshold) {
  // Values 0..9, step at 5: exact method puts the cut at 4.5 precisely.
  DataFrame f;
  std::vector<double> x(10);
  std::vector<double> grad(10);
  std::vector<double> hess(10, 0.25);
  std::vector<size_t> rows(10);
  for (size_t i = 0; i < 10; ++i) {
    x[i] = static_cast<double>(i);
    grad[i] = i < 5 ? 0.5 : -0.5;
    rows[i] = i;
  }
  ASSERT_TRUE(f.AddColumn(Column("x", x)).ok());
  GbdtParams params;
  params.max_depth = 1;
  ExactTreeTrainer trainer(&f, &params);
  std::vector<double> margins(10);
  RegressionTree tree = trainer.Train(grad, hess, rows, {0}, &margins);
  ASSERT_EQ(tree.nodes().size(), 3u);
  EXPECT_DOUBLE_EQ(tree.nodes()[0].threshold, 4.5);
}

TEST(ExactTrainerTest, HandlesMissingValues) {
  DataFrame f;
  std::vector<double> x;
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<size_t> rows;
  for (size_t i = 0; i < 60; ++i) {
    // Missing rows carry positive gradient, present rows negative.
    const bool missing = i % 3 == 0;
    x.push_back(missing ? std::nan("") : static_cast<double>(i % 7));
    grad.push_back(missing ? 0.5 : -0.5);
    hess.push_back(0.25);
    rows.push_back(i);
  }
  ASSERT_TRUE(f.AddColumn(Column("x", x)).ok());
  GbdtParams params;
  params.max_depth = 2;
  ExactTreeTrainer trainer(&f, &params);
  std::vector<double> margins(rows.size());
  RegressionTree tree = trainer.Train(grad, hess, rows, {0}, &margins);
  ASSERT_GT(tree.nodes().size(), 1u);
  // Prediction for a missing row differs from a typical present row.
  const double miss_pred = tree.PredictRow({std::nan("")});
  const double present_pred = tree.PredictRow({3.0});
  EXPECT_NE(miss_pred, present_pred);
  // grad = +0.5 on missing rows -> boosting pushes their leaf negative.
  EXPECT_LT(miss_pred, present_pred);
}

TEST(ExactTrainerTest, PureGradientNodeStaysLeaf) {
  DataFrame f;
  ASSERT_TRUE(f.AddColumn(Column("x", {1.0, 2.0, 3.0, 4.0})).ok());
  std::vector<double> grad(4, 0.3);  // identical gradients: no gain
  std::vector<double> hess(4, 0.25);
  GbdtParams params;
  ExactTreeTrainer trainer(&f, &params);
  std::vector<double> margins(4);
  RegressionTree tree = trainer.Train(grad, hess, {0, 1, 2, 3}, {0}, &margins);
  EXPECT_EQ(tree.nodes().size(), 1u);
}

TEST(ExactTrainerTest, LeafMarginsEqualTraversalOnAdversarialColumns) {
  const size_t n = 3000;
  const DataFrame frame = testutil::SplitStressFrame(n, 5);
  Rng rng(19);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  for (size_t r = 0; r < n; ++r) {
    grad[r] = rng.NextGaussian();
    hess[r] = 0.1 + rng.NextDouble();
  }
  // Every fifth row stays out of the tree; its margin must not move.
  std::vector<size_t> rows;
  for (size_t r = 0; r < n; ++r) {
    if (r % 5 != 0) rows.push_back(r);
  }
  GbdtParams params;
  params.max_depth = 6;
  ExactTreeTrainer trainer(&frame, &params);
  // All columns, then each splittable one alone, so every column's cuts
  // get used (exact cuts lie between distinct values, so the constant
  // column 3 never splits on its own).
  for (const std::vector<int>& features :
       {std::vector<int>{0, 1, 2, 3}, {0}, {1}, {2}}) {
    SCOPED_TRACE("features[0]=" + std::to_string(features[0]) + "/" +
                 std::to_string(features.size()));
    std::vector<double> margins(n, 0.0);
    const RegressionTree tree =
        trainer.Train(grad, hess, rows, features, &margins);
    ASSERT_GT(tree.nodes().size(), 1u);
    size_t next = 0;  // position in `rows`
    for (size_t r = 0; r < n; ++r) {
      double expect = 0.0;
      if (next < rows.size() && rows[next] == r) {
        expect += tree.PredictRow(frame.Row(r));
        ++next;
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(margins[r]),
                std::bit_cast<uint64_t>(expect))
          << "row " << r;
    }
  }
}

TEST(ExactBoosterTest, ExactMethodLearns) {
  data::SyntheticSpec spec;
  spec.num_rows = 1500;
  spec.num_features = 8;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.seed = 77;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 25;
  params.tree_method = TreeMethod::kExact;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto proba = model->PredictProba(data->x);
  ASSERT_TRUE(proba.ok());
  auto auc = Auc(*proba, data->labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.85);
}

TEST(ExactBoosterTest, ExactAndHistAgreeClosely) {
  data::SyntheticSpec spec;
  spec.num_rows = 2000;
  spec.num_features = 6;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.seed = 78;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());

  double aucs[2] = {0.0, 0.0};
  const TreeMethod methods[2] = {TreeMethod::kHist, TreeMethod::kExact};
  for (int i = 0; i < 2; ++i) {
    GbdtParams params;
    params.num_trees = 20;
    params.tree_method = methods[i];
    auto model = Booster::Fit(*data, nullptr, params);
    ASSERT_TRUE(model.ok());
    auto proba = model->PredictProba(data->x);
    ASSERT_TRUE(proba.ok());
    aucs[i] = *Auc(*proba, data->labels());
  }
  // 256-bin quantization loses almost nothing: train AUCs within 2 pts.
  EXPECT_NEAR(aucs[0], aucs[1], 0.02);
}

TEST(ExactBoosterTest, ExactWithSubsamplingDeterministic) {
  data::SyntheticSpec spec;
  spec.num_rows = 800;
  spec.num_features = 5;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.seed = 79;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 10;
  params.subsample = 0.7;
  params.colsample_bytree = 0.7;
  params.tree_method = TreeMethod::kExact;
  auto a = Booster::Fit(*data, nullptr, params);
  auto b = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(a.ok() && b.ok());
  auto pa = a->PredictMargin(data->x);
  auto pb = b->PredictMargin(data->x);
  for (size_t i = 0; i < pa->size(); ++i) {
    ASSERT_DOUBLE_EQ((*pa)[i], (*pb)[i]);
  }
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
