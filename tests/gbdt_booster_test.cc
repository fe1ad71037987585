#include "src/gbdt/booster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/data/synthetic.h"
#include "src/gbdt/loss.h"
#include "src/stats/auc.h"

namespace safe {
namespace gbdt {
namespace {

data::SyntheticSpec BaseSpec() {
  data::SyntheticSpec spec;
  spec.num_rows = 2000;
  spec.num_features = 8;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.num_redundant = 0;
  spec.noise = 0.2;
  spec.seed = 99;
  return spec;
}

TEST(LossTest, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
}

TEST(LossTest, LogisticGradients) {
  std::vector<double> margins{0.0, 0.0};
  std::vector<double> labels{1.0, 0.0};
  std::vector<double> grad;
  std::vector<double> hess;
  ComputeGradients(Objective::kLogistic, margins, labels, &grad, &hess);
  EXPECT_DOUBLE_EQ(grad[0], -0.5);
  EXPECT_DOUBLE_EQ(grad[1], 0.5);
  EXPECT_DOUBLE_EQ(hess[0], 0.25);
}

TEST(LossTest, SquaredGradients) {
  std::vector<double> margins{2.0};
  std::vector<double> labels{0.5};
  std::vector<double> grad;
  std::vector<double> hess;
  ComputeGradients(Objective::kSquared, margins, labels, &grad, &hess);
  EXPECT_DOUBLE_EQ(grad[0], 1.5);
  EXPECT_DOUBLE_EQ(hess[0], 1.0);
}

TEST(LossTest, BaseScoreIsLogOdds) {
  std::vector<double> labels{1, 1, 1, 0};
  EXPECT_NEAR(BaseScore(Objective::kLogistic, labels),
              std::log(0.75 / 0.25), 1e-9);
  EXPECT_DOUBLE_EQ(BaseScore(Objective::kSquared, labels), 0.75);
}

TEST(BoosterTest, LearnsSeparableData) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 30;
  params.max_depth = 4;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto proba = model->PredictProba(data->x);
  ASSERT_TRUE(proba.ok());
  auto auc = Auc(*proba, data->labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.85);
}

TEST(BoosterTest, TrainLossDecreasesWithMoreTrees) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  double prev_loss = 1e9;
  for (size_t trees : {1u, 5u, 20u}) {
    GbdtParams params;
    params.num_trees = trees;
    auto model = Booster::Fit(*data, nullptr, params);
    ASSERT_TRUE(model.ok());
    auto margins = model->PredictMargin(data->x);
    ASSERT_TRUE(margins.ok());
    const double loss =
        ComputeLoss(Objective::kLogistic, *margins, data->labels());
    EXPECT_LT(loss, prev_loss + 1e-9) << trees;
    prev_loss = loss;
  }
}

TEST(BoosterTest, DeterministicForSameSeed) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 10;
  params.subsample = 0.8;
  params.colsample_bytree = 0.8;
  auto a = Booster::Fit(*data, nullptr, params);
  auto b = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(a.ok() && b.ok());
  auto pa = a->PredictMargin(data->x);
  auto pb = b->PredictMargin(data->x);
  for (size_t i = 0; i < pa->size(); ++i) {
    EXPECT_DOUBLE_EQ((*pa)[i], (*pb)[i]);
  }
}

TEST(BoosterTest, EarlyStoppingTruncates) {
  auto spec = BaseSpec();
  auto split = data::MakeSyntheticSplit(spec, 1200, 400, 400);
  ASSERT_TRUE(split.ok());
  GbdtParams params;
  params.num_trees = 200;
  params.learning_rate = 0.5;
  params.early_stopping_rounds = 5;
  auto model = Booster::Fit(split->train, &split->valid, params);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->trees().size(), 200u);
  EXPECT_EQ(model->best_iteration(), model->trees().size() - 1);
}

TEST(BoosterTest, EarlyStoppingRequiresValidation) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.early_stopping_rounds = 5;
  EXPECT_FALSE(Booster::Fit(*data, nullptr, params).ok());
}

TEST(BoosterTest, ValidatesInput) {
  Dataset empty;
  GbdtParams params;
  EXPECT_FALSE(Booster::Fit(empty, nullptr, params).ok());

  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  params.num_trees = 0;
  EXPECT_FALSE(Booster::Fit(*data, nullptr, params).ok());
  params.num_trees = 5;
  params.learning_rate = 0.0;
  EXPECT_FALSE(Booster::Fit(*data, nullptr, params).ok());
}

TEST(BoosterTest, PredictRejectsWrongWidth) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 3;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok());
  DataFrame narrow;
  ASSERT_TRUE(narrow.AddColumn(Column("x", {1.0})).ok());
  EXPECT_FALSE(model->PredictMargin(narrow).ok());
}

TEST(BoosterTest, RowAndBatchPredictionsAgree) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 10;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok());
  auto batch = model->PredictProba(data->x);
  ASSERT_TRUE(batch.ok());
  for (size_t r = 0; r < 20; ++r) {
    EXPECT_NEAR(model->PredictRowProba(data->x.Row(r)), (*batch)[r], 1e-12);
  }
}

TEST(BoosterTest, PathsComeFromRealSplits) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 10;
  params.max_depth = 3;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok());
  auto paths = model->ExtractAllPaths();
  ASSERT_FALSE(paths.empty());
  const auto split_features = model->SplitFeatures();
  std::set<int> split_set(split_features.begin(), split_features.end());
  for (const auto& path : paths) {
    EXPECT_LE(path.size(), params.max_depth);
    for (const auto& step : path) {
      EXPECT_TRUE(split_set.count(step.feature)) << step.feature;
    }
  }
}

TEST(BoosterTest, ImportancesSortedAndPositive) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 20;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok());
  auto imps = model->FeatureImportances();
  ASSERT_FALSE(imps.empty());
  for (size_t i = 0; i < imps.size(); ++i) {
    EXPECT_GT(imps[i].total_gain, 0.0);
    EXPECT_GT(imps[i].num_splits, 0u);
    EXPECT_NEAR(imps[i].avg_gain,
                imps[i].total_gain / imps[i].num_splits, 1e-9);
    if (i > 0) {
      EXPECT_GE(imps[i - 1].avg_gain, imps[i].avg_gain);
    }
  }
}

TEST(BoosterTest, SerializeRoundTripsPredictions) {
  auto data = data::MakeSyntheticDataset(BaseSpec());
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 8;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok());
  auto text = model->Serialize();
  auto back = Booster::Deserialize(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto pa = model->PredictProba(data->x);
  auto pb = back->PredictProba(data->x);
  ASSERT_TRUE(pa.ok() && pb.ok());
  for (size_t i = 0; i < pa->size(); ++i) {
    EXPECT_NEAR((*pa)[i], (*pb)[i], 1e-9);
  }
}

TEST(BoosterTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Booster::Deserialize("").ok());
  EXPECT_FALSE(Booster::Deserialize("booster v2\n").ok());
  EXPECT_FALSE(Booster::Deserialize("booster v1\nobjective logistic\n").ok());
}

TEST(BoosterTest, DeserializeRejectsMalformedModels) {
  const std::string header =
      "booster v1\nobjective logistic\nnum_features 2\nbase_score 0\n"
      "num_trees 1\n";
  const std::string leaves = "-1 -1 -1 0 1 0 1\n-1 -1 -1 0 2 0 1\n";
  auto good = Booster::Deserialize(header + "tree 3\n1 2 1 0.5 0 1 1\n" +
                                   leaves);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->PredictRowMargin({0.0, 0.5}), 1.0);
  EXPECT_EQ(good->PredictRowMargin({0.0, 0.6}), 2.0);

  // A node that is its own child: PredictRowMargin would never return.
  EXPECT_FALSE(Booster::Deserialize(header + "tree 1\n0 0 0 0.5 0 1 1\n").ok());
  // A child past the node count.
  EXPECT_FALSE(
      Booster::Deserialize(header + "tree 3\n1 9 1 0.5 0 1 1\n" + leaves)
          .ok());
  // Split feature 2 would read past a 2-wide row.
  EXPECT_FALSE(
      Booster::Deserialize(header + "tree 3\n1 2 2 0.5 0 1 1\n" + leaves)
          .ok());
  // A forged node count fails on the missing lines, not in the allocator.
  EXPECT_FALSE(Booster::Deserialize(header + "tree 99999999999\n").ok());
}

TEST(BoosterTest, DeserializeRejectsUnknownObjective) {
  const std::string rest = "\nnum_features 2\nbase_score 0\nnum_trees 0\n";
  auto squared = Booster::Deserialize("booster v1\nobjective squared" + rest);
  ASSERT_TRUE(squared.ok());
  EXPECT_EQ(squared->objective(), Objective::kSquared);
  auto bogus = Booster::Deserialize("booster v1\nobjective bogus" + rest);
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
}

TEST(BoosterTest, HandlesMissingValues) {
  auto spec = BaseSpec();
  spec.missing_rate = 0.15;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.num_trees = 20;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto proba = model->PredictProba(data->x);
  ASSERT_TRUE(proba.ok());
  auto auc = Auc(*proba, data->labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.7);  // still learns through 15% missing cells
}

TEST(BoosterTest, SquaredObjectiveRegresses) {
  // y = x on a line; squared loss should fit closely.
  DataFrame f;
  std::vector<double> x(200);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    x[i] = static_cast<double>(i) / 200.0;
    y[i] = x[i] > 0.5 ? 1.0 : 0.0;
  }
  ASSERT_TRUE(f.AddColumn(Column("x", x)).ok());
  auto data = MakeDataset(f, y);
  ASSERT_TRUE(data.ok());
  GbdtParams params;
  params.objective = Objective::kSquared;
  params.num_trees = 20;
  params.max_depth = 2;
  auto model = Booster::Fit(*data, nullptr, params);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->PredictRowProba({0.1}), 0.0, 0.05);
  EXPECT_NEAR(model->PredictRowProba({0.9}), 1.0, 0.05);
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
