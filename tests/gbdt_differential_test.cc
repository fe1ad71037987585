// Differential tests between the exact greedy trainer and the histogram
// trainer. On "pure-quantile" data — every feature takes at most a few
// dozen distinct values, far fewer than the 256 histogram bins — the
// quantile sketch is lossless: both trainers see exactly the same split
// candidates, so they must choose the same split, and full boosted
// ensembles must land within 1e-2 AUC of each other across seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "src/common/random.h"
#include "src/data/synthetic.h"
#include "src/dataframe/binning.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/exact_trainer.h"
#include "src/gbdt/quantizer.h"
#include "src/gbdt/trainer.h"
#include "src/stats/auc.h"

namespace safe {
namespace gbdt {
namespace {

constexpr size_t kBins = 256;

/// Quantizes every column of `frame` to its equal-frequency bin index so
/// each feature has <= `levels` distinct integer values. With 256
/// histogram bins this makes the histogram trainer's candidate set
/// identical to the exact trainer's.
DataFrame ToPureQuantileGrid(const DataFrame& frame, size_t levels) {
  DataFrame out;
  for (size_t f = 0; f < frame.num_columns(); ++f) {
    const auto& col = frame.column(f);
    auto edges = EqualFrequencyEdges(col.values(), levels);
    EXPECT_TRUE(edges.ok());
    EXPECT_TRUE(
        out.AddColumn(Column(col.name(), ApplyBins(*edges, col.values())))
            .ok());
  }
  return out;
}

struct StumpPair {
  RegressionTree hist;
  RegressionTree exact;
};

/// Trains one depth-1 tree with each trainer on the same gradients.
StumpPair TrainStumps(const DataFrame& frame, const std::vector<double>& y,
                      size_t max_depth = 1) {
  GbdtParams params;
  params.max_depth = max_depth;
  params.max_bins = kBins;

  auto quantizer = FeatureQuantizer::Fit(frame, kBins);
  EXPECT_TRUE(quantizer.ok());
  auto matrix = quantizer->Transform(frame);
  EXPECT_TRUE(matrix.ok());

  std::vector<double> grad(y.size());
  std::vector<double> hess(y.size(), 0.25);
  std::vector<size_t> rows(y.size());
  std::vector<int> features;
  for (size_t i = 0; i < y.size(); ++i) {
    grad[i] = 0.5 - y[i];
    rows[i] = i;
  }
  for (size_t f = 0; f < frame.num_columns(); ++f) {
    features.push_back(static_cast<int>(f));
  }

  TreeTrainer hist_trainer(&*matrix, &params);
  ExactTreeTrainer exact_trainer(&frame, &params);
  std::vector<double> margins(y.size());
  return StumpPair{hist_trainer.Train(grad, hess, rows, features, &margins),
                   exact_trainer.Train(grad, hess, rows, features, &margins)};
}

TEST(DifferentialTest, SameRootSplitOnPureQuantileData) {
  // 20 seeded rounds; each plants a step boundary on one of three
  // integer-grid features and checks both trainers cut at it.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const size_t n = 240;
    const size_t signal_feature = rng.NextUint64Below(3);
    const double boundary = 8.0 + static_cast<double>(rng.NextUint64Below(16));
    DataFrame frame;
    std::vector<double> y(n);
    std::vector<std::vector<double>> cols(3, std::vector<double>(n));
    for (size_t i = 0; i < n; ++i) {
      for (size_t f = 0; f < 3; ++f) {
        cols[f][i] = static_cast<double>(rng.NextUint64Below(32));
      }
      // A clean step on the signal feature, plus 10% label noise.
      y[i] = cols[signal_feature][i] <= boundary ? 0.0 : 1.0;
      if (rng.NextBernoulli(0.1)) y[i] = 1.0 - y[i];
    }
    for (size_t f = 0; f < 3; ++f) {
      ASSERT_TRUE(
          frame.AddColumn(Column("f" + std::to_string(f), cols[f])).ok());
    }

    StumpPair pair = TrainStumps(frame, y);
    ASSERT_EQ(pair.hist.nodes().size(), 3u) << "seed " << seed;
    ASSERT_EQ(pair.exact.nodes().size(), 3u) << "seed " << seed;
    const TreeNode& h = pair.hist.nodes()[0];
    const TreeNode& e = pair.exact.nodes()[0];
    EXPECT_EQ(h.feature, e.feature) << "seed " << seed;

    // Thresholds are represented differently (bin upper edge vs value
    // midpoint) but must induce the same partition of the data.
    const auto& values =
        frame.column(static_cast<size_t>(h.feature)).values();
    for (double v : std::set<double>(values.begin(), values.end())) {
      EXPECT_EQ(v <= h.threshold, v <= e.threshold)
          << "seed " << seed << " value " << v;
    }
  }
}

TEST(DifferentialTest, EnsembleAucsAgreeAcrossSeeds) {
  // Full boosted ensembles, 20 seeds: |AUC_hist - AUC_exact| <= 1e-2 on
  // a held-out test set of pure-quantile synthetic data.
  for (uint64_t seed = 100; seed < 120; ++seed) {
    data::SyntheticSpec spec;
    spec.num_rows = 500;
    spec.num_features = 5;
    spec.num_informative = 3;
    spec.num_interactions = 2;
    spec.seed = seed;
    auto data = data::MakeSyntheticDataset(spec);
    ASSERT_TRUE(data.ok());

    // Quantize to a 48-level grid first, then split rows; both trainers
    // and both splits see the same discretized world.
    DataFrame grid = ToPureQuantileGrid(data->x, 48);
    const size_t n_train = 350;
    DataFrame train_x;
    DataFrame test_x;
    std::vector<double> train_y;
    std::vector<double> test_y;
    for (size_t f = 0; f < grid.num_columns(); ++f) {
      const auto& values = grid.column(f).values();
      ASSERT_TRUE(train_x
                      .AddColumn(Column(
                          grid.column(f).name(),
                          std::vector<double>(values.begin(),
                                              values.begin() + n_train)))
                      .ok());
      ASSERT_TRUE(test_x
                      .AddColumn(Column(
                          grid.column(f).name(),
                          std::vector<double>(values.begin() + n_train,
                                              values.end())))
                      .ok());
    }
    const auto& labels = data->labels();
    train_y.assign(labels.begin(), labels.begin() + n_train);
    test_y.assign(labels.begin() + n_train, labels.end());
    auto train = MakeDataset(std::move(train_x), train_y);
    ASSERT_TRUE(train.ok());

    GbdtParams params;
    params.num_trees = 15;
    params.max_depth = 3;
    params.max_bins = kBins;
    params.seed = seed;

    GbdtParams hist_params = params;
    hist_params.tree_method = TreeMethod::kHist;
    GbdtParams exact_params = params;
    exact_params.tree_method = TreeMethod::kExact;

    auto hist_model = Booster::Fit(*train, nullptr, hist_params);
    auto exact_model = Booster::Fit(*train, nullptr, exact_params);
    ASSERT_TRUE(hist_model.ok());
    ASSERT_TRUE(exact_model.ok());

    auto hist_proba = hist_model->PredictProba(test_x);
    auto exact_proba = exact_model->PredictProba(test_x);
    ASSERT_TRUE(hist_proba.ok());
    ASSERT_TRUE(exact_proba.ok());

    auto hist_auc = Auc(*hist_proba, test_y);
    auto exact_auc = Auc(*exact_proba, test_y);
    ASSERT_TRUE(hist_auc.ok()) << "seed " << seed;
    ASSERT_TRUE(exact_auc.ok()) << "seed " << seed;
    EXPECT_NEAR(*hist_auc, *exact_auc, 1e-2) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
