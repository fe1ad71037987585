// Focused tests of the histogram tree trainer's split mechanics,
// regularization knobs, and missing-value routing.

#include "src/gbdt/trainer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "src/common/random.h"
#include "src/dataframe/spill.h"
#include "src/gbdt/quantizer.h"
#include "tests/property_util.h"

namespace safe {
namespace gbdt {
namespace {

struct TrainerFixture {
  DataFrame frame;
  BinnedMatrix matrix;
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<size_t> rows;
  std::vector<int> features;
  std::vector<double> margins;

  /// Builds gradients as if fitting residuals of y with constant 0.5
  /// predictions: grad = 0.5 - y, hess = 0.25 (logistic at margin 0).
  static TrainerFixture FromXy(DataFrame frame_in,
                               const std::vector<double>& y,
                               size_t max_bins = 32) {
    TrainerFixture fx;
    fx.frame = std::move(frame_in);
    auto quantizer = FeatureQuantizer::Fit(fx.frame, max_bins);
    EXPECT_TRUE(quantizer.ok());
    auto matrix = quantizer->Transform(fx.frame);
    EXPECT_TRUE(matrix.ok());
    fx.matrix = std::move(*matrix);
    for (size_t i = 0; i < y.size(); ++i) {
      fx.grad.push_back(0.5 - y[i]);
      fx.hess.push_back(0.25);
      fx.rows.push_back(i);
    }
    fx.margins.assign(y.size(), 0.0);
    for (size_t f = 0; f < fx.frame.num_columns(); ++f) {
      fx.features.push_back(static_cast<int>(f));
    }
    return fx;
  }
};

TrainerFixture StepFunction(size_t n) {
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = i < n / 2 ? 0.0 : 1.0;
  }
  DataFrame f;
  EXPECT_TRUE(f.AddColumn(Column("x", x)).ok());
  return TrainerFixture::FromXy(std::move(f), y);
}

TEST(TrainerTest, FindsTheStepBoundary) {
  TrainerFixture fx = StepFunction(200);
  GbdtParams params;
  params.max_depth = 1;
  TreeTrainer trainer(&fx.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  ASSERT_EQ(tree.nodes().size(), 3u);
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_NEAR(tree.nodes()[0].threshold, 99.5, 7.0);  // bin granularity
  // Left leaf pushes toward class 0 (negative), right toward class 1.
  EXPECT_LT(tree.nodes()[1].value, 0.0);
  EXPECT_GT(tree.nodes()[2].value, 0.0);
  EXPECT_GT(tree.nodes()[0].gain, 0.0);
}

TEST(TrainerTest, MinChildWeightBlocksTinyChildren) {
  TrainerFixture fx = StepFunction(40);  // hessian mass = 40 * 0.25 = 10
  GbdtParams params;
  params.max_depth = 3;
  params.min_child_weight = 6.0;  // each child needs >= 24 rows
  TreeTrainer trainer(&fx.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  // Splitting 40 rows into two children of >= 24 rows is impossible.
  EXPECT_EQ(tree.nodes().size(), 1u);
}

TEST(TrainerTest, MinSplitGainPrunes) {
  // Pure-noise gradients: any split gain is tiny, so a gamma floor keeps
  // the tree a stump.
  Rng rng(5);
  std::vector<double> x(300);
  std::vector<double> y(300);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.NextGaussian();
    y[i] = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
  }
  DataFrame f;
  ASSERT_TRUE(f.AddColumn(Column("x", x)).ok());
  TrainerFixture fx = TrainerFixture::FromXy(std::move(f), y);
  GbdtParams params;
  params.min_split_gain = 5.0;
  TreeTrainer trainer(&fx.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  EXPECT_EQ(tree.nodes().size(), 1u);
}

TEST(TrainerTest, DepthLimitRespected) {
  TrainerFixture fx = StepFunction(400);
  GbdtParams params;
  params.max_depth = 2;
  TreeTrainer trainer(&fx.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  // Depth-2 tree has at most 7 nodes.
  EXPECT_LE(tree.nodes().size(), 7u);
  for (const auto& path : tree.ExtractPaths()) {
    EXPECT_LE(path.size(), 2u);
  }
}

TEST(TrainerTest, MissingRowsRoutedToBetterSide) {
  // Feature: NaN for all positives, value 1.0 for all negatives. The
  // only signal is the missing-ness itself.
  const size_t n = 100;
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (i % 2 == 0) ? 1.0 : 0.0;
    x[i] = y[i] > 0.5 ? std::nan("") : 1.0;
  }
  // Add a second, noisy feature so there is a real edge to split on.
  std::vector<double> noise(n);
  Rng rng(6);
  for (auto& v : noise) v = rng.NextGaussian();
  DataFrame f;
  ASSERT_TRUE(f.AddColumn(Column("x", x)).ok());
  ASSERT_TRUE(f.AddColumn(Column("noise", noise)).ok());
  TrainerFixture fx = TrainerFixture::FromXy(std::move(f), y);
  GbdtParams params;
  params.max_depth = 2;
  TreeTrainer trainer(&fx.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  ASSERT_GT(tree.nodes().size(), 1u);
  // Prediction must separate the classes using the missing channel.
  const double nan_pred = tree.PredictRow({std::nan(""), 0.0});
  const double val_pred = tree.PredictRow({1.0, 0.0});
  EXPECT_GT(nan_pred, val_pred);
}

TEST(TrainerTest, MissingRoutingIdenticalAcrossThreadCounts) {
  // Rows with NaN in the split feature must route identically whether
  // the tree was grown serially or across a pool: same serialized tree,
  // same predictions on all-NaN probes.
  const size_t n = 300;
  Rng rng(11);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x1[i] = rng.NextGaussian();
    x2[i] = rng.NextGaussian();
    y[i] = (x1[i] + 0.5 * x2[i] > 0.0) ? 1.0 : 0.0;
    // A third of the signal feature goes missing; missing-ness is
    // label-correlated so default_left carries real signal.
    if (rng.NextBernoulli(0.3)) x1[i] = y[i] > 0.5 ? std::nan("") : x1[i];
  }
  DataFrame f;
  ASSERT_TRUE(f.AddColumn(Column("x1", x1)).ok());
  ASSERT_TRUE(f.AddColumn(Column("x2", x2)).ok());
  TrainerFixture fx = TrainerFixture::FromXy(std::move(f), y);
  GbdtParams params;
  params.max_depth = 4;

  TreeTrainer serial_trainer(&fx.matrix, &params, nullptr);
  RegressionTree serial_tree =
      serial_trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  ASSERT_GT(serial_tree.nodes().size(), 1u);

  for (size_t n_threads : {2u, 8u}) {
    ThreadPool pool(n_threads);
    TreeTrainer parallel_trainer(&fx.matrix, &params, &pool);
    RegressionTree parallel_tree =
        parallel_trainer.Train(fx.grad, fx.hess, fx.rows, fx.features,
                               &fx.margins);
    EXPECT_EQ(serial_tree.Serialize(), parallel_tree.Serialize())
        << n_threads << " threads";
    // Probe NaN routing directly on every node's default direction.
    const double nan_serial =
        serial_tree.PredictRow({std::nan(""), std::nan("")});
    const double nan_parallel =
        parallel_tree.PredictRow({std::nan(""), std::nan("")});
    EXPECT_EQ(nan_serial, nan_parallel);
  }
}

TEST(TrainerTest, ParallelTrainingMatchesSerialOnLargeRowSets) {
  // Row counts above the partition grain (4096) force multi-chunk
  // partitioning and histogram subtraction on deep nodes.
  TrainerFixture fx = StepFunction(10000);
  GbdtParams params;
  params.max_depth = 5;
  TreeTrainer serial_trainer(&fx.matrix, &params, nullptr);
  RegressionTree serial_tree =
      serial_trainer.Train(fx.grad, fx.hess, fx.rows, fx.features, &fx.margins);
  ThreadPool pool(4);
  TreeTrainer parallel_trainer(&fx.matrix, &params, &pool);
  RegressionTree parallel_tree =
      parallel_trainer.Train(fx.grad, fx.hess, fx.rows, fx.features,
                             &fx.margins);
  EXPECT_EQ(serial_tree.Serialize(), parallel_tree.Serialize());
}

TEST(TrainerTest, SubsetOfRowsOnlyUsesThoseRows) {
  TrainerFixture fx = StepFunction(100);
  // Train on the first half only: all labels 0 there -> no split, and
  // the leaf pulls negative.
  std::vector<size_t> first_half;
  for (size_t i = 0; i < 50; ++i) first_half.push_back(i);
  GbdtParams params;
  TreeTrainer trainer(&fx.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx.grad, fx.hess, first_half, fx.features, &fx.margins);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_LT(tree.nodes()[0].value, 0.0);
}

TEST(TrainerTest, FeatureSubsetRestrictsSplits) {
  TrainerFixture fx = StepFunction(200);
  // Add a pure-noise second column and allow ONLY it.
  Rng rng(7);
  std::vector<double> noise(200);
  for (auto& v : noise) v = rng.NextGaussian();
  DataFrame f = fx.frame;
  ASSERT_TRUE(f.AddColumn(Column("noise", noise)).ok());
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) y[i] = i < 100 ? 0.0 : 1.0;
  TrainerFixture fx2 = TrainerFixture::FromXy(std::move(f), y);
  GbdtParams params;
  TreeTrainer trainer(&fx2.matrix, &params);
  RegressionTree tree =
      trainer.Train(fx2.grad, fx2.hess, fx2.rows, {1}, &fx2.margins);
  for (const auto& node : tree.nodes()) {
    if (!node.is_leaf()) {
      EXPECT_EQ(node.feature, 1);
    }
  }
}

TEST(TrainerTest, LeafMarginsEqualTraversalOnAdversarialColumns) {
  // More rows than the 4096-row partition grain and row-group size, so
  // partitions and quantized columns span several chunks and groups.
  const size_t n = 10000;
  const DataFrame dense = testutil::SplitStressFrame(n, 3);
  std::vector<std::vector<double>> row_values(n);
  for (size_t r = 0; r < n; ++r) row_values[r] = dense.Row(r);
  SpillPool::Options options;
  options.resident_budget_bytes = 4096 * sizeof(double);  // spills
  auto spill = SpillPool::Create(options);
  ASSERT_TRUE(spill.ok());
  const DataFrame chunked = ToChunkedFrame(dense, *spill, 4096);

  Rng rng(17);
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
  params.max_bins = 32;
  ThreadPool pool(4);
  bool saw_inf_threshold = false;
  bool saw_zero_threshold = false;
  for (const DataFrame* frame : {&dense, &chunked}) {
    auto quantizer = FeatureQuantizer::Fit(*frame, params.max_bins);
    ASSERT_TRUE(quantizer.ok());
    auto matrix = quantizer->Transform(*frame);
    ASSERT_TRUE(matrix.ok());
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      TreeTrainer trainer(&*matrix, &params, threads);
      // All columns, then each alone, so every column's cuts get used.
      for (const std::vector<int>& features :
           {std::vector<int>{0, 1, 2, 3}, {0}, {1}, {2}, {3}}) {
        SCOPED_TRACE(std::string(frame == &dense ? "dense" : "chunked") +
                     (threads ? " 4 threads" : " serial") + " features[0]=" +
                     std::to_string(features[0]) + "/" +
                     std::to_string(features.size()));
        std::vector<double> margins(n, 0.0);
        const RegressionTree tree =
            trainer.Train(grad, hess, rows, features, &margins);
        ASSERT_GT(tree.nodes().size(), 1u);
        size_t next = 0;  // position in `rows`
        for (size_t r = 0; r < n; ++r) {
          double expect = 0.0;
          if (next < rows.size() && rows[next] == r) {
            expect += tree.PredictRow(row_values[r]);
            ++next;
          }
          ASSERT_EQ(std::bit_cast<uint64_t>(margins[r]),
                    std::bit_cast<uint64_t>(expect))
              << "row " << r;
        }
        for (const TreeNode& node : tree.nodes()) {
          if (node.is_leaf()) continue;
          saw_inf_threshold |=
              node.threshold == std::numeric_limits<double>::infinity();
          saw_zero_threshold |= node.threshold == 0.0;
        }
      }
    }
  }
  EXPECT_TRUE(saw_inf_threshold) << "no missing-vs-present split grown";
  EXPECT_TRUE(saw_zero_threshold) << "no split at a signed-zero cut";
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
