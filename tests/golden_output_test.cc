// Golden outputs: fits fixed synthetic tables and compares FNV-1a hashes
// of the serialized results against constants recorded from an earlier
// build. Every other oracle compares two paths of one build (dense vs
// chunked, 1 vs 8 threads, batch vs row), so a kernel change that moves
// every path the same way passes all of them; this suite does not.
//
// The hashes cover the quantile cuts (equal-frequency edges feed the GBDT
// quantizer, the IV filter and the discretize / group-by operators), the
// trees and every fitted parameter bit. They also depend on libm's
// exp/log rounding, through the synthetic generator and the loss.
//
// Regenerating: when a change is meant to alter outputs, build this test
// at the commit whose outputs should become the reference, run
//   build/tests/golden_output_test
// and copy each hash printed as the actual value of a failing comparison
// into the constants below. Say in the commit why the outputs changed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/data/synthetic.h"
#include "src/dataframe/spill.h"
#include "src/gbdt/booster.h"

namespace safe {
namespace {

/// FNV-1a 64 of `text`, as 16 lowercase hex digits.
std::string Fnv1aHex(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

Dataset MakeTable(size_t rows, size_t features, double missing_rate,
                  uint64_t seed) {
  data::SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.num_redundant = 1;
  spec.missing_rate = missing_rate;
  spec.seed = seed;
  auto data = data::MakeSyntheticDataset(spec);
  SAFE_CHECK(data.ok()) << data.status().ToString();
  return *data;
}

std::string BoosterHash(const Dataset& train, const gbdt::GbdtParams& params) {
  auto model = gbdt::Booster::Fit(train, nullptr, params);
  SAFE_CHECK(model.ok()) << model.status().ToString();
  return Fnv1aHex(model->Serialize());
}

std::string PlanText(const Dataset& train, const SafeParams& params) {
  auto fit = SafeEngine(params).Fit(train);
  SAFE_CHECK(fit.ok()) << fit.status().ToString();
  return fit->plan.Serialize();
}

TEST(GoldenOutputTest, BoosterDefaultHist) {
  const Dataset train = MakeTable(3000, 10, 0.0, 101);
  EXPECT_EQ(BoosterHash(train, gbdt::GbdtParams{}), "9ea6cd06ba0b8b4b");
}

TEST(GoldenOutputTest, BoosterSampledWithMissing) {
  const Dataset train = MakeTable(3000, 10, 0.15, 202);
  gbdt::GbdtParams params;
  params.subsample = 0.8;
  params.colsample_bytree = 0.7;
  EXPECT_EQ(BoosterHash(train, params), "7aa6c3d2e6f96d7e");
}

TEST(GoldenOutputTest, BoosterExactSampledWithMissing) {
  const Dataset train = MakeTable(2000, 8, 0.1, 505);
  gbdt::GbdtParams params;
  params.tree_method = gbdt::TreeMethod::kExact;
  params.num_trees = 30;
  params.subsample = 0.8;
  EXPECT_EQ(BoosterHash(train, params), "55a101d2e2ed6015");
}

TEST(GoldenOutputTest, BoosterEarlyStoppingOnValidation) {
  data::SyntheticSpec spec;
  spec.num_features = 8;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.missing_rate = 0.05;
  spec.seed = 606;
  auto split = data::MakeSyntheticSplit(spec, 2000, 600, 10);
  SAFE_CHECK(split.ok()) << split.status().ToString();
  gbdt::GbdtParams params;
  params.num_trees = 300;
  params.learning_rate = 0.5;
  params.early_stopping_rounds = 5;
  auto model = gbdt::Booster::Fit(split->train, &split->valid, params);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Early stopping must have cut the ensemble, or this case would not
  // cover the validation margins.
  EXPECT_LT(model->trees().size(), params.num_trees);
  EXPECT_EQ(Fnv1aHex(model->Serialize()), "ce5f5281b9f63ff2");
}

TEST(GoldenOutputTest, EnginePlanDefaultOperators) {
  const Dataset train = MakeTable(2000, 8, 0.0, 303);
  EXPECT_EQ(Fnv1aHex(PlanText(train, SafeParams{})), "f7783b1921290bf2");
}

TEST(GoldenOutputTest, EnginePlanWithBinningOperators) {
  const Dataset train = MakeTable(2000, 8, 0.05, 404);
  SafeParams params;
  params.operator_names = {"add", "sub", "mul", "div", "discretize", "gbmean"};
  // Keep every mined combination (single features too, so discretize is
  // generated), a redundancy ceiling discretize(f) passes next to f, and
  // room for every survivor.
  params.gamma = 64;
  params.pearson_threshold = 0.99;
  params.max_output_features = 100;
  const std::string plan = PlanText(train, params);
  // The plan must carry fitted equal-frequency cuts, or this case would
  // not cover them.
  EXPECT_NE(plan.find("\ndiscretize "), std::string::npos) << plan;
  EXPECT_NE(plan.find("\ngbmean "), std::string::npos) << plan;
  EXPECT_EQ(Fnv1aHex(plan), "ec67e5f501ccc4e0");
}

TEST(GoldenOutputTest, EnginePlanWhenNoCandidateClearsAlpha) {
  // With α above every IV the filter keeps nothing, so the engine falls
  // back to every candidate, rebuilding first the generated columns it
  // did not build. Every storage, thread count and validation setting
  // must give the one plan.
  data::SyntheticSpec spec;
  spec.num_features = 8;
  spec.num_informative = 4;
  spec.num_interactions = 3;
  spec.num_redundant = 1;
  spec.missing_rate = 0.05;
  spec.seed = 707;
  auto split = data::MakeSyntheticSplit(spec, 3 * kMinRowGroupRows, 2000, 500);
  SAFE_CHECK(split.ok()) << split.status().ToString();
  SafeParams params;
  params.iv_threshold = 1e9;
  // Small boosters and few combinations keep the all-candidate
  // redundancy and importance stages quick.
  params.miner.num_trees = 8;
  params.miner.max_depth = 3;
  params.ranker.num_trees = 8;
  params.ranker.max_depth = 3;
  params.gamma = 8;
  for (size_t n_threads : {size_t{1}, size_t{4}}) {
    for (bool pooled : {false, true}) {
      for (bool with_valid : {false, true}) {
        SCOPED_TRACE("n_threads=" + std::to_string(n_threads) +
                     " pooled=" + std::to_string(pooled) +
                     " with_valid=" + std::to_string(with_valid));
        params.n_threads = n_threads;
        Dataset train = split->train;
        if (pooled) {
          // Two groups of budget, so the pool spills during the fit.
          SpillPool::Options options;
          options.resident_budget_bytes =
              2 * kMinRowGroupRows * sizeof(double);
          auto pool = SpillPool::Create(options);
          ASSERT_TRUE(pool.ok()) << pool.status().ToString();
          train = ToChunkedDataset(train, *pool, kMinRowGroupRows);
        }
        auto fit = SafeEngine(params).Fit(
            train, with_valid ? &split->valid : nullptr);
        ASSERT_TRUE(fit.ok()) << fit.status().ToString();
        for (const auto& diag : fit->iterations) {
          EXPECT_EQ(diag.num_after_iv, diag.num_candidates);
        }
        // Generated features must reach the plan, or this case would not
        // cover the rebuilt columns.
        EXPECT_FALSE(fit->plan.generated().empty());
        EXPECT_EQ(Fnv1aHex(fit->plan.Serialize()), "96ad87110fa690ab");
      }
    }
  }
}

}  // namespace
}  // namespace safe
