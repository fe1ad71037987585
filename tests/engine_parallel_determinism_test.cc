// Differential determinism suite for the parallel SAFE engine: a full
// Fit must produce a byte-identical serialized FeaturePlan — and
// identical selected / generated lists — at n_threads ∈ {1, 2, 8}, for
// clean, NaN-bearing and constant-column inputs, and for a pooled frame
// that spills during the fit. This is the engine-wide analogue of
// gbdt_parallel_determinism_test and the enforcement point of the
// DESIGN.md determinism rules.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/data/synthetic.h"
#include "src/dataframe/spill.h"
#include "tests/property_util.h"

namespace safe {
namespace {

SafeParams QuickParams(uint64_t seed) {
  SafeParams params;
  params.seed = seed;
  params.miner.num_trees = 12;
  params.miner.max_depth = 3;
  params.ranker.num_trees = 12;
  params.ranker.max_depth = 3;
  return params;
}

struct FitSnapshot {
  std::string serialized;
  std::vector<std::string> selected;
  size_t num_generated = 0;
};

FitSnapshot FitAt(const Dataset& train, SafeParams params, size_t n_threads) {
  params.n_threads = n_threads;
  SafeEngine engine(params);
  auto fit = engine.Fit(train);
  SAFE_CHECK(fit.ok()) << fit.status().ToString();
  return FitSnapshot{fit->plan.Serialize(), fit->plan.selected(),
                     fit->plan.generated().size()};
}

void ExpectIdenticalAcrossThreadCounts(const Dataset& train,
                                       const SafeParams& params) {
  const FitSnapshot reference = FitAt(train, params, 1);
  EXPECT_FALSE(reference.selected.empty());
  for (size_t n_threads : {size_t{2}, size_t{8}}) {
    const FitSnapshot run = FitAt(train, params, n_threads);
    EXPECT_EQ(run.selected, reference.selected)
        << "selected list diverged at n_threads=" << n_threads;
    EXPECT_EQ(run.num_generated, reference.num_generated)
        << "generated count diverged at n_threads=" << n_threads;
    // Byte-identity of the serialized plan is the strongest check: it
    // covers names, parents and every fitted operator parameter bit.
    EXPECT_EQ(run.serialized, reference.serialized)
        << "serialized FeaturePlan diverged at n_threads=" << n_threads;
  }
}

TEST(EngineParallelDeterminismTest, CleanDataset) {
  data::SyntheticSpec spec;
  spec.num_rows = 900;
  spec.num_features = 8;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.num_redundant = 1;
  spec.seed = 17;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  ExpectIdenticalAcrossThreadCounts(*data, QuickParams(17));
}

TEST(EngineParallelDeterminismTest, NanBearingDataset) {
  data::SyntheticSpec spec;
  spec.num_rows = 900;
  spec.num_features = 8;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.missing_rate = 0.12;
  spec.seed = 23;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  ExpectIdenticalAcrossThreadCounts(*data, QuickParams(23));
}

TEST(EngineParallelDeterminismTest, PooledNanBearingDatasetMatchesResident) {
  // Each column spans three row groups. Generation tasks take IVs and
  // seal their columns into one shared pool at once, and its two-group
  // budget makes it spill while they do.
  data::SyntheticSpec spec;
  spec.num_rows = 3 * kMinRowGroupRows;
  spec.num_features = 8;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.missing_rate = 0.12;
  spec.seed = 23;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  const SafeParams params = QuickParams(23);
  const FitSnapshot resident = FitAt(*data, params, 1);
  EXPECT_FALSE(resident.selected.empty());
  for (size_t n_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SpillPool::Options options;
    options.resident_budget_bytes = 2 * kMinRowGroupRows * sizeof(double);
    auto pool = SpillPool::Create(options);
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    const Dataset pooled = ToChunkedDataset(*data, *pool, kMinRowGroupRows);
    const FitSnapshot run = FitAt(pooled, params, n_threads);
    EXPECT_EQ(run.selected, resident.selected)
        << "pooled selected list diverged at n_threads=" << n_threads;
    EXPECT_EQ(run.num_generated, resident.num_generated)
        << "pooled generated count diverged at n_threads=" << n_threads;
    EXPECT_EQ(run.serialized, resident.serialized)
        << "pooled FeaturePlan diverged at n_threads=" << n_threads;
    EXPECT_GT((*pool)->stats().evictions, 0u);
  }
}

TEST(EngineParallelDeterminismTest, ConstantAndSparseColumns) {
  Dataset data = testutil::MakePropertyDataset(5);
  testutil::AppendConstantColumn(&data, "const_a", -1.0);
  testutil::AppendConstantColumn(&data, "const_b", 0.0);
  testutil::AppendMostlyMissingColumn(&data, "sparse_a", 5);
  ExpectIdenticalAcrossThreadCounts(data, QuickParams(5));
}

TEST(EngineParallelDeterminismTest, TwoIterationsWithRicherOperators) {
  // Iteration 2 builds on iteration 1's outputs, so any ordering drift
  // in generation compounds — a sharper probe than a single iteration.
  data::SyntheticSpec spec;
  spec.num_rows = 700;
  spec.num_features = 7;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.missing_rate = 0.05;
  spec.seed = 31;
  auto data = data::MakeSyntheticDataset(spec);
  ASSERT_TRUE(data.ok());
  SafeParams params = QuickParams(31);
  params.num_iterations = 2;
  params.operator_names = {"add", "sub", "mul", "div", "log", "abs"};
  ExpectIdenticalAcrossThreadCounts(*data, params);
}

TEST(EngineParallelDeterminismTest, GlobalPoolMatchesSerial) {
  // n_threads = 0 (shared global pool) must agree with the serial run
  // too — the default configuration is covered, not just explicit k.
  Dataset data = testutil::MakePropertyDataset(9);
  const SafeParams params = QuickParams(9);
  const FitSnapshot serial = FitAt(data, params, 1);
  const FitSnapshot global = FitAt(data, params, 0);
  EXPECT_EQ(global.selected, serial.selected);
  EXPECT_EQ(global.serialized, serial.serialized);
}

}  // namespace
}  // namespace safe
