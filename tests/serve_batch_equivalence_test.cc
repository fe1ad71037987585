// Equivalence layer for the vectorized batch path (src/serve/
// batch_scorer.h): RowScorer::ScoreBatch — block transpose, block-wise
// opcode execution, packed-forest traversal — must be BITWISE identical
// to looping RowScorer::ScoreRow for every registered operator, for
// batch sizes {1, B-1, B, B+1, 4B, ragged tail}, on NaN-laden and
// constant columns, and under concurrent callers sharing one scorer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/core/engine.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"
#include "src/dataframe/dataframe.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/forest_layout.h"
#include "src/obs/metrics.h"
#include "src/serve/batch_scorer.h"
#include "src/serve/scorer.h"
#include "tests/property_util.h"

namespace safe {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr size_t kB = serve::BatchScorer::kBlockRows;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

::testing::AssertionResult SameBits(double expected, double actual) {
  if (std::isnan(expected) || std::isnan(actual)) {
    if (std::isnan(expected) && std::isnan(actual)) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "missingness differs: expected=" << expected
           << " actual=" << actual;
  }
  if (Bits(expected) == Bits(actual)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "bits differ: expected=" << expected << " actual=" << actual;
}

/// The boundary-heavy sweep from the issue: a single row, one less than
/// a block, exactly a block, one more, several blocks, and the full
/// batch (whose tail is ragged whenever total % kB != 0).
std::vector<size_t> BatchSizes(size_t total) {
  std::vector<size_t> sizes;
  for (size_t s : {size_t{1}, kB - 1, kB, kB + 1, 4 * kB, total}) {
    if (s <= total) sizes.push_back(s);
  }
  return sizes;
}

/// Scores rows[0..size) through ScoreBatch and demands bitwise equality
/// with the per-row fused path.
void CheckBatchSweep(const serve::RowScorer& scorer,
                     const std::vector<std::vector<double>>& rows) {
  serve::RowScorer::Scratch scratch = scorer.MakeScratch();
  std::vector<double> expected(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    expected[r] = scorer.ScoreRow(rows[r].data(), &scratch);
  }
  for (const size_t size : BatchSizes(rows.size())) {
    SCOPED_TRACE("batch size " + std::to_string(size));
    const std::vector<std::vector<double>> batch(rows.begin(),
                                                 rows.begin() + size);
    std::vector<double> out;
    ASSERT_TRUE(scorer.ScoreBatch(batch, &out).ok());
    ASSERT_EQ(out.size(), size);
    for (size_t r = 0; r < size; ++r) {
      ASSERT_TRUE(SameBits(expected[r], out[r])) << "row " << r;
    }
  }
}

/// Training frame with negatives, zeros, NaNs, an all-missing row and
/// -0.0 (the serve_equivalence_test parent frame).
DataFrame MakeParentFrame() {
  const size_t rows = 64;
  Rng rng(2024);
  std::vector<double> a(rows), b(rows), c(rows);
  for (size_t r = 0; r < rows; ++r) {
    a[r] = rng.NextDouble() * 8.0 - 4.0;
    b[r] = rng.NextDouble() * 3.0 - 1.0;
    c[r] = rng.NextDouble() * 100.0 - 50.0;
  }
  a[3] = 0.0;
  b[5] = 0.0;
  a[7] = kNaN;
  b[11] = kNaN;
  c[13] = kNaN;
  a[17] = kNaN;
  b[17] = kNaN;
  c[19] = -0.0;
  DataFrame x;
  SAFE_CHECK(x.AddColumn(Column("a", std::move(a))).ok());
  SAFE_CHECK(x.AddColumn(Column("b", std::move(b))).ok());
  SAFE_CHECK(x.AddColumn(Column("c", std::move(c))).ok());
  return x;
}

/// Scoring rows in the training ranges plus NaNs — enough of them that
/// the full sweep (4 blocks + ragged tail) crosses block boundaries.
std::vector<std::vector<double>> MakeScoringRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row = {rng.NextDouble() * 8.0 - 4.0, rng.NextDouble() * 3.0 - 1.0,
           rng.NextDouble() * 100.0 - 50.0};
    for (double& v : row) {
      if (rng.NextUint64Below(8) == 0) v = kNaN;
    }
  }
  // One all-missing row inside the first block and one in the tail.
  rows[5] = {kNaN, kNaN, kNaN};
  rows[n - 2] = {kNaN, kNaN, kNaN};
  return rows;
}

TEST(BatchEquivalenceTest, EveryRegisteredOperatorIsBitIdenticalInBatch) {
  const OperatorRegistry registry = OperatorRegistry::Default();
  const DataFrame x = MakeParentFrame();
  const std::vector<std::string> parent_names = {"a", "b", "c"};
  std::vector<double> labels(x.num_rows());
  for (size_t r = 0; r < labels.size(); ++r) labels[r] = (r % 2 == 0) ? 1.0 : 0.0;
  const auto y = std::make_shared<const std::vector<double>>(std::move(labels));

  const std::vector<std::vector<double>> scoring_rows =
      MakeScoringRows(77, 4 * kB + 41);

  for (const std::string& op_name : registry.Names()) {
    SCOPED_TRACE("operator " + op_name);
    auto op = registry.Find(op_name);
    ASSERT_TRUE(op.ok());
    const size_t arity = (*op)->arity();
    ASSERT_LE(arity, parent_names.size());

    std::vector<const std::vector<double>*> parents;
    std::vector<std::string> used_parents;
    for (size_t p = 0; p < arity; ++p) {
      parents.push_back(&x.column(p).values());
      used_parents.push_back(parent_names[p]);
    }
    auto params = (*op)->FitParams(parents);
    ASSERT_TRUE(params.ok()) << params.status().ToString();

    GeneratedFeature feature;
    feature.name = "gen_" + op_name;
    feature.op = op_name;
    feature.parents = used_parents;
    feature.params = *params;
    auto plan = FeaturePlan::Create(parent_names, {feature},
                                    {feature.name, "a", "b"});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    // A small real booster over the plan's outputs, so the batch path
    // exercises this operator's panel through the forest too.
    auto engineered = plan->Transform(x, registry);
    ASSERT_TRUE(engineered.ok()) << engineered.status().ToString();
    gbdt::GbdtParams gbdt_params;
    gbdt_params.seed = 5;
    gbdt_params.num_trees = 5;
    Dataset engineered_train{std::move(*engineered), y};
    auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
    ASSERT_TRUE(booster.ok()) << booster.status().ToString();

    auto scorer = serve::RowScorer::Create(*plan, *booster, registry);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    CheckBatchSweep(*scorer, scoring_rows);
  }
}

/// Full SAFE pipeline on seeded property datasets (seeds divisible by 3
/// carry NaNs) with constant and mostly-missing columns appended — the
/// batch sweep must stay bit-identical end to end.
TEST(BatchEquivalenceTest, PropertyDatasetsAreBitIdenticalAcrossBatchSizes) {
  for (uint64_t seed : {3, 5, 9}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Dataset data = testutil::MakePropertyDataset(seed);
    testutil::AppendConstantColumn(&data, "const_col", -2.5);
    testutil::AppendMostlyMissingColumn(&data, "sparse_col", seed);

    SafeParams params;
    params.seed = seed;
    SafeEngine engine(params);
    auto fit = engine.Fit(data);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();

    auto engineered = fit->plan.Transform(data.x);
    ASSERT_TRUE(engineered.ok()) << engineered.status().ToString();
    gbdt::GbdtParams gbdt_params;
    gbdt_params.seed = seed;
    gbdt_params.num_trees = 20;
    Dataset engineered_train{std::move(*engineered), data.y};
    auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
    ASSERT_TRUE(booster.ok()) << booster.status().ToString();

    auto scorer = serve::RowScorer::Create(fit->plan, *booster);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();

    std::vector<std::vector<double>> rows;
    rows.reserve(data.num_rows());
    for (size_t r = 0; r < data.num_rows(); ++r) rows.push_back(data.x.Row(r));
    CheckBatchSweep(*scorer, rows);
  }
}

/// Depth-8 trees: some exceed the forest's 64-leaf bitvector limit, so
/// the stepped layout — the single-row walk at n == 1, lane-parallel in
/// blocks — is checked against the interpreted path at every block
/// boundary, on a NaN-bearing property dataset.
TEST(BatchEquivalenceTest, DeepTreesAreBitIdenticalToInterpreter) {
  const uint64_t seed = 3;
  Dataset data = testutil::MakePropertyDataset(seed);
  SafeParams params;
  params.seed = seed;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  auto engineered = fit->plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok()) << engineered.status().ToString();
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = seed;
  gbdt_params.num_trees = 20;
  gbdt_params.max_depth = 8;
  // Leaves down to a few rows, so trees grow past 64 leaves on a
  // dataset of under a thousand rows (7 of the 20 here).
  gbdt_params.min_child_weight = 0.1;
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok()) << booster.status().ToString();
  auto scorer = serve::RowScorer::Create(fit->plan, *booster);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();

  const gbdt::PackedForest& forest = scorer->batch().forest();
  size_t stepped = 0;
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    if (!forest.tree_uses_bitvector(t)) ++stepped;
  }
  ASSERT_GT(stepped, 0u) << "no tree over 64 leaves to check";

  std::vector<std::vector<double>> rows;
  std::vector<double> expected;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    rows.push_back(data.x.Row(r));
    auto transformed = fit->plan.TransformRow(rows.back());
    ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
    expected.push_back(booster->PredictRowProba(*transformed));
  }
  for (const size_t size : {size_t{1}, kB - 1, kB, kB + 1}) {
    SCOPED_TRACE("batch size " + std::to_string(size));
    ASSERT_LE(size, rows.size());
    const std::vector<std::vector<double>> batch(rows.begin(),
                                                 rows.begin() + size);
    std::vector<double> out;
    ASSERT_TRUE(scorer->ScoreBatch(batch, &out).ok());
    ASSERT_EQ(out.size(), size);
    for (size_t r = 0; r < size; ++r) {
      EXPECT_TRUE(SameBits(expected[r], out[r])) << "row " << r;
    }
  }
}

TEST(BatchEquivalenceTest, EmptyBatchYieldsEmptyOutput) {
  Dataset data = testutil::MakePropertyDataset(4);
  SafeParams params;
  params.seed = 4;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok());
  auto engineered = fit->plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok());
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = 4;
  gbdt_params.num_trees = 5;
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok());
  auto scorer = serve::RowScorer::Create(fit->plan, *booster);
  ASSERT_TRUE(scorer.ok());

  std::vector<double> out(7, -1.0);
  ASSERT_TRUE(scorer->ScoreBatch({}, &out).ok());
  EXPECT_TRUE(out.empty());

  // Width mismatches anywhere in the batch are rejected before scoring.
  std::vector<std::vector<double>> rows = {data.x.Row(0), data.x.Row(1)};
  rows[1].pop_back();
  EXPECT_FALSE(scorer->ScoreBatch(rows, &out).ok());
}

/// tsan hammer: one shared scorer, concurrent ScoreBatch callers on
/// overlapping row ranges plus interleaved per-row Score calls — every
/// output must still be bit-identical to the single-threaded result.
TEST(BatchEquivalenceTest, ConcurrentBatchCallersStayBitIdentical) {
  Dataset data = testutil::MakePropertyDataset(6);
  SafeParams params;
  params.seed = 6;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok());
  auto engineered = fit->plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok());
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = 6;
  gbdt_params.num_trees = 10;
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok());
  auto scorer = serve::RowScorer::Create(fit->plan, *booster);
  ASSERT_TRUE(scorer.ok());

  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < data.num_rows(); ++r) rows.push_back(data.x.Row(r));
  std::vector<double> expected;
  ASSERT_TRUE(scorer->ScoreBatch(rows, &expected).ok());

  constexpr size_t kThreads = 8;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread scores a different prefix so block tails differ
        // across threads while the scorer and rows are shared.
        const size_t size = rows.size() - t * 3;
        const std::vector<std::vector<double>> batch(rows.begin(),
                                                     rows.begin() + size);
        for (int iter = 0; iter < 5; ++iter) {
          std::vector<double> out;
          if (!scorer->ScoreBatch(batch, &out).ok() || out.size() != size) {
            ++failures[t];
            continue;
          }
          for (size_t r = 0; r < size; ++r) {
            if (Bits(out[r]) != Bits(expected[r])) ++failures[t];
          }
          auto one = scorer->Score(rows[t]);
          if (!one.ok() || Bits(*one) != Bits(expected[t])) ++failures[t];
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

/// ScoreBatch must record into serve.batch_latency_us / serve.batch_rows
/// only, and per-row Score into serve.latency_us only — the two series
/// stay disjoint so batch totals never pollute the per-row distribution
/// — and serve.batch_rows must record the true batch sizes.
TEST(ServeBenchTest, BatchAndPerRowTelemetrySeriesStayDisjoint) {
  Dataset data = testutil::MakePropertyDataset(8);
  SafeParams params;
  params.seed = 8;
  SafeEngine engine(params);
  auto fit = engine.Fit(data);
  ASSERT_TRUE(fit.ok());
  auto engineered = fit->plan.Transform(data.x);
  ASSERT_TRUE(engineered.ok());
  gbdt::GbdtParams gbdt_params;
  gbdt_params.seed = 8;
  gbdt_params.num_trees = 5;
  Dataset engineered_train{std::move(*engineered), data.y};
  auto booster = gbdt::Booster::Fit(engineered_train, nullptr, gbdt_params);
  ASSERT_TRUE(booster.ok());
  auto scorer = serve::RowScorer::Create(fit->plan, *booster);
  ASSERT_TRUE(scorer.ok());

  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < data.num_rows(); ++r) rows.push_back(data.x.Row(r));

  // Register all three series before snapshotting.
  std::vector<double> out;
  ASSERT_TRUE(scorer->Score(rows[0]).ok());
  ASSERT_TRUE(scorer->ScoreBatch({rows[0]}, &out).ok());

  const auto series = [](const obs::MetricsSnapshot& snapshot,
                         const std::string& name) {
    auto it = snapshot.histograms.find(name);
    SAFE_CHECK(it != snapshot.histograms.end()) << name;
    return it->second;
  };

  // Per-row scoring touches serve.latency_us and nothing batch-side.
  const obs::MetricsSnapshot before_rows =
      obs::MetricsRegistry::Global()->Snapshot();
  constexpr size_t kSingles = 17;
  for (size_t r = 0; r < kSingles; ++r) {
    ASSERT_TRUE(scorer->Score(rows[r % rows.size()]).ok());
  }
  const obs::MetricsSnapshot after_rows =
      obs::MetricsRegistry::Global()->Snapshot();
  EXPECT_EQ(series(after_rows, "serve.latency_us").count,
            series(before_rows, "serve.latency_us").count + kSingles);
  EXPECT_EQ(series(after_rows, "serve.batch_latency_us").count,
            series(before_rows, "serve.batch_latency_us").count);
  EXPECT_EQ(series(after_rows, "serve.batch_rows").count,
            series(before_rows, "serve.batch_rows").count);

  // Batch scoring records one observation per call with the true batch
  // size, and leaves the per-row series untouched.
  const std::vector<size_t> batch_sizes = {1, 3, kB, kB + 9};
  size_t total_rows = 0;
  for (const size_t size : batch_sizes) {
    ASSERT_LE(size, rows.size());
    const std::vector<std::vector<double>> batch(rows.begin(),
                                                 rows.begin() + size);
    ASSERT_TRUE(scorer->ScoreBatch(batch, &out).ok());
    total_rows += size;
  }
  const obs::MetricsSnapshot after_batches =
      obs::MetricsRegistry::Global()->Snapshot();
  EXPECT_EQ(series(after_batches, "serve.latency_us").count,
            series(after_rows, "serve.latency_us").count);
  EXPECT_EQ(series(after_batches, "serve.batch_latency_us").count,
            series(after_rows, "serve.batch_latency_us").count +
                batch_sizes.size());
  const obs::HistogramSnapshot rows_before =
      series(after_rows, "serve.batch_rows");
  const obs::HistogramSnapshot rows_after =
      series(after_batches, "serve.batch_rows");
  EXPECT_EQ(rows_after.count, rows_before.count + batch_sizes.size());
  // Batch sizes are recorded exactly: small integers are exact doubles,
  // so the histogram sum advances by exactly the rows scored.
  EXPECT_EQ(rows_after.sum - rows_before.sum,
            static_cast<double>(total_rows));
}

}  // namespace
}  // namespace safe
