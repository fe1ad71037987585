#include "src/gbdt/quantizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/random.h"
#include "src/dataframe/spill.h"

namespace safe {
namespace gbdt {
namespace {

DataFrame MakeFrame(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  DataFrame f;
  for (size_t c = 0; c < cols; ++c) {
    std::vector<double> col(rows);
    for (double& v : col) v = rng.NextGaussian();
    EXPECT_TRUE(f.AddColumn(Column("f" + std::to_string(c), col)).ok());
  }
  return f;
}

TEST(QuantizerTest, FitAndTransformShapes) {
  DataFrame f = MakeFrame(500, 3, 1);
  auto q = FeatureQuantizer::Fit(f, 16);
  ASSERT_TRUE(q.ok());
  auto matrix = q->Transform(f);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->num_features(), 3u);
  EXPECT_EQ(matrix->num_rows, 500u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_LE(matrix->edges[c].edges.size(), 15u);
  }
}

TEST(QuantizerTest, BinsAreConsistentWithEdges) {
  DataFrame f = MakeFrame(300, 2, 2);
  auto q = FeatureQuantizer::Fit(f, 8);
  ASSERT_TRUE(q.ok());
  auto matrix = q->Transform(f);
  ASSERT_TRUE(matrix.ok());
  for (size_t c = 0; c < 2; ++c) {
    for (size_t r = 0; r < 300; ++r) {
      EXPECT_EQ(matrix->bins[c]->At(r),
                q->edges()[c].BinIndex(f.column(c)[r]));
    }
  }
}

TEST(QuantizerTest, BinsAreStoredLikeTheirFeature) {
  const size_t kRows = 4096 * 2 + 500;  // a partial final group
  const DataFrame frame = MakeFrame(kRows, 3, 4);
  auto q = FeatureQuantizer::Fit(frame, 32);
  ASSERT_TRUE(q.ok());
  auto resident = q->Transform(frame);
  ASSERT_TRUE(resident.ok());

  auto pool = SpillPool::Create(SpillPool::Options{});
  ASSERT_TRUE(pool.ok());
  const DataFrame pooled_frame = ToChunkedFrame(frame, *pool, 4096);
  auto pooled = q->Transform(pooled_frame);
  ASSERT_TRUE(pooled.ok());

  for (size_t c = 0; c < 3; ++c) {
    const ChunkedVector<uint16_t>& dense = *resident->bins[c];
    const ChunkedVector<uint16_t>& chunked = *pooled->bins[c];
    EXPECT_EQ(dense.pool(), nullptr);
    ASSERT_NE(dense.resident(), nullptr);
    EXPECT_EQ(dense.size(), kRows);
    EXPECT_EQ(chunked.pool(), *pool);
    EXPECT_EQ(chunked.resident(), nullptr);
    EXPECT_EQ(chunked.group_rows(), 4096u);
    EXPECT_EQ(chunked.num_groups(), 3u);
    ASSERT_EQ(chunked.size(), kRows);
    ChunkedCursor<uint16_t> cursor(&chunked);
    for (size_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(cursor.At(r), (*dense.resident())[r]) << c << "," << r;
    }
  }
}

TEST(QuantizerTest, MissingGoesToMissingBin) {
  DataFrame f;
  ASSERT_TRUE(
      f.AddColumn(Column("x", {1.0, std::nan(""), 3.0, 4.0, 5.0})).ok());
  auto q = FeatureQuantizer::Fit(f, 4);
  ASSERT_TRUE(q.ok());
  auto matrix = q->Transform(f);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->bins[0]->At(1), q->edges()[0].missing_bin());
}

TEST(QuantizerTest, AllMissingColumnGetsSingleBin) {
  DataFrame f;
  std::vector<double> col(10, std::nan(""));
  std::vector<double> other{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  ASSERT_TRUE(f.AddColumn(Column("dead", col)).ok());
  ASSERT_TRUE(f.AddColumn(Column("live", other)).ok());
  auto q = FeatureQuantizer::Fit(f, 4);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->edges()[0].edges.empty());
  EXPECT_FALSE(q->edges()[1].edges.empty());
}

TEST(QuantizerTest, TransformRejectsColumnMismatch) {
  DataFrame f = MakeFrame(100, 3, 3);
  auto q = FeatureQuantizer::Fit(f, 8);
  ASSERT_TRUE(q.ok());
  DataFrame g = MakeFrame(100, 2, 4);
  EXPECT_FALSE(q->Transform(g).ok());
}

TEST(QuantizerTest, ValidatesArguments) {
  DataFrame empty;
  EXPECT_FALSE(FeatureQuantizer::Fit(empty, 8).ok());
  DataFrame f = MakeFrame(10, 1, 5);
  EXPECT_FALSE(FeatureQuantizer::Fit(f, 1).ok());
  EXPECT_FALSE(FeatureQuantizer::Fit(f, 100000).ok());
}

TEST(QuantizerTest, TransformAppliesTrainEdgesToNewData) {
  DataFrame train = MakeFrame(1000, 1, 6);
  auto q = FeatureQuantizer::Fit(train, 8);
  ASSERT_TRUE(q.ok());
  DataFrame test;
  ASSERT_TRUE(test.AddColumn(Column("f0", {-100.0, 0.0, 100.0})).ok());
  auto matrix = q->Transform(test);
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->bins[0]->At(0), 0u);  // far-left value in first bin
  EXPECT_EQ(matrix->bins[0]->At(2), q->edges()[0].edges.size());  // far right
}

}  // namespace
}  // namespace gbdt
}  // namespace safe
