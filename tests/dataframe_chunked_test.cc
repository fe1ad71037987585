#include "src/dataframe/chunked.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "src/common/random.h"
#include "src/dataframe/dataframe.h"

namespace safe {
namespace {

std::shared_ptr<SpillPool> MakePool(size_t budget_bytes = 0) {
  SpillPool::Options options;
  options.resident_budget_bytes = budget_bytes;
  auto pool = SpillPool::Create(options);
  SAFE_CHECK(pool.ok());
  return *pool;
}

std::vector<double> AdversarialValues(size_t n, uint64_t seed) {
  std::vector<double> values(n);
  Rng rng(seed);
  for (auto& v : values) v = rng.NextGaussian();
  if (n > 4) {
    values[0] = std::numeric_limits<double>::quiet_NaN();
    uint64_t nan_bits = 0x7FF8DEADBEEF0001ULL;
    std::memcpy(&values[1], &nan_bits, sizeof(nan_bits));
    values[2] = -0.0;
    values[3] = std::numeric_limits<double>::denorm_min();
    values[n - 1] = std::numeric_limits<double>::infinity();
  }
  return values;
}

TEST(ChunkedVectorTest, BuilderRoundTripsExactBits) {
  // 2.5 groups: exercises the partial final group.
  const size_t kRows = 4096 * 2 + 2048;
  const std::vector<double> values = AdversarialValues(kRows, 42);
  auto pool = MakePool(4096 * sizeof(double));  // 1-group budget: spills

  ChunkedVectorBuilder<double> builder(pool, 4096);
  builder.Append(values.data(), values.size());
  auto chunks = builder.Finish();
  EXPECT_EQ(chunks->size(), kRows);
  EXPECT_EQ(chunks->num_groups(), 3u);

  std::vector<double> out(kRows);
  chunks->CopyRange(0, kRows, out.data());
  EXPECT_EQ(std::memcmp(out.data(), values.data(), kRows * sizeof(double)),
            0);
}

TEST(ChunkedVectorTest, PushAndAppendAgree) {
  const std::vector<double> values = AdversarialValues(10000, 7);
  auto pool = MakePool();
  ChunkedVectorBuilder<double> a(pool, 4096);
  ChunkedVectorBuilder<double> b(pool, 4096);
  a.Append(values.data(), values.size());
  for (double v : values) b.Push(v);
  auto ca = a.Finish();
  auto cb = b.Finish();
  std::vector<double> va(values.size());
  std::vector<double> vb(values.size());
  ca->CopyRange(0, values.size(), va.data());
  cb->CopyRange(0, values.size(), vb.data());
  EXPECT_EQ(
      std::memcmp(va.data(), vb.data(), values.size() * sizeof(double)), 0);
}

TEST(ChunkedVectorTest, SpanAndAtAgreeUnderSpill) {
  const size_t kRows = 4096 * 4;
  const std::vector<double> values = AdversarialValues(kRows, 3);
  auto pool = MakePool(2 * 4096 * sizeof(double));
  ChunkedVectorBuilder<double> builder(pool, 4096);
  builder.Append(values.data(), values.size());
  auto chunks = builder.Finish();

  // ForEachSpan walks groups in ascending row order.
  size_t expect_base = 0;
  chunks->ForEachSpan(0, kRows,
                      [&](size_t base, const double* data, size_t len) {
                        EXPECT_EQ(base, expect_base);
                        EXPECT_EQ(std::memcmp(data, values.data() + base,
                                              len * sizeof(double)),
                                  0);
                        expect_base = base + len;
                      });
  EXPECT_EQ(expect_base, kRows);

  // Random At() probes and a cursor sweep, all while groups spill.
  Rng rng(11);
  ChunkedCursor<double> cursor(chunks.get());
  for (int probe = 0; probe < 1000; ++probe) {
    const size_t i = rng.NextUint64Below(kRows);
    const double direct = chunks->At(i);
    const double via_cursor = cursor.At(i);
    EXPECT_EQ(std::memcmp(&direct, &values[i], sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&via_cursor, &values[i], sizeof(double)), 0);
  }
  EXPECT_GT(pool->stats().evictions, 0u);
}

/// True when `got` holds exactly the bits of `want` (NaN payloads and
/// the sign of zero included).
bool SameBits(const double* got, const std::vector<double>& want) {
  return std::memcmp(got, want.data(), want.size() * sizeof(double)) == 0;
}

TEST(ChunkedVectorTest, ResidentVectorIsOneGroupWithTheVectorsBits) {
  const size_t kRows = 4096 * 2 + 123;
  const std::vector<double> values = AdversarialValues(kRows, 17);
  const ChunkedVector<double> chunks(values);
  EXPECT_EQ(chunks.pool(), nullptr);
  ASSERT_NE(chunks.resident(), nullptr);
  EXPECT_TRUE(SameBits(chunks.resident()->data(), values));
  EXPECT_EQ(chunks.size(), kRows);
  EXPECT_EQ(chunks.num_groups(), 1u);
  EXPECT_TRUE(ValidRowGroupRows(chunks.group_rows()));
  EXPECT_EQ(chunks.group_rows(), 4096u * 4);  // bit_ceil(kRows)
  EXPECT_EQ(chunks.GroupEnd(0), kRows);
  EXPECT_EQ(ChunkedVector<double>(std::vector<double>(10)).group_rows(),
            kMinRowGroupRows);

  const ChunkedVector<double>::Span whole = chunks.PinSpan(0, kRows);
  EXPECT_EQ(whole.size(), kRows);
  EXPECT_TRUE(SameBits(whole.data(), values));
  const ChunkedVector<double>::Span tail = chunks.PinSpan(5000, kRows);
  EXPECT_EQ(tail.begin(), 5000u);
  EXPECT_EQ(std::memcmp(tail.data(), values.data() + 5000,
                        (kRows - 5000) * sizeof(double)),
            0);

  size_t calls = 0;
  chunks.ForEachSpan(0, kRows,
                     [&](size_t base, const double* data, size_t len) {
                       ++calls;
                       EXPECT_EQ(base, 0u);
                       EXPECT_EQ(len, kRows);
                       EXPECT_TRUE(SameBits(data, values));
                     });
  EXPECT_EQ(calls, 1u);

  std::vector<double> copied(kRows);
  chunks.CopyRange(0, kRows, copied.data());
  EXPECT_TRUE(SameBits(copied.data(), values));

  ChunkedCursor<double> cursor(&chunks);
  for (size_t i = 0; i < kRows; ++i) {
    const double direct = chunks.At(i);
    const double via_cursor = cursor.At(i);
    ASSERT_EQ(std::memcmp(&direct, &values[i], sizeof(double)), 0) << i;
    ASSERT_EQ(std::memcmp(&via_cursor, &values[i], sizeof(double)), 0) << i;
  }
}

TEST(ChunkedVectorTest, PoolLessBuilderFinishesResident) {
  const std::vector<double> values = AdversarialValues(10000, 29);
  ChunkedVectorBuilder<double> builder;
  builder.Append(values.data(), 3);
  builder.Append(values.data() + 3, 4093);
  builder.Push(values[4096]);
  builder.Append(values.data() + 4097, values.size() - 4097);
  EXPECT_EQ(builder.size(), values.size());
  auto chunks = builder.Finish();
  EXPECT_EQ(chunks->pool(), nullptr);
  ASSERT_NE(chunks->resident(), nullptr);
  EXPECT_EQ(chunks->size(), values.size());
  EXPECT_EQ(chunks->num_groups(), 1u);
  EXPECT_TRUE(SameBits(chunks->resident()->data(), values));
  std::vector<double> copied(values.size());
  chunks->CopyRange(0, values.size(), copied.data());
  EXPECT_TRUE(SameBits(copied.data(), values));
}

TEST(ChunkedVectorTest, ValidRowGroupRows) {
  EXPECT_TRUE(ValidRowGroupRows(4096));
  EXPECT_TRUE(ValidRowGroupRows(65536));
  EXPECT_FALSE(ValidRowGroupRows(0));
  EXPECT_FALSE(ValidRowGroupRows(2048));   // below the minimum
  EXPECT_FALSE(ValidRowGroupRows(6000));   // not a power of two
}

TEST(ChunkedColumnTest, AsChunkedPreservesBitsAndStats) {
  const std::vector<double> values = AdversarialValues(10000, 99);
  Column dense("f", values);
  auto pool = MakePool(4096 * sizeof(double));
  Column chunked = dense.AsChunked(pool, 4096);

  EXPECT_FALSE(dense.chunked());
  EXPECT_TRUE(chunked.chunked());
  EXPECT_EQ(chunked.size(), dense.size());
  EXPECT_EQ(chunked.name(), "f");
  EXPECT_EQ(chunked.CountMissing(), dense.CountMissing());
  EXPECT_EQ(chunked.IsConstant(), dense.IsConstant());

  const std::vector<double> gathered = chunked.Gather();
  EXPECT_EQ(std::memcmp(gathered.data(), values.data(),
                        values.size() * sizeof(double)),
            0);
}

TEST(ChunkedColumnTest, RenamedSharesChunkedStorage) {
  auto pool = MakePool();
  Column column =
      Column("a", AdversarialValues(8192, 5)).AsChunked(pool, 4096);
  Column renamed = column.Renamed("b");
  EXPECT_EQ(renamed.name(), "b");
  EXPECT_TRUE(renamed.chunked());
  EXPECT_EQ(renamed.chunks().get(), column.chunks().get());
}

TEST(ChunkedColumnTest, ConstantDetectionStreamsAcrossGroups) {
  auto pool = MakePool();
  std::vector<double> values(10000, 3.5);
  Column constant = Column("c", values).AsChunked(pool, 4096);
  EXPECT_TRUE(constant.IsConstant());
  // A single differing value in the last group flips it.
  values[9999] = 3.6;
  Column varied = Column("v", std::move(values)).AsChunked(pool, 4096);
  EXPECT_FALSE(varied.IsConstant());
}

TEST(ChunkedFrameTest, ToChunkedDatasetRoundTrips) {
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column("x", AdversarialValues(9000, 1))).ok());
  ASSERT_TRUE(frame.AddColumn(Column("y", AdversarialValues(9000, 2))).ok());
  std::vector<double> labels(9000);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = i % 2;
  auto dataset = MakeDataset(frame, labels);
  ASSERT_TRUE(dataset.ok());

  auto pool = MakePool(4096 * sizeof(double));
  Dataset chunked = ToChunkedDataset(*dataset, pool, 4096);
  EXPECT_TRUE(chunked.x.HasChunkedColumns());
  EXPECT_FALSE(frame.HasChunkedColumns());
  EXPECT_EQ(chunked.y.get(), dataset->y.get());  // labels stay shared

  for (size_t c = 0; c < frame.num_columns(); ++c) {
    const std::vector<double> original = frame.column(c).Gather();
    const std::vector<double> round = chunked.x.column(c).Gather();
    EXPECT_EQ(std::memcmp(original.data(), round.data(),
                          original.size() * sizeof(double)),
              0);
  }
}

TEST(ChunkedFrameTest, RowOpsMatchDensePath) {
  DataFrame dense;
  ASSERT_TRUE(dense.AddColumn(Column("x", AdversarialValues(9000, 21))).ok());
  ASSERT_TRUE(dense.AddColumn(Column("y", AdversarialValues(9000, 22))).ok());
  auto pool = MakePool(4096 * sizeof(double));
  DataFrame chunked = ToChunkedFrame(dense, pool, 4096);

  // SliceRows straddling a group boundary.
  DataFrame slice_dense = dense.SliceRows(4000, 8500);
  DataFrame slice_chunked = chunked.SliceRows(4000, 8500);
  for (size_t c = 0; c < dense.num_columns(); ++c) {
    const auto& a = slice_dense.column(c).values();
    const auto& b = slice_chunked.column(c).values();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }

  // TakeRows with an arbitrary gather.
  std::vector<size_t> rows = {0, 4095, 4096, 8191, 8192, 8999, 17};
  DataFrame take_dense = dense.TakeRows(rows);
  DataFrame take_chunked = chunked.TakeRows(rows);
  for (size_t c = 0; c < dense.num_columns(); ++c) {
    const auto& a = take_dense.column(c).values();
    const auto& b = take_chunked.column(c).values();
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }

  // Row() and at().
  const std::vector<double> row_dense = dense.Row(4097);
  const std::vector<double> row_chunked = chunked.Row(4097);
  EXPECT_EQ(std::memcmp(row_dense.data(), row_chunked.data(),
                        row_dense.size() * sizeof(double)),
            0);

  // Select/Concat stay zero-copy on chunked columns.
  auto selected = chunked.Select({1});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->column(0).chunks().get(),
            chunked.column(1).chunks().get());
}

TEST(ChunkedFrameTest, FrameWindowPinsMixedStorage) {
  DataFrame frame;
  ASSERT_TRUE(frame.AddColumn(Column("a", AdversarialValues(9000, 31))).ok());
  auto pool = MakePool(4096 * sizeof(double));
  Column chunked_col =
      Column("b", AdversarialValues(9000, 32)).AsChunked(pool, 4096);
  ASSERT_TRUE(frame.AddColumn(chunked_col).ok());

  // Windows at sub-group granularity (2048 divides 4096).
  for (size_t lo = 0; lo < 9000; lo += 2048) {
    const size_t hi = std::min<size_t>(9000, lo + 2048);
    FrameWindow window(frame, {0, 1}, lo, hi);
    for (size_t r = lo; r < hi; r += 101) {
      for (size_t c = 0; c < 2; ++c) {
        const double expect = frame.at(r, c);
        const double got = window.at(r, c);
        EXPECT_EQ(std::memcmp(&expect, &got, sizeof(double)), 0)
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(ChunkedFrameTest, ColumnSubsetWindowFaultsOnlyItsColumns) {
  // 32 one-group columns under a one-group budget: every group but the
  // last one sealed sits in the spill file.
  auto pool = MakePool(4096 * sizeof(double));
  DataFrame frame;
  for (size_t c = 0; c < 32; ++c) {
    Column column = Column("c" + std::to_string(c), AdversarialValues(4096, c))
                        .AsChunked(pool, 4096);
    ASSERT_TRUE(frame.AddColumn(column).ok());
  }
  const std::vector<size_t> columns = {5, 17};
  std::vector<double> subset_values;
  const SpillPoolStats before = pool->stats();
  {
    FrameWindow window(frame, columns, 2048, 4096);
    EXPECT_EQ(pool->stats().faults - before.faults, 2u);
    for (size_t c : columns) {
      for (size_t r = 2048; r < 4096; ++r) {
        subset_values.push_back(window.at(r, c));
      }
    }
#ifndef NDEBUG
    EXPECT_DEATH(window.at(2048, 6), "not pinned");
#endif
  }
  EXPECT_EQ(pool->stats().faults - before.faults, 2u);

  std::vector<size_t> all_columns(32);
  std::iota(all_columns.begin(), all_columns.end(), size_t{0});
  FrameWindow full(frame, all_columns, 2048, 4096);
  size_t i = 0;
  for (size_t c : columns) {
    for (size_t r = 2048; r < 4096; ++r, ++i) {
      const double expect = full.at(r, c);
      ASSERT_EQ(std::memcmp(&expect, &subset_values[i], sizeof(double)), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST(ChunkedColumnTest, ValuesOnChunkedColumnDies) {
  auto pool = MakePool();
  Column column =
      Column("a", AdversarialValues(8192, 5)).AsChunked(pool, 4096);
  EXPECT_DEATH(column.values(), "chunked");
}

}  // namespace
}  // namespace safe
