#include "src/dataframe/dataframe.h"

#include <gtest/gtest.h>

#include <cmath>

namespace safe {
namespace {

DataFrame MakeFrame() {
  DataFrame f;
  EXPECT_TRUE(f.AddColumn(Column("a", {1.0, 2.0, 3.0})).ok());
  EXPECT_TRUE(f.AddColumn(Column("b", {4.0, 5.0, 6.0})).ok());
  EXPECT_TRUE(f.AddColumn(Column("c", {7.0, 8.0, 9.0})).ok());
  return f;
}

TEST(ColumnTest, BasicAccessors) {
  Column c("x", {1.0, 2.0});
  EXPECT_EQ(c.name(), "x");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
}

TEST(ColumnTest, RenamedSharesBuffer) {
  Column c("x", {1.0, 2.0});
  Column r = c.Renamed("y");
  EXPECT_EQ(r.name(), "y");
  EXPECT_EQ(&r.values(), &c.values());
}

TEST(ColumnTest, CountMissing) {
  Column c("x", {1.0, std::nan(""), 3.0, std::nan("")});
  EXPECT_EQ(c.CountMissing(), 2u);
  EXPECT_EQ(CountMissing(c.values()), 2u);
}

TEST(ColumnTest, IsConstant) {
  EXPECT_TRUE(Column("x", {2.0, 2.0, 2.0}).IsConstant());
  EXPECT_TRUE(Column("x", {std::nan(""), 2.0, 2.0}).IsConstant());
  EXPECT_FALSE(Column("x", {2.0, 3.0}).IsConstant());
  EXPECT_TRUE(Column("x", std::vector<double>{}).IsConstant());
  // The span form, which the engine runs on an operator's output buffer.
  const double nan = std::nan("");
  EXPECT_TRUE(IsConstant(std::vector<double>{nan, 2.0, nan, 2.0}));
  EXPECT_TRUE(IsConstant(std::vector<double>{nan, nan}));
  EXPECT_FALSE(IsConstant(std::vector<double>{2.0, nan, 3.0}));
}

TEST(DataFrameTest, AddAndLookup) {
  DataFrame f = MakeFrame();
  EXPECT_EQ(f.num_columns(), 3u);
  EXPECT_EQ(f.num_rows(), 3u);
  EXPECT_EQ(*f.ColumnIndex("b"), 1u);
  EXPECT_FALSE(f.ColumnIndex("zz").ok());
  EXPECT_TRUE(f.HasColumn("c"));
  EXPECT_FALSE(f.HasColumn("d"));
}

TEST(DataFrameTest, RejectsDuplicateName) {
  DataFrame f = MakeFrame();
  Status st = f.AddColumn(Column("a", {0.0, 0.0, 0.0}));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(DataFrameTest, RejectsLengthMismatch) {
  DataFrame f = MakeFrame();
  Status st = f.AddColumn(Column("d", {1.0}));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(DataFrameTest, SelectIsZeroCopy) {
  DataFrame f = MakeFrame();
  auto sel = f.Select({2, 0});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->num_columns(), 2u);
  EXPECT_EQ(sel->column(0).name(), "c");
  EXPECT_EQ(&sel->column(0).values(), &f.column(2).values());
}

TEST(DataFrameTest, SelectOutOfRangeFails) {
  DataFrame f = MakeFrame();
  EXPECT_EQ(f.Select({5}).status().code(), StatusCode::kOutOfRange);
}

TEST(DataFrameTest, TakeRowsGathers) {
  DataFrame f = MakeFrame();
  DataFrame t = f.TakeRows({2, 0, 2});
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(2, 2), 9.0);
}

TEST(DataFrameTest, SliceRows) {
  DataFrame f = MakeFrame();
  DataFrame s = f.SliceRows(1, 3);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 5.0);
}

TEST(DataFrameTest, RowMaterializes) {
  DataFrame f = MakeFrame();
  auto row = f.Row(1);
  EXPECT_EQ(row, (std::vector<double>{2.0, 5.0, 8.0}));
}

TEST(DataFrameTest, ConcatMergesColumns) {
  DataFrame f = MakeFrame();
  DataFrame g;
  ASSERT_TRUE(g.AddColumn(Column("d", {0.1, 0.2, 0.3})).ok());
  auto merged = f.Concat(g);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_columns(), 4u);
  EXPECT_EQ(merged->column(3).name(), "d");
}

TEST(DataFrameTest, ConcatRejectsDuplicates) {
  DataFrame f = MakeFrame();
  DataFrame g;
  ASSERT_TRUE(g.AddColumn(Column("a", {0.0, 0.0, 0.0})).ok());
  EXPECT_FALSE(f.Concat(g).ok());
}

TEST(DataFrameTest, ConcatRejectsRowMismatch) {
  DataFrame f = MakeFrame();
  DataFrame g;
  ASSERT_TRUE(g.AddColumn(Column("d", {0.0})).ok());
  EXPECT_FALSE(f.Concat(g).ok());
}

TEST(DatasetTest, MakeDatasetValidates) {
  DataFrame f = MakeFrame();
  auto ok = MakeDataset(f, {0.0, 1.0, 1.0});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_rows(), 3u);

  EXPECT_FALSE(MakeDataset(f, {0.0, 1.0}).ok());          // size mismatch
  EXPECT_FALSE(MakeDataset(f, {0.0, 0.5, 1.0}).ok());     // non-binary
}

TEST(DataFrameTest, EmptyFrame) {
  DataFrame f;
  EXPECT_EQ(f.num_rows(), 0u);
  EXPECT_EQ(f.num_columns(), 0u);
  EXPECT_TRUE(f.ColumnNames().empty());
}

}  // namespace
}  // namespace safe
