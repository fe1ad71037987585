#include "src/dataframe/binning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "src/common/random.h"
#include "src/dataframe/spill.h"
#include "tests/property_util.h"

namespace safe {
namespace {

TEST(BinEdgesTest, BinIndexBoundaries) {
  BinEdges edges{{1.0, 2.0, 3.0}};
  EXPECT_EQ(edges.num_bins(), 4u);
  EXPECT_EQ(edges.BinIndex(0.5), 0u);
  EXPECT_EQ(edges.BinIndex(1.0), 0u);   // inclusive upper edge
  EXPECT_EQ(edges.BinIndex(1.5), 1u);
  EXPECT_EQ(edges.BinIndex(3.0), 2u);
  EXPECT_EQ(edges.BinIndex(99.0), 3u);
  EXPECT_EQ(edges.BinIndex(std::nan("")), edges.missing_bin());
}

TEST(EqualFrequencyTest, BalancedBins) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  auto edges = EqualFrequencyEdges(values, 10);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->edges.size(), 9u);
  // Each bin should hold ~100 values.
  std::vector<int> counts(edges->num_bins(), 0);
  for (double v : values) ++counts[edges->BinIndex(v)];
  for (int c : counts) EXPECT_NEAR(c, 100, 1);
}

TEST(EqualFrequencyTest, HeavyTiesCollapseBins) {
  std::vector<double> values(100, 5.0);
  values.push_back(6.0);
  auto edges = EqualFrequencyEdges(values, 10);
  ASSERT_TRUE(edges.ok());
  // All mass at 5.0: at most one usable cut.
  EXPECT_LE(edges->edges.size(), 1u);
}

TEST(EqualFrequencyTest, ConstantColumnYieldsSingleBin) {
  std::vector<double> values(50, 3.14);
  auto edges = EqualFrequencyEdges(values, 8);
  ASSERT_TRUE(edges.ok());
  EXPECT_TRUE(edges->edges.empty());
  EXPECT_EQ(edges->BinIndex(3.14), 0u);
}

TEST(EqualFrequencyTest, IgnoresMissing) {
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8};
  values.push_back(std::nan(""));
  auto edges = EqualFrequencyEdges(values, 4);
  ASSERT_TRUE(edges.ok());
  EXPECT_FALSE(edges->edges.empty());
  EXPECT_EQ(edges->BinIndex(std::nan("")), edges->missing_bin());
}

TEST(EqualFrequencyTest, RejectsAllMissingAndBadBins) {
  std::vector<double> all_nan(5, std::nan(""));
  // Negative, signaling and payload-carrying NaNs are missing too.
  all_nan.push_back(std::bit_cast<double>(0xfff8000000000000ULL));
  all_nan.push_back(std::bit_cast<double>(0x7ff0000000000001ULL));
  all_nan.push_back(std::bit_cast<double>(0x7ff8dead0000beefULL));
  EXPECT_FALSE(EqualFrequencyEdges(all_nan, 4).ok());
  EXPECT_FALSE(EqualFrequencyEdges(Column("x", all_nan), 4).ok());
  EXPECT_FALSE(EqualFrequencyEdges({1.0, 2.0}, 1).ok());
}

TEST(EqualFrequencyTest, NoEmptyLastBin) {
  // Max value repeated: trailing edges equal to max must be dropped.
  std::vector<double> values{1, 2, 3, 9, 9, 9, 9, 9};
  auto edges = EqualFrequencyEdges(values, 4);
  ASSERT_TRUE(edges.ok());
  for (double e : edges->edges) EXPECT_LT(e, 9.0);
  // The max value lands in the last bin, which is nonempty.
  EXPECT_EQ(edges->BinIndex(9.0), edges->edges.size());
}

TEST(EqualWidthTest, UniformWidths) {
  std::vector<double> values{0.0, 10.0};
  auto edges = EqualWidthEdges(values, 5);
  ASSERT_TRUE(edges.ok());
  ASSERT_EQ(edges->edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges->edges[0], 2.0);
  EXPECT_DOUBLE_EQ(edges->edges[3], 8.0);
}

TEST(EqualWidthTest, ConstantColumn) {
  std::vector<double> values(10, 1.0);
  auto edges = EqualWidthEdges(values, 5);
  ASSERT_TRUE(edges.ok());
  EXPECT_TRUE(edges->edges.empty());
}

TEST(ApplyBinsTest, MapsValuesToIndices) {
  BinEdges edges{{0.0, 1.0}};
  auto binned = ApplyBins(edges, {-1.0, 0.5, 2.0, std::nan("")});
  EXPECT_EQ(binned[0], 0.0);
  EXPECT_EQ(binned[1], 1.0);
  EXPECT_EQ(binned[2], 2.0);
  EXPECT_EQ(binned[3], static_cast<double>(edges.missing_bin()));
}

// Property sweep: bin counts from equal-frequency edges are within a
// factor-2 balance for continuous data, for many bin widths.
class EqualFrequencyPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EqualFrequencyPropertyTest, RoughBalanceOnContinuousData) {
  const size_t num_bins = GetParam();
  Rng rng(num_bins * 977);
  std::vector<double> values(5000);
  for (double& v : values) v = rng.NextGaussian();
  auto edges = EqualFrequencyEdges(values, num_bins);
  ASSERT_TRUE(edges.ok());
  std::vector<size_t> counts(edges->num_bins(), 0);
  for (double v : values) ++counts[edges->BinIndex(v)];
  const double expected =
      static_cast<double>(values.size()) / static_cast<double>(num_bins);
  for (size_t b = 0; b < edges->num_bins(); ++b) {
    EXPECT_LT(counts[b], expected * 2.0) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EqualFrequencyPropertyTest,
                         ::testing::Values(2, 3, 5, 10, 20, 64));

// ---------------------------------------------------------------------------
// Value domain: everything a double column can hold. The cuts must equal a
// brute-force reference ranked by the order-preserving key (the total
// order on bits, -0.0 before +0.0), bit for bit, for every overload and
// storage, and must not depend on the order of the input.

constexpr size_t kGroupRows = 4096;

double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

/// Order-preserving key, written independently of the library's.
uint64_t ReferenceKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// The equal-frequency rule over a comparison sort on ReferenceKey.
std::vector<double> ReferenceEdges(const std::vector<double>& values,
                                   size_t num_bins) {
  std::vector<double> sorted;
  for (double v : values) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end(), [](double a, double b) {
    return ReferenceKey(a) < ReferenceKey(b);
  });
  std::vector<double> edges;
  for (size_t b = 1; b < num_bins; ++b) {
    const size_t rank = b * sorted.size() / num_bins;
    if (rank == 0) continue;
    const double edge = sorted[rank - 1];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  while (!edges.empty() && edges.back() >= sorted.back()) edges.pop_back();
  return edges;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::shared_ptr<SpillPool> SubGroupPool() {
  SpillPool::Options options;
  options.resident_budget_bytes = kGroupRows * sizeof(double) / 2;
  auto pool = SpillPool::Create(options);
  SAFE_CHECK(pool.ok());
  return *pool;
}

/// The cuts of every overload and storage, all required to be equal.
std::vector<std::vector<double>> EdgesEveryPath(
    const std::vector<double>& values, size_t num_bins,
    const std::shared_ptr<SpillPool>& pool) {
  std::vector<std::vector<double>> out;
  auto from_vector = EqualFrequencyEdges(values, num_bins);
  SAFE_CHECK(from_vector.ok()) << from_vector.status().ToString();
  out.push_back(from_vector->edges);
  const Column dense("x", values);
  auto from_dense = EqualFrequencyEdges(dense, num_bins);
  SAFE_CHECK(from_dense.ok()) << from_dense.status().ToString();
  out.push_back(from_dense->edges);
  auto from_chunked =
      EqualFrequencyEdges(dense.AsChunked(pool, kGroupRows), num_bins);
  SAFE_CHECK(from_chunked.ok()) << from_chunked.status().ToString();
  out.push_back(from_chunked->edges);
  return out;
}

TEST(BinningValueDomainTest, CutsMatchKeyOrderedReference) {
  auto pool = SubGroupPool();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<double> values =
        testutil::AdversarialColumn(3 * kGroupRows + 123, seed);
    for (size_t num_bins : {2u, 3u, 10u, 16u, 255u, 256u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " num_bins=" + std::to_string(num_bins));
      const std::vector<double> expected = ReferenceEdges(values, num_bins);
      for (const auto& edges : EdgesEveryPath(values, num_bins, pool)) {
        EXPECT_TRUE(SameBits(edges, expected));
      }
    }
  }
  EXPECT_GT(pool->stats().evictions, 0u) << "the chunked path never spilled";
}

TEST(BinningValueDomainTest, CutsIgnoreInputOrder) {
  auto pool = SubGroupPool();
  std::vector<double> values =
      testutil::AdversarialColumn(2 * kGroupRows + 7, 11);
  const std::vector<double> expected = ReferenceEdges(values, 64);
  Rng rng(12);
  for (int round = 0; round < 4; ++round) {
    rng.Shuffle(&values);
    for (const auto& edges : EdgesEveryPath(values, 64, pool)) {
      EXPECT_TRUE(SameBits(edges, expected)) << "round " << round;
    }
  }
}

TEST(BinningValueDomainTest, ZeroCutKeepsItsSignUnderPermutation) {
  // Ranks 50 and 100 of 200 fall on -0.0 and +0.0: the first zero cut is
  // the one kept, and key order puts every -0.0 first.
  std::vector<double> values;
  values.insert(values.end(), 60, 0.0);
  values.insert(values.end(), 60, -0.0);
  values.insert(values.end(), 80, 1.0);
  values.push_back(std::nan(""));
  auto pool = SubGroupPool();
  Rng rng(5);
  for (int round = 0; round < 8; ++round) {
    rng.Shuffle(&values);
    for (const auto& edges : EdgesEveryPath(values, 4, pool)) {
      ASSERT_EQ(edges.size(), 1u);
      EXPECT_EQ(edges[0], 0.0);
      EXPECT_TRUE(std::signbit(edges[0])) << "round " << round;
    }
  }
}

TEST(BinningValueDomainTest, BinIndexEqualsLowerBound) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(99);
  for (size_t length = 0; length <= 300; ++length) {
    // Few distinct values, so long vectors carry runs of duplicates.
    const int64_t spread = static_cast<int64_t>(length / 3 + 1);
    std::vector<double> edges(length);
    for (double& e : edges) {
      e = static_cast<double>(rng.NextInt(-spread, spread)) * 0.5;
    }
    if (length > 2) {
      edges[0] = -kInf;
      edges[1] = -0.0;
    }
    std::sort(edges.begin(), edges.end());
    std::vector<double> probes = {-kInf, kInf, -0.0, 0.0, -DBL_MAX, DBL_MAX,
                                  std::numeric_limits<double>::denorm_min()};
    for (double e : edges) {
      probes.push_back(e);
      probes.push_back(std::nextafter(e, -kInf));
      probes.push_back(std::nextafter(e, kInf));
      probes.push_back(e + 0.25);
    }
    const BinEdges bins{edges};
    for (double probe : probes) {
      const size_t expected = static_cast<size_t>(
          std::lower_bound(edges.begin(), edges.end(), probe) -
          edges.begin());
      ASSERT_EQ(bins.BinIndex(probe), expected)
          << "length " << length << " probe " << probe;
    }
    EXPECT_EQ(bins.BinIndex(std::nan("")), bins.missing_bin());
    EXPECT_EQ(bins.BinIndex(FromBits(0xfff8000000000000ULL)),
              bins.missing_bin());
  }
}

}  // namespace
}  // namespace safe
