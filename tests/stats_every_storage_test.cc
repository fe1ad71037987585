// One statistic from every storage. IV (Eq. 6) and Pearson (Eq. 7) each
// have one body over ascending row spans, so the vector overload, a
// resident Column and a pooled Column that spills under its budget must
// agree to the bit, on adversarial values (±inf, subnormals, ±DBL_MAX,
// ±0.0, heavy ties, NaN payloads) spanning several row groups.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/dataframe/column.h"
#include "src/dataframe/spill.h"
#include "src/stats/correlation.h"
#include "src/stats/iv.h"
#include "tests/property_util.h"

namespace safe {
namespace {

constexpr size_t kGroupRows = kMinRowGroupRows;
constexpr size_t kRows = 3 * kGroupRows + 123;  // four row groups

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// A pool whose budget is below one group: every pooled read faults its
/// group back and evicts the last one.
std::shared_ptr<SpillPool> SpillingPool() {
  SpillPool::Options options;
  options.resident_budget_bytes = kGroupRows * sizeof(double) / 2;
  auto pool = SpillPool::Create(options);
  SAFE_CHECK(pool.ok());
  return *pool;
}

std::vector<double> Labels(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> labels(rows);
  for (double& y : labels) y = rng.NextBernoulli(0.3) ? 1.0 : 0.0;
  return labels;
}

/// `values` with every infinite or near-overflow entry replaced by the
/// heavy-tie value, so Pearson's sums stay finite; NaN payloads,
/// subnormals and signed zeros stay.
std::vector<double> Tamed(std::vector<double> values) {
  for (double& v : values) {
    if (!std::isnan(v) && !(std::fabs(v) < 1e300)) v = 2.5;
  }
  return values;
}

TEST(StatsEveryStorageTest, IvEveryPath) {
  auto pool = SpillingPool();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<double> values =
        testutil::AdversarialColumn(kRows, seed);
    const std::vector<double> labels = Labels(kRows, seed + 100);
    const Column resident("x", values);
    const Column pooled = resident.AsChunked(pool, kGroupRows);
    for (size_t num_bins : {2u, 10u, 16u, 256u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " num_bins=" + std::to_string(num_bins));
      auto from_vector = InformationValue(values, labels, num_bins);
      ASSERT_TRUE(from_vector.ok()) << from_vector.status().ToString();
      EXPECT_TRUE(std::isfinite(*from_vector));
      for (const Column* column : {&resident, &pooled}) {
        auto from_column = InformationValue(*column, labels, num_bins);
        ASSERT_TRUE(from_column.ok()) << from_column.status().ToString();
        EXPECT_EQ(Bits(*from_column), Bits(*from_vector))
            << "pooled=" << column->chunked();
      }
      EXPECT_EQ(Bits(FilterIv(values, labels, num_bins)), Bits(*from_vector));
    }
  }
  EXPECT_GT(pool->stats().evictions, 0u) << "the pooled path never spilled";
}

TEST(StatsEveryStorageTest, PearsonEveryPath) {
  auto pool = SpillingPool();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool tamed : {false, true}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " tamed=" + std::to_string(tamed));
      std::vector<double> a = testutil::AdversarialColumn(kRows, seed);
      std::vector<double> b = testutil::AdversarialColumn(kRows, seed + 50);
      for (size_t i = 0; i < kRows; ++i) b[i] += a[i];  // correlated
      if (tamed) {
        a = Tamed(std::move(a));
        b = Tamed(std::move(b));
      }
      const double expected = PearsonCorrelation(a, b);
      if (tamed) {
        EXPECT_TRUE(std::isfinite(expected)) << expected;
      }
      const Column resident_a("a", a);
      const Column resident_b("b", b);
      // Different group sizes, so the zipped windows split at the union
      // of both columns' group boundaries.
      const Column pooled_a = resident_a.AsChunked(pool, kGroupRows);
      const Column pooled_b = resident_b.AsChunked(pool, 2 * kGroupRows);
      const std::pair<const Column*, const Column*> pairs[] = {
          {&resident_a, &resident_b},
          {&pooled_a, &pooled_b},
          {&resident_a, &pooled_b},
          {&pooled_a, &resident_b}};
      for (const auto& [x, y] : pairs) {
        EXPECT_EQ(Bits(PearsonCorrelation(*x, *y)), Bits(expected))
            << "pooled a=" << x->chunked() << " b=" << y->chunked();
      }
    }
  }
  EXPECT_GT(pool->stats().evictions, 0u) << "the pooled path never spilled";
}

}  // namespace
}  // namespace safe
