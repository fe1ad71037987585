#pragma once

// Shared generators for the property/differential test layer: seeded
// randomized datasets whose shape, interaction structure, missingness
// and degenerate columns are all drawn deterministically from the seed,
// so every failure reproduces from the seed alone.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/data/synthetic.h"
#include "src/dataframe/dataframe.h"

namespace safe {
namespace testutil {

/// Randomized-but-seed-deterministic dataset: rows, feature count,
/// interaction structure and missing rate all vary with the seed. Every
/// third seed produces a NaN-bearing dataset so missing-value paths are
/// exercised across the sweep, not in one hand-picked case.
inline Dataset MakePropertyDataset(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  data::SyntheticSpec spec;
  spec.num_rows = 300 + rng.NextUint64Below(700);
  spec.num_features = 5 + rng.NextUint64Below(6);
  spec.num_informative = 2 + rng.NextUint64Below(2);
  spec.num_interactions = 1 + rng.NextUint64Below(2);
  spec.num_redundant = 1 + rng.NextUint64Below(2);
  spec.missing_rate = (seed % 3 == 0) ? 0.02 + 0.1 * rng.NextDouble() : 0.0;
  spec.seed = seed;
  auto data = data::MakeSyntheticDataset(spec);
  SAFE_CHECK(data.ok()) << data.status().ToString();
  return *std::move(data);
}

/// Appends a constant column (degenerate input: zero variance, IV 0,
/// Pearson undefined — code must treat it as "no signal", not crash).
inline void AppendConstantColumn(Dataset* data, const std::string& name,
                                 double value) {
  std::vector<double> values(data->x.num_rows(), value);
  SAFE_CHECK(data->x.AddColumn(Column(name, std::move(values))).ok());
}

/// Appends a column that is all-NaN except for `keep_every`-strided rows
/// (exercises the missing-bin and pairwise-deletion paths hard).
inline void AppendMostlyMissingColumn(Dataset* data, const std::string& name,
                                      uint64_t seed, size_t keep_every = 7) {
  Rng rng(seed ^ 0xD1B54A32D192ED03ULL);
  std::vector<double> values(data->x.num_rows(),
                             std::numeric_limits<double>::quiet_NaN());
  for (size_t r = 0; r < values.size(); r += keep_every) {
    values[r] = rng.NextDouble() * 4.0 - 2.0;
  }
  SAFE_CHECK(data->x.AddColumn(Column(name, std::move(values))).ok());
}

/// A column drawn from IEEE special values (±inf, ±DBL_MAX, normal and
/// subnormal extremes of both signs, signed zeros, NaNs with payloads),
/// heavy ties and ordinary draws.
inline std::vector<double> AdversarialColumn(size_t rows, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      kInf, -kInf, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(0x000fffffffffffffULL),  // largest subnormal
      -0.0, 0.0, 1.0, -1.0,
      std::bit_cast<double>(0x7ff8000000000000ULL),  // quiet NaN
      std::bit_cast<double>(0xfff8000000000000ULL),  // negative quiet NaN
      std::bit_cast<double>(0x7ff0000000000001ULL),  // signaling NaN
      std::bit_cast<double>(0x7ff8dead0000beefULL),  // NaN payload
  };
  Rng rng(seed);
  std::vector<double> values(rows);
  for (double& v : values) {
    const uint64_t pick = rng.NextUint64Below(4);
    if (pick == 0) {
      v = specials[rng.NextUint64Below(specials.size())];
    } else if (pick == 1) {
      v = 2.5;  // heavy tie
    } else {
      v = rng.NextGaussian();
    }
  }
  return values;
}

/// A frame for checking a tree trainer's row partition against traversal
/// of the tree it grows: two AdversarialColumns, signed zeros around a ±0
/// cut, and a constant column with NaN payloads whose only split is
/// missing-vs-present at threshold +inf.
inline DataFrame SplitStressFrame(size_t rows, uint64_t seed) {
  const double kZeros[] = {-0.0, 0.0, -0.0, 0.0, -1.0, 1.0};
  const double kNanPayload = std::bit_cast<double>(0x7ff8dead0000beefULL);
  Rng rng(seed);
  std::vector<double> zeros(rows);
  std::vector<double> constant(rows);
  for (size_t r = 0; r < rows; ++r) {
    zeros[r] = kZeros[rng.NextUint64Below(6)];
    constant[r] = rng.NextBernoulli(0.3) ? kNanPayload : 7.0;
  }
  DataFrame frame;
  SAFE_CHECK(frame.AddColumn(Column("adversarial_a",
                                    AdversarialColumn(rows, seed + 1)))
                 .ok());
  SAFE_CHECK(frame.AddColumn(Column("adversarial_b",
                                    AdversarialColumn(rows, seed + 2)))
                 .ok());
  SAFE_CHECK(frame.AddColumn(Column("signed_zeros", std::move(zeros))).ok());
  SAFE_CHECK(
      frame.AddColumn(Column("constant_nan", std::move(constant))).ok());
  return frame;
}

}  // namespace testutil
}  // namespace safe
