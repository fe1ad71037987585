#pragma once

#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataframe/dataframe.h"

namespace safe {

/// Rule-of-thumb correlation-strength bands for |Pearson| (paper Table II).
enum class PearsonBand {
  kVeryWeak,         ///< [0, 0.2)
  kWeak,             ///< [0.2, 0.4)
  kModerate,         ///< [0.4, 0.6)
  kStrong,           ///< [0.6, 0.8)
  kExtremelyStrong,  ///< [0.8, 1]
};

/// Classifies |r| into its Table II band.
PearsonBand ClassifyPearson(double r);

/// Human-readable band name.
const char* PearsonBandName(PearsonBand band);

/// \brief Pearson correlation coefficient (Eq. 7) between two features.
///
/// Rows where either value is NaN are skipped. Returns 0 when either
/// feature is constant over the paired rows (no linear relationship is
/// measurable), matching the redundancy filter's "not redundant" default.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// PearsonCorrelation over two columns' spans: the vector overload's
/// body, which zip-walks them in ascending row order, so the results are
/// bit-identical on the same data, resident, pooled, or mixed.
double PearsonCorrelation(const Column& a, const Column& b);

/// Dense symmetric correlation matrix of all frame columns, with the
/// upper triangle computed in parallel on `pool` (nullptr = global pool).
std::vector<std::vector<double>> PearsonMatrix(const DataFrame& frame,
                                               ThreadPool* pool = nullptr);

/// \brief Pearson of `anchor` against each column in `others` (both index
/// into `frame`), one pool task per pair; `out[i]` pairs `others[i]`.
///
/// This is the fan-out shape of Alg. 4's redundancy sweep: one kept
/// feature checked against every still-alive candidate at once. Tasks
/// are independent and write disjoint slots, so the result is
/// deterministic at any thread count; `pool == nullptr` runs serially.
std::vector<double> PearsonAgainst(const DataFrame& frame, size_t anchor,
                                   const std::vector<size_t>& others,
                                   ThreadPool* pool = nullptr);

}  // namespace safe
