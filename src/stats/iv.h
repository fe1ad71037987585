#pragma once

#include <cstddef>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/dataframe/binning.h"
#include "src/dataframe/dataframe.h"

namespace safe {

/// Rule-of-thumb predictive-power bands for Information Value
/// (paper Table I).
enum class IvBand {
  kUseless,          ///< IV in [0, 0.02)
  kWeak,             ///< IV in [0.02, 0.1)
  kMedium,           ///< IV in [0.1, 0.3)
  kStrong,           ///< IV in [0.3, 0.5)
  kExtremelyStrong,  ///< IV > 0.5
};

/// Classifies an IV into its Table I band.
IvBand ClassifyIv(double iv);

/// Human-readable band name ("Weak predictor", ...).
const char* IvBandName(IvBand band);

/// \brief Information Value of a feature against binary labels (Eq. 6):
///   IV = Σ_i (n_p^i/n_p − n_n^i/n_n) · ln[(n_p^i/n_p)/(n_n^i/n_n)]
/// over equal-frequency bins of the feature (paper Algorithm 3 packs the
/// records into β same-frequency bins). Empty-side bins are smoothed with
/// a 0.5 pseudo-count so the logarithm stays finite, the standard WoE
/// adjustment in credit scoring.
///
/// Returns InvalidArgument when labels are single-class or sizes mismatch.
[[nodiscard]] Result<double> InformationValue(const std::vector<double>& feature,
                                const std::vector<double>& labels,
                                size_t num_bins);

/// IV given precomputed bin edges (missing values get their own bin).
[[nodiscard]] Result<double> InformationValueWithEdges(const std::vector<double>& feature,
                                         const std::vector<double>& labels,
                                         const BinEdges& edges);

/// InformationValue over a column's spans: the vector overload's body,
/// which streams a pooled column row group by row group. The bin tallies
/// are exact integer counts, so the result is bit-identical to the
/// vector overload on the same data.
[[nodiscard]] Result<double> InformationValue(const Column& feature,
                                const std::vector<double>& labels,
                                size_t num_bins);

/// Alg. 3's score of one feature: its InformationValue, or 0 where that
/// is undefined (constant, all-missing, single-class labels). Counted and
/// timed in the `stats.iv_*` series like each InformationValueBatch column.
double FilterIv(const std::vector<double>& feature,
                const std::vector<double>& labels, size_t num_bins);

/// \brief IV of every frame column, one pool task per column (Alg. 3's
/// per-feature loop). Each task fits its own equal-frequency edges, so
/// binning parallelizes together with the IV itself. Columns whose IV is
/// undefined (constant, all-missing, single-class labels) score 0.
///
/// Deterministic at any thread count: tasks are independent and each
/// writes only its own output slot. `pool == nullptr` runs serially.
std::vector<double> InformationValueBatch(const DataFrame& x,
                                          const std::vector<double>& labels,
                                          size_t num_bins,
                                          ThreadPool* pool = nullptr);

}  // namespace safe
