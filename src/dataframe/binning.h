#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/dataframe/column.h"

namespace safe {

/// Bin of `value` over ascending interior cut points: the count of edges
/// below it — the index std::lower_bound returns — or edges.size() + 1
/// (the missing bin) for NaN. A branchless halving search that allocates
/// nothing, so per-row appliers call it straight on a fitted parameter
/// span; every bin lookup in the library goes through it.
inline size_t BinIndexOf(std::span<const double> edges, double value) {
  if (std::isnan(value)) return edges.size() + 1;
  if (edges.empty()) return 0;
  const double* base = edges.data();
  for (size_t len = edges.size(); len > 1;) {
    const size_t half = len / 2;
    base = base[half] < value ? base + half : base;
    len -= half;
  }
  return static_cast<size_t>(base - edges.data()) + (*base < value ? 1 : 0);
}

/// \brief Interior cut points defining bins over a numeric feature.
///
/// `edges` sorted ascending; value v falls in bin i where
/// edges[i-1] < v <= edges[i] (bin 0 is (-inf, edges[0]], the last bin is
/// (edges.back(), +inf)). NaN maps to a dedicated missing bin with index
/// `edges.size() + 1`.
struct BinEdges {
  std::vector<double> edges;

  size_t num_bins() const { return edges.size() + 1; }
  size_t missing_bin() const { return edges.size() + 1; }

  /// Bin index of a value (missing_bin() for NaN).
  size_t BinIndex(double value) const { return BinIndexOf(edges, value); }
};

/// Equal-frequency (quantile) cut points. Duplicated quantiles collapse,
/// so the result may have fewer than `num_bins - 1` edges. Requires
/// num_bins >= 2 and at least one non-missing value.
///
/// The non-missing values are ranked by an LSD radix sort over
/// order-preserving 64-bit keys, a total order on bits in which -0.0
/// sorts before +0.0, so the cuts do not depend on the input order, the
/// storage or the standard library. A call holds two column-sized key
/// buffers.
[[nodiscard]] Result<BinEdges> EqualFrequencyEdges(const RowSpans& values,
                                                   size_t num_bins);

/// EqualFrequencyEdges over a vector's one span.
[[nodiscard]] Result<BinEdges> EqualFrequencyEdges(const std::vector<double>& values,
                                     size_t num_bins);

/// EqualFrequencyEdges over a column's spans: a pooled column streams
/// row group by row group and is never materialized.
[[nodiscard]] Result<BinEdges> EqualFrequencyEdges(const Column& column,
                                     size_t num_bins);

/// Equal-width cut points over [min, max] of the non-missing values.
[[nodiscard]] Result<BinEdges> EqualWidthEdges(const std::vector<double>& values,
                                 size_t num_bins);

/// 1-D k-means (Lloyd) clustering binning — the paper's Section III
/// "clustering binning". Clusters the non-missing values into up to
/// `num_bins` clusters starting from quantile centers; cut points are the
/// midpoints between adjacent cluster centers. Deterministic.
[[nodiscard]] Result<BinEdges> KMeansEdges(const std::vector<double>& values,
                             size_t num_bins, size_t max_iterations = 50);

/// Maps every value to its bin index (as double, for use as a feature).
std::vector<double> ApplyBins(const BinEdges& edges,
                              const std::vector<double>& values);

}  // namespace safe
