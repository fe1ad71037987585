#include "src/dataframe/binning.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/obs/metrics.h"

namespace safe {

namespace {

constexpr size_t kDigitBits = 8;
constexpr size_t kPasses = 64 / kDigitBits;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// Per-pass digit histograms of a key buffer, counted while it is built.
using DigitCounts = std::array<std::array<size_t, kBuckets>, kPasses>;

/// Order-preserving key: unsigned order on keys is a total order on the
/// bits of non-NaN doubles, -inf < ... < -0.0 < +0.0 < ... < +inf.
/// Negative values flip every bit, the rest only the sign bit.
uint64_t OrderedKey(double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return bits ^ ((bits & kSignBit) != 0 ? ~uint64_t{0} : kSignBit);
}

double FromOrderedKey(uint64_t key) {
  return std::bit_cast<double>(key ^
                               ((key & kSignBit) != 0 ? kSignBit : ~uint64_t{0}));
}

/// Sorted keys of the non-missing values, by an LSD radix sort that
/// ping-pongs with one scratch buffer of the same size. Every pass's
/// digits are counted while the keys are built span by span; radix order
/// depends only on the key bits, so storage does not change the result.
/// A pass whose digit is the same for every key would copy the buffer
/// unchanged, so it is skipped.
Result<std::vector<uint64_t>> SortedNonMissing(const RowSpans& rows) {
  std::vector<uint64_t> keys;
  keys.reserve(rows.size());
  DigitCounts counts{};
  rows.ForEach([&](size_t, const double* values, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      if (std::isnan(values[i])) continue;
      const uint64_t key = OrderedKey(values[i]);
      keys.push_back(key);
      for (size_t p = 0; p < kPasses; ++p) {
        ++counts[p][(key >> (p * kDigitBits)) & (kBuckets - 1)];
      }
    }
  });
  if (keys.empty()) {
    return Status::InvalidArgument("binning: all values are missing");
  }
  std::vector<uint64_t> scratch(keys.size());
  for (size_t p = 0; p < kPasses; ++p) {
    const size_t shift = p * kDigitBits;
    auto& offsets = counts[p];
    if (offsets[(keys[0] >> shift) & (kBuckets - 1)] == keys.size()) continue;
    size_t next = 0;
    for (size_t& offset : offsets) {
      const size_t count = offset;
      offset = next;
      next += count;
    }
    for (uint64_t key : keys) {
      scratch[offsets[(key >> shift) & (kBuckets - 1)]++] = key;
    }
    keys.swap(scratch);
  }
  return keys;
}

}  // namespace

Result<BinEdges> EqualFrequencyEdges(const RowSpans& values,
                                     size_t num_bins) {
  if (num_bins < 2) {
    return Status::InvalidArgument("num_bins must be >= 2");
  }
  static obs::Counter* fits =
      obs::MetricsRegistry::Global()->counter("binning.equal_frequency_fits");
  fits->Increment();
  SAFE_ASSIGN_OR_RETURN(std::vector<uint64_t> sorted,
                        SortedNonMissing(values));
  // The <= num_bins - 1 quantile ranks and the maximum, read straight
  // from the sorted keys.
  BinEdges out;
  const size_t n = sorted.size();
  for (size_t b = 1; b < num_bins; ++b) {
    // Quantile cut at rank b/num_bins (inclusive upper edge).
    size_t rank = (b * n) / num_bins;
    if (rank == 0) continue;
    double edge = FromOrderedKey(sorted[rank - 1]);
    if (out.edges.empty() || edge > out.edges.back()) {
      out.edges.push_back(edge);
    }
  }
  // Drop a trailing edge equal to the maximum, which would create an
  // empty final bin.
  const double max = FromOrderedKey(sorted.back());
  while (!out.edges.empty() && out.edges.back() >= max) {
    out.edges.pop_back();
  }
  return out;
}

Result<BinEdges> EqualFrequencyEdges(const std::vector<double>& values,
                                     size_t num_bins) {
  return EqualFrequencyEdges(RowSpans(values), num_bins);
}

Result<BinEdges> EqualFrequencyEdges(const Column& column, size_t num_bins) {
  return EqualFrequencyEdges(RowSpans(column), num_bins);
}

Result<BinEdges> EqualWidthEdges(const std::vector<double>& values,
                                 size_t num_bins) {
  if (num_bins < 2) {
    return Status::InvalidArgument("num_bins must be >= 2");
  }
  SAFE_ASSIGN_OR_RETURN(std::vector<uint64_t> sorted,
                        SortedNonMissing(RowSpans(values)));
  const double lo = FromOrderedKey(sorted.front());
  const double hi = FromOrderedKey(sorted.back());
  BinEdges out;
  if (lo == hi) return out;  // constant column -> single bin
  const double width = (hi - lo) / static_cast<double>(num_bins);
  for (size_t b = 1; b < num_bins; ++b) {
    out.edges.push_back(lo + width * static_cast<double>(b));
  }
  return out;
}

Result<BinEdges> KMeansEdges(const std::vector<double>& values,
                             size_t num_bins, size_t max_iterations) {
  if (num_bins < 2) {
    return Status::InvalidArgument("num_bins must be >= 2");
  }
  SAFE_ASSIGN_OR_RETURN(std::vector<uint64_t> keys,
                        SortedNonMissing(RowSpans(values)));
  std::vector<double> sorted(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) sorted[i] = FromOrderedKey(keys[i]);
  // Initial centers at quantiles; duplicates collapse.
  std::vector<double> centers;
  for (size_t k = 0; k < num_bins; ++k) {
    const size_t rank =
        (2 * k + 1) * sorted.size() / (2 * num_bins);  // mid-quantiles
    const double center = sorted[std::min(rank, sorted.size() - 1)];
    if (centers.empty() || center > centers.back()) {
      centers.push_back(center);
    }
  }
  if (centers.size() < 2) return BinEdges{};  // effectively constant

  // Lloyd iterations over the sorted values: assignment boundaries are
  // the midpoints between adjacent centers, so each pass is O(n).
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    std::vector<double> sums(centers.size(), 0.0);
    std::vector<size_t> counts(centers.size(), 0);
    size_t cluster = 0;
    for (double v : sorted) {
      while (cluster + 1 < centers.size() &&
             v > 0.5 * (centers[cluster] + centers[cluster + 1])) {
        ++cluster;
      }
      sums[cluster] += v;
      counts[cluster] += 1;
    }
    bool moved = false;
    std::vector<double> next;
    for (size_t k = 0; k < centers.size(); ++k) {
      if (counts[k] == 0) continue;  // drop empty clusters
      const double mean = sums[k] / static_cast<double>(counts[k]);
      if (next.empty() || mean > next.back()) {
        if (std::fabs(mean - centers[k]) > 1e-12) moved = true;
        next.push_back(mean);
      }
    }
    const bool shrunk = next.size() != centers.size();
    centers = std::move(next);
    if (centers.size() < 2) return BinEdges{};
    if (!moved && !shrunk) break;
  }

  BinEdges out;
  for (size_t k = 0; k + 1 < centers.size(); ++k) {
    out.edges.push_back(0.5 * (centers[k] + centers[k + 1]));
  }
  return out;
}

std::vector<double> ApplyBins(const BinEdges& edges,
                              const std::vector<double>& values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (double v : values) {
    out.push_back(static_cast<double>(edges.BinIndex(v)));
  }
  return out;
}

}  // namespace safe
