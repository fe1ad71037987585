#include "src/stats/iv.h"

#include <cmath>

#include "src/obs/metrics.h"

namespace safe {

IvBand ClassifyIv(double iv) {
  if (iv < 0.02) return IvBand::kUseless;
  if (iv < 0.1) return IvBand::kWeak;
  if (iv < 0.3) return IvBand::kMedium;
  if (iv <= 0.5) return IvBand::kStrong;
  return IvBand::kExtremelyStrong;
}

const char* IvBandName(IvBand band) {
  switch (band) {
    case IvBand::kUseless:
      return "Useless for prediction";
    case IvBand::kWeak:
      return "Weak predictor";
    case IvBand::kMedium:
      return "Medium predictor";
    case IvBand::kStrong:
      return "Strong predictor";
    case IvBand::kExtremelyStrong:
      return "Extremely strong predictor";
  }
  return "?";
}

Result<double> InformationValueWithEdges(const std::vector<double>& feature,
                                         const std::vector<double>& labels,
                                         const BinEdges& edges) {
  if (feature.size() != labels.size()) {
    return Status::InvalidArgument("IV: feature/label size mismatch");
  }
  if (feature.empty()) {
    return Status::InvalidArgument("IV: empty input");
  }
  const size_t num_cells = edges.missing_bin() + 1;
  std::vector<double> pos(num_cells, 0.0);
  std::vector<double> neg(num_cells, 0.0);
  double np = 0.0;
  double nn = 0.0;
  for (size_t i = 0; i < feature.size(); ++i) {
    const size_t b = edges.BinIndex(feature[i]);
    if (labels[i] > 0.5) {
      pos[b] += 1.0;
      np += 1.0;
    } else {
      neg[b] += 1.0;
      nn += 1.0;
    }
  }
  if (np == 0.0 || nn == 0.0) {
    return Status::InvalidArgument("IV: labels are single-class");
  }
  double iv = 0.0;
  for (size_t b = 0; b < num_cells; ++b) {
    if (pos[b] == 0.0 && neg[b] == 0.0) continue;
    // 0.5 pseudo-count keeps WoE finite when a bin is single-class.
    const double p = (pos[b] > 0.0 ? pos[b] : 0.5) / np;
    const double q = (neg[b] > 0.0 ? neg[b] : 0.5) / nn;
    iv += (p - q) * std::log(p / q);
  }
  return iv;
}

Result<double> InformationValue(const std::vector<double>& feature,
                                const std::vector<double>& labels,
                                size_t num_bins) {
  SAFE_ASSIGN_OR_RETURN(BinEdges edges,
                        EqualFrequencyEdges(feature, num_bins));
  return InformationValueWithEdges(feature, labels, edges);
}

Result<double> InformationValue(const Column& feature,
                                const std::vector<double>& labels,
                                size_t num_bins) {
  if (feature.size() != labels.size()) {
    return Status::InvalidArgument("IV: feature/label size mismatch");
  }
  if (feature.size() == 0) {
    return Status::InvalidArgument("IV: empty input");
  }
  SAFE_ASSIGN_OR_RETURN(BinEdges edges,
                        EqualFrequencyEdges(feature, num_bins));
  const size_t num_cells = edges.missing_bin() + 1;
  std::vector<double> pos(num_cells, 0.0);
  std::vector<double> neg(num_cells, 0.0);
  double np = 0.0;
  double nn = 0.0;
  feature.ForEachSpan(
      0, feature.size(), [&](size_t base, const double* values, size_t len) {
        for (size_t i = 0; i < len; ++i) {
          const size_t b = edges.BinIndex(values[i]);
          if (labels[base + i] > 0.5) {
            pos[b] += 1.0;
            np += 1.0;
          } else {
            neg[b] += 1.0;
            nn += 1.0;
          }
        }
      });
  if (np == 0.0 || nn == 0.0) {
    return Status::InvalidArgument("IV: labels are single-class");
  }
  double iv = 0.0;
  for (size_t b = 0; b < num_cells; ++b) {
    if (pos[b] == 0.0 && neg[b] == 0.0) continue;
    // 0.5 pseudo-count keeps WoE finite when a bin is single-class.
    const double p = (pos[b] > 0.0 ? pos[b] : 0.5) / np;
    const double q = (neg[b] > 0.0 ? neg[b] : 0.5) / nn;
    iv += (p - q) * std::log(p / q);
  }
  return iv;
}

std::vector<double> InformationValueBatch(const DataFrame& x,
                                          const std::vector<double>& labels,
                                          size_t num_bins, ThreadPool* pool) {
  static obs::Counter* columns_counter =
      obs::MetricsRegistry::Global()->counter("stats.iv_columns");
  std::vector<double> ivs(x.num_columns(), 0.0);
  ParallelFor(pool, 0, x.num_columns(), [&](size_t c) {
    const uint64_t start_ns = obs::NowNanos();
    auto iv = InformationValue(x.column(c), labels, num_bins);
    ivs[c] = iv.ok() ? *iv : 0.0;
    obs::PerThreadHistogram("stats.iv_column_us",
                            obs::DefaultLatencyBucketsUs())
        ->Observe(static_cast<double>(obs::NowNanos() - start_ns) / 1e3);
  });
  columns_counter->Increment(x.num_columns());
  return ivs;
}

}  // namespace safe
