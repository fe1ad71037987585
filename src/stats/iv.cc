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

namespace {

Status CheckIvInputs(const RowSpans& feature,
                     const std::vector<double>& labels) {
  if (feature.size() != labels.size()) {
    return Status::InvalidArgument("IV: feature/label size mismatch");
  }
  if (feature.size() == 0) {
    return Status::InvalidArgument("IV: empty input");
  }
  return Status::OK();
}

/// Eq. 6 over `feature`'s spans binned by `edges`: the one IV body. The
/// cell tallies are exact integer counts, so neither the span layout nor
/// the tally order can change a bit of the result.
Result<double> IvOf(const RowSpans& feature, const std::vector<double>& labels,
                    const BinEdges& edges) {
  const size_t num_cells = edges.missing_bin() + 1;
  std::vector<size_t> pos(num_cells, 0);
  std::vector<size_t> neg(num_cells, 0);
  feature.ForEach([&](size_t base, const double* values, size_t len) {
    const double* y = labels.data() + base;
    for (size_t i = 0; i < len; ++i) {
      const size_t b = edges.BinIndex(values[i]);
      if (y[i] > 0.5) {
        ++pos[b];
      } else {
        ++neg[b];
      }
    }
  });
  size_t np = 0;
  size_t nn = 0;
  for (size_t b = 0; b < num_cells; ++b) {
    np += pos[b];
    nn += neg[b];
  }
  if (np == 0 || nn == 0) {
    return Status::InvalidArgument("IV: labels are single-class");
  }
  double iv = 0.0;
  for (size_t b = 0; b < num_cells; ++b) {
    if (pos[b] == 0 && neg[b] == 0) continue;
    // 0.5 pseudo-count keeps WoE finite when a bin is single-class.
    const double p =
        (pos[b] > 0 ? static_cast<double>(pos[b]) : 0.5) /
        static_cast<double>(np);
    const double q =
        (neg[b] > 0 ? static_cast<double>(neg[b]) : 0.5) /
        static_cast<double>(nn);
    iv += (p - q) * std::log(p / q);
  }
  return iv;
}

Result<double> IvOf(const RowSpans& feature, const std::vector<double>& labels,
                    size_t num_bins) {
  SAFE_RETURN_NOT_OK(CheckIvInputs(feature, labels));
  SAFE_ASSIGN_OR_RETURN(BinEdges edges, EqualFrequencyEdges(feature, num_bins));
  return IvOf(feature, labels, edges);
}

}  // namespace

Result<double> InformationValueWithEdges(const std::vector<double>& feature,
                                         const std::vector<double>& labels,
                                         const BinEdges& edges) {
  const RowSpans spans(feature);
  SAFE_RETURN_NOT_OK(CheckIvInputs(spans, labels));
  return IvOf(spans, labels, edges);
}

Result<double> InformationValue(const std::vector<double>& feature,
                                const std::vector<double>& labels,
                                size_t num_bins) {
  return IvOf(RowSpans(feature), labels, num_bins);
}

Result<double> InformationValue(const Column& feature,
                                const std::vector<double>& labels,
                                size_t num_bins) {
  return IvOf(RowSpans(feature), labels, num_bins);
}

namespace {

obs::Counter* IvColumnsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global()->counter("stats.iv_columns");
  return counter;
}

/// FilterIv without the column count: InformationValue, 0 where undefined,
/// its latency observed in `stats.iv_column_us`.
template <typename Feature>
double TimedFilterIv(const Feature& feature, const std::vector<double>& labels,
                     size_t num_bins) {
  const uint64_t start_ns = obs::NowNanos();
  auto iv = InformationValue(feature, labels, num_bins);
  obs::PerThreadHistogram("stats.iv_column_us", obs::DefaultLatencyBucketsUs())
      ->Observe(static_cast<double>(obs::NowNanos() - start_ns) / 1e3);
  return iv.ok() ? *iv : 0.0;
}

}  // namespace

double FilterIv(const std::vector<double>& feature,
                const std::vector<double>& labels, size_t num_bins) {
  IvColumnsCounter()->Increment();
  return TimedFilterIv(feature, labels, num_bins);
}

std::vector<double> InformationValueBatch(const DataFrame& x,
                                          const std::vector<double>& labels,
                                          size_t num_bins, ThreadPool* pool) {
  std::vector<double> ivs(x.num_columns(), 0.0);
  ParallelFor(pool, 0, x.num_columns(), [&](size_t c) {
    ivs[c] = TimedFilterIv(x.column(c), labels, num_bins);
  });
  IvColumnsCounter()->Increment(x.num_columns());
  return ivs;
}

}  // namespace safe
