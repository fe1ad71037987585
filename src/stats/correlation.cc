#include "src/stats/correlation.h"

#include <cmath>

#include "src/obs/metrics.h"

namespace safe {

PearsonBand ClassifyPearson(double r) {
  const double a = std::fabs(r);
  if (a < 0.2) return PearsonBand::kVeryWeak;
  if (a < 0.4) return PearsonBand::kWeak;
  if (a < 0.6) return PearsonBand::kModerate;
  if (a < 0.8) return PearsonBand::kStrong;
  return PearsonBand::kExtremelyStrong;
}

const char* PearsonBandName(PearsonBand band) {
  switch (band) {
    case PearsonBand::kVeryWeak:
      return "Very weak or no correlation";
    case PearsonBand::kWeak:
      return "Weak correlation";
    case PearsonBand::kModerate:
      return "Moderate correlation";
    case PearsonBand::kStrong:
      return "Strong correlation";
    case PearsonBand::kExtremelyStrong:
      return "Extremely strong correlation";
  }
  return "?";
}

namespace {

/// Eq. 7 over the zipped spans of `a` and `b`: the one Pearson body.
/// Two passes, means over paired non-missing rows and then moments, each
/// accumulating in ascending row order whatever the storage, so every
/// overload gives the same bits on the same data. Each window sums into
/// locals and carries them on: a captured accumulator would be stored and
/// reloaded every row, since a double store may alias the spans read.
double PearsonOf(const RowSpans& a, const RowSpans& b) {
  double sum_a = 0.0;
  double sum_b = 0.0;
  size_t n = 0;
  ZipSpans(a, b, [&](const double* pa, const double* pb, size_t len) {
    double sa = sum_a;
    double sb = sum_b;
    size_t m = n;
    for (size_t i = 0; i < len; ++i) {
      if (std::isnan(pa[i]) || std::isnan(pb[i])) continue;
      sa += pa[i];
      sb += pb[i];
      ++m;
    }
    sum_a = sa;
    sum_b = sb;
    n = m;
  });
  if (n < 2) return 0.0;
  const double mu_a = sum_a / static_cast<double>(n);
  const double mu_b = sum_b / static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  ZipSpans(a, b, [&](const double* pa, const double* pb, size_t len) {
    double c = cov;
    double va = var_a;
    double vb = var_b;
    for (size_t i = 0; i < len; ++i) {
      if (std::isnan(pa[i]) || std::isnan(pb[i])) continue;
      const double da = pa[i] - mu_a;
      const double db = pb[i] - mu_b;
      c += da * db;
      va += da * da;
      vb += db * db;
    }
    cov = c;
    var_a = va;
    var_b = vb;
  });
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  double r = cov / std::sqrt(var_a * var_b);
  // Clamp tiny floating-point excursions outside [-1, 1].
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
  return r;
}

}  // namespace

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  return PearsonOf(RowSpans(a), RowSpans(b));
}

double PearsonCorrelation(const Column& a, const Column& b) {
  return PearsonOf(RowSpans(a), RowSpans(b));
}

std::vector<std::vector<double>> PearsonMatrix(const DataFrame& frame,
                                               ThreadPool* pool) {
  const size_t m = frame.num_columns();
  std::vector<std::vector<double>> mat(m, std::vector<double>(m, 0.0));
  if (pool == nullptr) pool = ThreadPool::Global();
  ParallelFor(pool, 0, m, [&](size_t i) {
    mat[i][i] = 1.0;
    for (size_t j = i + 1; j < m; ++j) {
      mat[i][j] = PearsonCorrelation(frame.column(i), frame.column(j));
    }
  });
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < i; ++j) mat[i][j] = mat[j][i];
  }
  return mat;
}

std::vector<double> PearsonAgainst(const DataFrame& frame, size_t anchor,
                                   const std::vector<size_t>& others,
                                   ThreadPool* pool) {
  static obs::Counter* pairs_counter =
      obs::MetricsRegistry::Global()->counter("stats.pearson_pairs");
  std::vector<double> out(others.size(), 0.0);
  const Column& anchor_column = frame.column(anchor);
  ParallelFor(pool, 0, others.size(), [&](size_t i) {
    const uint64_t start_ns = obs::NowNanos();
    out[i] = PearsonCorrelation(anchor_column, frame.column(others[i]));
    obs::PerThreadHistogram("stats.pearson_pair_us",
                            obs::DefaultLatencyBucketsUs())
        ->Observe(static_cast<double>(obs::NowNanos() - start_ns) / 1e3);
  });
  pairs_counter->Increment(others.size());
  return out;
}

}  // namespace safe
