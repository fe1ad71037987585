#include "src/stats/correlation.h"

#include <algorithm>
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

/// Walking read head over one column: Seek(pos) yields a contiguous
/// window starting at pos and ending at the column's next span boundary
/// (the whole column when dense).
struct ColumnWalker {
  explicit ColumnWalker(const Column& c) : col(c) {}

  void Seek(size_t pos) {
    if (!col.chunked()) {
      ptr = col.values().data() + pos;
      end = col.size();
      return;
    }
    const ChunkedVector<double>& chunks = *col.chunks();
    span = chunks.PinSpan(pos, chunks.GroupEnd(chunks.GroupOf(pos)));
    ptr = span.data();
    end = span.end();
  }

  const Column& col;
  ChunkedVector<double>::Span span;
  const double* ptr = nullptr;  ///< first value of the current window
  size_t end = 0;               ///< row index one past the window
};

/// Invokes fn(pa, pb, len) over maximal windows where both columns are
/// contiguous, in ascending row order; pa/pb point at the same row.
template <typename Fn>
void ZipSpans(const Column& a, const Column& b, Fn&& fn) {
  const size_t n = a.size();
  ColumnWalker wa(a);
  ColumnWalker wb(b);
  size_t pos = 0;
  while (pos < n) {
    wa.Seek(pos);
    wb.Seek(pos);
    const size_t stop = std::min(wa.end, wb.end);
    fn(wa.ptr, wb.ptr, stop - pos);
    pos = stop;
  }
}

}  // namespace

double PearsonCorrelation(const Column& a, const Column& b) {
  SAFE_CHECK(a.size() == b.size());
  // Two-pass: means over paired non-missing rows, then moments. Each
  // pass accumulates in ascending row order regardless of storage, so
  // the arithmetic matches the dense overload bit for bit.
  double sum_a = 0.0;
  double sum_b = 0.0;
  size_t n = 0;
  ZipSpans(a, b, [&](const double* pa, const double* pb, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      if (std::isnan(pa[i]) || std::isnan(pb[i])) continue;
      sum_a += pa[i];
      sum_b += pb[i];
      ++n;
    }
  });
  if (n < 2) return 0.0;
  const double mu_a = sum_a / static_cast<double>(n);
  const double mu_b = sum_b / static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  ZipSpans(a, b, [&](const double* pa, const double* pb, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      if (std::isnan(pa[i]) || std::isnan(pb[i])) continue;
      const double da = pa[i] - mu_a;
      const double db = pb[i] - mu_b;
      cov += da * db;
      var_a += da * da;
      var_b += db * db;
    }
  });
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  double r = cov / std::sqrt(var_a * var_b);
  // Clamp tiny floating-point excursions outside [-1, 1].
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
  return r;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  SAFE_CHECK(a.size() == b.size());
  // Two-pass: means over paired non-missing rows, then moments.
  double sum_a = 0.0;
  double sum_b = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) continue;
    sum_a += a[i];
    sum_b += b[i];
    ++n;
  }
  if (n < 2) return 0.0;
  const double mu_a = sum_a / static_cast<double>(n);
  const double mu_b = sum_b / static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) continue;
    const double da = a[i] - mu_a;
    const double db = b[i] - mu_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  double r = cov / std::sqrt(var_a * var_b);
  // Clamp tiny floating-point excursions outside [-1, 1].
  if (r > 1.0) r = 1.0;
  if (r < -1.0) r = -1.0;
  return r;
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
