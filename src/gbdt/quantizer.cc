#include "src/gbdt/quantizer.h"

#include <algorithm>
#include <array>

#include "src/common/thread_pool.h"
#include "src/obs/flight_recorder.h"

namespace safe {
namespace gbdt {

namespace {

/// Rows Transform quantizes per Append.
constexpr size_t kTransformBlockRows = 4096;

}  // namespace

Result<FeatureQuantizer> FeatureQuantizer::Fit(const DataFrame& frame,
                                               size_t max_bins,
                                               ThreadPool* pool) {
  SAFE_FR_SCOPE("gbdt.quantizer_fit");
  if (frame.num_columns() == 0 || frame.num_rows() == 0) {
    return Status::InvalidArgument("quantizer: empty frame");
  }
  if (max_bins < 2 || max_bins > 65534) {
    return Status::InvalidArgument("quantizer: max_bins must be in [2,65534]");
  }
  if (pool == nullptr) pool = ThreadPool::Global();
  FeatureQuantizer q;
  q.edges_.resize(frame.num_columns());
  std::vector<Status> statuses(frame.num_columns());
  ParallelFor(pool, 0, frame.num_columns(), [&](size_t f) {
    const Column& column = frame.column(f);
    auto result = EqualFrequencyEdges(column, max_bins);
    if (result.ok()) {
      q.edges_[f] = std::move(*result);
    } else if (column.CountMissing() == column.size()) {
      // All-missing column: a single (missing) bin, never splittable.
      q.edges_[f] = BinEdges{};
    } else {
      statuses[f] = result.status();
    }
  });
  for (const auto& st : statuses) SAFE_RETURN_NOT_OK(st);
  return q;
}

Result<BinnedMatrix> FeatureQuantizer::Transform(const DataFrame& frame,
                                                 ThreadPool* pool) const {
  SAFE_FR_SCOPE("gbdt.quantizer_transform");
  if (frame.num_columns() != edges_.size()) {
    return Status::InvalidArgument(
        "quantizer: frame has " + std::to_string(frame.num_columns()) +
        " columns, expected " + std::to_string(edges_.size()));
  }
  if (pool == nullptr) pool = ThreadPool::Global();
  BinnedMatrix out;
  out.num_rows = frame.num_rows();
  out.edges = edges_;
  out.bins.resize(edges_.size());
  ParallelFor(pool, 0, edges_.size(), [&](size_t f) {
    // Quantize into a bin vector stored like the feature (see
    // BinnedMatrix), through a fixed block so a worker holds no second
    // copy of the column's bins.
    const Column& column = frame.column(f);
    ChunkedVectorBuilder<uint16_t> builder(column.chunks()->pool(),
                                           column.chunks()->group_rows(),
                                           column.size());
    std::array<uint16_t, kTransformBlockRows> block;
    column.ForEachSpan(
        0, column.size(), [&](size_t, const double* values, size_t len) {
          for (size_t lo = 0; lo < len; lo += block.size()) {
            const size_t n = std::min(block.size(), len - lo);
            for (size_t i = 0; i < n; ++i) {
              block[i] =
                  static_cast<uint16_t>(edges_[f].BinIndex(values[lo + i]));
            }
            builder.Append(block.data(), n);
          }
        });
    out.bins[f] = builder.Finish();
  });
  return out;
}

}  // namespace gbdt
}  // namespace safe
