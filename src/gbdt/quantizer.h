#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/dataframe/binning.h"
#include "src/dataframe/chunked.h"
#include "src/dataframe/dataframe.h"

namespace safe {
namespace gbdt {

/// \brief A feature matrix quantized into per-feature histogram bins.
///
/// bins[f]->At(r) is the bin index of row r under feature f's edges; the
/// last index (missing_bin) holds NaNs. Bin indices fit in uint16 because
/// max_bins <= 65534. Each feature's bins are stored like the feature:
/// sealed into the same SpillPool with the same group size (so quantized
/// bins spill under the same resident budget as raw features), or
/// resident. Hot loops read them through a ChunkedCursor.
struct BinnedMatrix {
  std::vector<std::shared_ptr<const ChunkedVector<uint16_t>>> bins;
  std::vector<BinEdges> edges;               // per feature
  size_t num_rows = 0;

  size_t num_features() const { return bins.size(); }
  /// Total cells for feature f including the missing bin.
  size_t num_cells(size_t f) const { return edges[f].missing_bin() + 1; }
};

/// \brief Learns per-feature quantile cut points and quantizes frames.
///
/// This is the "weighted quantile sketch" stand-in: exact quantiles over
/// the training frame, which is what XGBoost's `tree_method=hist` does for
/// in-memory data.
class FeatureQuantizer {
 public:
  /// Learns edges (<= max_bins bins per feature) from the training frame.
  /// Features fan out over `pool` (nullptr = the process-wide pool);
  /// each feature's edges are computed independently, so the result is
  /// identical at any thread count.
  [[nodiscard]] static Result<FeatureQuantizer> Fit(const DataFrame& frame,
                                      size_t max_bins,
                                      ThreadPool* pool = nullptr);

  /// Quantizes a frame with the learned edges (column count must match).
  [[nodiscard]] Result<BinnedMatrix> Transform(const DataFrame& frame,
                                 ThreadPool* pool = nullptr) const;

  const std::vector<BinEdges>& edges() const { return edges_; }

 private:
  std::vector<BinEdges> edges_;
};

}  // namespace gbdt
}  // namespace safe
