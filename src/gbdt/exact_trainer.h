#pragma once

#include <vector>

#include "src/dataframe/dataframe.h"
#include "src/gbdt/params.h"
#include "src/gbdt/tree.h"

namespace safe {
namespace gbdt {

/// \brief Exact greedy tree construction (XGBoost `tree_method=exact`):
/// per-feature pre-sorted value order, every distinct cut point evaluated.
///
/// Slower than the histogram trainer (O(N·M) per depth level over sorted
/// runs vs O(bins·M)) but free of quantization error; the micro-benchmarks
/// and gbdt tests compare the two. Missing values are routed to the side
/// that maximizes gain, as in the histogram trainer.
class ExactTreeTrainer {
 public:
  /// \param frame  feature columns (raw doubles; NaN = missing).
  ExactTreeTrainer(const DataFrame* frame, const GbdtParams* params);

  /// Grows one tree on second-order gradients.
  /// \param grad,hess  per-row statistics (full length).
  /// \param rows       training rows for this tree.
  /// \param features   candidate feature indices.
  /// \param margins    per-row margins (full length): each leaf's value is
  ///                   added to margins[r] for every r in `rows` that the
  ///                   partition sends there, which is the leaf PredictRow
  ///                   reaches on row r (both compare `v <= threshold`).
  RegressionTree Train(const std::vector<double>& grad,
                       const std::vector<double>& hess,
                       const std::vector<size_t>& rows,
                       const std::vector<int>& features,
                       std::vector<double>* margins) const;

 private:
  struct SplitCandidate {
    double gain = 0.0;
    int feature = -1;
    double threshold = 0.0;
    bool missing_left = true;
    bool valid() const { return feature >= 0; }
  };

  SplitCandidate FindBestSplit(const std::vector<double>& grad,
                               const std::vector<double>& hess,
                               const std::vector<size_t>& rows,
                               const std::vector<int>& features,
                               double sum_grad, double sum_hess) const;

  const DataFrame* frame_;
  const GbdtParams* params_;
  /// Per feature: row indices sorted by value, missing rows excluded.
  std::vector<std::vector<uint32_t>> sorted_rows_;
};

}  // namespace gbdt
}  // namespace safe
