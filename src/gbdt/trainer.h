#pragma once

#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/gbdt/params.h"
#include "src/gbdt/quantizer.h"
#include "src/gbdt/tree.h"

namespace safe {
namespace gbdt {

/// One histogram cell: summed first/second-order gradients of the rows
/// whose feature value quantizes into the cell.
struct GradHistBin {
  double grad = 0.0;
  double hess = 0.0;
};

/// Gradient histograms of one tree node — one cell vector per candidate
/// feature, indexed by position in the node's candidate-feature list.
using NodeHistograms = std::vector<std::vector<GradHistBin>>;

/// \brief Grows one regression tree on second-order gradients over a
/// binned matrix (the `hist` algorithm: per-node gradient histograms, best
/// split by scanning bins, missing values routed to the better side).
///
/// Training parallelizes across the given pool: per-feature histogram
/// construction, the best-split scan, and row partitioning all fan out,
/// and the smaller child of every split gets its histograms by
/// subtracting the built sibling from the parent instead of a rebuild.
/// The produced tree is bit-identical at every pool size (including no
/// pool at all): work is partitioned by fixed rules that never look at
/// the thread count, and every floating-point reduction is performed in
/// a fixed (chunk- or feature-) order.
class TreeTrainer {
 public:
  /// \param pool  worker pool for intra-node parallelism; nullptr trains
  ///              serially (same math, same tree).
  TreeTrainer(const BinnedMatrix* matrix, const GbdtParams* params,
              ThreadPool* pool = nullptr)
      : matrix_(matrix), params_(params), pool_(pool) {}

  /// \param grad,hess  per-row gradient statistics (full length).
  /// \param rows       training rows for this tree (after subsampling).
  /// \param features   candidate feature indices (after column sampling).
  /// \param margins    per-row margins (full length): each leaf's value is
  ///                   added to margins[r] for every r in `rows` that the
  ///                   partition sends there. That is the leaf a traversal
  ///                   of the returned tree reaches on row r's raw values
  ///                   (DESIGN.md §9), so rows in `rows` need no
  ///                   re-prediction.
  /// Leaf values already include the learning rate.
  RegressionTree Train(const std::vector<double>& grad,
                       const std::vector<double>& hess,
                       const std::vector<size_t>& rows,
                       const std::vector<int>& features,
                       std::vector<double>* margins) const;

 private:
  struct SplitCandidate {
    double gain = 0.0;
    int feature = -1;
    size_t bin = 0;           // split sends bins <= bin to the left
    bool missing_left = true;
    bool valid() const { return feature >= 0; }
  };

  /// Builds the per-feature gradient histograms of one node (parallel
  /// across features; each feature is accumulated serially in row order).
  NodeHistograms BuildHistograms(const std::vector<double>& grad,
                                 const std::vector<double>& hess,
                                 const std::vector<size_t>& rows,
                                 const std::vector<int>& features) const;

  /// parent -= child, leaving the larger sibling's histograms in
  /// `parent` (parallel across features).
  void SubtractHistograms(NodeHistograms* parent,
                          const NodeHistograms& child) const;

  /// Best split over prebuilt histograms: per-feature scans run in
  /// parallel, then the per-feature winners are reduced in candidate-list
  /// order so the result never depends on task completion order.
  SplitCandidate FindBestSplit(const NodeHistograms& hist,
                               const std::vector<int>& features,
                               double sum_grad, double sum_hess) const;

  const BinnedMatrix* matrix_;
  const GbdtParams* params_;
  ThreadPool* pool_;
};

}  // namespace gbdt
}  // namespace safe
