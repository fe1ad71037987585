#pragma once

#include <cstddef>
#include <vector>

#include "src/common/result.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"
#include "src/gbdt/booster.h"
#include "src/gbdt/forest_layout.h"
#include "src/serve/compiled_plan.h"

namespace safe {
namespace serve {

/// \brief Vectorized batch engine for the serving path (DESIGN.md
/// "Vectorized batch execution").
///
/// Where RowScorer runs the program and the forest's single-row walk on
/// one lane per row, BatchScorer processes blocks of kBlockRows rows
/// through three column-wise stages over one reusable Scratch:
///
///   1. transpose the block into a slot-major column panel
///      (block_panel.h) — every scratch slot becomes one contiguous
///      kBlockRows-lane span;
///   2. CompiledPlan::ExecuteBlock — each opcode runs as one contiguous
///      loop over the whole block (dispatch paid per block, inner loops
///      SIMD-friendly; the row path runs the same loop on one lane);
///   3. gbdt::PackedForest::AccumulateMargins — QuickScorer-style
///      bitvector traversal, tree-major over the block, reading split
///      features straight out of the panel (split indices were remapped
///      to panel slots at Create time, so there is no gather step). A
///      one-row block takes the forest's single-row stepped walk.
///
/// Output contract: scoring any batch is bit-identical to calling
/// RowScorer::ScoreRow on each row — and therefore to the interpreted
/// booster.PredictRowProba(*plan.TransformRow(row)) — for every batch
/// size, ragged tail included (serve_batch_equivalence_test). Immutable
/// after Create; ScoreRows is safe for any number of concurrent callers.
class BatchScorer {
 public:
  /// Rows per block: large enough that per-block dispatch amortizes to
  /// noise, small enough that one panel of a transform-heavy plan
  /// (~100 slots -> ~100 KiB) stays cache-resident.
  static constexpr size_t kBlockRows = 128;

  /// Reusable per-caller buffers: the slot-major column panel plus the
  /// per-lane margin accumulators.
  struct Scratch {
    std::vector<double> panels;   // scratch_size() slots x kBlockRows
    std::vector<double> margins;  // kBlockRows
  };

  BatchScorer() = default;

  /// Compiles `plan` and packs `booster` into the interleaved forest
  /// layout. Fails like RowScorer::Create: booster/plan feature-count
  /// mismatch, or a tree splitting outside the plan's outputs.
  [[nodiscard]] static Result<BatchScorer> Create(
      const FeaturePlan& plan, const gbdt::Booster& booster,
      const OperatorRegistry& registry);
  [[nodiscard]] static Result<BatchScorer> Create(
      const FeaturePlan& plan, const gbdt::Booster& booster);

  size_t num_inputs() const { return plan_.num_inputs(); }
  size_t num_features() const { return plan_.num_outputs(); }
  const CompiledPlan& plan() const { return plan_; }
  const gbdt::PackedForest& forest() const { return forest_; }
  double base_score() const { return base_score_; }
  gbdt::Objective objective() const { return objective_; }

  Scratch MakeScratch() const;

  /// Allocation-free core: scores rows [begin, begin + n) — n at most
  /// kBlockRows, every row holding num_inputs() doubles — into out[0..n).
  /// ScoreBlock writes probabilities (margins through the objective's
  /// link), ScoreBlockMargin raw margins.
  void ScoreBlock(const std::vector<std::vector<double>>& rows, size_t begin,
                  size_t n, Scratch* scratch, double* out) const;
  void ScoreBlockMargin(const std::vector<std::vector<double>>& rows,
                        size_t begin, size_t n, Scratch* scratch,
                        double* out) const;

  /// Same allocation-free core over an array of row pointers (each row
  /// `num_inputs()` doubles): the scoring server stages requests as
  /// pointers into caller memory and scores them without an intermediate
  /// copy. The panel's stride is n rather than kBlockRows, so a small
  /// cut is scored compactly. Bit-identical to the vector overloads
  /// (same gather/execute/traverse pipeline, lane by lane).
  void ScoreBlockPtrs(const double* const* rows, size_t n, Scratch* scratch,
                      double* out) const;
  void ScoreBlockMarginPtrs(const double* const* rows, size_t n,
                            Scratch* scratch, double* out) const;

  /// Checked whole-batch probability scoring: validates row widths,
  /// resizes `out` to rows.size() (reusing capacity), and streams the
  /// batch block by block over a per-thread Scratch — zero steady-state
  /// allocation, safe for concurrent callers. An empty batch yields an
  /// empty output.
  [[nodiscard]] Status ScoreRows(const std::vector<std::vector<double>>& rows,
                                 std::vector<double>* out) const;

 private:
  Scratch* LocalScratch() const;

  CompiledPlan plan_;
  gbdt::PackedForest forest_;
  double base_score_ = 0.0;
  gbdt::Objective objective_ = gbdt::Objective::kLogistic;
};

}  // namespace serve
}  // namespace safe
