#pragma once

#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"
#include "src/gbdt/booster.h"
#include "src/serve/batch_scorer.h"
#include "src/serve/compiled_plan.h"

namespace safe {
namespace serve {

/// \brief Fused low-latency scorer: compiled FeaturePlan program + GBDT
/// leaf traversal in one pass over a reusable scratch buffer
/// (DESIGN.md "Serving path").
///
/// A single-row front end over a shared BatchScorer: the row runs the
/// batch scorer's compiled program, then its PackedForest at n == 1 (the
/// forest's stepped walk) straight over the program's scratch slots. No
/// second copy of the plan or the trees exists.
///
/// Built once from a fitted plan and booster, then immutable — safe for
/// any number of concurrent callers. The convenience APIs (Score /
/// ScoreMargin / ScoreBatch) keep a per-thread Scratch internally, so the
/// steady-state path performs zero heap allocations; latency-critical
/// callers can instead hold their own Scratch and use the unchecked
/// ScoreRow* core.
///
/// Output contract: ScoreRow(row) is bit-identical to
/// booster.PredictRowProba(*plan.TransformRow(row)) — the interpreted
/// two-step path — for every row (serve_equivalence_test).
class RowScorer {
 public:
  /// Reusable per-caller buffers: the compiled plan's scratch slots (the
  /// forest reads its split features there) plus the transformed feature
  /// vector CompiledPlan::Execute gathers.
  struct Scratch {
    std::vector<double> slots;
    std::vector<double> features;
  };

  /// A placeholder to assign a Create result to; it holds no plan or
  /// forest, so no accessor or scoring call may run on it.
  RowScorer() = default;

  /// Builds the shared BatchScorer (compiled plan + packed forest). Fails
  /// like BatchScorer::Create: the booster's feature count differs from
  /// the plan's selected output count, or a tree references a feature
  /// outside that range.
  [[nodiscard]] static Result<RowScorer> Create(
      const FeaturePlan& plan, const gbdt::Booster& booster,
      const OperatorRegistry& registry);
  [[nodiscard]] static Result<RowScorer> Create(const FeaturePlan& plan,
                                                const gbdt::Booster& booster);

  size_t num_inputs() const { return plan().num_inputs(); }
  size_t num_features() const { return plan().num_outputs(); }
  const CompiledPlan& plan() const { return batch_->plan(); }
  /// The vectorized batch engine ScoreBatch and the row path share.
  const BatchScorer& batch() const { return *batch_; }

  Scratch MakeScratch() const;

  /// Allocation-free fused core: compiled program into scratch->slots,
  /// then the forest's single-row walk over those slots. `row` must hold
  /// num_inputs() doubles.
  double ScoreRowMargin(const double* row, Scratch* scratch) const;
  /// Margin passed through the objective's link (sigmoid for logistic).
  double ScoreRow(const double* row, Scratch* scratch) const;

  /// Checked single-row probability. Thread-safe: each calling thread
  /// reuses its own cached Scratch. Records serve.latency_us and
  /// serve.rows telemetry.
  [[nodiscard]] Result<double> Score(const std::vector<double>& row) const;
  [[nodiscard]] Result<double> ScoreMargin(
      const std::vector<double>& row) const;

  /// Checked micro-batch probability scoring through the vectorized
  /// BatchScorer (cache-blocked column panels + QuickScorer forest
  /// traversal), bit-identical to per-row Score for every batch size.
  /// `out` is resized to rows.size() (reusing its capacity), so a caller
  /// looping over batches allocates nothing in steady state. Thread-safe
  /// for concurrent callers. Records one serve.batch_latency_us
  /// observation and the true batch size into serve.batch_rows; the
  /// per-row serve.latency_us series is never touched.
  [[nodiscard]] Status ScoreBatch(const std::vector<std::vector<double>>& rows,
                                  std::vector<double>* out) const;

 private:
  Scratch* LocalScratch() const;

  // Shared (immutable) so copies of the scorer stay cheap; never null
  // after a successful Create.
  std::shared_ptr<const BatchScorer> batch_;
};

}  // namespace serve
}  // namespace safe
