#include "src/serve/batch_scorer.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/gbdt/loss.h"
#include "src/serve/block_panel.h"

namespace safe {
namespace serve {

Result<BatchScorer> BatchScorer::Create(const FeaturePlan& plan,
                                        const gbdt::Booster& booster,
                                        const OperatorRegistry& registry) {
  BatchScorer scorer;
  SAFE_ASSIGN_OR_RETURN(scorer.plan_, CompiledPlan::Compile(plan, registry));
  if (booster.num_features() != scorer.plan_.num_outputs()) {
    return Status::InvalidArgument(
        "batch scorer: booster expects " +
        std::to_string(booster.num_features()) + " features, plan produces " +
        std::to_string(scorer.plan_.num_outputs()));
  }
  // Remap forest split features to the panel slots the compiled program
  // writes, so block scoring traverses the panel directly.
  SAFE_ASSIGN_OR_RETURN(
      scorer.forest_,
      gbdt::PackedForest::Build(booster.trees(), booster.num_features(),
                                &scorer.plan_.selected_slots()));
  scorer.base_score_ = booster.base_score();
  scorer.objective_ = booster.objective();
  return scorer;
}

Result<BatchScorer> BatchScorer::Create(const FeaturePlan& plan,
                                        const gbdt::Booster& booster) {
  static const OperatorRegistry registry = OperatorRegistry::Default();
  return Create(plan, booster, registry);
}

BatchScorer::Scratch BatchScorer::MakeScratch() const {
  Scratch scratch;
  scratch.panels.resize(plan_.scratch_size() * kBlockRows);
  scratch.margins.resize(kBlockRows);
  return scratch;
}

void BatchScorer::ScoreBlockMargin(const std::vector<std::vector<double>>& rows,
                                   size_t begin, size_t n, Scratch* scratch,
                                   double* out) const {
  double* panels = scratch->panels.data();
  GatherBlock(rows, begin, n, plan_.num_inputs(), kBlockRows, panels);
  plan_.ExecuteBlock(panels, kBlockRows, n);
  double* margins = scratch->margins.data();
  // Same per-row accumulation sequence as Booster::PredictRowMargin: base
  // score first, then the trees in order (AccumulateMargins adds tree t
  // before tree t+1 for every lane).
  for (size_t i = 0; i < n; ++i) margins[i] = base_score_;
  forest_.AccumulateMargins(panels, kBlockRows, n, margins);
  for (size_t i = 0; i < n; ++i) out[i] = margins[i];
}

void BatchScorer::ScoreBlock(const std::vector<std::vector<double>>& rows,
                             size_t begin, size_t n, Scratch* scratch,
                             double* out) const {
  ScoreBlockMargin(rows, begin, n, scratch, out);
  for (size_t i = 0; i < n; ++i) {
    out[i] = gbdt::TransformMargin(objective_, out[i]);
  }
}

void BatchScorer::ScoreBlockMarginPtrs(const double* const* rows, size_t n,
                                       Scratch* scratch, double* out) const {
  // Panel stride n, not kBlockRows: a server cut is often one or a few
  // rows, and a compact panel keeps a lone row's slots adjacent (at
  // n == 1, RowScorer's slot layout) instead of kBlockRows lanes apart.
  double* panels = scratch->panels.data();
  GatherBlockPtrs(rows, n, plan_.num_inputs(), n, panels);
  plan_.ExecuteBlock(panels, n, n);
  double* margins = scratch->margins.data();
  for (size_t i = 0; i < n; ++i) margins[i] = base_score_;
  forest_.AccumulateMargins(panels, n, n, margins);
  for (size_t i = 0; i < n; ++i) out[i] = margins[i];
}

void BatchScorer::ScoreBlockPtrs(const double* const* rows, size_t n,
                                 Scratch* scratch, double* out) const {
  ScoreBlockMarginPtrs(rows, n, scratch, out);
  for (size_t i = 0; i < n; ++i) {
    out[i] = gbdt::TransformMargin(objective_, out[i]);
  }
}

BatchScorer::Scratch* BatchScorer::LocalScratch() const {
  // Per-thread scratch keyed by scorer identity — the same scheme as
  // RowScorer::LocalScratch, so one shared BatchScorer is race-free and
  // allocation-free in steady state under concurrent callers.
  thread_local std::vector<
      std::pair<const BatchScorer*, std::unique_ptr<Scratch>>>
      cache;
  for (auto& [key, scratch] : cache) {
    if (key == this) {
      // Guard against address reuse after another scorer's destruction.
      if (scratch->panels.size() != plan_.scratch_size() * kBlockRows) {
        *scratch = MakeScratch();
      }
      return scratch.get();
    }
  }
  cache.emplace_back(this, std::make_unique<Scratch>(MakeScratch()));
  return cache.back().second.get();
}

Status BatchScorer::ScoreRows(const std::vector<std::vector<double>>& rows,
                              std::vector<double>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("batch scorer: null output vector");
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != plan_.num_inputs()) {
      return Status::InvalidArgument(
          "batch scorer: row " + std::to_string(r) + " has " +
          std::to_string(rows[r].size()) + " values, expected " +
          std::to_string(plan_.num_inputs()));
    }
  }
  out->resize(rows.size());
  Scratch* scratch = LocalScratch();
  for (size_t begin = 0; begin < rows.size(); begin += kBlockRows) {
    const size_t n = std::min(kBlockRows, rows.size() - begin);
    ScoreBlock(rows, begin, n, scratch, out->data() + begin);
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace safe
