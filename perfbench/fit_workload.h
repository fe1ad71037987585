#pragma once

// The fit half of every workload: SafeEngine::Fit timed end to end, and a
// traced replay of the same fit that calls each pipeline layer's public
// function through the LayerLedger.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/ledger.h"
#include "src/common/result.h"
#include "src/core/engine.h"
#include "src/data/synthetic.h"

namespace perfbench {

/// A training set, resident or spilled into its own pool, and the rows
/// held out of it for the serving phases.
struct FitData {
  std::shared_ptr<safe::SpillPool> pool;  ///< null for resident data
  safe::Dataset train;
  safe::Dataset held_out;  ///< always resident
};

/// Generates `spec` (whose own seed fixes the table and which `train_rows`
/// of its rows train; the rest are held out) and permutes the order of
/// both sets with `shuffle_seed`. With `spill`, the training columns move
/// into a fresh SpillPool whose resident budget is a quarter of their raw
/// bytes, backed by a file under `spill_dir`.
[[nodiscard]] safe::Result<FitData> MakeFitData(const safe::data::SyntheticSpec& spec,
                                                uint64_t shuffle_seed,
                                                size_t train_rows, bool spill,
                                                const std::string& spill_dir);

/// One SafeEngine::Fit, timed.
struct TimedFit {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU time (all threads) during the fit
  safe::FeaturePlan plan;
  std::string plan_text;
  safe::IterationDiagnostics diag;
};

[[nodiscard]] safe::Result<TimedFit> RunTimedFit(const safe::Dataset& train,
                                                 const safe::SafeParams& params);

/// What the traced replay produced: the selected feature names and the
/// funnel counts, for comparison with SafeEngine::Fit.
struct ReplayResult {
  double seconds = 0.0;
  std::vector<std::string> selected;
  safe::IterationDiagnostics diag;
};

/// Replays one SAFE iteration (paper Alg. 1, tree-path mining, no
/// validation set) through the public layer functions in the order and
/// with the seeds SafeEngine::Fit uses, each call wrapped by `ledger`.
[[nodiscard]] safe::Result<ReplayResult> RunReplay(
    const safe::Dataset& train, const safe::SafeParams& params,
    LayerLedger* ledger);

/// Times FeatureQuantizer::Fit + Transform over `train` as the layer
/// "gbdt.quantize" (a probe: it repeats work Booster::Fit also does).
[[nodiscard]] safe::Status RunQuantizeProbe(const safe::Dataset& train,
                                            const safe::SafeParams& params,
                                            LayerLedger* ledger);

/// Per-layer metrics of a replay: layer seconds, CPU ratios, spill
/// deltas, funnel counts and coverage (Σ layer time ÷ replay wall time).
void ReportFitLayers(const LayerLedger& ledger, const ReplayResult& replay,
                     Report* report);

}  // namespace perfbench
