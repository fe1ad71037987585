#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"
#include "src/dataframe/dataframe.h"
#include "src/gbdt/params.h"

namespace safe {

namespace obs {
class JsonValue;
}  // namespace obs

/// \brief How candidate feature combinations are mined each iteration.
///
/// kTreePaths is SAFE proper; the others are the paper's comparison
/// points, which share the full selection pipeline (Section V-A1).
enum class MiningStrategy {
  kTreePaths,          ///< SAFE: combinations from shared GBDT paths
  kRandomPairs,        ///< RAND: random combinations of all features
  kSplitFeaturePairs,  ///< IMP: random combinations of split features
  kNonSplitPairs,      ///< ablation: combinations of non-split features
};

/// \brief Hyper-parameters of the SAFE engine (paper Alg. 1).
struct SafeParams {
  /// nIter: outer iterations (the paper's benchmark runs use 1).
  size_t num_iterations = 1;
  /// tIter: wall-clock budget in seconds; iteration loop stops once spent.
  double time_budget_seconds = std::numeric_limits<double>::infinity();

  /// XGBoost used to mine combination relations (K1, D1 in Section IV-D).
  gbdt::GbdtParams miner;
  /// XGBoost used to rank candidate importance (K2, D2).
  gbdt::GbdtParams ranker;

  /// γ: combinations kept after gain-ratio ranking; 0 = min(4·M, 1000)
  /// (auto; the cap keeps the very wide datasets, e.g. gina's M = 970,
  /// from swamping the selection stage for the random strategies).
  size_t gamma = 0;
  /// Largest combination size (2 = binary operators only, as in Section V).
  size_t max_arity = 2;
  /// Operator names drawn from the registry; Section V uses {+,−,×,÷}.
  std::vector<std::string> operator_names = {"add", "sub", "mul", "div"};

  /// α: IV floor (Alg. 3; Table I medium-predictor boundary).
  double iv_threshold = 0.1;
  /// β: equal-frequency bins for IV.
  size_t iv_bins = 10;
  /// θ: Pearson redundancy ceiling (Alg. 4; Table II boundary).
  double pearson_threshold = 0.8;
  /// Final feature cap per iteration; 0 = 2·M (the paper's setting).
  size_t max_output_features = 0;

  /// Worker threads for the whole pipeline — one knob controls the GBDT
  /// boosters *and* every engine stage (combination mining/ranking,
  /// feature generation, the IV filter, Pearson redundancy removal).
  /// 0 = the shared process-wide pool, 1 = fully serial, k > 1 = a
  /// dedicated k-worker pool for this fit; when nonzero it also
  /// overrides miner/ranker GbdtParams::n_threads. The fitted plan is
  /// bit-identical at any setting — work partitioning is fixed by the
  /// data and every ordering decision uses an explicit total order
  /// (DESIGN.md, "Parallel training & determinism" and "Engine
  /// parallelism & determinism").
  size_t n_threads = 0;

  MiningStrategy strategy = MiningStrategy::kTreePaths;
  uint64_t seed = 42;

  SafeParams() {
    miner.num_trees = 20;
    miner.max_depth = 4;
    ranker.num_trees = 20;
    ranker.max_depth = 4;
  }
};

/// \brief What one pipeline stage inside an iteration cost.
/// `start_seconds` is the offset from the iteration start, so stages of
/// an iteration are non-overlapping and monotonically ordered. The CPU
/// and spill figures are process-wide deltas over the stage, so they
/// include anything else the process ran meanwhile.
struct StageTiming {
  std::string stage;
  double start_seconds = 0.0;
  double seconds = 0.0;
  /// Process CPU seconds, user plus system over every thread.
  double cpu_seconds = 0.0;
  /// Bytes faulted back from, and written out to, spill files (the
  /// `dataframe.spill.read_bytes` / `write_bytes` counters).
  uint64_t spill_read_bytes = 0;
  uint64_t spill_write_bytes = 0;
  /// The process's RSS high-water mark at the stage's end.
  uint64_t peak_rss_bytes = 0;
};

/// \brief Per-iteration funnel counts (how many features each stage kept)
/// plus per-stage wall-clock timings.
struct IterationDiagnostics {
  size_t num_paths = 0;
  size_t num_combinations = 0;
  size_t num_generated = 0;
  size_t num_candidates = 0;
  size_t num_after_iv = 0;
  size_t num_after_redundancy = 0;
  size_t num_selected = 0;
  double seconds = 0.0;
  std::vector<StageTiming> stages;
};

/// Serializes iteration diagnostics for RunReport (obs/report.h): an
/// array with every IterationDiagnostics field plus the stage timeline.
obs::JsonValue IterationDiagnosticsToJson(
    const std::vector<IterationDiagnostics>& iterations);

/// \brief Output of SafeEngine::Fit: the learned Ψ plus diagnostics.
struct SafeFitResult {
  FeaturePlan plan;
  std::vector<IterationDiagnostics> iterations;
};

/// \brief The SAFE automatic-feature-engineering engine (paper Alg. 1):
/// iteratively (1) mines promising feature combinations from GBDT paths,
/// (2) generates new features by applying operators to them, and
/// (3) selects survivors through the IV → Pearson → importance pipeline.
class SafeEngine {
 public:
  explicit SafeEngine(SafeParams params)
      : SafeEngine(std::move(params), OperatorRegistry::Default()) {}
  SafeEngine(SafeParams params, OperatorRegistry registry)
      : params_(std::move(params)), registry_(std::move(registry)) {}

  /// Learns Ψ from training data. `valid` is optional and only consulted
  /// by the internal boosters (e.g. early stopping when configured).
  [[nodiscard]] Result<SafeFitResult> Fit(const Dataset& train,
                            const Dataset* valid = nullptr) const;

  const SafeParams& params() const { return params_; }
  const OperatorRegistry& registry() const { return registry_; }

 private:
  SafeParams params_;
  OperatorRegistry registry_;
};

}  // namespace safe
