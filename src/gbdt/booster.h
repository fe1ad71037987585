#pragma once

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/dataframe/dataframe.h"
#include "src/gbdt/params.h"
#include "src/gbdt/tree.h"

namespace safe {
namespace gbdt {

/// \brief Gain-based importance of one feature, aggregated over every
/// split in the ensemble. SAFE ranks candidate features by `avg_gain`
/// ("the average gain across all splits in which the feature is used",
/// paper Section IV-C3).
struct FeatureImportance {
  int feature = -1;
  double total_gain = 0.0;
  size_t num_splits = 0;
  double avg_gain = 0.0;
};

/// \brief A gradient-boosted tree ensemble (XGBoost-style, histogram
/// split finding, second-order updates).
///
/// Doubles as (a) the combination miner of SAFE's generation stage (via
/// ExtractAllPaths), (b) the importance ranker of its selection stage, and
/// (c) the strongest evaluation classifier of the paper's Table III.
class Booster {
 public:
  Booster() = default;

  /// Trains an ensemble. `valid` may be null; it is read only for early
  /// stopping, which requires it.
  [[nodiscard]] static Result<Booster> Fit(const Dataset& train, const Dataset* valid,
                             const GbdtParams& params);

  /// Raw additive margins for a frame (column count must match training).
  [[nodiscard]] Result<std::vector<double>> PredictMargin(const DataFrame& x) const;

  /// Margins passed through the objective's link (sigmoid for logistic).
  [[nodiscard]] Result<std::vector<double>> PredictProba(const DataFrame& x) const;

  /// Single dense row (real-time inference path).
  double PredictRowMargin(const std::vector<double>& row) const;
  double PredictRowProba(const std::vector<double>& row) const;

  /// Every root→leaf path of every tree (paper's P = {p_1..p_k}).
  std::vector<TreePath> ExtractAllPaths() const;

  /// Distinct feature indices used as split features anywhere.
  std::vector<int> SplitFeatures() const;

  /// Per-feature gain importance, sorted by avg_gain descending.
  /// Features never used to split are omitted.
  std::vector<FeatureImportance> FeatureImportances() const;

  const std::vector<RegressionTree>& trees() const { return trees_; }
  size_t num_features() const { return num_features_; }
  double base_score() const { return base_score_; }
  Objective objective() const { return objective_; }
  /// Index of the best iteration when early stopping fired, else the last.
  size_t best_iteration() const { return best_iteration_; }

  std::string Serialize() const;
  [[nodiscard]] static Result<Booster> Deserialize(const std::string& text);

 private:
  std::vector<RegressionTree> trees_;
  size_t num_features_ = 0;
  double base_score_ = 0.0;
  Objective objective_ = Objective::kLogistic;
  size_t best_iteration_ = 0;
};

}  // namespace gbdt
}  // namespace safe
