#include "src/gbdt/booster.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <sstream>

#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/gbdt/exact_trainer.h"
#include "src/gbdt/loss.h"
#include "src/gbdt/quantizer.h"
#include "src/gbdt/trainer.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace safe {
namespace gbdt {

namespace {

obs::Counter* TreesTrainedCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global()->counter("gbdt.trees_trained");
  return counter;
}

obs::Counter* FitsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global()->counter("gbdt.fits");
  return counter;
}

obs::Histogram* TreeFitHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global()->histogram(
          "gbdt.tree_fit_us", obs::DefaultLatencyBucketsUs());
  return histogram;
}

/// Fixed row grain for margin/prediction updates; like the trainer's row
/// chunks, it depends only on the data so results are thread-count
/// invariant (each row is written independently anyway).
constexpr size_t kPredictRowGrain = 2048;

/// Sorted distinct split features of `trees`: the only columns their
/// traversal reads, so the only ones its FrameWindow pins.
std::vector<size_t> SplitColumns(std::span<const RegressionTree> trees) {
  std::vector<size_t> columns;
  for (const auto& tree : trees) {
    for (const auto& node : tree.nodes()) {
      if (!node.is_leaf()) {
        columns.push_back(static_cast<size_t>(node.feature));
      }
    }
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

/// Tree traversal over a pinned row window for one row index.
double PredictTreeOnWindow(const RegressionTree& tree,
                           const FrameWindow& window, size_t row) {
  const auto& nodes = tree.nodes();
  if (nodes.empty()) return 0.0;
  int idx = 0;
  while (!nodes[static_cast<size_t>(idx)].is_leaf()) {
    const TreeNode& node = nodes[static_cast<size_t>(idx)];
    const double v = window.at(row, static_cast<size_t>(node.feature));
    if (std::isnan(v)) {
      idx = node.default_left ? node.left : node.right;
    } else {
      idx = (v <= node.threshold) ? node.left : node.right;
    }
  }
  return nodes[static_cast<size_t>(idx)].value;
}

/// Adds each tree's leaf value, in tree order, to margins[r] for every r
/// in the ascending list `rows`, or for every row of `x` when `rows` is
/// null. Rows go out in kPredictRowGrain chunks (the grain divides every
/// legal row-group size), so each chunk's window pins one row group per
/// chunked split column and traversal stays allocation-free; a chunk
/// holding none of `rows` pins nothing. Each row is written by one task
/// only, so the result is exact at any thread count.
void AddTreeMargins(std::span<const RegressionTree> trees, const DataFrame& x,
                    const std::vector<size_t>* rows, ThreadPool* pool,
                    std::vector<double>* margins) {
  const std::vector<size_t> columns = SplitColumns(trees);
  ParallelForChunks(
      pool, 0, x.num_rows(), kPredictRowGrain,
      [&](size_t, size_t lo, size_t hi) {
        std::span<const size_t> subset;  // this chunk's slice of `rows`
        if (rows != nullptr) {
          const auto first = std::lower_bound(rows->begin(), rows->end(), lo);
          subset = {first, std::lower_bound(first, rows->end(), hi)};
          if (subset.empty()) return;
        }
        FrameWindow window(x, columns, lo, hi);
        auto add = [&](size_t r) {
          for (const auto& tree : trees) {
            (*margins)[r] += PredictTreeOnWindow(tree, window, r);
          }
        };
        if (rows == nullptr) {
          for (size_t r = lo; r < hi; ++r) add(r);
        } else {
          for (size_t r : subset) add(r);
        }
      });
}

}  // namespace

Result<Booster> Booster::Fit(const Dataset& train, const Dataset* valid,
                             const GbdtParams& params) {
  const size_t n = train.num_rows();
  const size_t m = train.x.num_columns();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("gbdt: empty training data");
  }
  if (train.y == nullptr || train.y->size() != n) {
    return Status::InvalidArgument("gbdt: label size mismatch");
  }
  if (params.num_trees == 0) {
    return Status::InvalidArgument("gbdt: num_trees must be > 0");
  }
  if (params.learning_rate <= 0.0) {
    return Status::InvalidArgument("gbdt: learning_rate must be > 0");
  }
  if (params.early_stopping_rounds > 0 && valid == nullptr) {
    return Status::InvalidArgument(
        "gbdt: early stopping requires a validation set");
  }
  if (valid != nullptr && valid->x.num_columns() != m) {
    return Status::InvalidArgument("gbdt: valid column count mismatch");
  }
  if (params.tree_method == TreeMethod::kExact &&
      train.x.HasChunkedColumns()) {
    // The exact trainer pre-sorts whole columns in place; only the
    // histogram path streams over row groups.
    return Status::InvalidArgument(
        "gbdt: tree_method=exact requires resident (non-chunked) columns");
  }

  SAFE_FR_SCOPE("gbdt.fit");
  FitsCounter()->Increment();

  // Worker pool for this fit: 0 = the shared process-wide pool, 1 =
  // serial (pool stays null), k > 1 = a dedicated pool. The trained model
  // is bit-identical across all three (see DESIGN.md).
  PoolSelection pool_selection = ResolvePool(params.n_threads);
  ThreadPool* pool = pool_selection.pool;
  obs::MetricsRegistry::Global()->gauge("gbdt.n_threads")->Set(
      static_cast<double>(pool_selection.num_threads()));

  // Histogram path quantizes up front; the exact path pre-sorts columns.
  BinnedMatrix matrix;
  if (params.tree_method == TreeMethod::kHist) {
    SAFE_FR_SCOPE("gbdt.quantize");
    SAFE_ASSIGN_OR_RETURN(
        FeatureQuantizer quantizer,
        FeatureQuantizer::Fit(train.x, params.max_bins, pool));
    SAFE_ASSIGN_OR_RETURN(matrix, quantizer.Transform(train.x, pool));
  }

  Booster model;
  model.num_features_ = m;
  model.objective_ = params.objective;
  model.base_score_ = BaseScore(params.objective, *train.y);

  std::vector<double> margins(n, model.base_score_);
  // Validation margins feed early stopping and nothing else.
  const bool early_stopping = params.early_stopping_rounds > 0;
  std::vector<double> valid_margins;
  if (early_stopping) {
    valid_margins.assign(valid->num_rows(), model.base_score_);
  }

  std::vector<double> grad;
  std::vector<double> hess;
  Rng rng(params.seed);
  TreeTrainer hist_trainer(&matrix, &params, pool);
  ExactTreeTrainer exact_trainer(
      params.tree_method == TreeMethod::kExact ? &train.x : nullptr,
      &params);

  double best_valid_loss = std::numeric_limits<double>::infinity();
  size_t best_iter = 0;

  std::vector<int> all_features(m);
  for (size_t f = 0; f < m; ++f) all_features[f] = static_cast<int>(f);

  for (size_t round = 0; round < params.num_trees; ++round) {
    SAFE_FR_SCOPE("gbdt.train_tree");
    const uint64_t tree_start_ns = obs::NowNanos();
    ComputeGradients(params.objective, margins, *train.y, &grad, &hess,
                     pool);

    // Row subsampling; `unsampled` holds the rows this tree does not see.
    std::vector<size_t> rows;
    std::vector<size_t> unsampled;
    if (params.subsample >= 1.0) {
      rows.resize(n);
      for (size_t i = 0; i < n; ++i) rows[i] = i;
    } else {
      rows.reserve(static_cast<size_t>(params.subsample * n) + 1);
      for (size_t i = 0; i < n; ++i) {
        (rng.NextBernoulli(params.subsample) ? rows : unsampled).push_back(i);
      }
      if (rows.empty()) {
        // Nothing was sampled, so `unsampled` is [0, n): move one row over.
        const size_t pick = rng.NextUint64Below(n);
        rows.push_back(pick);
        unsampled.erase(unsampled.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }

    // Column subsampling.
    std::vector<int> features;
    if (params.colsample_bytree >= 1.0) {
      features = all_features;
    } else {
      size_t k = std::max<size_t>(
          1, static_cast<size_t>(params.colsample_bytree * m));
      for (size_t idx : rng.SampleWithoutReplacement(m, k)) {
        features.push_back(static_cast<int>(idx));
      }
      std::sort(features.begin(), features.end());
    }

    // The trainer adds each leaf's value to the margins of the rows it
    // partitions there, so only the rows it did not see are traversed.
    RegressionTree tree =
        params.tree_method == TreeMethod::kExact
            ? exact_trainer.Train(grad, hess, rows, features, &margins)
            : hist_trainer.Train(grad, hess, rows, features, &margins);
    if (!unsampled.empty()) {
      AddTreeMargins({&tree, 1}, train.x, &unsampled, pool, &margins);
    }
    model.trees_.push_back(std::move(tree));
    model.best_iteration_ = model.trees_.size() - 1;
    TreesTrainedCounter()->Increment();
    TreeFitHistogram()->Observe(
        static_cast<double>(obs::NowNanos() - tree_start_ns) / 1e3);

    if (early_stopping) {
      AddTreeMargins({&model.trees_.back(), 1}, valid->x, nullptr, pool,
                     &valid_margins);
      const double loss =
          ComputeLoss(params.objective, valid_margins, *valid->y);
      if (loss + 1e-12 < best_valid_loss) {
        best_valid_loss = loss;
        best_iter = round;
      } else if (round - best_iter >= params.early_stopping_rounds) {
        model.trees_.resize(best_iter + 1);
        model.best_iteration_ = best_iter;
        break;
      }
    }
  }
  return model;
}

Result<std::vector<double>> Booster::PredictMargin(const DataFrame& x) const {
  if (x.num_columns() != num_features_) {
    return Status::InvalidArgument(
        "gbdt predict: expected " + std::to_string(num_features_) +
        " features, got " + std::to_string(x.num_columns()));
  }
  // Batch inference fans rows out over the shared pool.
  std::vector<double> margins(x.num_rows(), base_score_);
  AddTreeMargins(trees_, x, nullptr, ThreadPool::Global(), &margins);
  return margins;
}

Result<std::vector<double>> Booster::PredictProba(const DataFrame& x) const {
  SAFE_ASSIGN_OR_RETURN(std::vector<double> margins, PredictMargin(x));
  for (double& v : margins) v = TransformMargin(objective_, v);
  return margins;
}

double Booster::PredictRowMargin(const std::vector<double>& row) const {
  SAFE_CHECK(row.size() == num_features_);
  double margin = base_score_;
  for (const auto& tree : trees_) margin += tree.PredictRow(row);
  return margin;
}

double Booster::PredictRowProba(const std::vector<double>& row) const {
  return TransformMargin(objective_, PredictRowMargin(row));
}

std::vector<TreePath> Booster::ExtractAllPaths() const {
  std::vector<TreePath> paths;
  for (const auto& tree : trees_) {
    auto tree_paths = tree.ExtractPaths();
    paths.insert(paths.end(), std::make_move_iterator(tree_paths.begin()),
                 std::make_move_iterator(tree_paths.end()));
  }
  return paths;
}

std::vector<int> Booster::SplitFeatures() const {
  const std::vector<size_t> columns = SplitColumns(trees_);
  return std::vector<int>(columns.begin(), columns.end());
}

std::vector<FeatureImportance> Booster::FeatureImportances() const {
  std::map<int, FeatureImportance> by_feature;
  for (const auto& tree : trees_) {
    for (const auto& node : tree.nodes()) {
      if (node.is_leaf()) continue;
      FeatureImportance& fi = by_feature[node.feature];
      fi.feature = node.feature;
      fi.total_gain += node.gain;
      fi.num_splits += 1;
    }
  }
  std::vector<FeatureImportance> out;
  out.reserve(by_feature.size());
  for (auto& [feature, fi] : by_feature) {
    fi.avg_gain = fi.total_gain / static_cast<double>(fi.num_splits);
    out.push_back(fi);
  }
  std::sort(out.begin(), out.end(),
            [](const FeatureImportance& a, const FeatureImportance& b) {
              if (a.avg_gain != b.avg_gain) return a.avg_gain > b.avg_gain;
              return a.feature < b.feature;
            });
  return out;
}

std::string Booster::Serialize() const {
  std::ostringstream out;
  out << "booster v1\n";
  out << "objective "
      << (objective_ == Objective::kLogistic ? "logistic" : "squared")
      << "\n";
  out << "num_features " << num_features_ << "\n";
  out << "base_score " << FormatDoubleExact(base_score_) << "\n";
  out << "num_trees " << trees_.size() << "\n";
  for (const auto& tree : trees_) out << tree.Serialize();
  return out.str();
}

Result<Booster> Booster::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  std::string version;
  in >> tag >> version;
  if (!in || tag != "booster" || version != "v1") {
    return Status::InvalidArgument("booster deserialize: bad header");
  }
  Booster model;
  std::string key;
  std::string objective;
  size_t num_trees = 0;
  in >> key >> objective;
  if (!in || key != "objective") {
    return Status::InvalidArgument("booster deserialize: missing objective");
  }
  if (objective == "logistic") {
    model.objective_ = Objective::kLogistic;
  } else if (objective == "squared") {
    model.objective_ = Objective::kSquared;
  } else {
    return Status::InvalidArgument(
        "booster deserialize: unknown objective '" + objective + "'");
  }
  in >> key >> model.num_features_;
  if (!in || key != "num_features") {
    return Status::InvalidArgument(
        "booster deserialize: missing num_features");
  }
  in >> key >> model.base_score_;
  if (!in || key != "base_score") {
    return Status::InvalidArgument("booster deserialize: missing base_score");
  }
  in >> key >> num_trees;
  if (!in || key != "num_trees") {
    return Status::InvalidArgument("booster deserialize: missing num_trees");
  }
  // Each tree block: "tree <n>" then n node lines (7 fields per line).
  for (size_t t = 0; t < num_trees; ++t) {
    std::string tree_tag;
    size_t node_count = 0;
    in >> tree_tag >> node_count;
    if (!in || tree_tag != "tree") {
      return Status::InvalidArgument("booster deserialize: bad tree block " +
                                     std::to_string(t));
    }
    std::ostringstream block;
    block << "tree " << node_count << "\n";
    for (size_t i = 0; i < node_count; ++i) {
      std::string fields[7];
      for (auto& f : fields) {
        in >> f;
        if (!in) {
          return Status::InvalidArgument(
              "booster deserialize: truncated tree " + std::to_string(t));
        }
        block << f << " ";
      }
      block << "\n";
    }
    SAFE_ASSIGN_OR_RETURN(
        RegressionTree tree,
        RegressionTree::Deserialize(block.str(), model.num_features_));
    model.trees_.push_back(std::move(tree));
  }
  model.best_iteration_ = model.trees_.empty() ? 0 : model.trees_.size() - 1;
  return model;
}

}  // namespace gbdt
}  // namespace safe
