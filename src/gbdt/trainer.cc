#include "src/gbdt/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace safe {
namespace gbdt {

namespace {

/// Fixed row-chunk grain for partitioning and gradient-sum reductions.
/// Depends only on the data, never on the pool size, so per-chunk partial
/// sums reduce in the same order at every thread count.
constexpr size_t kRowChunkGrain = 4096;

/// Split-search metrics, resolved once (FindBestSplit runs per node).
struct SplitMetrics {
  obs::Counter* nodes;
  obs::Counter* bins_scanned;
  obs::Counter* hist_subtractions;
  obs::Histogram* hist_build_us;

  static const SplitMetrics& Get() {
    static const SplitMetrics metrics = [] {
      obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
      return SplitMetrics{
          registry->counter("gbdt.split_nodes"),
          registry->counter("gbdt.split_bins_scanned"),
          registry->counter("gbdt.hist_subtractions"),
          registry->histogram("gbdt.hist_build_us",
                              obs::DefaultLatencyBucketsUs())};
    }();
    return metrics;
  }
};

double LeafObjective(double g, double h, double lambda) {
  return (g * g) / (h + lambda);
}

}  // namespace

NodeHistograms TreeTrainer::BuildHistograms(
    const std::vector<double>& grad, const std::vector<double>& hess,
    const std::vector<size_t>& rows,
    const std::vector<int>& features) const {
  const SplitMetrics& metrics = SplitMetrics::Get();
  NodeHistograms hist(features.size());
  ParallelFor(pool_, 0, features.size(), [&](size_t i) {
    const uint64_t start_ns = obs::NowNanos();
    const size_t f = static_cast<size_t>(features[i]);
    auto& cells = hist[i];
    cells.assign(matrix_->num_cells(f), GradHistBin{});
    // Node row lists are ascending within each fixed chunk, so a cursor
    // re-pins each spilled row group at most once per pass.
    ChunkedCursor<uint16_t> bins = matrix_->bins[f].cursor();
    for (size_t r : rows) {
      GradHistBin& hb = cells[bins.At(r)];
      hb.grad += grad[r];
      hb.hess += hess[r];
    }
    const double elapsed_us =
        static_cast<double>(obs::NowNanos() - start_ns) / 1e3;
    metrics.hist_build_us->Observe(elapsed_us);
    // Per-thread build timings: each worker reports into its own series.
    obs::PerThreadHistogram("gbdt.hist_build_us",
                            obs::DefaultLatencyBucketsUs())
        ->Observe(elapsed_us);
  });
  return hist;
}

void TreeTrainer::SubtractHistograms(NodeHistograms* parent,
                                     const NodeHistograms& child) const {
  SplitMetrics::Get().hist_subtractions->Increment();
  ParallelFor(pool_, 0, parent->size(), [&](size_t i) {
    auto& p = (*parent)[i];
    const auto& c = child[i];
    for (size_t b = 0; b < p.size(); ++b) {
      p[b].grad -= c[b].grad;
      p[b].hess -= c[b].hess;
    }
  });
}

TreeTrainer::SplitCandidate TreeTrainer::FindBestSplit(
    const NodeHistograms& hist, const std::vector<int>& features,
    double sum_grad, double sum_hess) const {
  const double lambda = params_->reg_lambda;
  const double parent_obj = LeafObjective(sum_grad, sum_hess, lambda);

  const SplitMetrics& metrics = SplitMetrics::Get();
  metrics.nodes->Increment();

  // Each candidate feature is scanned independently; the per-feature
  // winners are then reduced in candidate-list order below.
  std::vector<SplitCandidate> candidates(features.size());
  ParallelFor(pool_, 0, features.size(), [&](size_t i) {
    const int f = features[i];
    const auto& edges = matrix_->edges[static_cast<size_t>(f)].edges;
    const auto& cells = hist[i];
    SplitCandidate best;
    const size_t missing_bin =
        matrix_->edges[static_cast<size_t>(f)].missing_bin();
    const double miss_g = cells[missing_bin].grad;
    const double miss_h = cells[missing_bin].hess;

    if (edges.empty()) {
      // Feature is constant over its non-missing values, but the
      // missing-vs-present partition itself may carry signal: split with
      // threshold +inf (all values left) and missing routed right.
      const double lg = sum_grad - miss_g;
      const double lh = sum_hess - miss_h;
      if (lh >= params_->min_child_weight &&
          miss_h >= params_->min_child_weight) {
        const double gain = 0.5 * (LeafObjective(lg, lh, lambda) +
                                   LeafObjective(miss_g, miss_h, lambda) -
                                   parent_obj) -
                            params_->min_split_gain;
        if (gain > best.gain + 1e-12) {
          best.gain = gain;
          best.feature = f;
          best.bin = 0;
          best.missing_left = false;
        }
      }
      candidates[i] = best;
      return;
    }

    // Scan split points: bins <= b left. Try missing on each side.
    double left_g = 0.0;
    double left_h = 0.0;
    for (size_t b = 0; b < edges.size(); ++b) {
      left_g += cells[b].grad;
      left_h += cells[b].hess;
      for (int miss_left = 0; miss_left < 2; ++miss_left) {
        const double lg = left_g + (miss_left ? miss_g : 0.0);
        const double lh = left_h + (miss_left ? miss_h : 0.0);
        const double rg = sum_grad - lg;
        const double rh = sum_hess - lh;
        if (lh < params_->min_child_weight ||
            rh < params_->min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (LeafObjective(lg, lh, lambda) +
                                   LeafObjective(rg, rh, lambda) -
                                   parent_obj) -
                            params_->min_split_gain;
        if (gain > best.gain + 1e-12) {
          best.gain = gain;
          best.feature = f;
          best.bin = b;
          best.missing_left = miss_left != 0;
        }
      }
    }
    candidates[i] = best;
  });

  // Ordered reduction: always compare winners in candidate-list order so
  // the chosen split is independent of which scan finished first.
  SplitCandidate best;
  uint64_t bins_scanned = 0;
  for (size_t i = 0; i < features.size(); ++i) {
    bins_scanned += matrix_->edges[static_cast<size_t>(features[i])]
                        .edges.size();
    const SplitCandidate& cand = candidates[i];
    if (cand.valid() && cand.gain > best.gain + 1e-12) {
      best = cand;
    }
  }
  metrics.bins_scanned->Increment(bins_scanned);
  return best;
}

RegressionTree TreeTrainer::Train(const std::vector<double>& grad,
                                  const std::vector<double>& hess,
                                  const std::vector<size_t>& rows,
                                  const std::vector<int>& features,
                                  std::vector<double>* margins) const {
  struct NodeTask {
    int node_index;
    size_t depth;
    std::vector<size_t> rows;
    double sum_grad;
    double sum_hess;
    /// Histograms inherited from the split that created this node
    /// (built for the smaller child, derived by subtraction for the
    /// larger); empty when the node was known to become a leaf.
    NodeHistograms hist;
  };

  std::vector<TreeNode> nodes;
  nodes.emplace_back();

  // Root gradient sums, reduced over fixed row chunks in chunk order.
  double root_g = 0.0;
  double root_h = 0.0;
  {
    const size_t num_chunks = NumFixedChunks(rows.size(), kRowChunkGrain);
    std::vector<double> part_g(num_chunks, 0.0);
    std::vector<double> part_h(num_chunks, 0.0);
    ParallelForChunks(pool_, 0, rows.size(), kRowChunkGrain,
                      [&](size_t c, size_t lo, size_t hi) {
                        double g = 0.0;
                        double h = 0.0;
                        for (size_t i = lo; i < hi; ++i) {
                          g += grad[rows[i]];
                          h += hess[rows[i]];
                        }
                        part_g[c] = g;
                        part_h[c] = h;
                      });
    for (size_t c = 0; c < num_chunks; ++c) {
      root_g += part_g[c];
      root_h += part_h[c];
    }
  }

  std::vector<NodeTask> stack;
  stack.push_back(NodeTask{0, 0, rows, root_g, root_h, {}});

  const double lambda = params_->reg_lambda;
  const double lr = params_->learning_rate;

  // Flight-recorder view of every histogram build, tagged with the tree
  // depth it serves so traces show the per-depth cost decay as sibling
  // subtraction kicks in.
  auto build_hist_at_depth = [&](const std::vector<size_t>& node_rows,
                                 size_t depth) {
    SAFE_FR_SCOPE("gbdt.build_histograms");
    SAFE_FR_COUNTER("gbdt.hist_depth", static_cast<double>(depth));
    return BuildHistograms(grad, hess, node_rows, features);
  };

  while (!stack.empty()) {
    NodeTask task = std::move(stack.back());
    stack.pop_back();

    // The leaf's rows are exactly the rows a traversal of the finished
    // tree sends here: bin <= split.bin holds iff v <= edges[split.bin],
    // the node's threshold, and the missing bin follows default_left as
    // isnan does (DESIGN.md §9). So the margin update reads no column.
    auto make_leaf = [&]() {
      const double value = -lr * task.sum_grad / (task.sum_hess + lambda);
      nodes[static_cast<size_t>(task.node_index)].value = value;
      for (size_t r : task.rows) (*margins)[r] += value;
    };

    if (task.depth >= params_->max_depth || task.rows.size() < 2) {
      make_leaf();
      continue;
    }
    if (task.hist.empty()) {
      task.hist = build_hist_at_depth(task.rows, task.depth);
    }
    SplitCandidate split =
        FindBestSplit(task.hist, features, task.sum_grad, task.sum_hess);
    if (!split.valid() || split.gain <= 0.0) {
      make_leaf();
      continue;
    }

    const size_t f = static_cast<size_t>(split.feature);
    const BinnedColumn& split_bins = matrix_->bins[f];
    const size_t missing_bin = matrix_->edges[f].missing_bin();

    // Partition rows over fixed chunks; concatenating the per-chunk
    // pieces in chunk order preserves row order, and the left-side
    // gradient sums reduce in the same order at every thread count.
    const size_t num_chunks =
        NumFixedChunks(task.rows.size(), kRowChunkGrain);
    std::vector<std::vector<size_t>> left_parts(num_chunks);
    std::vector<std::vector<size_t>> right_parts(num_chunks);
    std::vector<double> part_g(num_chunks, 0.0);
    std::vector<double> part_h(num_chunks, 0.0);
    ParallelForChunks(
        pool_, 0, task.rows.size(), kRowChunkGrain,
        [&](size_t c, size_t lo, size_t hi) {
          auto& left = left_parts[c];
          auto& right = right_parts[c];
          // Per-chunk cursor: each worker pins its own window.
          ChunkedCursor<uint16_t> bins = split_bins.cursor();
          double g = 0.0;
          double h = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            const size_t r = task.rows[i];
            const size_t b = bins.At(r);
            const bool go_left =
                (b == missing_bin) ? split.missing_left : (b <= split.bin);
            if (go_left) {
              left.push_back(r);
              g += grad[r];
              h += hess[r];
            } else {
              right.push_back(r);
            }
          }
          part_g[c] = g;
          part_h[c] = h;
        });
    std::vector<size_t> left_rows;
    std::vector<size_t> right_rows;
    double left_g = 0.0;
    double left_h = 0.0;
    for (size_t c = 0; c < num_chunks; ++c) {
      left_rows.insert(left_rows.end(), left_parts[c].begin(),
                       left_parts[c].end());
      right_rows.insert(right_rows.end(), right_parts[c].begin(),
                        right_parts[c].end());
      left_g += part_g[c];
      left_h += part_h[c];
    }
    if (left_rows.empty() || right_rows.empty()) {
      // Degenerate split (can happen when all mass is in the missing bin).
      make_leaf();
      continue;
    }

    const int left_index = static_cast<int>(nodes.size());
    nodes.emplace_back();
    const int right_index = static_cast<int>(nodes.size());
    nodes.emplace_back();

    TreeNode& node = nodes[static_cast<size_t>(task.node_index)];
    node.left = left_index;
    node.right = right_index;
    node.feature = split.feature;
    // An empty edge list marks the missing-vs-present split: +inf sends
    // every non-missing value left, the default direction routes NaN.
    node.threshold = matrix_->edges[f].edges.empty()
                         ? std::numeric_limits<double>::infinity()
                         : matrix_->edges[f].edges[split.bin];
    node.gain = split.gain;
    node.default_left = split.missing_left;

    // Children that can still split inherit histograms: build the
    // smaller sibling directly, derive the larger as parent − smaller.
    // Which child counts as "smaller" depends only on row counts, so the
    // choice — and therefore the arithmetic — is thread-count invariant.
    const size_t child_depth = task.depth + 1;
    const bool left_needs = child_depth < params_->max_depth &&
                            left_rows.size() >= 2;
    const bool right_needs = child_depth < params_->max_depth &&
                             right_rows.size() >= 2;
    NodeHistograms left_hist;
    NodeHistograms right_hist;
    if (left_needs && right_needs) {
      const bool left_smaller = left_rows.size() <= right_rows.size();
      NodeHistograms small_hist = build_hist_at_depth(
          left_smaller ? left_rows : right_rows, child_depth);
      SubtractHistograms(&task.hist, small_hist);
      if (left_smaller) {
        left_hist = std::move(small_hist);
        right_hist = std::move(task.hist);
      } else {
        right_hist = std::move(small_hist);
        left_hist = std::move(task.hist);
      }
    } else if (left_needs) {
      left_hist = build_hist_at_depth(left_rows, child_depth);
    } else if (right_needs) {
      right_hist = build_hist_at_depth(right_rows, child_depth);
    }

    stack.push_back(NodeTask{right_index, child_depth,
                             std::move(right_rows), task.sum_grad - left_g,
                             task.sum_hess - left_h, std::move(right_hist)});
    stack.push_back(NodeTask{left_index, child_depth, std::move(left_rows),
                             left_g, left_h, std::move(left_hist)});
  }
  return RegressionTree(std::move(nodes));
}

}  // namespace gbdt
}  // namespace safe
