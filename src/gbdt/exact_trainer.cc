#include "src/gbdt/exact_trainer.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace safe {
namespace gbdt {

namespace {
double LeafObjective(double g, double h, double lambda) {
  return (g * g) / (h + lambda);
}
}  // namespace

ExactTreeTrainer::ExactTreeTrainer(const DataFrame* frame,
                                   const GbdtParams* params)
    : frame_(frame), params_(params) {
  if (frame_ == nullptr) return;  // idle instance (hist method selected)
  sorted_rows_.resize(frame_->num_columns());
  ParallelFor(0, frame_->num_columns(), [&](size_t f) {
    const auto& values = frame_->column(f).values();
    auto& order = sorted_rows_[f];
    order.reserve(values.size());
    for (uint32_t r = 0; r < values.size(); ++r) {
      if (!std::isnan(values[r])) order.push_back(r);
    }
    // Explicit total order: value, then row index. order[] starts in
    // ascending row order, so this matches the old stable_sort exactly.
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (values[a] != values[b]) return values[a] < values[b];
      return a < b;
    });
  });
}

ExactTreeTrainer::SplitCandidate ExactTreeTrainer::FindBestSplit(
    const std::vector<double>& grad, const std::vector<double>& hess,
    const std::vector<size_t>& rows, const std::vector<int>& features,
    double sum_grad, double sum_hess) const {
  SplitCandidate best;
  const double lambda = params_->reg_lambda;
  const double parent_obj = LeafObjective(sum_grad, sum_hess, lambda);

  // Node membership mask over the full dataset.
  std::vector<char> in_node(frame_->num_rows(), 0);
  for (size_t r : rows) in_node[r] = 1;

  for (int f : features) {
    const auto& values = frame_->column(static_cast<size_t>(f)).values();
    const auto& order = sorted_rows_[static_cast<size_t>(f)];

    // First pass: non-missing node mass under this feature.
    double nonmiss_g = 0.0;
    double nonmiss_h = 0.0;
    size_t nonmiss_n = 0;
    for (uint32_t r : order) {
      if (!in_node[r]) continue;
      nonmiss_g += grad[r];
      nonmiss_h += hess[r];
      ++nonmiss_n;
    }
    if (nonmiss_n < 2) continue;
    const double miss_g = sum_grad - nonmiss_g;
    const double miss_h = sum_hess - nonmiss_h;

    // Second pass: scan cut points in sorted order.
    double left_g = 0.0;
    double left_h = 0.0;
    size_t seen = 0;
    double prev_value = 0.0;
    bool have_prev = false;
    for (uint32_t r : order) {
      if (!in_node[r]) continue;
      const double value = values[r];
      if (have_prev && value > prev_value && seen < nonmiss_n) {
        const double threshold = 0.5 * (prev_value + value);
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
            best.threshold = threshold;
            best.missing_left = miss_left != 0;
          }
        }
      }
      left_g += grad[r];
      left_h += hess[r];
      ++seen;
      prev_value = value;
      have_prev = true;
    }
  }
  return best;
}

RegressionTree ExactTreeTrainer::Train(
    const std::vector<double>& grad, const std::vector<double>& hess,
    const std::vector<size_t>& rows, const std::vector<int>& features,
    std::vector<double>* margins) const {
  struct NodeTask {
    int node_index;
    size_t depth;
    std::vector<size_t> rows;
    double sum_grad;
    double sum_hess;
  };

  std::vector<TreeNode> nodes;
  nodes.emplace_back();

  double root_g = 0.0;
  double root_h = 0.0;
  for (size_t r : rows) {
    root_g += grad[r];
    root_h += hess[r];
  }

  std::vector<NodeTask> stack;
  stack.push_back(NodeTask{0, 0, rows, root_g, root_h});
  const double lambda = params_->reg_lambda;
  const double lr = params_->learning_rate;

  while (!stack.empty()) {
    NodeTask task = std::move(stack.back());
    stack.pop_back();

    // The partition below compares exactly as PredictRow does, so the
    // leaf's rows are the rows a traversal would bring here.
    auto make_leaf = [&]() {
      const double value = -lr * task.sum_grad / (task.sum_hess + lambda);
      nodes[static_cast<size_t>(task.node_index)].value = value;
      for (size_t r : task.rows) (*margins)[r] += value;
    };
    if (task.depth >= params_->max_depth || task.rows.size() < 2) {
      make_leaf();
      continue;
    }
    SplitCandidate split = FindBestSplit(grad, hess, task.rows, features,
                                         task.sum_grad, task.sum_hess);
    if (!split.valid() || split.gain <= 0.0) {
      make_leaf();
      continue;
    }

    const auto& values =
        frame_->column(static_cast<size_t>(split.feature)).values();
    std::vector<size_t> left_rows;
    std::vector<size_t> right_rows;
    double left_g = 0.0;
    double left_h = 0.0;
    for (size_t r : task.rows) {
      const double v = values[r];
      const bool go_left =
          std::isnan(v) ? split.missing_left : (v <= split.threshold);
      if (go_left) {
        left_rows.push_back(r);
        left_g += grad[r];
        left_h += hess[r];
      } else {
        right_rows.push_back(r);
      }
    }
    if (left_rows.empty() || right_rows.empty()) {
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
    node.threshold = split.threshold;
    node.gain = split.gain;
    node.default_left = split.missing_left;

    stack.push_back(NodeTask{right_index, task.depth + 1,
                             std::move(right_rows), task.sum_grad - left_g,
                             task.sum_hess - left_h});
    stack.push_back(NodeTask{left_index, task.depth + 1,
                             std::move(left_rows), left_g, left_h});
  }
  return RegressionTree(std::move(nodes));
}

}  // namespace gbdt
}  // namespace safe
