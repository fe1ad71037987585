#include "src/core/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/linalg.h"
#include "src/dataframe/binning.h"
#include "src/gbdt/loss.h"
#include "src/stats/descriptive.h"

namespace safe {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// True when `v` holds a non-negative integer (a count stored as double).
bool IsCount(double v) {
  return std::isfinite(v) && v >= 0.0 && v == std::floor(v) &&
         v <= 1e9;
}

Status ExpectParamCount(const std::vector<double>& params, size_t count) {
  if (params.size() == count) return Status::OK();
  return Status::InvalidArgument("expected " + std::to_string(count) +
                                 " params, got " +
                                 std::to_string(params.size()));
}

// ---------------------------------------------------------------------------
// Binary arithmetic

class AddOp : public Operator {
 public:
  std::string name() const override { return "add"; }
  size_t arity() const override { return 2; }
  std::string symbol() const override { return "+"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    return in[0] + in[1];
  }
};

class SubOp : public Operator {
 public:
  std::string name() const override { return "sub"; }
  size_t arity() const override { return 2; }
  // b-a is the negation of a-b — the same feature up to a monotone
  // transform — so we treat sub as commutative and emit one ordering.
  std::string symbol() const override { return "-"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    return in[0] - in[1];
  }
};

class MulOp : public Operator {
 public:
  std::string name() const override { return "mul"; }
  size_t arity() const override { return 2; }
  std::string symbol() const override { return "*"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    return in[0] * in[1];
  }
};

class DivOp : public Operator {
 public:
  std::string name() const override { return "div"; }
  size_t arity() const override { return 2; }
  bool commutative() const override { return false; }  // paper's "÷"
  std::string symbol() const override { return "/"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (in[1] == 0.0) return kNaN;
    return in[0] / in[1];
  }
};

// ---------------------------------------------------------------------------
// Binary logical (inputs booleanized at > 0.5)

class LogicalOp : public Operator {
 public:
  size_t arity() const override { return 2; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (std::isnan(in[0]) || std::isnan(in[1])) return kNaN;
    return Combine(in[0] > 0.5, in[1] > 0.5) ? 1.0 : 0.0;
  }

 protected:
  virtual bool Combine(bool a, bool b) const = 0;
};

class AndOp : public LogicalOp {
 public:
  std::string name() const override { return "and"; }
  std::string symbol() const override { return "&"; }

 protected:
  bool Combine(bool a, bool b) const override { return a && b; }
};

class OrOp : public LogicalOp {
 public:
  std::string name() const override { return "or"; }
  std::string symbol() const override { return "|"; }

 protected:
  bool Combine(bool a, bool b) const override { return a || b; }
};

class XorOp : public LogicalOp {
 public:
  std::string name() const override { return "xor"; }
  std::string symbol() const override { return "^"; }

 protected:
  bool Combine(bool a, bool b) const override { return a != b; }
};

// ---------------------------------------------------------------------------
// Unary mathematical

class UnaryMathOp : public Operator {
 public:
  size_t arity() const override { return 1; }
};

class LogOp : public UnaryMathOp {
 public:
  std::string name() const override { return "log"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (!(in[0] > 0.0)) return kNaN;
    return std::log(in[0]);
  }
};

class SqrtOp : public UnaryMathOp {
 public:
  std::string name() const override { return "sqrt"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (in[0] < 0.0) return kNaN;
    return std::sqrt(in[0]);
  }
};

class SquareOp : public UnaryMathOp {
 public:
  std::string name() const override { return "square"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    return in[0] * in[0];
  }
};

class SigmoidOp : public UnaryMathOp {
 public:
  std::string name() const override { return "sigmoid"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (std::isnan(in[0])) return kNaN;
    return gbdt::Sigmoid(in[0]);
  }
};

class TanhOp : public UnaryMathOp {
 public:
  std::string name() const override { return "tanh"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    return std::tanh(in[0]);
  }
};

class RoundOp : public UnaryMathOp {
 public:
  std::string name() const override { return "round"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (std::isnan(in[0])) return kNaN;
    return std::round(in[0]);
  }
};

class AbsOp : public UnaryMathOp {
 public:
  std::string name() const override { return "abs"; }
  double Apply(const double* in, const std::vector<double>&) const override {
    return std::fabs(in[0]);
  }
};

// ---------------------------------------------------------------------------
// Unary fitted: normalization / discretization

/// (x - offset) / scale with fitted params {offset, scale}.
class AffineUnaryOp : public UnaryMathOp {
 public:
  Status CheckParams(const std::vector<double>& params) const override {
    return ExpectParamCount(params, 2);
  }
  double Apply(const double* in,
               const std::vector<double>& params) const override {
    return (in[0] - params[0]) / params[1];
  }
};

class ZscoreOp : public AffineUnaryOp {
 public:
  std::string name() const override { return "zscore"; }
  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& parents) const override {
    const double mu = Mean(*parents[0]);
    const double sd = StdDev(*parents[0]);
    return std::vector<double>{mu, sd > 1e-12 ? sd : 1.0};
  }
};

class MinMaxOp : public AffineUnaryOp {
 public:
  std::string name() const override { return "minmax"; }
  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& parents) const override {
    const double lo = Min(*parents[0]);
    const double hi = Max(*parents[0]);
    if (std::isnan(lo)) {
      return Status::InvalidArgument("minmax: all values missing");
    }
    return std::vector<double>{lo, hi > lo ? hi - lo : 1.0};
  }
};

class DiscretizeOp : public UnaryMathOp {
 public:
  static constexpr size_t kBins = 10;
  std::string name() const override { return "discretize"; }
  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& parents) const override {
    SAFE_ASSIGN_OR_RETURN(BinEdges edges,
                          EqualFrequencyEdges(*parents[0], kBins));
    return edges.edges;
  }
  double Apply(const double* in,
               const std::vector<double>& params) const override {
    return static_cast<double>(BinIndexOf(params, in[0]));
  }
};

// ---------------------------------------------------------------------------
// Binary group-by aggregates: parent 0 is the key (discretized into
// equal-frequency bins), parent 1 the value. Params layout:
//   [num_edges, edge_0..edge_{k-1}, agg_bin_0..agg_bin_{k+1}]
// with one aggregate slot per bin including the missing bin.

class GroupByOp : public Operator {
 public:
  size_t arity() const override { return 2; }
  bool commutative() const override { return false; }  // key vs value
  bool handles_missing() const override { return true; }

  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& parents) const override {
    static constexpr size_t kKeyBins = 16;
    SAFE_ASSIGN_OR_RETURN(BinEdges edges,
                          EqualFrequencyEdges(*parents[0], kKeyBins));
    const size_t cells = edges.missing_bin() + 1;
    std::vector<std::vector<double>> groups(cells);
    const auto& keys = *parents[0];
    const auto& values = *parents[1];
    for (size_t r = 0; r < keys.size(); ++r) {
      groups[edges.BinIndex(keys[r])].push_back(values[r]);
    }
    std::vector<double> params;
    params.push_back(static_cast<double>(edges.edges.size()));
    params.insert(params.end(), edges.edges.begin(), edges.edges.end());
    for (const auto& group : groups) {
      params.push_back(Aggregate(group));
    }
    return params;
  }

  Status CheckParams(const std::vector<double>& params) const override {
    if (params.empty() || !IsCount(params[0])) {
      return Status::InvalidArgument("missing/invalid edge count");
    }
    const size_t n = static_cast<size_t>(params[0]);
    if (params.size() != 1 + n + (n + 2)) {
      return Status::InvalidArgument(
          "param layout does not match edge count");
    }
    return Status::OK();
  }

  double Apply(const double* in,
               const std::vector<double>& params) const override {
    const size_t num_edges = static_cast<size_t>(params[0]);
    const size_t bin = BinIndexOf({params.data() + 1, num_edges}, in[0]);
    return params[1 + num_edges + bin];
  }

 protected:
  /// Aggregate of one group's (possibly empty) values.
  virtual double Aggregate(const std::vector<double>& values) const = 0;
};

class GroupByMeanOp : public GroupByOp {
 public:
  std::string name() const override { return "gbmean"; }

 protected:
  double Aggregate(const std::vector<double>& v) const override {
    return v.empty() ? kNaN : Mean(v);
  }
};

class GroupByMaxOp : public GroupByOp {
 public:
  std::string name() const override { return "gbmax"; }

 protected:
  double Aggregate(const std::vector<double>& v) const override {
    return v.empty() ? kNaN : Max(v);
  }
};

class GroupByMinOp : public GroupByOp {
 public:
  std::string name() const override { return "gbmin"; }

 protected:
  double Aggregate(const std::vector<double>& v) const override {
    return v.empty() ? kNaN : Min(v);
  }
};

class GroupByStdOp : public GroupByOp {
 public:
  std::string name() const override { return "gbstd"; }

 protected:
  double Aggregate(const std::vector<double>& v) const override {
    return v.empty() ? kNaN : StdDev(v);
  }
};

class GroupByCountOp : public GroupByOp {
 public:
  std::string name() const override { return "gbcount"; }

 protected:
  double Aggregate(const std::vector<double>& v) const override {
    return static_cast<double>(v.size());
  }
};

// ---------------------------------------------------------------------------
// Regression operators — the paper's Section III: "Ridge regression and
// kernel ridge regression in [24] can also be considered as binary
// operators". Both regress parent 1 on parent 0 and emit the residual,
// the part of b that a cannot explain (AutoLearn's constructed feature).

/// residual of the 1-D ridge fit b ~ w*a + c. Params: {w, c}.
class RidgeOp : public Operator {
 public:
  static constexpr double kLambda = 1.0;

  std::string name() const override { return "ridge"; }
  size_t arity() const override { return 2; }
  bool commutative() const override { return false; }

  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& parents) const override {
    const auto& a = *parents[0];
    const auto& b = *parents[1];
    double sum_a = 0.0;
    double sum_b = 0.0;
    size_t n = 0;
    for (size_t r = 0; r < a.size(); ++r) {
      if (std::isnan(a[r]) || std::isnan(b[r])) continue;
      sum_a += a[r];
      sum_b += b[r];
      ++n;
    }
    if (n < 3) {
      return Status::InvalidArgument("ridge: too few paired rows");
    }
    const double mean_a = sum_a / static_cast<double>(n);
    const double mean_b = sum_b / static_cast<double>(n);
    double cov = 0.0;
    double var = 0.0;
    for (size_t r = 0; r < a.size(); ++r) {
      if (std::isnan(a[r]) || std::isnan(b[r])) continue;
      cov += (a[r] - mean_a) * (b[r] - mean_b);
      var += (a[r] - mean_a) * (a[r] - mean_a);
    }
    const double w = cov / (var + kLambda);
    return std::vector<double>{w, mean_b - w * mean_a};
  }

  Status CheckParams(const std::vector<double>& params) const override {
    return ExpectParamCount(params, 2);  // {w, c}
  }

  double Apply(const double* in,
               const std::vector<double>& params) const override {
    return in[1] - (params[0] * in[0] + params[1]);
  }
};

/// residual of an RBF kernel-ridge fit of b on a over quantile landmarks.
/// Params: {m, gamma, c_1..c_m, alpha_1..alpha_m}.
class KernelRidgeOp : public Operator {
 public:
  static constexpr size_t kLandmarks = 24;
  static constexpr double kLambda = 0.1;

  std::string name() const override { return "krr"; }
  size_t arity() const override { return 2; }
  bool commutative() const override { return false; }

  Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& parents) const override {
    const auto& a = *parents[0];
    const auto& b = *parents[1];
    // Landmark inputs at quantiles of a; targets are per-landmark means
    // of b (a Nystrom-style compression keeping the fit O(m^3)).
    std::vector<std::pair<double, double>> paired;
    for (size_t r = 0; r < a.size(); ++r) {
      if (std::isnan(a[r]) || std::isnan(b[r])) continue;
      paired.emplace_back(a[r], b[r]);
    }
    if (paired.size() < kLandmarks) {
      return Status::InvalidArgument("krr: too few paired rows");
    }
    std::sort(paired.begin(), paired.end());
    const size_t m = kLandmarks;
    std::vector<double> centers(m);
    std::vector<double> targets(m);
    const size_t chunk = paired.size() / m;
    for (size_t k = 0; k < m; ++k) {
      const size_t lo = k * chunk;
      const size_t hi = (k + 1 == m) ? paired.size() : lo + chunk;
      double ca = 0.0;
      double cb = 0.0;
      for (size_t i = lo; i < hi; ++i) {
        ca += paired[i].first;
        cb += paired[i].second;
      }
      centers[k] = ca / static_cast<double>(hi - lo);
      targets[k] = cb / static_cast<double>(hi - lo);
    }
    // Bandwidth from the landmark spread.
    const double span = centers.back() - centers.front();
    const double gamma =
        span > 1e-12 ? 1.0 / (2.0 * (span / static_cast<double>(m)) *
                              (span / static_cast<double>(m)) * m)
                     : 1.0;
    // Solve (K + lambda I) alpha = targets.
    std::vector<double> kernel(m * m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        const double d = centers[i] - centers[j];
        kernel[i * m + j] = std::exp(-gamma * d * d);
      }
      kernel[i * m + i] += kLambda;
    }
    SAFE_ASSIGN_OR_RETURN(std::vector<double> alpha,
                          SolveLinearSystem(std::move(kernel), targets));
    std::vector<double> params;
    params.push_back(static_cast<double>(m));
    params.push_back(gamma);
    params.insert(params.end(), centers.begin(), centers.end());
    params.insert(params.end(), alpha.begin(), alpha.end());
    return params;
  }

  Status CheckParams(const std::vector<double>& params) const override {
    if (params.size() < 2 || !IsCount(params[0]) || params[0] < 1.0) {
      return Status::InvalidArgument("missing/invalid landmark count");
    }
    const size_t m = static_cast<size_t>(params[0]);
    if (params.size() != 2 + 2 * m) {
      return Status::InvalidArgument(
          "param layout does not match landmark count");
    }
    return Status::OK();
  }

  double Apply(const double* in,
               const std::vector<double>& params) const override {
    const size_t m = static_cast<size_t>(params[0]);
    const double gamma = params[1];
    const double* centers = params.data() + 2;
    const double* alpha = params.data() + 2 + m;
    double prediction = 0.0;
    for (size_t k = 0; k < m; ++k) {
      const double d = in[0] - centers[k];
      prediction += alpha[k] * std::exp(-gamma * d * d);
    }
    return in[1] - prediction;
  }
};

// ---------------------------------------------------------------------------
// Ternary conditional: a > 0 ? b : c.

class CondOp : public Operator {
 public:
  std::string name() const override { return "cond"; }
  size_t arity() const override { return 3; }
  bool commutative() const override { return false; }
  double Apply(const double* in, const std::vector<double>&) const override {
    if (std::isnan(in[0])) return kNaN;
    return in[0] > 0.0 ? in[1] : in[2];
  }
};

void RegisterArithmetic(OperatorRegistry* registry) {
  SAFE_CHECK(registry->Register(std::make_shared<AddOp>()).ok());
  SAFE_CHECK(registry->Register(std::make_shared<SubOp>()).ok());
  SAFE_CHECK(registry->Register(std::make_shared<MulOp>()).ok());
  SAFE_CHECK(registry->Register(std::make_shared<DivOp>()).ok());
}

}  // namespace

Status CheckApplicable(const Operator& op, size_t num_parents,
                       const std::vector<double>& params) {
  if (num_parents != op.arity()) {
    return Status::InvalidArgument(
        "operator '" + op.name() + "' expects " +
        std::to_string(op.arity()) + " parents, got " +
        std::to_string(num_parents));
  }
  const Status params_ok = op.CheckParams(params);
  if (!params_ok.ok()) {
    return Status::InvalidArgument("operator '" + op.name() +
                                   "': " + params_ok.message());
  }
  return Status::OK();
}

Result<std::vector<double>> ApplyOperator(
    const Operator& op, const std::vector<double>& params,
    const std::vector<const std::vector<double>*>& parents) {
  std::vector<double> out;
  SAFE_RETURN_NOT_OK(ApplyOperatorInto(op, params, parents, &out));
  return out;
}

Status ApplyOperatorInto(const Operator& op, const std::vector<double>& params,
                         const std::vector<const std::vector<double>*>& parents,
                         std::vector<double>* out) {
  SAFE_RETURN_NOT_OK(CheckApplicable(op, parents.size(), params));
  const size_t rows = parents[0]->size();
  for (const auto* parent : parents) {
    if (parent->size() != rows) {
      return Status::InvalidArgument("operator parents differ in length");
    }
  }
  out->resize(rows);
  std::vector<double> inputs(op.arity());
  for (size_t r = 0; r < rows; ++r) {
    bool missing = false;
    for (size_t p = 0; p < parents.size(); ++p) {
      inputs[p] = (*parents[p])[r];
      // Group-by tolerates a missing key (it has a missing bin); every
      // other operator propagates NaN.
      if (std::isnan(inputs[p])) missing = true;
    }
    if (missing && !op.handles_missing()) {
      (*out)[r] = kNaN;
    } else {
      (*out)[r] = op.Apply(inputs.data(), params);
    }
  }
  return Status::OK();
}

OperatorRegistry OperatorRegistry::Empty() { return OperatorRegistry(); }

OperatorRegistry OperatorRegistry::Arithmetic() {
  OperatorRegistry registry;
  RegisterArithmetic(&registry);
  return registry;
}

OperatorRegistry OperatorRegistry::Default() {
  OperatorRegistry registry;
  RegisterArithmetic(&registry);
  SAFE_CHECK(registry.Register(std::make_shared<AndOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<OrOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<XorOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<LogOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<SqrtOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<SquareOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<SigmoidOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<TanhOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<RoundOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<AbsOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<ZscoreOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<MinMaxOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<DiscretizeOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<GroupByMeanOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<GroupByMaxOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<GroupByMinOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<GroupByStdOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<GroupByCountOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<RidgeOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<KernelRidgeOp>()).ok());
  SAFE_CHECK(registry.Register(std::make_shared<CondOp>()).ok());
  return registry;
}

Status OperatorRegistry::Register(std::shared_ptr<const Operator> op) {
  if (op == nullptr) {
    return Status::InvalidArgument("cannot register null operator");
  }
  const size_t arity = op->arity();
  if (arity < 1 || arity > 3) {
    return Status::InvalidArgument("operator arity must be 1..3");
  }
  auto [it, inserted] = ops_.emplace(op->name(), std::move(op));
  if (!inserted) {
    return Status::AlreadyExists("operator '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Result<std::shared_ptr<const Operator>> OperatorRegistry::Find(
    const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) {
    return Status::NotFound("no operator named '" + name + "'");
  }
  return it->second;
}

std::vector<std::shared_ptr<const Operator>> OperatorRegistry::OfArity(
    size_t arity) const {
  std::vector<std::shared_ptr<const Operator>> out;
  for (const auto& [name, op] : ops_) {
    if (op->arity() == arity) out.push_back(op);
  }
  return out;
}

std::vector<std::string> OperatorRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& [name, op] : ops_) names.push_back(name);
  return names;
}

}  // namespace safe
