#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace safe {

/// \brief An n-ary feature-construction operator (paper Section III).
///
/// Operators are stateless singletons; anything they must learn from
/// training data (bin edges, means, group aggregates) is produced by
/// FitParams and stored in the GeneratedFeature that references them, so
/// a serialized FeaturePlan replays exactly — including on a single row
/// at inference time (the paper's real-time requirement).
class Operator {
 public:
  virtual ~Operator() = default;

  /// Stable identifier used in serialized plans ("add", "div", ...).
  virtual std::string name() const = 0;

  /// Number of parent features consumed (1, 2 or 3).
  virtual size_t arity() const = 0;

  /// True when argument order matters (the paper counts such operators
  /// once per ordering, e.g. "÷").
  virtual bool commutative() const { return true; }

  /// Infix/display symbol for generated-feature names ("+", "/", ...).
  virtual std::string symbol() const { return name(); }

  /// True when Apply handles NaN inputs itself (e.g. group-by, whose key
  /// binning has a missing bin); otherwise NaN inputs yield NaN output.
  virtual bool handles_missing() const { return false; }

  /// Learns operator parameters from training parent columns
  /// (default: none). Columns are parallel, length = rows.
  [[nodiscard]] virtual Result<std::vector<double>> FitParams(
      const std::vector<const std::vector<double>*>& /*parents*/) const {
    return std::vector<double>{};
  }

  /// Element-wise application; `inputs` holds arity() values and `params`
  /// passed CheckParams. Returns NaN for undefined cases (log of a
  /// negative, division by zero, ...).
  virtual double Apply(const double* inputs,
                       const std::vector<double>& params) const = 0;

  /// Checks that `params` has the layout Apply indexes into (default:
  /// any, for operators whose Apply reads no params or only as many as
  /// there are).
  [[nodiscard]] virtual Status CheckParams(
      const std::vector<double>& /*params*/) const {
    return Status::OK();
  }
};

/// Checks that `op` can be applied to `num_parents` parents with stored
/// `params`: the arity matches and the params pass op.CheckParams. Every
/// path that applies a plan's stored params (ApplyOperator,
/// FeaturePlan::TransformRow, CompiledPlan::Compile) runs it first, so a
/// malformed plan gives a Status instead of an out-of-bounds read.
[[nodiscard]] Status CheckApplicable(const Operator& op, size_t num_parents,
                                     const std::vector<double>& params);

/// Applies an operator across full columns (NaN in, NaN out).
[[nodiscard]] Result<std::vector<double>> ApplyOperator(
    const Operator& op, const std::vector<double>& params,
    const std::vector<const std::vector<double>*>& parents);

/// ApplyOperator into `out`, which is resized to the row count; reusing
/// one buffer across calls keeps its pages instead of allocating a column
/// per call. `out` is unspecified on error.
[[nodiscard]] Status ApplyOperatorInto(
    const Operator& op, const std::vector<double>& params,
    const std::vector<const std::vector<double>*>& parents,
    std::vector<double>* out);

/// \brief Name-keyed registry of operators (paper Section III: "new
/// operators should be easily added").
class OperatorRegistry {
 public:
  /// Registry with every built-in operator:
  /// binary arithmetic add/sub/mul/div, logical and/or/xor, group-by
  /// aggregates gbmean/gbmax/gbmin/gbstd/gbcount, unary
  /// log/sqrt/square/sigmoid/tanh/round/abs/zscore/minmax/discretize, and
  /// the ternary conditional.
  static OperatorRegistry Default();

  /// Registry holding only {add, sub, mul, div} — the configuration every
  /// experiment in the paper's Section V uses.
  static OperatorRegistry Arithmetic();

  /// Empty registry for fully custom configurations.
  static OperatorRegistry Empty();

  /// Adds an operator; fails on duplicate names.
  [[nodiscard]] Status Register(std::shared_ptr<const Operator> op);

  /// Looks an operator up by name.
  [[nodiscard]] Result<std::shared_ptr<const Operator>> Find(const std::string& name) const;

  /// All registered operators of the given arity.
  std::vector<std::shared_ptr<const Operator>> OfArity(size_t arity) const;

  std::vector<std::string> Names() const;
  size_t size() const { return ops_.size(); }

 private:
  std::map<std::string, std::shared_ptr<const Operator>> ops_;
};

}  // namespace safe
