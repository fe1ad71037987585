#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/dataframe/binning.h"
#include "src/gbdt/loss.h"

namespace safe {
namespace serve {

/// Scalar arithmetic of every specialized opcode, factored out of the
/// per-row interpreter switch so the block-wise batch executor can run
/// literally the same code per lane. Each function body is the verbatim
/// Operator::Apply arithmetic of its operator family (see compiled_plan.cc
/// for the name -> opcode mapping); sharing one definition between the
/// per-row and batch paths is what makes their bit-identity structural
/// rather than coincidental.
namespace op {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

inline double Add(double a, double b) { return a + b; }
inline double Sub(double a, double b) { return a - b; }
inline double Mul(double a, double b) { return a * b; }
inline double Div(double a, double b) {
  return (b == 0.0) ? kNaN : a / b;
}
inline double And(double a, double b) {
  return ((a > 0.5) && (b > 0.5)) ? 1.0 : 0.0;
}
inline double Or(double a, double b) {
  return ((a > 0.5) || (b > 0.5)) ? 1.0 : 0.0;
}
inline double Xor(double a, double b) {
  return ((a > 0.5) != (b > 0.5)) ? 1.0 : 0.0;
}
inline double Log(double a) { return !(a > 0.0) ? kNaN : std::log(a); }
inline double Sqrt(double a) { return (a < 0.0) ? kNaN : std::sqrt(a); }
inline double Square(double a) { return a * a; }
inline double SigmoidOp(double a) { return gbdt::Sigmoid(a); }
inline double Tanh(double a) { return std::tanh(a); }
inline double Round(double a) { return std::round(a); }
inline double Abs(double a) { return std::fabs(a); }
/// zscore and minmax: (x - p0) / p1 over the fitted two-param layout.
inline double Zscore(double a, const double* prm) {
  return (a - prm[0]) / prm[1];
}
/// DiscretizeOp::Apply: BinIndexOf over the edge span.
inline double Discretize(double a, const double* prm, size_t param_count) {
  return static_cast<double>(BinIndexOf({prm, param_count}, a));
}
/// Shared body of the five group-by aggregates. Params layout:
/// [n, edge_0..edge_{n-1}, agg_bin_0..agg_bin_{n+1}]; NaN keys land in
/// the missing bin (BinEdges::missing_bin() == n + 1).
inline double GroupBy(double a, const double* prm) {
  const size_t n = static_cast<size_t>(prm[0]);
  return prm[1 + n + BinIndexOf({prm + 1, n}, a)];
}
inline double Ridge(double a, double b, const double* prm) {
  return b - (prm[0] * a + prm[1]);
}
inline double Krr(double a, double b, const double* prm) {
  const size_t m = static_cast<size_t>(prm[0]);
  const double gamma = prm[1];
  const double* centers = prm + 2;
  const double* alpha = prm + 2 + m;
  double prediction = 0.0;
  for (size_t k = 0; k < m; ++k) {
    const double d = a - centers[k];
    prediction += alpha[k] * std::exp(-gamma * d * d);
  }
  return b - prediction;
}
inline double Cond(double a, double b, double c) {
  return (a > 0.0) ? b : c;
}

}  // namespace op
}  // namespace serve
}  // namespace safe
