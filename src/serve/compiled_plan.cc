#include "src/serve/compiled_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "src/dataframe/binning.h"
#include "src/gbdt/loss.h"

namespace safe {
namespace serve {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Built-in operator name -> opcode. Anything not listed compiles to
/// kGeneric (virtual dispatch with pre-staged params). The mapping keys
/// on the registry name because that is the stable identifier serialized
/// plans carry; the per-opcode bodies in RunProgram are verbatim copies
/// of the corresponding Operator::Apply arithmetic, which is what makes
/// the compiled output bit-identical to the interpreted one.
OpCode LookupOpCode(const std::string& name) {
  if (name == "add") return OpCode::kAdd;
  if (name == "sub") return OpCode::kSub;
  if (name == "mul") return OpCode::kMul;
  if (name == "div") return OpCode::kDiv;
  if (name == "and") return OpCode::kAnd;
  if (name == "or") return OpCode::kOr;
  if (name == "xor") return OpCode::kXor;
  if (name == "log") return OpCode::kLog;
  if (name == "sqrt") return OpCode::kSqrt;
  if (name == "square") return OpCode::kSquare;
  if (name == "sigmoid") return OpCode::kSigmoid;
  if (name == "tanh") return OpCode::kTanh;
  if (name == "round") return OpCode::kRound;
  if (name == "abs") return OpCode::kAbs;
  if (name == "zscore" || name == "minmax") return OpCode::kZscore;
  if (name == "discretize") return OpCode::kDiscretize;
  if (name == "gbmean" || name == "gbmax" || name == "gbmin" ||
      name == "gbstd" || name == "gbcount") {
    return OpCode::kGroupBy;
  }
  if (name == "ridge") return OpCode::kRidge;
  if (name == "krr") return OpCode::kKrr;
  if (name == "cond") return OpCode::kCond;
  return OpCode::kGeneric;
}

}  // namespace

Result<CompiledPlan> CompiledPlan::Compile(const FeaturePlan& plan,
                                           const OperatorRegistry& registry) {
  CompiledPlan compiled;
  compiled.num_inputs_ = plan.input_columns().size();
  compiled.scratch_size_ = compiled.num_inputs_ + plan.generated().size();
  if (compiled.scratch_size_ >
      static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument("compile: plan too large");
  }

  const auto& parent_slots = plan.parent_slots();
  compiled.instructions_.reserve(plan.generated().size());
  for (size_t g = 0; g < plan.generated().size(); ++g) {
    const GeneratedFeature& feature = plan.generated()[g];
    SAFE_ASSIGN_OR_RETURN(auto op, registry.Find(feature.op));
    // The specialized opcodes index into the params with the layout the
    // operator checks, so compiling rejects a malformed plan instead of
    // reading out of bounds per row.
    const Status applicable =
        CheckApplicable(*op, parent_slots[g].size(), feature.params);
    if (!applicable.ok()) {
      return Status::InvalidArgument("compile: feature '" + feature.name +
                                     "': " + applicable.message());
    }
    Instruction inst;
    inst.code = LookupOpCode(feature.op);
    inst.arity = static_cast<uint8_t>(op->arity());
    inst.handles_missing = op->handles_missing();
    for (size_t p = 0; p < parent_slots[g].size(); ++p) {
      inst.parents[p] = static_cast<uint32_t>(parent_slots[g][p]);
    }
    inst.out = static_cast<uint32_t>(compiled.num_inputs_ + g);
    if (inst.code == OpCode::kGeneric) {
      inst.generic_index = static_cast<uint32_t>(compiled.generic_ops_.size());
      compiled.generic_ops_.push_back(std::move(op));
      compiled.generic_params_.push_back(feature.params);
    } else {
      inst.param_begin = static_cast<uint32_t>(compiled.params_.size());
      inst.param_count = static_cast<uint32_t>(feature.params.size());
      compiled.params_.insert(compiled.params_.end(), feature.params.begin(),
                              feature.params.end());
    }
    compiled.instructions_.push_back(inst);
  }

  compiled.selected_slots_.reserve(plan.selected_slots().size());
  for (size_t slot : plan.selected_slots()) {
    compiled.selected_slots_.push_back(static_cast<uint32_t>(slot));
  }
  return compiled;
}

Result<CompiledPlan> CompiledPlan::Compile(const FeaturePlan& plan) {
  static const OperatorRegistry registry = OperatorRegistry::Default();
  return Compile(plan, registry);
}

void CompiledPlan::Execute(const double* row, double* scratch,
                           double* out) const {
  ExecuteSlots(row, scratch);
  for (size_t i = 0; i < selected_slots_.size(); ++i) {
    out[i] = scratch[selected_slots_[i]];
  }
}

void CompiledPlan::ExecuteSlots(const double* row, double* scratch) const {
  if (num_inputs_ > 0) {
    std::memcpy(scratch, row, num_inputs_ * sizeof(double));
  }
  // A dense row is a one-lane panel: slot s at scratch[s * 1 + 0].
  RunProgram<true>(scratch, 1, 1);
}

void CompiledPlan::ExecuteBlock(double* panels, size_t stride,
                                size_t n) const {
  RunProgram<false>(panels, stride, n);
}

// lint: hot-path
template <bool kOneLane>
void CompiledPlan::RunProgram(double* panels, size_t stride, size_t n) const {
  if constexpr (kOneLane) {
    // Known at compile time, so every lane loop below is one iteration.
    stride = 1;
    n = 1;
  }
  const double* arena = params_.data();
  for (const Instruction& inst : instructions_) {
    // Parents past the arity are slot 0 (Compile validated the arity),
    // so these pointers stay inside the panel and are never read.
    const double* p0 = panels + inst.parents[0] * stride;
    const double* p1 = panels + inst.parents[1] * stride;
    const double* p2 = panels + inst.parents[2] * stride;
    double* dst = panels + inst.out * stride;
    const double* prm = arena + inst.param_begin;
    const bool handles_missing = inst.handles_missing;
    // One contiguous lane loop per opcode. A lane with a missing parent
    // is NaN unless the operator handles missing values; otherwise it
    // runs the verbatim Operator::Apply arithmetic of its family.
    auto unary = [&](auto kernel) {
      for (size_t i = 0; i < n; ++i) {
        const double a = p0[i];
        dst[i] = (std::isnan(a) && !handles_missing) ? kNaN : kernel(a);
      }
    };
    auto binary = [&](auto kernel) {
      for (size_t i = 0; i < n; ++i) {
        const double a = p0[i];
        const double b = p1[i];
        dst[i] = ((std::isnan(a) || std::isnan(b)) && !handles_missing)
                     ? kNaN
                     : kernel(a, b);
      }
    };
    switch (inst.code) {
      case OpCode::kAdd:
        binary([](double a, double b) { return a + b; });
        break;
      case OpCode::kSub:
        binary([](double a, double b) { return a - b; });
        break;
      case OpCode::kMul:
        binary([](double a, double b) { return a * b; });
        break;
      case OpCode::kDiv:
        binary([](double a, double b) { return (b == 0.0) ? kNaN : a / b; });
        break;
      case OpCode::kAnd:
        binary([](double a, double b) {
          return ((a > 0.5) && (b > 0.5)) ? 1.0 : 0.0;
        });
        break;
      case OpCode::kOr:
        binary([](double a, double b) {
          return ((a > 0.5) || (b > 0.5)) ? 1.0 : 0.0;
        });
        break;
      case OpCode::kXor:
        binary([](double a, double b) {
          return ((a > 0.5) != (b > 0.5)) ? 1.0 : 0.0;
        });
        break;
      case OpCode::kLog:
        unary([](double a) { return !(a > 0.0) ? kNaN : std::log(a); });
        break;
      case OpCode::kSqrt:
        unary([](double a) { return (a < 0.0) ? kNaN : std::sqrt(a); });
        break;
      case OpCode::kSquare:
        unary([](double a) { return a * a; });
        break;
      case OpCode::kSigmoid:
        unary([](double a) { return gbdt::Sigmoid(a); });
        break;
      case OpCode::kTanh:
        unary([](double a) { return std::tanh(a); });
        break;
      case OpCode::kRound:
        unary([](double a) { return std::round(a); });
        break;
      case OpCode::kAbs:
        unary([](double a) { return std::fabs(a); });
        break;
      case OpCode::kZscore:  // and minmax: (x - p0) / p1
        unary([&](double a) { return (a - prm[0]) / prm[1]; });
        break;
      case OpCode::kDiscretize:
        unary([&](double a) {
          return static_cast<double>(BinIndexOf({prm, inst.param_count}, a));
        });
        break;
      case OpCode::kGroupBy:
        // Params: [n, edge_0..edge_{n-1}, agg_bin_0..agg_bin_{n+1}]; a
        // NaN key lands in the missing bin n + 1.
        unary([&](double a) {
          const size_t edges = static_cast<size_t>(prm[0]);
          return prm[1 + edges + BinIndexOf({prm + 1, edges}, a)];
        });
        break;
      case OpCode::kRidge:
        binary([&](double a, double b) { return b - (prm[0] * a + prm[1]); });
        break;
      case OpCode::kKrr:
        // Params: [m, gamma, center_0..center_{m-1}, alpha_0..alpha_{m-1}].
        binary([&](double a, double b) {
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
        });
        break;
      case OpCode::kCond:
        for (size_t i = 0; i < n; ++i) {
          const double a = p0[i];
          const double b = p1[i];
          const double c = p2[i];
          dst[i] =
              ((std::isnan(a) || std::isnan(b) || std::isnan(c)) &&
               !handles_missing)
                  ? kNaN
                  : ((a > 0.0) ? b : c);
        }
        break;
      case OpCode::kGeneric: {
        const Operator& generic = *generic_ops_[inst.generic_index];
        const std::vector<double>& params =
            generic_params_[inst.generic_index];
        for (size_t i = 0; i < n; ++i) {
          double in[3] = {0.0, 0.0, 0.0};
          bool missing = false;
          for (uint8_t p = 0; p < inst.arity; ++p) {
            in[p] = panels[inst.parents[p] * stride + i];
            if (std::isnan(in[p])) missing = true;
          }
          dst[i] = (missing && !handles_missing) ? kNaN
                                                 : generic.Apply(in, params);
        }
        break;
      }
    }
  }
}

Result<std::vector<double>> CompiledPlan::ExecuteRow(
    const std::vector<double>& row) const {
  if (row.size() != num_inputs_) {
    return Status::InvalidArgument(
        "compiled plan: expected " + std::to_string(num_inputs_) +
        " values, got " + std::to_string(row.size()));
  }
  std::vector<double> scratch(scratch_size_);
  std::vector<double> out(num_outputs());
  Execute(row.data(), scratch.data(), out.data());
  return out;
}

}  // namespace serve
}  // namespace safe
