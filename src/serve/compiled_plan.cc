#include "src/serve/compiled_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "src/serve/op_kernels.h"

namespace safe {
namespace serve {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Built-in operator name -> opcode. Anything not listed compiles to
/// kGeneric (virtual dispatch with pre-staged params). The mapping keys
/// on the registry name because that is the stable identifier serialized
/// plans carry; the per-opcode bodies in Execute are verbatim copies of
/// the corresponding Operator::Apply arithmetic, which is what makes the
/// compiled output bit-identical to the interpreted one.
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
  const double* arena = params_.data();
  for (const Instruction& inst : instructions_) {
    double in[3] = {0.0, 0.0, 0.0};
    bool missing = false;
    for (uint8_t p = 0; p < inst.arity; ++p) {
      in[p] = scratch[inst.parents[p]];
      if (std::isnan(in[p])) missing = true;
    }
    double value = kNaN;
    if (!missing || inst.handles_missing) {
      const double* prm = arena + inst.param_begin;
      switch (inst.code) {
        case OpCode::kAdd:
          value = op::Add(in[0], in[1]);
          break;
        case OpCode::kSub:
          value = op::Sub(in[0], in[1]);
          break;
        case OpCode::kMul:
          value = op::Mul(in[0], in[1]);
          break;
        case OpCode::kDiv:
          value = op::Div(in[0], in[1]);
          break;
        case OpCode::kAnd:
          value = op::And(in[0], in[1]);
          break;
        case OpCode::kOr:
          value = op::Or(in[0], in[1]);
          break;
        case OpCode::kXor:
          value = op::Xor(in[0], in[1]);
          break;
        case OpCode::kLog:
          value = op::Log(in[0]);
          break;
        case OpCode::kSqrt:
          value = op::Sqrt(in[0]);
          break;
        case OpCode::kSquare:
          value = op::Square(in[0]);
          break;
        case OpCode::kSigmoid:
          value = op::SigmoidOp(in[0]);
          break;
        case OpCode::kTanh:
          value = op::Tanh(in[0]);
          break;
        case OpCode::kRound:
          value = op::Round(in[0]);
          break;
        case OpCode::kAbs:
          value = op::Abs(in[0]);
          break;
        case OpCode::kZscore:
          value = op::Zscore(in[0], prm);
          break;
        case OpCode::kDiscretize:
          value = op::Discretize(in[0], prm, inst.param_count);
          break;
        case OpCode::kGroupBy:
          value = op::GroupBy(in[0], prm);
          break;
        case OpCode::kRidge:
          value = op::Ridge(in[0], in[1], prm);
          break;
        case OpCode::kKrr:
          value = op::Krr(in[0], in[1], prm);
          break;
        case OpCode::kCond:
          value = op::Cond(in[0], in[1], in[2]);
          break;
        case OpCode::kGeneric:
          value = generic_ops_[inst.generic_index]->Apply(
              in, generic_params_[inst.generic_index]);
          break;
      }
    }
    scratch[inst.out] = value;
  }
}

// lint: hot-path
void CompiledPlan::ExecuteBlock(double* panels, size_t stride,
                                size_t n) const {
  const double* arena = params_.data();
  for (const Instruction& inst : instructions_) {
    const double* p0 =
        inst.arity > 0 ? panels + inst.parents[0] * stride : nullptr;
    const double* p1 =
        inst.arity > 1 ? panels + inst.parents[1] * stride : nullptr;
    const double* p2 =
        inst.arity > 2 ? panels + inst.parents[2] * stride : nullptr;
    double* dst = panels + inst.out * stride;
    const double* prm = arena + inst.param_begin;
    const bool handles_missing = inst.handles_missing;
    // One contiguous lane loop per opcode. Each lane reproduces the
    // scalar Execute step exactly: the same missing short-circuit, then
    // the same op:: kernel — one shared definition, so bit-identity with
    // the per-row path is structural (serve_batch_equivalence_test).
    auto unary = [&](auto kernel) {
      for (size_t i = 0; i < n; ++i) {
        const double a = p0[i];
        dst[i] = (std::isnan(a) && !handles_missing) ? op::kNaN : kernel(a);
      }
    };
    auto binary = [&](auto kernel) {
      for (size_t i = 0; i < n; ++i) {
        const double a = p0[i];
        const double b = p1[i];
        dst[i] = ((std::isnan(a) || std::isnan(b)) && !handles_missing)
                     ? op::kNaN
                     : kernel(a, b);
      }
    };
    switch (inst.code) {
      case OpCode::kAdd:
        binary([](double a, double b) { return op::Add(a, b); });
        break;
      case OpCode::kSub:
        binary([](double a, double b) { return op::Sub(a, b); });
        break;
      case OpCode::kMul:
        binary([](double a, double b) { return op::Mul(a, b); });
        break;
      case OpCode::kDiv:
        binary([](double a, double b) { return op::Div(a, b); });
        break;
      case OpCode::kAnd:
        binary([](double a, double b) { return op::And(a, b); });
        break;
      case OpCode::kOr:
        binary([](double a, double b) { return op::Or(a, b); });
        break;
      case OpCode::kXor:
        binary([](double a, double b) { return op::Xor(a, b); });
        break;
      case OpCode::kLog:
        unary([](double a) { return op::Log(a); });
        break;
      case OpCode::kSqrt:
        unary([](double a) { return op::Sqrt(a); });
        break;
      case OpCode::kSquare:
        unary([](double a) { return op::Square(a); });
        break;
      case OpCode::kSigmoid:
        unary([](double a) { return op::SigmoidOp(a); });
        break;
      case OpCode::kTanh:
        unary([](double a) { return op::Tanh(a); });
        break;
      case OpCode::kRound:
        unary([](double a) { return op::Round(a); });
        break;
      case OpCode::kAbs:
        unary([](double a) { return op::Abs(a); });
        break;
      case OpCode::kZscore:
        unary([&](double a) { return op::Zscore(a, prm); });
        break;
      case OpCode::kDiscretize:
        unary([&](double a) {
          return op::Discretize(a, prm, inst.param_count);
        });
        break;
      case OpCode::kGroupBy:
        unary([&](double a) { return op::GroupBy(a, prm); });
        break;
      case OpCode::kRidge:
        binary([&](double a, double b) { return op::Ridge(a, b, prm); });
        break;
      case OpCode::kKrr:
        binary([&](double a, double b) { return op::Krr(a, b, prm); });
        break;
      case OpCode::kCond:
        for (size_t i = 0; i < n; ++i) {
          const double a = p0[i];
          const double b = p1[i];
          const double c = p2[i];
          dst[i] =
              ((std::isnan(a) || std::isnan(b) || std::isnan(c)) &&
               !handles_missing)
                  ? op::kNaN
                  : op::Cond(a, b, c);
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
          dst[i] = (missing && !handles_missing) ? op::kNaN
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
