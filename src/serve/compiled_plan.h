#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/core/feature_plan.h"
#include "src/core/operators.h"

namespace safe {
namespace serve {

/// \brief Opcodes of the linear serving program. One code per built-in
/// operator family; the compiler inlines each family's arithmetic so the
/// per-row loop is a flat switch with no virtual dispatch, no registry
/// lookups and no heap traffic. Operators the compiler does not know
/// (custom registrations) fall back to kGeneric, which calls the virtual
/// Operator::Apply with a pre-staged params vector — still allocation-free
/// per row, just not inlined.
enum class OpCode : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAnd,
  kOr,
  kXor,
  kLog,
  kSqrt,
  kSquare,
  kSigmoid,
  kTanh,
  kRound,
  kAbs,
  kZscore,     // also minmax: (x - p0) / p1
  kDiscretize, // bin index over the edge span
  kGroupBy,    // shared layout of gbmean/gbmax/gbmin/gbstd/gbcount
  kRidge,
  kKrr,
  kCond,
  kGeneric,
};

/// \brief One step of the compiled program: apply `code` to the scratch
/// slots named by `parents`, using the param span
/// [param_begin, param_begin + param_count) of the shared arena, and
/// write the result to scratch slot `out`.
struct Instruction {
  OpCode code = OpCode::kGeneric;
  uint8_t arity = 0;
  /// Mirrors Operator::handles_missing(): when false, any NaN parent
  /// short-circuits to NaN without evaluating the body (the interpreted
  /// path's routing, preserved bit-for-bit).
  bool handles_missing = false;
  uint32_t parents[3] = {0, 0, 0};
  uint32_t out = 0;
  uint32_t param_begin = 0;
  uint32_t param_count = 0;
  /// kGeneric only: index into the compiled plan's fallback tables.
  uint32_t generic_index = 0;
};

/// \brief A fitted FeaturePlan flattened into a linear, allocation-free
/// operator program (DESIGN.md "Serving path").
///
/// Compile() resolves every name once — operators to opcodes, parent and
/// output columns to scratch-slot indices, fitted params into one
/// contiguous arena — and validates the param layouts that the
/// interpreted path only trusts at Apply time. Execute() then runs the
/// program over a caller-owned scratch buffer with zero heap allocations
/// and produces outputs bit-identical to FeaturePlan::TransformRow /
/// Transform (serve_equivalence_test proves this for every registered
/// operator, including NaN routing).
///
/// A CompiledPlan is immutable after Compile, so any number of threads
/// may Execute it concurrently as long as each brings its own scratch.
class CompiledPlan {
 public:
  CompiledPlan() = default;

  [[nodiscard]] static Result<CompiledPlan> Compile(
      const FeaturePlan& plan, const OperatorRegistry& registry);
  /// Compiles against the default registry.
  [[nodiscard]] static Result<CompiledPlan> Compile(const FeaturePlan& plan);

  size_t num_inputs() const { return num_inputs_; }
  size_t num_outputs() const { return selected_slots_.size(); }
  /// Scratch doubles Execute needs: inputs followed by generated slots.
  size_t scratch_size() const { return scratch_size_; }
  const std::vector<Instruction>& instructions() const {
    return instructions_;
  }

  /// Slot indices (into the scratch layout) of the served outputs, in
  /// output order. The batch scorer maps forest split features straight
  /// to these slots so block scoring needs no gather step.
  const std::vector<uint32_t>& selected_slots() const {
    return selected_slots_;
  }

  /// Runs the program on one dense row (length num_inputs(), ordered like
  /// the plan's input schema). `scratch` must hold scratch_size() doubles,
  /// `out` num_outputs(); neither is read on entry. No allocation, no
  /// locks — safe for concurrent callers with distinct buffers.
  void Execute(const double* row, double* scratch, double* out) const;

  /// Execute without the output gather: runs the program on one dense
  /// row and leaves the served outputs in their scratch slots
  /// (selected_slots()), for callers that read them there, like
  /// RowScorer's forest walk.
  void ExecuteSlots(const double* row, double* scratch) const;

  /// Block-wise form of Execute for the vectorized batch path: `panels`
  /// is a slot-major matrix (scratch slot s occupies
  /// [s * stride, s * stride + n)) whose input slots [0, num_inputs())
  /// are already loaded for lanes [0, n); n must be <= stride. Runs each
  /// instruction as one contiguous loop over the whole block — the
  /// dispatch cost is paid once per opcode per block instead of once per
  /// row, and the inner loops are SIMD-friendly — while every lane
  /// reproduces the scalar Execute arithmetic exactly (shared op::
  /// kernels, same NaN short-circuit), so panel contents are
  /// bit-identical to n scalar Execute calls. No allocation, no locks.
  void ExecuteBlock(double* panels, size_t stride, size_t n) const;

  /// Checked convenience wrapper for tests and one-off callers; allocates
  /// the output (and scratch) per call.
  [[nodiscard]] Result<std::vector<double>> ExecuteRow(
      const std::vector<double>& row) const;

 private:
  size_t num_inputs_ = 0;
  size_t scratch_size_ = 0;
  std::vector<Instruction> instructions_;
  std::vector<double> params_;           // contiguous param arena
  std::vector<uint32_t> selected_slots_; // gather list for outputs
  // kGeneric fallback: the operator (kept alive via the registry's
  // shared ownership) and its params staged as the vector Apply expects.
  std::vector<std::shared_ptr<const Operator>> generic_ops_;
  std::vector<std::vector<double>> generic_params_;
};

}  // namespace serve
}  // namespace safe
