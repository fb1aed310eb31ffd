// Static execution plans compiled from a recorded forward trace.
//
// `compile_trace` turns one traced graph forward (deploy/recorder.h) into an
// ExecutionPlan: a topologically ordered step list over a pre-sized buffer
// arena. The compiler
//   * captures every tensor the trace consumed but no traced op produced as
//     a plan constant — under the session's deterministic mask/noise
//     streams the stochastic draws are pure functions of
//     (seed, slot, invocation, replica, chunk offset), so baking them is
//     exact, not approximate;
//   * folds steps whose inputs are all constants (e.g. the first-timestep
//     LSTM recurrent GEMM over the zero initial state);
//   * marks each buffer uniform vs replicated and runs the deterministic
//     stem at 1/T rows, replicating lazily at the first stochastic
//     consumer (the batched-MC lazy-stem transform);
//   * pattern-fuses the InvertedNorm stochastic affine (standalone
//     replica-affine steps, or in-place epilogues on an adjacent
//     linear/conv producer), eval batch-norm + affine chains, and the LSTM
//     gate block;
//   * assigns buffers to arena slots by liveness so one request reuses a
//     small fixed set of allocations.
//
// Executing a plan performs zero heap allocations on the steady-state path:
// the PlanContext owns every buffer and conv workspace, and all kernels are
// the same `*_forward_into` routines the graph ops call (bit-exactness by
// construction, verified by the session against the graph oracle before a
// plan is installed).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/lowered.h"
#include "deploy/recorder.h"
#include "tensor/tensor.h"

namespace ripple::deploy {

struct PlanStats {
  int traced_ops = 0;        // steps the recorder captured
  int steps = 0;             // steps after folding + fusion
  int fused_away = 0;        // traced ops absorbed into fused steps
  int folded_constants = 0;  // steps evaluated at compile time
  int uniform_steps = 0;     // steps running at 1/T rows (lazy stem)
  int replicate_steps = 0;   // explicit uniform->stacked copies
  int epilogue_affines = 0;  // affines folded into a GEMM producer step
  int constants = 0;
  int buffers = 0;
  int arena_slots = 0;
  int64_t arena_bytes = 0;
};

/// Human-readable name of an OpTag ("linear", "lstm_gates", ...). Stable —
/// these are Prometheus label values.
const char* op_tag_name(OpTag tag);

/// Coarse cost bucket of an OpTag for the metrics endpoint's GEMM-vs-
/// epilogue split: "gemm" (linear/conv/lstm_gates, fused epilogues
/// included), "epilogue" (standalone affine/bn_affine), or "other".
const char* op_tag_group(OpTag tag);

/// Process-wide switch for per-step plan profiling. Off (the default), a
/// plan's execute loop pays one relaxed load + branch per call; on, each
/// step is clocked and its nanoseconds accumulate into the plan's profile
/// counters (two relaxed adds per step — plans stay shareable across
/// threads and the steady-state path stays allocation-free either way).
void set_plan_profiling(bool on);
bool plan_profiling_enabled();

/// Accumulated cost of one plan step (or one op tag when aggregated across
/// a session's cached plans, in which case `step` is -1). GEMM-backed tags
/// (linear/conv*) include their fused epilogue; standalone affine/bn_affine
/// steps are the unfused epilogue cost — together they split compiled
/// execution into GEMM vs epilogue time for the metrics endpoint.
struct PlanOpProfile {
  int step = -1;
  OpTag tag = OpTag::kNone;
  const char* name = "";
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};

struct PlanStep {
  OpTag tag = OpTag::kNone;
  // Operand ids: >= 0 indexes the buffer arena, < 0 a plan constant
  // (constant index = -1 - id).
  std::vector<int> args;
  int out = -1;
  int out2 = -1;           // kLstmGates: next cell state
  StepFn fn;               // executor closure (elementwise / shape ops)
  Tensor w, b;             // kLinear/kConv*: weight, bias; kAffine: γ, β
                           // ([R,C], R ∈ {1, T}); kBnAffine: μ, scale
  Tensor g2, b2;           // kBnAffine: γ, β
  int64_t i0 = 0, i1 = 0;  // conv stride/pad; kLstmGates: hidden size
  // Per-replica affine epilogue folded into this GEMM step, applied in
  // place over `out` (InvertedNorm affine_first adjacent to a conv/linear).
  Tensor ep_gamma, ep_beta;
};

class ExecutionPlan;

/// Per-execution buffer set: arena slot storage, the per-buffer tensor
/// views into it, and the conv im2col workspace. One context serves one
/// in-flight request; sessions pool them.
class PlanContext {
 public:
  const Tensor& output() const;

 private:
  friend class ExecutionPlan;
  std::vector<Tensor> slots_;
  std::vector<Tensor> values_;  // per logical buffer, aliasing a slot
  autograd::ConvWorkspace conv_ws_;
  const ExecutionPlan* plan_ = nullptr;
};

class ExecutionPlan {
 public:
  /// Runs the plan on the *unreplicated* chunk input (shape input_shape())
  /// and returns the stacked [T·n, ...] output, owned by `ctx` until the
  /// next execute. Caller must hold the same pack-cache / exec-backend
  /// scopes the graph path uses. No heap allocation.
  const Tensor& execute(const Tensor& x, PlanContext& ctx) const;

  /// Builds a context with every arena slot and workspace pre-sized.
  std::unique_ptr<PlanContext> make_context() const;

  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }
  const PlanStats& stats() const { return stats_; }
  int64_t replicas() const { return replicas_; }

  /// Per-step profile counters (one entry per plan step, in execution
  /// order). All zeros unless executes ran with plan profiling enabled.
  std::vector<PlanOpProfile> op_profile() const;
  /// Zeros the profile counters (safe concurrently with execute).
  void reset_profile() const;

 private:
  friend std::unique_ptr<ExecutionPlan> compile_trace(
      std::vector<TraceStep> steps, const Tensor& stacked_input,
      int64_t replicas, std::string* error);
  friend class PlanContext;

  struct BufferInfo {
    Shape shape;
    int slot = -1;
  };

  /// Per-step profiling accumulators, sized like steps_. Mutable + atomic:
  /// execute() is const and concurrent across pooled contexts.
  struct StepProfile {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> calls{0};
  };

  std::vector<Tensor> constants_;
  std::vector<BufferInfo> buffers_;
  std::vector<int64_t> slot_numel_;
  std::vector<PlanStep> steps_;
  mutable std::unique_ptr<StepProfile[]> profile_;
  int input_buffer_ = -1;
  int output_buffer_ = -1;
  int64_t replicas_ = 1;
  int64_t conv_ws_cols_ = 0;   // max cols numel over conv steps
  int64_t conv_ws_stage_ = 0;  // max stage numel over conv steps
  Shape input_shape_;
  Shape output_shape_;
  PlanStats stats_;
};

/// Compiles a recorded trace into a plan. `stacked_input` is the traced
/// forward's (replicated) input tensor; `replicas` the MC fold factor T.
/// Returns nullptr with `*error` set when the trace has no stable compiled
/// form (aborted trace, unsupported structure). Call under the same
/// pack-cache / exec-backend scopes as serving so constant folding
/// dispatches identically.
std::unique_ptr<ExecutionPlan> compile_trace(std::vector<TraceStep> steps,
                                             const Tensor& stacked_input,
                                             int64_t replicas,
                                             std::string* error);

}  // namespace ripple::deploy
