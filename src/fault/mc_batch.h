// Batched Monte-Carlo forward-pass utilities (tensor level).
//
// The Bayesian MC estimate needs T stochastic forward passes per input.
// Run serially, every pass pays the full per-pass overhead: weight
// transforms, GEMM weight packing, graph-node and output allocations,
// per-layer dispatch. The batched path folds the T samples into the batch
// dimension instead: the input batch [N, ...] is replicated once to
// [T·N, ...] (replica-major: rows [r·N, (r+1)·N) belong to replica r), ONE
// forward pass runs, and only the stochastic layers (InvertedNorm affine
// dropout) diverge per replica via per-replica masks. im2col, GEMM packing
// and conv weights are amortized across all T samples.
//
// Determinism contract: each InvertedNorm layer draws its masks from an
// independent per-layer stream seeded with layer_stream_seed(base, i). A
// layer then consumes mask pairs in replica order r = 0..T-1 — exactly the
// order T serial passes would consume them — so the batched and serial
// paths sample identical masks for the same base seed and agree to float
// rounding (the grouped conv GEMM tiles the two batch widths differently,
// so last-ulp differences are possible; tests assert 1e-4 agreement). The
// model-level entry points are serve::InferenceSession::mc_outputs and its
// serial reference, mc_outputs_serial (serve/session.h).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace ripple::fault {

/// Tiles x [N, ...] t times along dim 0 -> [t·N, ...], replica-major.
Tensor replicate_batch(const Tensor& x, int t);

/// Across-replica mean and population variance (E[y²]−E[y]², clamped at 0
/// against rounding) of a stacked [t·N, ...] tensor, written to
/// caller-owned buffers of stacked.numel() / t floats each. `variance` may
/// be null for the mean alone. Allocation-free: the serving session
/// aggregates every prediction through this loop.
void replica_moments_into(const Tensor& stacked, int t, float* mean,
                          float* variance);

/// Deterministic per-layer mask-stream seed for batched/serial MC parity.
uint64_t layer_stream_seed(uint64_t base_seed, size_t layer_index);

}  // namespace ripple::fault
