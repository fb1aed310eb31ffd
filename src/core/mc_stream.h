// Per-forward-pass Monte-Carlo mask-stream context.
//
// The legacy MC surface seeds mask streams by *mutating the layers*
// (InvertedNorm::set_mask_stream / set_mask_replica_offset), which makes a
// model unusable from more than one thread: two concurrent passes would
// race on the per-layer invocation counters. The serving path inverts the
// ownership: all stream state for one forward pass lives in an
// McStreamContext owned by the caller and installed thread-locally for the
// duration of the pass (McStreamScope). Stochastic layers that were bound
// to a stream slot consult the active context instead of their members, so
// any number of threads can run passes through one model concurrently —
// each with its own counters — and a fixed (seed, slot) always reproduces
// the same masks.
//
// Seed derivation is shared with (and identical to) the legacy per-layer
// path (InvertedNorm::set_mask_stream), so both sample exactly the same
// masks for the same base seed:
//   layer stream   s_l = splitmix64(base ^ (K1 · (slot+1)))
//   invocation     s_i = splitmix64(s_l  ^ (K2 · (invocation+1)))
//   replica        s_r = splitmix64(s_i  ^ (K3 · (replica+1)))
// InvertedNorm consumes s_i directly (replica order = draw order, §III-B);
// element-wise dropout derives one s_r sub-stream per folded replica so the
// batched and serial paths sample bit-identical masks.
//
// Determinism contract (what plan compilation relies on): every stochastic
// draw in a serving forward is a pure function of
//   (session seed, stream slot, invocation index, replica, chunk offset)
// — no wall clock, no global RNG, no cross-request state. Two passes under
// the same context parameters therefore produce bit-identical masks, noise
// tensors and quantizer draws, which is what lets deploy/plan.h bake the
// draws of one traced forward into plan *constants* and replay them
// exactly for every later request on that (shape, chunk offset) key. Any
// new source of serving randomness MUST derive from this contract (take a
// slot, consult the active context); sampling outside it would make traced
// forwards unrepeatable and silently disable plan compilation's
// verification gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ripple::core {

/// Per-layer stream seed: independent stream per (base seed, slot).
uint64_t mc_layer_seed(uint64_t base_seed, size_t slot);

/// Per-invocation sub-stream (recurrent models invoke a layer once per
/// timestep; each invocation owns an independent replica-ordered stream).
uint64_t mc_invocation_seed(uint64_t layer_seed, int64_t invocation);

/// Per-replica sub-stream of one invocation, for layers whose mask size
/// depends on the batch shape (element-wise dropout): deriving instead of
/// burning draws keeps serial replay O(1).
uint64_t mc_replica_seed(uint64_t invocation_seed, int64_t replica);

/// Folds a chunk's starting row into a replica sub-stream so row-dependent
/// masks (element/spatial dropout) never repeat when one request is split
/// into chunks. Identity at chunk_offset == 0, so unchunked passes — and
/// the first chunk — keep the original derivation.
uint64_t mc_chunk_seed(uint64_t replica_seed, int64_t chunk_offset);

/// Mixes an experiment-level salt into a stream seed. Identity at salt == 0.
/// The fault injector stamps a fresh salt per chip instance so stream-bound
/// activation noise still varies run-to-run while staying deterministic —
/// and therefore concurrency-safe — within one run.
uint64_t mc_salted_seed(uint64_t seed, uint64_t salt);

/// Stream state for ONE forward pass. Not shared between passes: construct
/// (or rewind) a fresh context per pass so invocation counters start at 0.
class McStreamContext {
 public:
  /// `slots` is the number of bound stochastic layers; `replicas` > 1 folds
  /// that many MC samples into the batch dim (replica-major); a serial pass
  /// for replica r uses replicas = 1 and replica_offset = r.
  McStreamContext(uint64_t base_seed, int64_t replicas, int64_t replica_offset,
                  size_t slots);

  /// Seed of the current invocation of `slot`; bumps the slot's counter.
  uint64_t next_invocation_seed(size_t slot);

  /// Resets every invocation counter and retargets the pass at replica
  /// `replica_offset` — reuse one context across the passes of a serial
  /// loop without reallocating.
  void rewind(int64_t replica_offset);

  int64_t replicas() const { return replicas_; }
  int64_t replica_offset() const { return replica_offset_; }

  /// Starting row of the chunk this pass serves (0 = whole request).
  /// Row-independent masks (InvertedNorm affine pairs) ignore it — that is
  /// what makes chunked and unchunked passes agree for the proposed
  /// variant; row-dependent dropout mixes it in via mc_chunk_seed.
  void set_chunk_offset(int64_t rows) { chunk_offset_ = rows; }
  int64_t chunk_offset() const { return chunk_offset_; }

  /// Lazy stem replication (graph-served batched passes): when nonzero,
  /// the pass entered the model with the *unreplicated* n-row chunk even
  /// though replicas() > 1. Deterministic-stem tensors then carry n rows —
  /// every row set is replica-uniform by construction — until the first
  /// replica-dependent consumer expands them to replicas()·n rows
  /// (core/lazy_stem.h). Invariant: every batch-shaped tensor in such a
  /// pass has either n or replicas()·n rows. 0 = off (eager replication).
  void set_lazy_stem_rows(int64_t rows) { lazy_stem_rows_ = rows; }
  int64_t lazy_stem_rows() const { return lazy_stem_rows_; }

 private:
  int64_t replicas_;
  int64_t replica_offset_;
  int64_t chunk_offset_ = 0;
  int64_t lazy_stem_rows_ = 0;
  std::vector<uint64_t> layer_seeds_;  // derived once per context
  std::vector<int64_t> invocations_;
};

/// The context installed on this thread, or nullptr outside any pass.
McStreamContext* active_mc_stream();

/// RAII: installs `ctx` as this thread's active context.
class McStreamScope {
 public:
  explicit McStreamScope(McStreamContext& ctx);
  ~McStreamScope();
  McStreamScope(const McStreamScope&) = delete;
  McStreamScope& operator=(const McStreamScope&) = delete;

 private:
  McStreamContext* previous_;
};

}  // namespace ripple::core
