#include "fault/mc_batch.h"

#include <cstring>

#include "core/mc_stream.h"
#include "tensor/check.h"
#include "tensor/random.h"

namespace ripple::fault {

Tensor replicate_batch(const Tensor& x, int t) {
  RIPPLE_CHECK(t >= 1) << "replicate_batch needs t >= 1";
  RIPPLE_CHECK(x.rank() >= 1) << "replicate_batch needs a batched tensor";
  Shape shape = x.shape();
  shape[0] *= t;
  Tensor out(shape);
  const size_t block = sizeof(float) * static_cast<size_t>(x.numel());
  for (int r = 0; r < t; ++r)
    std::memcpy(out.data() + static_cast<int64_t>(r) * x.numel(), x.data(),
                block);
  return out;
}

void replica_moments_into(const Tensor& stacked, int t, float* mean,
                          float* variance) {
  RIPPLE_CHECK(t >= 1) << "replica reduction needs t >= 1";
  RIPPLE_CHECK(stacked.rank() >= 1 && stacked.dim(0) % t == 0)
      << "stacked dim 0 (" << (stacked.rank() >= 1 ? stacked.dim(0) : 0)
      << ") not divisible into " << t << " replicas";
  const int64_t block = stacked.numel() / t;
  const size_t bytes = sizeof(float) * static_cast<size_t>(block);
  std::memset(mean, 0, bytes);
  if (variance != nullptr) std::memset(variance, 0, bytes);
  const float* ps = stacked.data();
  for (int r = 0; r < t; ++r) {
    const float* src = ps + static_cast<int64_t>(r) * block;
    for (int64_t i = 0; i < block; ++i) mean[i] += src[i];
    if (variance != nullptr)
      for (int64_t i = 0; i < block; ++i) variance[i] += src[i] * src[i];
  }
  const float inv = 1.0f / static_cast<float>(t);
  for (int64_t i = 0; i < block; ++i) mean[i] *= inv;
  if (variance == nullptr) return;
  for (int64_t i = 0; i < block; ++i) {
    const float var = variance[i] * inv - mean[i] * mean[i];
    variance[i] = var > 0.0f ? var : 0.0f;
  }
}

uint64_t layer_stream_seed(uint64_t base_seed, size_t layer_index) {
  // Single source of truth for the derivation: the serving path
  // (core/mc_stream.h) must sample the same streams.
  return core::mc_layer_seed(base_seed, layer_index);
}

}  // namespace ripple::fault
