// Batched Monte-Carlo forward: replica utilities, per-layer mask-stream
// determinism, and batched-vs-serial equivalence at the layer and model
// level (same base seed ⇒ same per-replica outputs).
#include "fault/mc_batch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/inverted_norm.h"
#include "core/mc_stream.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "nn/dropout.h"
#include "serve/session.h"
#include "tensor/ops.h"

namespace ripple {
namespace {

using fault::layer_stream_seed;
using fault::replica_moments_into;
using fault::replicate_batch;

/// The stacked outputs [t·N, ...] of the batched MC fold and of its serial
/// reference, from one session with T = t and x in a single chunk.
struct BatchedAndSerial {
  Tensor batched;
  Tensor serial;
};
BatchedAndSerial batched_and_serial(models::TaskModel& model,
                                    const Tensor& x, int t, uint64_t seed) {
  serve::SessionOptions opts;
  opts.mc_samples = t;
  opts.seed = seed;
  opts.max_batch = x.dim(0) * t;
  serve::InferenceSession session(model, opts);
  return {session.mc_outputs(x), session.mc_outputs_serial(x)};
}

TEST(McBatch, ReplicateBatchTilesReplicaMajor) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = replicate_batch(x, 3);
  EXPECT_EQ(r.shape(), Shape({6, 3}));
  for (int rep = 0; rep < 3; ++rep)
    for (int64_t i = 0; i < x.numel(); ++i)
      EXPECT_FLOAT_EQ(r.data()[rep * x.numel() + i], x.data()[i]);
}

TEST(McBatch, ReplicaMeanAveragesBlocks) {
  Tensor stacked({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});  // t=2, n=2
  float mean[4];
  replica_moments_into(stacked, 2, mean, /*variance=*/nullptr);
  EXPECT_FLOAT_EQ(mean[0], 3.0f);
  EXPECT_FLOAT_EQ(mean[1], 4.0f);
  EXPECT_FLOAT_EQ(mean[2], 5.0f);
  EXPECT_FLOAT_EQ(mean[3], 6.0f);
}

TEST(McBatch, ReplicaMomentsMatchDirectFormula) {
  Tensor stacked({3, 1}, {1.0f, 2.0f, 6.0f});  // t=3, n=1
  float mean = -1.0f;
  float variance = -1.0f;
  replica_moments_into(stacked, 3, &mean, &variance);
  EXPECT_FLOAT_EQ(mean, 3.0f);
  // population variance: ((1-3)² + (2-3)² + (6-3)²)/3 = 14/3
  EXPECT_NEAR(variance, 14.0f / 3.0f, 1e-5f);
}

TEST(McBatch, ReplicaShapeMismatchThrows) {
  Tensor stacked({5, 2});
  float mean[5];
  EXPECT_THROW(replica_moments_into(stacked, 2, mean, nullptr), CheckError);
}

TEST(McBatch, LayerStreamSeedsAreDistinct) {
  EXPECT_NE(layer_stream_seed(1, 0), layer_stream_seed(1, 1));
  EXPECT_NE(layer_stream_seed(1, 0), layer_stream_seed(2, 0));
}

TEST(McBatch, InvertedNormBatchedMatchesSerial) {
  // One layer, T=4 replicas: the batched forward with per-replica masks
  // must reproduce 4 serial forwards drawing from the same stream.
  const int64_t channels = 8;
  const int t = 4;
  core::InvertedNorm::Options opts;
  opts.dropout_p = 0.4f;
  Rng init_rng(5);
  core::InvertedNorm layer(channels, opts, &init_rng);
  layer.set_training(false);
  layer.set_mc_mode(true);

  Rng data_rng(6);
  Tensor x = Tensor::randn({3, channels, 4, 4}, data_rng);
  autograd::NoGradGuard no_grad;

  layer.set_mask_stream(1234);
  layer.set_mc_replicas(t);
  Tensor batched = layer.forward(autograd::Variable(replicate_batch(x, t)))
                       .value();
  layer.set_mc_replicas(1);

  layer.set_mask_stream(1234);  // rewind the stream
  for (int r = 0; r < t; ++r) {
    layer.set_mask_replica_offset(r);
    Tensor serial = layer.forward(autograd::Variable(x)).value();
    const float* pb = batched.data() + r * serial.numel();
    for (int64_t i = 0; i < serial.numel(); ++i)
      ASSERT_NEAR(serial.data()[i], pb[i], 1e-5f)
          << "replica " << r << " at " << i;
  }
  layer.clear_mask_stream();
}

TEST(McBatch, ResNetBatchedMatchesSerial) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  Rng rng(11);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const int t = 5;
  const uint64_t seed = 99;
  const auto [batched, serial] = batched_and_serial(model, x, t, seed);
  ASSERT_EQ(batched.shape(), serial.shape());
  ASSERT_EQ(batched.dim(0), t * x.dim(0));
  for (int64_t i = 0; i < batched.numel(); ++i)
    ASSERT_NEAR(batched.data()[i], serial.data()[i], 1e-4f) << "at " << i;
}

TEST(McBatch, M5BatchedMatchesSerial) {
  models::M5 model({.classes = 8, .width = 4, .input_length = 512},
                   {.variant = models::Variant::kProposed});
  model.set_training(false);
  Rng rng(12);
  Tensor x = Tensor::randn({2, 1, 512}, rng);
  const int t = 3;
  const auto [batched, serial] = batched_and_serial(model, x, t, 7);
  ASSERT_EQ(batched.shape(), serial.shape());
  for (int64_t i = 0; i < batched.numel(); ++i)
    ASSERT_NEAR(batched.data()[i], serial.data()[i], 1e-4f) << "at " << i;
}

TEST(McBatch, LstmBatchedMatchesSerial) {
  models::LstmForecaster model({.hidden = 8, .window = 12},
                               {.variant = models::Variant::kProposed});
  model.set_training(false);
  Rng rng(13);
  Tensor x = Tensor::randn({3, 12, 1}, rng);
  const int t = 4;
  const auto [batched, serial] = batched_and_serial(model, x, t, 21);
  ASSERT_EQ(batched.shape(), serial.shape());
  for (int64_t i = 0; i < batched.numel(); ++i)
    ASSERT_NEAR(batched.data()[i], serial.data()[i], 1e-4f) << "at " << i;
}

TEST(McBatch, DropoutLayerBatchedMatchesSerialBitExact) {
  // Element-wise MC-Dropout under a stream context: one sub-stream per
  // folded replica, so the batched [t·N, ...] mask equals the t serial
  // [N, ...] masks bit-for-bit (no GEMM in the layer, so outputs are
  // bit-equal too).
  const int t = 4;
  nn::Dropout layer(0.4f);
  layer.set_training(false);
  layer.set_mc_mode(true);
  layer.set_stream_slot(0);
  Rng rng(31);
  Tensor x = Tensor::randn({3, 6, 5}, rng);
  autograd::NoGradGuard no_grad;

  Tensor batched;
  {
    core::McStreamContext ctx(/*base_seed=*/99, t, /*replica_offset=*/0, 1);
    core::McStreamScope scope(ctx);
    batched = layer.forward(autograd::Variable(replicate_batch(x, t))).value();
  }
  core::McStreamContext ctx(/*base_seed=*/99, /*replicas=*/1, 0, 1);
  for (int r = 0; r < t; ++r) {
    ctx.rewind(r);
    core::McStreamScope scope(ctx);
    Tensor serial = layer.forward(autograd::Variable(x)).value();
    const float* pb = batched.data() + r * serial.numel();
    for (int64_t i = 0; i < serial.numel(); ++i)
      ASSERT_FLOAT_EQ(serial.data()[i], pb[i]) << "replica " << r << " at "
                                               << i;
  }
  layer.set_stream_slot(-1);
}

TEST(McBatch, SpatialDropoutLayerBatchedMatchesSerialBitExact) {
  const int t = 3;
  nn::SpatialDropout layer(0.5f);
  layer.set_training(false);
  layer.set_mc_mode(true);
  layer.set_stream_slot(0);
  Rng rng(32);
  Tensor x = Tensor::randn({2, 4, 3, 3}, rng);
  autograd::NoGradGuard no_grad;

  Tensor batched;
  {
    core::McStreamContext ctx(/*base_seed=*/77, t, /*replica_offset=*/0, 1);
    core::McStreamScope scope(ctx);
    batched = layer.forward(autograd::Variable(replicate_batch(x, t))).value();
  }
  core::McStreamContext ctx(/*base_seed=*/77, /*replicas=*/1, 0, 1);
  for (int r = 0; r < t; ++r) {
    ctx.rewind(r);
    core::McStreamScope scope(ctx);
    Tensor serial = layer.forward(autograd::Variable(x)).value();
    const float* pb = batched.data() + r * serial.numel();
    for (int64_t i = 0; i < serial.numel(); ++i)
      ASSERT_FLOAT_EQ(serial.data()[i], pb[i]) << "replica " << r << " at "
                                               << i;
  }
  layer.set_stream_slot(-1);
}

TEST(McBatch, SpinDropModelBatchedMatchesSerial) {
  // The MC-Dropout baselines now share the deterministic stream hooks, so
  // their batched and serial passes sample identical masks (ROADMAP open
  // item) and agree like the proposed variant does.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kSpinDrop});
  model.set_training(false);
  Rng rng(33);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const int t = 4;
  const auto [batched, serial] = batched_and_serial(model, x, t, 55);
  ASSERT_EQ(batched.shape(), serial.shape());
  for (int64_t i = 0; i < batched.numel(); ++i)
    ASSERT_NEAR(batched.data()[i], serial.data()[i], 1e-4f) << "at " << i;
}

TEST(McBatch, SpatialSpinDropModelBatchedMatchesSerial) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kSpatialSpinDrop});
  model.set_training(false);
  Rng rng(34);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  const int t = 3;
  const auto [batched, serial] = batched_and_serial(model, x, t, 66);
  ASSERT_EQ(batched.shape(), serial.shape());
  for (int64_t i = 0; i < batched.numel(); ++i)
    ASSERT_NEAR(batched.data()[i], serial.data()[i], 1e-4f) << "at " << i;
}

TEST(McBatch, ConventionalClampsToOneSample) {
  // The deterministic variant has no stochastic layers: the session clamps
  // T to 1 and its single "replica" is a plain forward.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kConventional});
  model.set_training(false);
  Rng rng(14);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor plain = model.predict(x);
  serve::SessionOptions opts;
  opts.mc_samples = 3;
  opts.seed = 1;
  serve::InferenceSession session(model, opts);
  EXPECT_EQ(session.samples(), 1);
  Tensor stacked = session.mc_outputs(x);
  ASSERT_EQ(stacked.shape(), plain.shape());
  for (int64_t i = 0; i < plain.numel(); ++i)
    ASSERT_NEAR(stacked.data()[i], plain.data()[i], 1e-4f);
}

TEST(McBatch, ClassifyAggregatesReplicas) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  Rng rng(15);
  Tensor x = Tensor::randn({3, 3, 16, 16}, rng);
  serve::SessionOptions opts;
  opts.mc_samples = 6;
  opts.seed = 2;
  serve::InferenceSession session(model, opts);
  const serve::Classification mc = session.classify(x);
  EXPECT_EQ(mc.samples, 6);
  ASSERT_EQ(mc.mean_probs.shape(), Shape({3, 10}));
  ASSERT_EQ(mc.variance.shape(), Shape({3, 10}));
  ASSERT_EQ(mc.predictions.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (int64_t c = 0; c < 10; ++c) {
      const float p = mc.mean_probs.at({i, c});
      EXPECT_GE(p, 0.0f);
      row_sum += p;
      EXPECT_GE(mc.variance.at({i, c}), 0.0f);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-4);
  }
}

TEST(McBatch, LazyStemReplicationMatchesEagerBitExact) {
  // The batched-MC fold eagerly replicates the input to [t·N, ...] and
  // runs the whole network at stacked rows — wasted work for the
  // deterministic stem ahead of the first stochastic layer, whose t
  // replica blocks are identical by construction. The compiled plan runs
  // that stem once at 1/t rows and replicates lazily at the first
  // stochastic consumer; since the per-replica affine masks are
  // row-independent, the transform must be bit-exact, not just close.
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  model.deploy();
  serve::SessionOptions opts;
  opts.task = serve::TaskKind::kClassification;
  opts.mc_samples = 4;
  opts.seed = 42;

  Tensor eager;
  {
    serve::SessionOptions graph = opts;
    graph.compile = false;  // graph path: eager replicate_batch at input
    serve::InferenceSession oracle(model, graph);
    Rng rng(17);
    eager = oracle.mc_outputs(Tensor::randn({2, 3, 16, 16}, rng));
  }

  serve::InferenceSession session(model, opts);
  serve::PlanInfo info = session.precompile({2, 3, 16, 16});
  ASSERT_TRUE(info.compiled) << info.fallback_reason;
  ASSERT_GT(info.stats.uniform_steps, 0)
      << "stem did not run at uniform rows";
  ASSERT_GT(info.stats.replicate_steps + info.stats.epilogue_affines, 0);
  Rng rng(17);
  Tensor lazy = session.mc_outputs(Tensor::randn({2, 3, 16, 16}, rng));
  ASSERT_EQ(eager.shape(), lazy.shape());
  for (int64_t i = 0; i < eager.numel(); ++i)
    ASSERT_EQ(eager.data()[i], lazy.data()[i]) << "at " << i;
}

TEST(McBatch, BatchedForwardRestoresLayerState) {
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             {.variant = models::Variant::kProposed});
  model.set_training(false);
  Rng rng(16);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  {
    serve::SessionOptions opts;
    opts.mc_samples = 4;
    opts.seed = 3;
    serve::InferenceSession session(model, opts);
    (void)session.mc_outputs(x);
  }
  // After the session closes the model must run plain single-pass
  // inference again (replicas back to 1, mask streams cleared).
  for (auto* l : model.inverted_norm_layers()) {
    EXPECT_EQ(l->mc_replicas(), 1);
    EXPECT_FALSE(l->mc_mode());
  }
  Tensor y = model.predict(x);
  EXPECT_EQ(y.shape(), Shape({1, 10}));
}

}  // namespace
}  // namespace ripple
