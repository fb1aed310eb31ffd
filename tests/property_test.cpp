// Property-style parameterized sweeps: invariants that must hold across
// the whole configuration space of the core layer and its substrates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "core/inverted_norm.h"
#include "data/synthetic_images.h"
#include "data/transforms.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/trainer.h"
#include "models/unet.h"
#include "quant/bitcodec.h"
#include "quant/quantizer.h"
#include "serve/session.h"
#include "tensor/ops.h"

namespace ripple {
namespace {

namespace ag = ripple::autograd;

// ---- InvertedNorm invariants across (channels, groups, rank) --------------

using NormCase = std::tuple<int64_t, int64_t, int>;  // channels, groups, rank

class InvertedNormSpace : public ::testing::TestWithParam<NormCase> {
 protected:
  Tensor make_input(int64_t channels, int rank, Rng& rng) {
    if (rank == 2) return Tensor::randn({4, channels}, rng, 2.0f, 3.0f);
    if (rank == 3) return Tensor::randn({3, channels, 6}, rng, 2.0f, 3.0f);
    return Tensor::randn({2, channels, 4, 4}, rng, 2.0f, 3.0f);
  }
};

TEST_P(InvertedNormSpace, OutputSlabsAreStandardized) {
  const auto [channels, groups, rank] = GetParam();
  Rng rng(1);
  core::InvertedNorm::Options opts;
  opts.groups = groups;
  opts.dropout_p = 0.0f;
  core::InvertedNorm norm(channels, opts, &rng);
  Rng data_rng(2);
  Tensor x = make_input(channels, rank, data_rng);
  ag::Variable y = norm.forward(ag::Variable(x));
  ASSERT_EQ(y.shape(), x.shape());
  int64_t inner = 1;
  for (int d = 2; d < x.rank(); ++d) inner *= x.dim(d);
  const int64_t slab = (channels / groups) * inner;
  const int64_t slabs = x.dim(0) * groups;
  const float* p = y.value().data();
  for (int64_t s = 0; s < slabs; ++s) {
    double mean = 0.0;
    for (int64_t i = 0; i < slab; ++i) mean += p[s * slab + i];
    mean /= static_cast<double>(slab);
    EXPECT_NEAR(mean, 0.0, 1e-3) << "slab " << s;
  }
}

TEST_P(InvertedNormSpace, ScaleShiftInvarianceOfComposition) {
  // For groups == 1 the whole-instance standardization must cancel any
  // global affine corruption of the input (the Fig. 1 mechanism). For
  // grouped norms this holds per group as well since the corruption is
  // global.
  const auto [channels, groups, rank] = GetParam();
  Rng rng(3);
  core::InvertedNorm::Options opts;
  opts.groups = groups;
  opts.dropout_p = 0.0f;
  opts.init = core::AffineInit::constant();
  core::InvertedNorm norm(channels, opts, &rng);
  Rng data_rng(4);
  Tensor x = make_input(channels, rank, data_rng);
  Tensor corrupted = ops::add_scalar(ops::mul_scalar(x, 1.7f), -3.0f);
  ag::Variable y0 = norm.forward(ag::Variable(x));
  ag::Variable y1 = norm.forward(ag::Variable(corrupted));
  for (int64_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(y0.value().data()[i], y1.value().data()[i], 2e-3f);
}

TEST_P(InvertedNormSpace, GradCheck) {
  const auto [channels, groups, rank] = GetParam();
  Rng rng(5);
  core::InvertedNorm::Options opts;
  opts.groups = groups;
  opts.dropout_p = 0.0f;
  core::InvertedNorm norm(channels, opts, &rng);
  Rng data_rng(6);
  Tensor x = make_input(channels, rank, data_rng);
  Rng w_rng(7);
  Tensor w = Tensor::randn(x.shape(), w_rng);
  std::vector<ag::Variable> inputs = {ag::Variable(x, true)};
  auto r = ag::gradcheck(
      [&norm, &w](std::vector<ag::Variable>& v) {
        return ag::sum_all(ag::mul(norm.forward(v[0]), ag::Variable(w)));
      },
      inputs);
  EXPECT_LT(r.max_rel_error, 5e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Space, InvertedNormSpace,
    ::testing::Values(NormCase{4, 1, 2}, NormCase{8, 1, 3},
                      NormCase{8, 2, 4}, NormCase{8, 8, 4},
                      NormCase{6, 3, 3}, NormCase{4, 2, 2}));

// ---- quantizer round-trip across bit widths --------------------------------

class QuantizerBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerBits, BitFlipNeverEscapesRepresentableRange) {
  const int bits = GetParam();
  auto q = quant::make_quantizer(bits);
  Rng rng(8);
  Tensor w = Tensor::randn({128}, rng, 0.0f, 0.2f);
  q->calibrate(w);
  Tensor deployed = q->decode(q->encode(w), w.shape());
  const float wmax = ops::max(ops::abs(deployed));
  // Two's complement is asymmetric: the most negative code is
  // −2^(b−1) = −(qmax+1), so the representable magnitude exceeds the
  // positive max by (qmax+1)/qmax.
  const float qmax =
      bits == 1 ? 1.0f : static_cast<float>((1 << (bits - 1)) - 1);
  const float bound = wmax * (qmax + (bits == 1 ? 0.0f : 1.0f)) / qmax;
  auto codes = q->encode(deployed);
  for (int trial = 0; trial < 4; ++trial) {
    auto flipped = codes;
    quant::flip_random_bits(flipped, bits, 0.3f, rng);
    Tensor faulty = q->decode(flipped, w.shape());
    EXPECT_LE(ops::max(ops::abs(faulty)), bound + 1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerBits, ::testing::Values(1, 2, 4, 8));

// ---- rotation transform properties across angles ---------------------------

class RotationAngles : public ::testing::TestWithParam<float> {};

TEST_P(RotationAngles, CenterPixelIsStable) {
  const float deg = GetParam();
  Rng rng(9);
  Tensor x = Tensor::randn({1, 1, 9, 9}, rng);
  Tensor y = data::rotate_images(x, deg);
  EXPECT_NEAR(y.at({0, 0, 4, 4}), x.at({0, 0, 4, 4}), 1e-4f);
}

TEST_P(RotationAngles, OutputStaysBoundedByInputRange) {
  const float deg = GetParam();
  Rng rng(10);
  Tensor x = Tensor::uniform({2, 1, 8, 8}, rng, -1.0f, 1.0f);
  Tensor y = data::rotate_images(x, deg);
  // Bilinear interpolation is a convex combination (plus zero padding).
  EXPECT_GE(ops::min(y), -1.0f - 1e-5f);
  EXPECT_LE(ops::max(y), 1.0f + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Angles, RotationAngles,
                         ::testing::Values(7.0f, 21.0f, 45.0f, 84.0f,
                                           -30.0f, 180.0f));

// ---- training-loop invariants ----------------------------------------------

TEST(TrainerProperty, LossCurveIsFiniteAndBounded) {
  Rng data_rng(11);
  data::ClassificationData train =
      data::make_images(80, data::ImageConfig{}, data_rng);
  models::VariantConfig vc;
  vc.variant = models::Variant::kProposed;
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 4},
                             vc);
  models::TrainConfig tc;
  tc.epochs = 3;
  const models::TrainLog log = models::train_classifier(model, train, tc);
  for (double l : log.epoch_losses) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GT(l, 0.0);
    EXPECT_LT(l, 10.0);
  }
}

// ---- serving session: randomized differential checks ----------------------

/// A deployed zoo model with its task and per-row input shape.
struct ZooDraw {
  std::unique_ptr<models::TaskModel> model;
  serve::TaskKind task;
  Shape row;
};

ZooDraw draw_zoo_model(Rng& rng) {
  const models::Variant variants[] = {
      models::Variant::kConventional, models::Variant::kSpinDrop,
      models::Variant::kSpatialSpinDrop, models::Variant::kProposed};
  const models::VariantConfig vc{.variant = variants[rng.next_u64() % 4]};
  ZooDraw d;
  switch (rng.next_u64() % 4) {
    case 0:
      d.model = std::make_unique<models::BinaryResNet>(
          models::BinaryResNet::Topology{
              .in_channels = 3, .classes = 10, .width = 4},
          vc);
      d.task = serve::TaskKind::kClassification;
      d.row = {3, 16, 16};
      break;
    case 1:
      d.model = std::make_unique<models::M5>(
          models::M5::Topology{.classes = 8, .width = 4, .input_length = 256},
          vc);
      d.task = serve::TaskKind::kClassification;
      d.row = {1, 256};
      break;
    case 2:
      d.model = std::make_unique<models::LstmForecaster>(
          models::LstmForecaster::Topology{.hidden = 8, .window = 12}, vc);
      d.task = serve::TaskKind::kRegression;
      d.row = {12, 1};
      break;
    default:
      d.model = std::make_unique<models::UNet>(
          models::UNet::Topology{.base_channels = 4}, vc);
      d.task = serve::TaskKind::kSegmentation;
      d.row = {1, 16, 16};
      break;
  }
  d.model->set_training(false);
  d.model->deploy();
  return d;
}

/// Every float of a prediction, in a fixed order, for bitwise comparison.
std::vector<float> flatten(const serve::Prediction& p) {
  std::vector<float> out;
  const auto add = [&out](const Tensor& t) {
    out.insert(out.end(), t.data(), t.data() + t.numel());
  };
  if (const auto* c = std::get_if<serve::Classification>(&p)) {
    add(c->mean_probs);
    add(c->variance);
    add(c->entropy);
    for (const int64_t k : c->predictions)
      out.push_back(static_cast<float>(k));
  } else if (const auto* r = std::get_if<serve::Regression>(&p)) {
    add(r->mean);
    add(r->stddev);
  } else {
    add(std::get<serve::Segmentation>(p).mean_probs);
  }
  return out;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(SessionProperty, RandomizedDifferential) {
  // Each seed draws (zoo model and variant, rows n — up to past two
  // chunks —, T, max_batch, compile) and checks the session's contracts:
  // the batched fold agrees with its serial reference, predict and
  // predict_into serve the same bits, and a second session under the same
  // seed — compiled where the first ran on the graph, and vice versa —
  // reproduces the first. The seed list is fixed, so the draws are too;
  // together they take a few seconds.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ZooDraw d = draw_zoo_model(rng);
    serve::SessionOptions opts;
    opts.task = d.task;
    opts.mc_samples = 1 + static_cast<int>(rng.next_u64() % 6);
    const int t = models::mc_samples_for(d.model->variant(), opts.mc_samples);
    const int64_t chunk_rows = 1 + static_cast<int64_t>(rng.next_u64() % 3);
    opts.max_batch = t * chunk_rows;
    opts.compile = rng.next_u64() % 2 == 0;
    opts.seed = rng.next_u64();
    const int64_t n = 1 + static_cast<int64_t>(rng.next_u64() %
                                               (2 * chunk_rows + 1));
    Shape shape = d.row;
    shape.insert(shape.begin(), n);
    const Tensor x = Tensor::randn(shape, rng);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": " << d.model->name() << " "
                 << models::variant_name(d.model->variant()) << " n=" << n
                 << " T=" << opts.mc_samples << " max_batch="
                 << opts.max_batch << " compile=" << opts.compile);

    std::vector<float> first;
    {
      serve::InferenceSession session(*d.model, opts);
      ASSERT_EQ(session.samples(), t);
      ASSERT_EQ(session.chunk_rows(), chunk_rows);
      const Tensor batched = session.mc_outputs(x);
      const Tensor serial = session.mc_outputs_serial(x);
      ASSERT_EQ(batched.shape(), serial.shape());
      ASSERT_EQ(batched.dim(0), t * n);
      for (int64_t i = 0; i < batched.numel(); ++i)
        ASSERT_NEAR(batched.data()[i], serial.data()[i], 1e-4f) << "at " << i;

      first = flatten(session.predict(x));
      serve::Prediction into;
      session.predict_into(x, into);  // fresh result
      EXPECT_TRUE(bit_equal(first, flatten(into)));
      session.predict_into(x, into);  // reused result storage
      EXPECT_TRUE(bit_equal(first, flatten(into)));
    }
    opts.compile = !opts.compile;
    serve::InferenceSession again(*d.model, opts);
    EXPECT_TRUE(bit_equal(first, flatten(again.predict(x))));
  }
}

}  // namespace
}  // namespace ripple
