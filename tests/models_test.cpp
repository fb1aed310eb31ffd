#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "models/zoo.h"
#include "serve/metrics.h"
#include "serve/session.h"
#include "tensor/ops.h"

namespace ripple::models {
namespace {

VariantConfig config_for(Variant v) {
  VariantConfig c;
  c.variant = v;
  return c;
}

BinaryResNet::Topology tiny_resnet() {
  return {.in_channels = 3, .classes = 10, .width = 4};
}

class ResNetVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(ResNetVariants, ForwardShape) {
  BinaryResNet model(tiny_resnet(), config_for(GetParam()));
  Rng rng(1);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  autograd::Variable y = model.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST_P(ResNetVariants, PredictIsGraphFree) {
  BinaryResNet model(tiny_resnet(), config_for(GetParam()));
  Rng rng(2);
  Tensor out = model.predict(Tensor::randn({1, 3, 16, 16}, rng));
  EXPECT_EQ(out.shape(), Shape({1, 10}));
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ResNetVariants,
                         ::testing::ValuesIn(all_variants()));

TEST(Variants, NamesAndMcSamples) {
  EXPECT_STREQ(variant_name(Variant::kProposed), "Proposed");
  EXPECT_STREQ(variant_name(Variant::kConventional), "NN");
  EXPECT_EQ(all_variants().size(), 4u);
  EXPECT_EQ(mc_samples_for(Variant::kConventional, 16), 1);
  EXPECT_EQ(mc_samples_for(Variant::kProposed, 16), 16);
}

TEST(BinaryResNet, DeploySnapsWeightsToBinaryGrid) {
  BinaryResNet model(tiny_resnet(), config_for(Variant::kProposed));
  model.deploy();
  EXPECT_TRUE(model.deployed());
  // Binary conv weights are now exactly ±α per tensor.
  for (const auto& t : model.fault_targets()) {
    if (t.quantizer == nullptr) continue;
    const Tensor& w = t.param->var.value();
    const float alpha = std::fabs(w.data()[0]);
    for (float v : w.span()) EXPECT_NEAR(std::fabs(v), alpha, 1e-6f);
  }
}

TEST(BinaryResNet, DeployPreservesForward) {
  // Deployment replaces the QAT transform by the identity on deployed
  // weights — the function computed must not change.
  BinaryResNet model(tiny_resnet(), config_for(Variant::kConventional));
  model.set_training(false);
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor before = model.predict(x);
  model.deploy();
  Tensor after = model.predict(x);
  for (int64_t i = 0; i < before.numel(); ++i)
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-4f);
}

TEST(BinaryResNet, DoubleDeployThrows) {
  BinaryResNet model(tiny_resnet(), config_for(Variant::kProposed));
  model.deploy();
  EXPECT_THROW(model.deploy(), CheckError);
}

TEST(BinaryResNet, FaultTargetInventory) {
  BinaryResNet model(tiny_resnet(), config_for(Variant::kProposed));
  const auto targets = model.fault_targets();
  // stem + head (no quantizer) + 5 binary convs (with quantizer).
  int quantized = 0;
  int full_precision = 0;
  for (const auto& t : targets)
    t.quantizer != nullptr ? ++quantized : ++full_precision;
  EXPECT_EQ(quantized, 5);
  EXPECT_EQ(full_precision, 2);
  EXPECT_TRUE(model.binary_weights());
}

TEST(BinaryResNet, ProposedMcForwardIsStochastic) {
  BinaryResNet model(tiny_resnet(), config_for(Variant::kProposed));
  model.set_training(false);
  model.set_mc_mode(true);
  Rng rng(4);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  Tensor a = model.predict(x);
  bool differ = false;
  for (int i = 0; i < 8 && !differ; ++i) {
    Tensor b = model.predict(x);
    for (int64_t k = 0; k < a.numel(); ++k)
      if (a.data()[k] != b.data()[k]) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(BinaryResNet, ConventionalEvalIsDeterministic) {
  BinaryResNet model(tiny_resnet(), config_for(Variant::kConventional));
  model.set_training(false);
  model.set_mc_mode(true);  // no stochastic layers — still deterministic
  Rng rng(5);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  Tensor a = model.predict(x);
  Tensor b = model.predict(x);
  for (int64_t k = 0; k < a.numel(); ++k)
    EXPECT_FLOAT_EQ(a.data()[k], b.data()[k]);
}

TEST(M5, ForwardShapeAllVariants) {
  for (Variant v : all_variants()) {
    M5 model({.classes = 8, .width = 4, .input_length = 512},
             config_for(v));
    Rng rng(6);
    Tensor x = Tensor::randn({2, 1, 512}, rng);
    EXPECT_EQ(model.forward(x).shape(), Shape({2, 8}));
  }
}

TEST(M5, DeploySnapsWeightsToIntGrid) {
  M5 model({.classes = 8, .width = 4, .input_length = 512},
           config_for(Variant::kProposed));
  model.deploy();
  for (const auto& t : model.fault_targets()) {
    ASSERT_NE(t.quantizer, nullptr);  // every M5 weight is 8-bit
    const auto codes = t.quantizer->encode(t.param->var.value());
    Tensor back = t.quantizer->decode(codes, t.param->var.value().shape());
    for (int64_t i = 0; i < back.numel(); ++i)
      EXPECT_NEAR(back.data()[i], t.param->var.value().data()[i], 1e-6f);
  }
  EXPECT_FALSE(model.binary_weights());
}

TEST(LstmForecaster, ForwardShapeAllVariants) {
  for (Variant v : all_variants()) {
    LstmForecaster model({.hidden = 8, .window = 12}, config_for(v));
    Rng rng(7);
    Tensor x = Tensor::randn({3, 12, 1}, rng);
    EXPECT_EQ(model.forward(x).shape(), Shape({3, 1}));
  }
}

TEST(LstmForecaster, FaultTargetsCoverCellsAndHead) {
  LstmForecaster model({.hidden = 8, .window = 12},
                       config_for(Variant::kProposed));
  // 2 cells × 2 matrices + head.
  EXPECT_EQ(model.fault_targets().size(), 5u);
}

TEST(UNet, ForwardShapeAllVariants) {
  for (Variant v : all_variants()) {
    UNet model({.base_channels = 8}, config_for(v));
    Rng rng(8);
    Tensor x = Tensor::randn({2, 1, 16, 16}, rng);
    EXPECT_EQ(model.forward(x).shape(), Shape({2, 1, 16, 16}));
  }
}

TEST(UNet, RejectsIndivisibleSpatialDims) {
  UNet model({.base_channels = 8}, config_for(Variant::kProposed));
  EXPECT_THROW(model.forward(Tensor({1, 1, 18, 18})), CheckError);
}

TEST(UNet, BinaryWeightsAndGroups) {
  UNet model({.base_channels = 8}, config_for(Variant::kProposed));
  EXPECT_TRUE(model.binary_weights());
  model.deploy();
  int quantized = 0;
  for (const auto& t : model.fault_targets())
    if (t.quantizer != nullptr) ++quantized;
  EXPECT_EQ(quantized, 5);  // enc1, enc2, bottleneck, dec2, dec1
}

TEST(Evaluate, AccuracyOnSeparableToyData) {
  // An untrained model should be near chance on balanced data.
  BinaryResNet model(tiny_resnet(), config_for(Variant::kConventional));
  Rng rng(9);
  data::ClassificationData d;
  d.x = Tensor::randn({40, 3, 16, 16}, rng);
  for (int64_t i = 0; i < 40; ++i) d.y.push_back(i % 10);
  serve::SessionOptions opts;
  opts.mc_samples = 1;
  serve::InferenceSession session(model, opts);
  const double acc = serve::accuracy(session, d);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 0.4);
}

TEST(Zoo, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ripple_zoo_test.rplm")
          .string();
  BinaryResNet a(tiny_resnet(), config_for(Variant::kProposed));
  save_state(a, path);
  BinaryResNet b(tiny_resnet(), config_for(Variant::kProposed));
  ASSERT_TRUE(load_state(b, path));
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i)
    for (int64_t k = 0; k < pa[i]->var.numel(); ++k)
      EXPECT_FLOAT_EQ(pa[i]->var.value().data()[k],
                      pb[i]->var.value().data()[k]);
  std::filesystem::remove(path);
}

TEST(Zoo, LoadMissingReturnsFalse) {
  BinaryResNet m(tiny_resnet(), config_for(Variant::kProposed));
  EXPECT_FALSE(load_state(m, "/nonexistent/path.rplm"));
}

TEST(Zoo, MismatchedArchitectureThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ripple_zoo_mismatch.rplm")
          .string();
  BinaryResNet a(tiny_resnet(), config_for(Variant::kProposed));
  save_state(a, path);
  M5 b({.classes = 8, .width = 4, .input_length = 512},
       config_for(Variant::kProposed));
  EXPECT_THROW(load_state(b, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Zoo, BuffersRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ripple_zoo_buf.rplm")
          .string();
  BinaryResNet a(tiny_resnet(), config_for(Variant::kConventional));
  // Mutate a BatchNorm running stat, save, reload into a fresh model.
  auto bufs = a.buffers();
  ASSERT_FALSE(bufs.empty());
  bufs[0].tensor->fill(3.25f);
  save_state(a, path);
  BinaryResNet b(tiny_resnet(), config_for(Variant::kConventional));
  ASSERT_TRUE(load_state(b, path));
  EXPECT_FLOAT_EQ(b.buffers()[0].tensor->data()[0], 3.25f);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ripple::models
