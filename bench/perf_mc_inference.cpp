// Monte-Carlo inference throughput (google-benchmark): the serial T-pass
// reference (InferenceSession::mc_outputs_serial) vs the batched forward
// that folds the T samples into the batch dimension (mc_outputs, see
// fault/mc_batch.h). Both run on the graph path (compile = false) of one
// session opened and warmed in setup, so the pair compares execution
// strategies, not plan compilation; compiled plans are measured in
// perf_serve.cpp. items/sec counts stochastic samples (T × batch) per
// wall-clock second — the serving cost of one uncertainty estimate is T
// samples, so this ratio is the speedup of the paper's inference path.
// scripts/bench.sh captures the JSON as BENCH_mc.json.
#include <benchmark/benchmark.h>

#include <memory>

#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "serve/session.h"
#include "tensor/random.h"

using namespace ripple;

namespace {

constexpr uint64_t kSeed = 0xABCD;

models::BinaryResNet::Topology resnet_topo() {
  return {.in_channels = 3, .classes = 10, .width = 12};
}

models::VariantConfig proposed() {
  return {.variant = models::Variant::kProposed};
}

/// Graph-path session with T = state.range(0), opened on the deployed
/// model and warmed (pack cache frozen) before timing starts.
std::unique_ptr<serve::InferenceSession> open_session(
    benchmark::State& state, models::TaskModel& model, const Tensor& x) {
  model.set_training(false);
  model.deploy();
  serve::SessionOptions opts;
  opts.mc_samples = static_cast<int>(state.range(0));
  opts.seed = kSeed;
  opts.compile = false;
  auto session = std::make_unique<serve::InferenceSession>(model, opts);
  (void)session->mc_outputs(x);
  return session;
}

/// Times mc_outputs (batched) or mc_outputs_serial on one session.
void run_mc(benchmark::State& state, models::TaskModel& model,
            const Tensor& x, bool serial) {
  auto session = open_session(state, model, x);
  for (auto _ : state) {
    Tensor y = serial ? session->mc_outputs_serial(x) : session->mc_outputs(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * x.dim(0));
}

void resnet_mc(benchmark::State& state, bool serial) {
  models::BinaryResNet model(resnet_topo(), proposed());
  Rng rng(1);
  run_mc(state, model, Tensor::randn({1, 3, 16, 16}, rng), serial);
}

void m5_mc(benchmark::State& state, bool serial) {
  models::M5 model({.classes = 8, .width = 12, .input_length = 512},
                   proposed());
  Rng rng(2);
  run_mc(state, model, Tensor::randn({1, 1, 512}, rng), serial);
}

// The recurrent forecaster: dozens of tiny per-timestep ops, so the
// per-pass overhead dominates and batching pays off the most.
void lstm_mc(benchmark::State& state, bool serial) {
  models::LstmForecaster model({.hidden = 24, .window = 24}, proposed());
  Rng rng(4);
  run_mc(state, model, Tensor::randn({1, 24, 1}, rng), serial);
}

void BM_McResNetSerial(benchmark::State& state) { resnet_mc(state, true); }
void BM_McResNetBatched(benchmark::State& state) { resnet_mc(state, false); }
void BM_McM5Serial(benchmark::State& state) { m5_mc(state, true); }
void BM_McM5Batched(benchmark::State& state) { m5_mc(state, false); }
void BM_McLstmSerial(benchmark::State& state) { lstm_mc(state, true); }
void BM_McLstmBatched(benchmark::State& state) { lstm_mc(state, false); }

BENCHMARK(BM_McResNetSerial)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();
BENCHMARK(BM_McResNetBatched)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();
BENCHMARK(BM_McM5Serial)->Arg(8)->UseRealTime();
BENCHMARK(BM_McM5Batched)->Arg(8)->UseRealTime();
BENCHMARK(BM_McLstmSerial)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();
BENCHMARK(BM_McLstmBatched)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

void BM_ProbsMcBatched(benchmark::State& state) {
  // End-to-end classifier uncertainty estimate (softmax + replica moments).
  models::BinaryResNet model(resnet_topo(), proposed());
  Rng rng(3);
  Tensor x = Tensor::randn({4, 3, 16, 16}, rng);
  auto session = open_session(state, model, x);
  for (auto _ : state) {
    serve::Classification mc = session->classify(x);
    benchmark::DoNotOptimize(mc.mean_probs.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * x.dim(0));
}
BENCHMARK(BM_ProbsMcBatched)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
