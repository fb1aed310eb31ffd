// Serving-layer overhead (google-benchmark): one uncertainty-aware
// predict() through serve::InferenceSession vs the raw batched MC forward
// it wraps (BM_RawMcForwardBatched*, the same session's mc_outputs). The
// session adds softmax + moments aggregation — this bench keeps that
// overhead visible. items/sec counts stochastic samples (T × batch) per
// second, matching perf_mc_inference.cpp, whose BM_Mc*Batched rows time
// the same fold on the graph path.
//
// BM_AsyncBatcher* measures the multi-client story: 8 producer threads
// each submit single-row requests through serve::AsyncBatcher and block on
// the future, sweeping (max_batch, max_delay_us). Compare the summed
// items/sec against the single-client BM_SessionPredict*/8 rate to see
// what cross-request coalescing of the MC ensemble buys.
// scripts/bench.sh captures the JSON as BENCH_serve.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "deploy/deploy.h"
#include "models/lstm_forecaster.h"
#include "models/m5.h"
#include "models/resnet.h"
#include "models/unet.h"
#include "serve/batcher.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "tensor/random.h"

using namespace ripple;

namespace {

constexpr uint64_t kSeed = 0xABCD;

models::VariantConfig proposed() {
  return {.variant = models::Variant::kProposed};
}

serve::SessionOptions session_options(serve::TaskKind task, int t) {
  serve::SessionOptions opts;
  opts.task = task;
  opts.mc_samples = t;
  opts.seed = kSeed;
  return opts;
}

void BM_SessionPredictResNet(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                             proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kClassification, t));
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  for (auto _ : state) {
    serve::Classification mc = session.classify(x);
    benchmark::DoNotOptimize(mc.mean_probs.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_SessionPredictResNet)->Arg(4)->Arg(8)->Arg(16);

// Same model, shape and session options, but the raw stacked outputs
// (mc_outputs, no aggregation): the reference the session overhead is
// measured against. The session is opened and its plan compiled in setup.
void BM_RawMcForwardBatchedResNet(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                             proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kClassification, t));
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  (void)session.precompile(x.shape());
  for (auto _ : state) {
    Tensor y = session.mc_outputs(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_RawMcForwardBatchedResNet)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime();

void BM_SessionPredictM5(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::M5 model({.classes = 8, .width = 12, .input_length = 512},
                   proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kClassification, t));
  Rng rng(2);
  Tensor x = Tensor::randn({1, 1, 512}, rng);
  for (auto _ : state) {
    serve::Classification mc = session.classify(x);
    benchmark::DoNotOptimize(mc.mean_probs.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_SessionPredictM5)->Arg(8);

void BM_SessionPredictLstm(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::LstmForecaster model({.hidden = 24, .window = 24}, proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kRegression, t));
  Rng rng(4);
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  for (auto _ : state) {
    serve::Regression mc = session.regress(x);
    benchmark::DoNotOptimize(mc.mean.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_SessionPredictLstm)->Arg(4)->Arg(8)->Arg(16);

// Edge-sized forecaster: per-pass overheads dominate the tiny GEMMs, which
// is exactly the regime cross-request coalescing pays off in — the
// BM_AsyncBatcherLstmSmall counterpart is the acceptance ratio's numerator.
void BM_SessionPredictLstmSmall(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::LstmForecaster model({.hidden = 8, .window = 24}, proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kRegression, t));
  Rng rng(4);
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  for (auto _ : state) {
    serve::Regression mc = session.regress(x);
    benchmark::DoNotOptimize(mc.mean.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_SessionPredictLstmSmall)->Arg(8);

// Tracing tax at the default head-sampling rate: the same edge-sized
// forecaster predict with serve::trace enabled (sample_every = 64) and a
// live per-request context — begin_trace, the execute-span hook inside the
// session, finish. scripts/bench.sh records this next to the untraced
// BM_SessionPredictLstmSmall; the acceptance bound on the items/sec ratio
// is < 2% (docs/OBSERVABILITY.md).
void BM_SessionPredictLstmSmallTraced(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::LstmForecaster model({.hidden = 8, .window = 24}, proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kRegression, t));
  Rng rng(4);
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  auto& tracer = serve::trace::Tracer::instance();
  tracer.reset();
  tracer.configure({.sample_every = 64, .slow_threshold_us = 0});
  tracer.set_enabled(true);
  for (auto _ : state) {
    serve::trace::TraceContextPtr ctx =
        tracer.begin_trace("bench", serve::trace::FinishLayer::kBatcher);
    serve::trace::ActiveRequestScope scope(ctx.get());
    serve::Regression mc = session.regress(x);
    benchmark::DoNotOptimize(mc.mean.data());
    tracer.finish(ctx);
  }
  tracer.set_enabled(false);
  tracer.reset();
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_SessionPredictLstmSmallTraced)->Arg(8);

void BM_SessionPredictUNet(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  models::UNet model({.base_channels = 8, .activation_bits = 4}, proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kSegmentation, t));
  Rng rng(5);
  Tensor x = Tensor::randn({1, 1, 32, 32}, rng);
  for (auto _ : state) {
    serve::Segmentation mc = session.segment(x);
    benchmark::DoNotOptimize(mc.mean_probs.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_SessionPredictUNet)->Arg(8);

void BM_SessionPredictMany(benchmark::State& state) {
  // Micro-batching front door: 8 single-row requests coalesced into the
  // session's batch versus served one by one.
  const int t = static_cast<int>(state.range(0));
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                             proposed());
  model.set_training(false);
  model.deploy();
  serve::InferenceSession session(
      model, session_options(serve::TaskKind::kClassification, t));
  Rng rng(3);
  std::vector<Tensor> requests;
  for (int i = 0; i < 8; ++i)
    requests.push_back(Tensor::randn({1, 3, 16, 16}, rng));
  for (auto _ : state) {
    std::vector<serve::Prediction> out = session.predict_many(requests);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * t *
                          static_cast<int64_t>(requests.size()));
}
BENCHMARK(BM_SessionPredictMany)->Arg(8);

// ---- compiled execution plans ----------------------------------------------
// The same session, same input, same bits — served from the compiled
// fused zero-allocation plan vs the autograd graph oracle. Args are
// {T, compiled}: the compiled/graph items-per-second ratio at matching T
// is the headline number BENCH_serve.json records for deploy::compile
// (docs/PERF.md). predict_into on the compiled path is the steady state
// the allocation gate (tests/alloc_test.cpp) pins at 0 allocs/request.

void BM_CompiledVsGraph(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const bool compiled = state.range(1) != 0;
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                             proposed());
  model.set_training(false);
  model.deploy();
  serve::SessionOptions opts =
      session_options(serve::TaskKind::kClassification, t);
  opts.compile = compiled;
  serve::InferenceSession session(model, opts);
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  if (compiled) session.precompile(x.shape());
  serve::Prediction out;
  for (auto _ : state) {
    session.predict_into(x, out);
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_CompiledVsGraph)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1});

// Edge-sized forecaster: tiny GEMMs make the graph's per-op overhead
// (node allocation, hook dispatch, tensor churn) the dominant cost, so
// this is where the plan's fused steps and arena buy the most.
void BM_CompiledVsGraphLstm(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const bool compiled = state.range(1) != 0;
  models::LstmForecaster model({.hidden = 8, .window = 24}, proposed());
  model.set_training(false);
  model.deploy();
  serve::SessionOptions opts =
      session_options(serve::TaskKind::kRegression, t);
  opts.compile = compiled;
  serve::InferenceSession session(model, opts);
  Rng rng(4);
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  if (compiled) session.precompile(x.shape());
  serve::Prediction out;
  for (auto _ : state) {
    session.predict_into(x, out);
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}
BENCHMARK(BM_CompiledVsGraphLstm)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1});

// ---- async batching under concurrent producers -----------------------------
// 8 client threads, each submitting 1-row requests and blocking on the
// future (closed-loop producers). Args: {batch_max_requests, max_delay_us}.
// items/sec sums the producers' T·rows, so the number is directly
// comparable against the matching single-client BM_SessionPredict*/8 —
// the acceptance ratio in BENCH_serve.json.

constexpr int kBatcherThreads = 8;
constexpr int kBatcherSamples = 8;

template <class MakeModel>
void run_async_batcher(benchmark::State& state, MakeModel&& make_model,
                       serve::TaskKind task, const Shape& input_shape,
                       uint64_t input_seed) {
  static models::TaskModel* model = nullptr;
  static serve::InferenceSession* session = nullptr;
  static serve::AsyncBatcher* batcher = nullptr;
  if (state.thread_index() == 0) {
    model = make_model();
    model->set_training(false);
    model->deploy();
    serve::SessionOptions opts = session_options(task, kBatcherSamples);
    opts.batch_max_requests = static_cast<int>(state.range(0));
    opts.batch_max_delay_us = state.range(1);
    opts.batcher_threads = 1;
    session = new serve::InferenceSession(*model, opts);
    batcher = new serve::AsyncBatcher(*session);
  }
  // Distinct per-producer input (benchmark's barrier at the loop head
  // guarantees thread 0's setup happened before any thread iterates).
  Rng rng(input_seed + static_cast<uint64_t>(state.thread_index()));
  Tensor x = Tensor::randn(input_shape, rng);
  for (auto _ : state) {
    serve::Prediction p = batcher->submit(x).get();
    benchmark::DoNotOptimize(&p);
  }
  state.SetItemsProcessed(state.iterations() * kBatcherSamples * x.dim(0));
  if (state.thread_index() == 0) {
    delete batcher;
    delete session;
    delete model;
    batcher = nullptr;
    session = nullptr;
    model = nullptr;
  }
}

void BM_AsyncBatcherResNet(benchmark::State& state) {
  run_async_batcher(
      state,
      [] {
        return new models::BinaryResNet(
            {.in_channels = 3, .classes = 10, .width = 12}, proposed());
      },
      serve::TaskKind::kClassification, {1, 3, 16, 16}, 1);
}
BENCHMARK(BM_AsyncBatcherResNet)
    ->Args({8, 1000})
    ->Args({8, 200})
    ->Args({4, 1000})
    ->Args({16, 2000})
    ->Threads(kBatcherThreads)
    ->UseRealTime();

void BM_AsyncBatcherLstm(benchmark::State& state) {
  run_async_batcher(
      state,
      [] {
        return new models::LstmForecaster({.hidden = 24, .window = 24},
                                          proposed());
      },
      serve::TaskKind::kRegression, {1, 24, 1}, 4);
}
BENCHMARK(BM_AsyncBatcherLstm)
    ->Args({8, 1000})
    ->Args({8, 200})
    ->Args({4, 1000})
    ->Args({16, 2000})
    ->Threads(kBatcherThreads)
    ->UseRealTime();

void BM_AsyncBatcherLstmSmall(benchmark::State& state) {
  run_async_batcher(
      state,
      [] {
        return new models::LstmForecaster({.hidden = 8, .window = 24},
                                          proposed());
      },
      serve::TaskKind::kRegression, {1, 24, 1}, 4);
}
BENCHMARK(BM_AsyncBatcherLstmSmall)
    ->Args({8, 1000})
    ->Args({8, 200})
    ->Args({4, 1000})
    ->Args({16, 2000})
    ->Threads(kBatcherThreads)
    ->UseRealTime();

// ---- replica-fleet serving -------------------------------------------------
// serve::ClusterController over the edge-sized forecaster artifact:
// closed-loop producer threads submit through the fleet front door and
// block on the future. On a single core the replicas cannot run in
// parallel — the win measured here is coalescing efficiency (deep
// cross-request batches fold more MC rows per forward pass) plus the
// routing/retry overhead staying small. Compare items/sec against
// BM_SessionPredictLstmSmall/8 (same model, same T): the acceptance
// ratio recorded in BENCH_serve.json. The Chaos variant keeps one replica
// crashing periodically — the robustness tax on throughput.

// Closed-loop producers, each keeping kClusterPipeline requests in flight
// (submit a burst of futures, then drain it). Fleet-wide inflight depth is
// producers × pipeline without paying a thread per outstanding request on
// the producer side; the controller still needs one dispatcher per inflight
// request, so dispatch_threads is sized to the product below.
constexpr int kClusterProducers = 16;
constexpr int kClusterPipeline = 64;

const std::string& cluster_artifact() {
  static const std::string path = [] {
    models::LstmForecaster model({.hidden = 8, .window = 24}, proposed());
    model.set_training(false);
    model.deploy();
    std::string p =
        std::filesystem::temp_directory_path() / "ripple_perf_cluster.rpla";
    deploy::save_artifact(model, p,
                          session_options(serve::TaskKind::kRegression, 8));
    return p;
  }();
  return path;
}

serve::ClusterOptions bench_cluster_options(int replicas) {
  serve::ClusterOptions copts;
  copts.replicas = replicas;
  serve::SessionOptions sopts =
      session_options(serve::TaskKind::kRegression, kBatcherSamples);
  // Dispatch on count, not on the delay timer: cap each coalesced batch
  // at this replica's share of the closed-loop producers so a full batch
  // triggers the moment the fleet's inflight requests land. A cap above
  // the share would make every batch wait out the full delay
  // (the BM_AsyncBatcherLstmSmall/16/2000 trap).
  sopts.batch_max_requests =
      std::max(1, kClusterProducers * kClusterPipeline / replicas);
  sopts.batch_max_delay_us = 200;
  sopts.batcher_threads = 1;
  copts.deploy.session = sopts;
  // Chunked dispatch: producers × pipeline inflight requests carried by
  // one dispatcher per producer, each popping a pipeline-sized chunk per
  // wakeup — cluster-level concurrency is never the bottleneck,
  // coalescing depth at the replicas is what's measured.
  // 4× headroom on dispatchers: a dispatcher that wakes before the full
  // burst is queued pops a partial chunk, so spare dispatchers are what
  // keep fleet-wide inflight (and with it replica batch depth) at
  // producers × pipeline.
  copts.dispatch_threads = 4 * kClusterProducers;
  copts.dispatch_chunk = kClusterPipeline;
  copts.default_timeout_us = 30'000'000;
  copts.max_inflight_per_replica = 2048;
  copts.queue_limit = 4096;
  return copts;
}

void run_cluster_submit(benchmark::State& state, bool chaos) {
  static serve::ClusterController* cluster = nullptr;
  if (state.thread_index() == 0) {
    cluster = new serve::ClusterController(
        cluster_artifact(),
        bench_cluster_options(static_cast<int>(state.range(0))));
    if (chaos) {
      cluster->replica(0).set_forward_hook([](int64_t) {
        static std::atomic<int64_t> forwards{0};
        if (forwards.fetch_add(1) % 8 == 7)
          throw std::runtime_error("bench chaos: crash");
      });
    }
  }
  Rng rng(7 + static_cast<uint64_t>(state.thread_index()));
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  int64_t failed = 0;
  // Burst-and-drain: each iteration submits a pipeline-sized burst and
  // then collects it. The bursts keep the controller queue deep enough
  // that dispatchers pop real chunks (a steady one-at-a-time trickle
  // would degenerate dispatch_chunk to 1).
  std::vector<std::future<serve::Prediction>> burst;
  burst.reserve(kClusterPipeline);
  for (auto _ : state) {
    burst.clear();
    for (int i = 0; i < kClusterPipeline; ++i)
      burst.push_back(cluster->submit(x));
    for (auto& f : burst) {
      try {
        serve::Prediction p = f.get();
        benchmark::DoNotOptimize(&p);
      } catch (const serve::ServeError&) {
        ++failed;  // retries exhausted under chaos — still one resolution
      }
    }
  }
  benchmark::DoNotOptimize(failed);
  state.SetItemsProcessed(state.iterations() * kClusterPipeline *
                          kBatcherSamples * x.dim(0));
  if (state.thread_index() == 0) {
    delete cluster;
    cluster = nullptr;
  }
}

void BM_ClusterSubmit(benchmark::State& state) {
  run_cluster_submit(state, /*chaos=*/false);
}
BENCHMARK(BM_ClusterSubmit)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Threads(kClusterProducers)
    ->UseRealTime();

void BM_ClusterSubmitChaos(benchmark::State& state) {
  run_cluster_submit(state, /*chaos=*/true);
}
BENCHMARK(BM_ClusterSubmitChaos)
    ->Arg(4)
    ->Threads(kClusterProducers)
    ->UseRealTime();

// ---- multi-tenant front door -----------------------------------------------
// The same burst-and-drain closed loop as BM_ClusterSubmit, with the
// identical replica fleet behind serve::ModelServer instead of a bare
// ClusterController: every request pays tenant admission (token bucket),
// registry resolution under the shared lock, and entry routing. The
// items/sec ratio against BM_ClusterSubmit at the same replica count is
// the server tax — the acceptance bound is ≤10% (BENCH_serve.json).

void BM_ModelServerSubmit(benchmark::State& state) {
  static serve::ModelServer* server = nullptr;
  if (state.thread_index() == 0) {
    const int replicas = static_cast<int>(state.range(0));
    serve::ServerOptions sopts;
    sopts.replicas = replicas;
    sopts.cluster = bench_cluster_options(replicas);
    // The fleet template's deploy seeds the per-tenant units; mirror it so
    // the units open with the exact session the direct bench uses.
    sopts.deploy = sopts.cluster.deploy;
    sopts.default_timeout_us = 30'000'000;
    server = new serve::ModelServer(sopts);
    server->load_model("lstm-small", "1", cluster_artifact());
    server->register_tenant({.id = "bench", .seed_salt = 0});
  }
  Rng rng(7 + static_cast<uint64_t>(state.thread_index()));
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  int64_t failed = 0;
  std::vector<std::future<serve::Prediction>> burst;
  burst.reserve(kClusterPipeline);
  for (auto _ : state) {
    burst.clear();
    for (int i = 0; i < kClusterPipeline; ++i) {
      serve::Request r;
      r.tenant = "bench";
      r.model.name = "lstm-small";
      r.input = x;
      burst.push_back(server->submit(std::move(r)));
    }
    for (auto& f : burst) {
      try {
        serve::Prediction p = f.get();
        benchmark::DoNotOptimize(&p);
      } catch (const serve::ServeError&) {
        ++failed;
      }
    }
  }
  benchmark::DoNotOptimize(failed);
  state.SetItemsProcessed(state.iterations() * kClusterPipeline *
                          kBatcherSamples * x.dim(0));
  if (state.thread_index() == 0) {
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_ModelServerSubmit)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Threads(kClusterProducers)
    ->UseRealTime();

// ---- deployment backends ---------------------------------------------------
// One .rpla artifact opened on each execution substrate
// (deploy/deploy.h): the per-backend session.predict baselines. kFp32 is
// the digital reference; kQuantSim opens with weights decoded from the
// integer codes (identical arithmetic once open — the delta to kFp32 is
// pure noise); kCrossbar runs the classifier head through the analog
// DAC→conductance→ADC simulator per call, pre-programmed once by the
// frozen crossbar cache — monolithic (unbounded geometry) vs tiled
// (64×64 tiles, bit-sliced columns, shared ADCs).

const std::string& backend_artifact() {
  static const std::string path = [] {
    models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 12},
                               proposed());
    model.set_training(false);
    model.deploy();
    std::string p =
        std::filesystem::temp_directory_path() / "ripple_perf_resnet.rpla";
    deploy::save_artifact(model, p,
                          session_options(serve::TaskKind::kClassification, 8));
    return p;
  }();
  return path;
}

void run_backend_predict(benchmark::State& state,
                         const deploy::DeployOptions& dopts) {
  const int t = static_cast<int>(state.range(0));
  serve::SessionOptions opts =
      session_options(serve::TaskKind::kClassification, t);
  deploy::DeployOptions with_session = dopts;
  with_session.session = opts;
  auto session = serve::InferenceSession::open(backend_artifact(),
                                               with_session);
  Rng rng(1);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  for (auto _ : state) {
    serve::Classification mc = session->classify(x);
    benchmark::DoNotOptimize(mc.mean_probs.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}

void BM_SessionPredictFp32(benchmark::State& state) {
  run_backend_predict(state, {.backend = deploy::Backend::kFp32});
}
BENCHMARK(BM_SessionPredictFp32)->Arg(8);

void BM_SessionPredictQuantSim(benchmark::State& state) {
  run_backend_predict(state, {.backend = deploy::Backend::kQuantSim});
}
BENCHMARK(BM_SessionPredictQuantSim)->Arg(8);

// True integer execution: the same artifact codes served through the
// u8×s8 kernels (quant/int8) instead of being decoded to fp32. The delta
// against BM_SessionPredictQuantSim/8 is the paper-relevant speedup of
// integer arithmetic over simulated quantization (docs/PERF.md).
void BM_SessionPredictQuantInt8(benchmark::State& state) {
  run_backend_predict(state, {.backend = deploy::Backend::kQuantInt8});
}
BENCHMARK(BM_SessionPredictQuantInt8)->Arg(8);

// Dense-heavy counterpart: a wide LSTM forecaster is one big gate GEMM
// per timestep, the regime where int8 arithmetic density pays the most.
const std::string& lstm_backend_artifact() {
  static const std::string path = [] {
    models::LstmForecaster model({.hidden = 128, .window = 24}, proposed());
    model.set_training(false);
    model.deploy();
    std::string p =
        std::filesystem::temp_directory_path() / "ripple_perf_lstm.rpla";
    deploy::save_artifact(model, p,
                          session_options(serve::TaskKind::kRegression, 8));
    return p;
  }();
  return path;
}

void run_lstm_backend_predict(benchmark::State& state,
                              const deploy::DeployOptions& dopts) {
  const int t = static_cast<int>(state.range(0));
  deploy::DeployOptions with_session = dopts;
  with_session.session = session_options(serve::TaskKind::kRegression, t);
  auto session = serve::InferenceSession::open(lstm_backend_artifact(),
                                               with_session);
  Rng rng(4);
  Tensor x = Tensor::randn({1, 24, 1}, rng);
  for (auto _ : state) {
    serve::Regression mc = session->regress(x);
    benchmark::DoNotOptimize(mc.mean.data());
  }
  state.SetItemsProcessed(state.iterations() * t * x.dim(0));
}

void BM_SessionPredictLstmQuantSim(benchmark::State& state) {
  run_lstm_backend_predict(state, {.backend = deploy::Backend::kQuantSim});
}
BENCHMARK(BM_SessionPredictLstmQuantSim)->Arg(8);

void BM_SessionPredictLstmQuantInt8(benchmark::State& state) {
  run_lstm_backend_predict(state, {.backend = deploy::Backend::kQuantInt8});
}
BENCHMARK(BM_SessionPredictLstmQuantInt8)->Arg(8);

void BM_SessionPredictCrossbar(benchmark::State& state) {
  deploy::DeployOptions dopts;
  dopts.backend = deploy::Backend::kCrossbar;
  // Unbounded geometry: the legacy monolithic one-macro-per-matrix
  // mapping — the baseline the tiled variant below is compared against.
  dopts.crossbar.geometry = imc::TileGeometry::unbounded();
  dopts.crossbar.device.sigma_programming = 0.02;
  run_backend_predict(state, dopts);
}
BENCHMARK(BM_SessionPredictCrossbar)->Arg(8);

// Realistic hardware geometry: 64×64 physical tiles, 8-bit bit-sliced
// columns (the head's 10 outputs span 80 physical columns across two
// tiles) and 8-columns-per-ADC time multiplexing. The delta against
// BM_SessionPredictCrossbar is the serving cost of the tiling compiler's
// fidelity — per-tile partial sums, bit-plane recombine, shared-ADC
// ranging (docs/PERF.md records the ratio).
void BM_SessionPredictCrossbarTiled(benchmark::State& state) {
  deploy::DeployOptions dopts;
  dopts.backend = deploy::Backend::kCrossbar;
  dopts.crossbar.geometry = imc::TileGeometry{64, 64};
  dopts.crossbar.slice_bits = 8;
  dopts.crossbar.adc_share = 8;
  dopts.crossbar.device.sigma_programming = 0.02;
  run_backend_predict(state, dopts);
}
BENCHMARK(BM_SessionPredictCrossbarTiled)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
