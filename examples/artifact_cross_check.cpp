// Cross-configuration deployment check, driven by CI:
//
//   artifact_cross_check save   <dir>   — train a small classifier, deploy,
//                                         write <dir>/model.rpla plus the
//                                         reference predictions computed by
//                                         a session over the artifact;
//   artifact_cross_check verify <dir>   — open the artifact in THIS build
//                                         configuration (e.g. RIPPLE_SIMD=0
//                                         scalar GEMM vs the SIMD save run),
//                                         predict the same probe batch and
//                                         assert the predictions match the
//                                         saved reference.
//
// "Match" is max|Δ mean_probs| ≤ RIPPLE_XCHECK_TOL (default 1e-3): the
// artifact bytes round-trip bit-exactly, while the two GEMM kernels round
// differently, so predictions agree to float-accumulation tolerance. The
// verify step also opens the kQuantSim backend and asserts it is
// bit-identical to fp32 within its own build — the codes decode to exactly
// the deployed values everywhere.
//
// The save step additionally writes <dir>/pair.rpla, a format-v3 two-model
// manifest (the trained champion + an untrained challenger at 3:1 routing
// weight); verify serves BOTH entries through serve::ModelServer in the
// other build configuration and holds each to the same tolerance — the
// multi-model manifest and the serving front door cross-check with the
// single-model artifact.
//
//   artifact_cross_check trace  <dir>   — serve <dir>/model.rpla through a
//                                         two-replica ModelServer with
//                                         serve::trace sampling every
//                                         request, assert the captured
//                                         timelines cover all seven pipeline
//                                         stages, and write the Chrome
//                                         trace-event JSON to
//                                         <dir>/trace.json (CI validates it
//                                         with python3 -m json.tool).
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic_images.h"
#include "deploy/artifact.h"
#include "deploy/deploy.h"
#include "models/resnet.h"
#include "models/trainer.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "tensor/env.h"
#include "tensor/io.h"

using namespace ripple;

namespace {

Tensor probe_batch() {
  Rng rng(555);  // same software RNG in every build configuration
  return Tensor::randn({8, 3, 16, 16}, rng);
}

serve::SessionOptions session_options() {
  serve::SessionOptions opts;
  opts.task = serve::TaskKind::kClassification;
  opts.mc_samples = 4;
  opts.seed = 0xC0FFEE;
  return opts;
}

int do_save(const std::string& dir) {
  Rng data_rng(7);
  data::ClassificationData train = data::make_images(
      env_int("RIPPLE_TRAIN_N", 160), data::ImageConfig{}, data_rng);
  models::BinaryResNet model({.in_channels = 3, .classes = 10, .width = 8},
                             {.variant = models::Variant::kProposed});
  models::TrainConfig tc;
  tc.epochs = env_int("RIPPLE_EPOCHS", 2);
  tc.seed = 42;
  models::train_classifier(model, train, tc);
  model.set_training(false);
  model.deploy();
  deploy::save_artifact(model, dir + "/model.rpla", session_options());

  auto session = serve::InferenceSession::open(dir + "/model.rpla");
  const serve::Classification ref = session->classify(probe_batch());
  save_tensor(ref.mean_probs, dir + "/reference_probs.rplt");

  // v3 two-model manifest: the trained champion alongside an untrained
  // challenger of the same architecture. References come from sessions
  // over the manifest itself, one per named entry.
  models::BinaryResNet challenger(
      {.in_channels = 3, .classes = 10, .width = 8},
      {.variant = models::Variant::kProposed});
  challenger.set_training(false);
  challenger.deploy();
  deploy::save_manifest({{"champion", 3.0, &model, session_options()},
                         {"challenger", 1.0, &challenger, session_options()}},
                        dir + "/pair.rpla");
  for (const char* entry : {"champion", "challenger"}) {
    deploy::DeployOptions d;
    d.manifest_entry = entry;
    auto es = serve::InferenceSession::open(dir + "/pair.rpla", d);
    save_tensor(es->classify(probe_batch()).mean_probs,
                dir + "/reference_" + entry + ".rplt");
  }
  std::printf(
      "saved %s/model.rpla, %s/pair.rpla and reference predictions\n",
      dir.c_str(), dir.c_str());
  return 0;
}

int do_verify(const std::string& dir) {
  const double tol = env_double("RIPPLE_XCHECK_TOL", 1e-3);
  Tensor reference = load_tensor(dir + "/reference_probs.rplt");

  auto fp32 = serve::InferenceSession::open(dir + "/model.rpla");
  const serve::Classification got = fp32->classify(probe_batch());
  if (got.mean_probs.shape() != reference.shape()) {
    std::fprintf(stderr, "FAIL: prediction shape changed across configs\n");
    return 1;
  }
  double max_diff = 0.0;
  for (int64_t i = 0; i < reference.numel(); ++i)
    max_diff = std::max<double>(
        max_diff, std::fabs(got.mean_probs.data()[i] - reference.data()[i]));
  std::printf("cross-config max|Δ mean_probs| = %.3g (tolerance %.3g)\n",
              max_diff, tol);
  if (max_diff > tol) {
    std::fprintf(stderr,
                 "FAIL: artifact predictions diverge across build "
                 "configurations\n");
    return 1;
  }

  // Within this build, serving from the integer codes must be bit-exact.
  auto quantsim = serve::InferenceSession::open(
      dir + "/model.rpla", {.backend = deploy::Backend::kQuantSim});
  const serve::Classification sim = quantsim->classify(probe_batch());
  if (std::memcmp(sim.mean_probs.data(), got.mean_probs.data(),
                  sizeof(float) * static_cast<size_t>(reference.numel())) !=
      0) {
    std::fprintf(stderr, "FAIL: kQuantSim != kFp32 in this build\n");
    return 1;
  }
  // The v3 manifest, served through the multi-tenant front door: both
  // named entries must reproduce their saved references in this build.
  serve::ServerOptions so;
  so.cluster.default_timeout_us = 30'000'000;
  serve::ModelServer server(so);
  server.load_model("xcheck", "1", dir + "/pair.rpla");
  server.register_tenant({.id = "ci", .seed_salt = 0});
  for (const char* entry : {"champion", "challenger"}) {
    Tensor entry_ref = load_tensor(dir + "/reference_" + entry + ".rplt");
    serve::Request req;
    req.tenant = "ci";
    req.model = {"xcheck", "", entry};
    req.input = probe_batch();
    serve::Response resp = server.serve(std::move(req));
    if (resp.status != serve::Status::kOk || resp.model_entry != entry) {
      std::fprintf(stderr, "FAIL: serving manifest entry '%s': %s\n", entry,
                   resp.error.c_str());
      return 1;
    }
    const Tensor& probs =
        std::get<serve::Classification>(resp.prediction).mean_probs;
    double entry_diff = 0.0;
    for (int64_t i = 0; i < entry_ref.numel(); ++i)
      entry_diff = std::max<double>(
          entry_diff, std::fabs(probs.data()[i] - entry_ref.data()[i]));
    std::printf("manifest entry '%s': max|Δ mean_probs| = %.3g\n", entry,
                entry_diff);
    if (entry_diff > tol) {
      std::fprintf(stderr,
                   "FAIL: manifest entry '%s' diverges across build "
                   "configurations\n",
                   entry);
      return 1;
    }
  }
  server.close();

  // The integer substrate: serve the v3 manifest's champion through
  // kQuantInt8 in this build configuration (CI runs verify both with SIMD
  // kernels and under RIPPLE_SIMD=0, so the VNNI/AVX2 and scalar int8
  // paths both cross-check here). Int8 serving adds the 7-bit dynamic
  // activation quantization on top of the shared weight grid, so it gets
  // its own tolerance on the averaged probabilities.
  const double int8_tol = env_double("RIPPLE_XCHECK_INT8_TOL", 0.05);
  deploy::DeployOptions di8;
  di8.backend = deploy::Backend::kQuantInt8;
  di8.manifest_entry = "champion";
  auto int8 = serve::InferenceSession::open(dir + "/pair.rpla", di8);
  Tensor champion_ref = load_tensor(dir + "/reference_champion.rplt");
  const serve::Classification i8got = int8->classify(probe_batch());
  double int8_diff = 0.0;
  for (int64_t i = 0; i < champion_ref.numel(); ++i)
    int8_diff = std::max<double>(
        int8_diff,
        std::fabs(i8got.mean_probs.data()[i] - champion_ref.data()[i]));
  std::printf("kQuantInt8 champion: max|Δ mean_probs| = %.3g (tolerance %.3g)\n",
              int8_diff, int8_tol);
  if (int8_diff > int8_tol) {
    std::fprintf(stderr, "FAIL: kQuantInt8 diverges from the fp32 champion\n");
    return 1;
  }
  // Within one build the integer path is deterministic to the bit.
  const serve::Classification i8again = int8->classify(probe_batch());
  if (std::memcmp(i8again.mean_probs.data(), i8got.mean_probs.data(),
                  sizeof(float) * static_cast<size_t>(champion_ref.numel())) !=
      0) {
    std::fprintf(stderr, "FAIL: kQuantInt8 serving is not deterministic\n");
    return 1;
  }

  std::printf("OK: artifact serves identically (quantsim bit-exact)\n");
  return 0;
}

int do_trace(const std::string& dir) {
  // Sample every request so one short burst is guaranteed to land in the
  // rings, then drive the saved artifact through the full serving stack:
  // ModelServer admission → ClusterController dispatch (two replicas) →
  // AsyncBatcher → compiled/graph session execution → promise resolution.
  auto& tracer = serve::trace::Tracer::instance();
  tracer.reset();
  tracer.configure({.sample_every = 1, .slow_threshold_us = 0});
  tracer.set_enabled(true);

  serve::ServerOptions so;
  so.cluster.replicas = 2;
  so.cluster.default_timeout_us = 30'000'000;
  serve::ModelServer server(so);
  server.load_model("traced", "1", dir + "/model.rpla");
  server.register_tenant({.id = "ci", .seed_salt = 0});
  for (int i = 0; i < 8; ++i) {
    serve::Request req;
    req.tenant = "ci";
    req.model.name = "traced";
    req.input = probe_batch();
    serve::Response resp = server.serve(std::move(req));
    if (resp.status != serve::Status::kOk) {
      std::fprintf(stderr, "FAIL: traced request %d failed: %s\n", i,
                   resp.error.c_str());
      return 1;
    }
  }
  server.close();
  tracer.set_enabled(false);

  const std::vector<serve::trace::Event> events = tracer.snapshot_events();
  std::array<int, serve::trace::kStageCount> by_stage{};
  for (const serve::trace::Event& e : events)
    ++by_stage[static_cast<size_t>(e.stage)];
  int missing = 0;
  for (size_t s = 0; s < serve::trace::kStageCount; ++s) {
    const char* name =
        serve::trace::stage_name(static_cast<serve::trace::Stage>(s));
    std::printf("stage %-14s %d spans\n", name, by_stage[s]);
    if (by_stage[s] == 0) {
      std::fprintf(stderr, "FAIL: no '%s' spans captured\n", name);
      ++missing;
    }
  }
  const std::string out = dir + "/trace.json";
  if (!tracer.write_chrome_trace(out)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events, %llu traces captured, %llu dropped)\n",
              out.c_str(), events.size(),
              static_cast<unsigned long long>(tracer.captured()),
              static_cast<unsigned long long>(tracer.dropped_events()));
  tracer.reset();
  return missing == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc == 3 ? argv[1] : "";
  if (mode != "save" && mode != "verify" && mode != "trace") {
    std::fprintf(stderr, "usage: %s save|verify|trace <dir>\n", argv[0]);
    return 2;
  }
  if (mode == "save") return do_save(argv[2]);
  if (mode == "trace") return do_trace(argv[2]);
  return do_verify(argv[2]);
}
