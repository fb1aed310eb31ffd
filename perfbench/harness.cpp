// ripple_perfbench — the load generator behind perfbench/run.py.
//
// Drives the public serve::ModelServer API with one of the benchmark's
// workloads and prints one JSON object as its last stdout line. Modes:
//
//   prepare --artifacts DIR
//       Writes the two deployed, untrained benchmark models (fixed init
//       seeds, proposed variant, T=8, default SessionOptions) as .rpla.
//   setup --workload W --seed S --artifacts DIR
//       One cold start: ModelServer construction → every tenant's first
//       successful prediction, one tenant at a time. Reports setup_s.
//   run --workload W --seed S --seconds N --trace 0|1 --artifacts DIR
//       [--part N] [--chrome PATH]
//       Set-up, untimed warm-ups (every batch shape, then the workload's
//       schedule), then the timed phase. --part picks one of a run's
//       independent arrival streams. --trace 0 reports the end-to-end
//       metrics with tracing and plan profiling off. --trace 1 splits the
//       time into an untraced reference phase and a traced phase
//       (serve::trace on, 1-in-64 head sampling, plan profiling on), then
//       times direct calls into the deploy / session / thread-pool layers,
//       and reports the per-layer metrics.
//
// Every response is checked bit-exactly against a per-tenant oracle
// InferenceSession opened on the same artifact with seed = artifact seed +
// serve::tenant_salt_of(tenant). Oracle outputs are computed after the
// server is closed, outside every timed span.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "deploy/deploy.h"
#include "deploy/plan.h"
#include "models/lstm_forecaster.h"
#include "models/resnet.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "serve/trace.h"
#include "tensor/gemm.h"
#include "tensor/random.h"
#include "tensor/threadpool.h"

namespace {

using namespace ripple;
using Clock = std::chrono::steady_clock;
namespace trace = serve::trace;

constexpr int kPoolSize = 32;  // distinct inputs per workload and seed
constexpr const char* kModelName = "bench";
constexpr int kSamples = 8;  // MC samples T of both artifacts
constexpr int kDirectReps = 5;  // repetitions of each direct layer call
constexpr double kWindowSeconds = 1.0;  // latency percentile windows

// ---- workloads -------------------------------------------------------------

enum class Arch { kLstm, kResNet };

struct Workload {
  const char* name;
  Arch arch;
  bool open_loop;
  double rate_rps;  // open loop: Poisson arrival rate
  int clients;      // closed loop: concurrent waiting clients
  int tenants;
  double slo_ms;    // latency limit for slo_met_ratio
  int warm_batch;   // largest batch the shape warm-up compiles per tenant
};

constexpr Workload kWorkloads[] = {
    {"resnet_closed", Arch::kResNet, false, 0.0, 4, 1, 25.0, 4},
    {"tenant_fanout", Arch::kLstm, true, 250.0, 0, 100, 10.0, 2},
};

// Model topologies served by the workloads.
constexpr models::LstmForecaster::Topology kLstmTopo{.hidden = 24,
                                                     .window = 24};
constexpr models::BinaryResNet::Topology kResNetTopo{
    .in_channels = 3, .classes = 10, .width = 12};
constexpr int64_t kResNetImage = 16;

const char* artifact_name(Arch arch) {
  return arch == Arch::kLstm ? "lstm_h24.rpla" : "resnet_w12.rpla";
}

Shape row_shape(Arch arch) {
  if (arch == Arch::kLstm) return {1, kLstmTopo.window, 1};
  return {1, kResNetTopo.in_channels, kResNetImage, kResNetImage};
}

/// Nominal GEMM work of one single-row request: multiply-adds × 2 over every
/// linear / conv / LSTM-gate layer, times the T folded MC samples. Computed
/// from the layer shapes; constant folding and the 1/T-row stem are not
/// credited.
double gemm_mflop_per_request(Arch arch, int samples) {
  double flop = 0.0;
  if (arch == Arch::kLstm) {
    const double h = static_cast<double>(kLstmTopo.hidden);
    const double gates = 4.0 * h;
    const double cell1 = 2.0 * gates * (1.0 + h);  // x·W_ih + h·W_hh
    const double cell2 = 2.0 * gates * (h + h);
    flop = static_cast<double>(kLstmTopo.window) * (cell1 + cell2) +
           2.0 * h * 1.0;  // head
  } else {
    const double w = static_cast<double>(kResNetTopo.width);
    const double cin = static_cast<double>(kResNetTopo.in_channels);
    const double full = static_cast<double>(kResNetImage * kResNetImage);
    const double half = full / 4.0;
    auto conv = [](double ci, double co, double k, double pixels) {
      return 2.0 * ci * k * k * co * pixels;
    };
    flop = conv(cin, w, 3, full) + 2.0 * conv(w, w, 3, full) +
           conv(w, 2 * w, 3, half) + conv(2 * w, 2 * w, 3, half) +
           conv(w, 2 * w, 1, half) +
           2.0 * (2 * w) * static_cast<double>(kResNetTopo.classes);
  }
  return flop * samples / 1e6;
}

// ---- small utilities -------------------------------------------------------

uint64_t mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit_uniform(Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated percentile (numpy's default) of unsorted samples.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// FNV-1a over every tensor and count of a prediction: two predictions
/// hash equal iff they are bit-identical (up to 64-bit collisions).
uint64_t prediction_hash(const serve::Prediction& p) {
  uint64_t h = 1469598103934665603ull;
  auto bytes = [&h](const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  auto tensor = [&bytes](const Tensor& t) {
    const Shape& s = t.shape();
    bytes(s.data(), s.size() * sizeof(int64_t));
    bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  };
  if (const auto* c = std::get_if<serve::Classification>(&p)) {
    tensor(c->mean_probs);
    tensor(c->variance);
    tensor(c->entropy);
    bytes(c->predictions.data(), c->predictions.size() * sizeof(int64_t));
    bytes(&c->samples, sizeof(c->samples));
  } else if (const auto* r = std::get_if<serve::Regression>(&p)) {
    tensor(r->mean);
    tensor(r->stddev);
    bytes(&r->samples, sizeof(r->samples));
  } else {
    const auto& s = std::get<serve::Segmentation>(p);
    tensor(s.mean_probs);
    bytes(&s.samples, sizeof(s.samples));
  }
  return h;
}

/// Flat JSON object writer; numbers keep all their digits.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    field(key, q + "\"");
  }
  void list(const std::string& key, const std::vector<double>& v) {
    std::string body;
    char buf[64];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(x) ? x : 0.0);
      body += (body.empty() ? "" : ", ") + std::string(buf);
    }
    field(key, "[" + body + "]");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

// ---- one benchmark context -------------------------------------------------

struct Context {
  const Workload* wl = nullptr;
  uint64_t seed = 0;
  uint64_t part = 0;  // which of a run's timed processes this is
  std::string artifact;
  std::vector<std::string> tenant_ids;
  std::vector<Tensor> pool;
};

Context make_context(const Workload& wl, uint64_t seed,
                     const std::string& artifacts) {
  Context ctx;
  ctx.wl = &wl;
  ctx.seed = seed;
  ctx.artifact = artifacts + "/" + artifact_name(wl.arch);
  for (int t = 0; t < wl.tenants; ++t) {
    char id[32];
    std::snprintf(id, sizeof(id), "tenant-%02d", t);
    ctx.tenant_ids.emplace_back(id);
  }
  Rng rng(mix(seed, 0x1001));
  for (int i = 0; i < kPoolSize; ++i)
    ctx.pool.push_back(Tensor::randn(row_shape(wl.arch), rng));
  return ctx;
}

serve::Request make_request(const Context& ctx, int tenant, int input) {
  serve::Request r;
  r.tenant = ctx.tenant_ids[static_cast<size_t>(tenant)];
  r.model.name = kModelName;
  r.input = ctx.pool[static_cast<size_t>(input)];
  return r;
}

// ---- phases ----------------------------------------------------------------

struct Outcome {
  uint16_t tenant = 0;
  uint16_t input = 0;
  bool ok = false;
  uint64_t hash = 0;
};

/// What one load phase observed.
struct Phase {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t slo_met = 0;
  std::vector<double> latency_us;  // successful requests only
  std::vector<double> origin_s;    // their origins, s after `start`
  std::vector<double> late_us;     // generator lateness per send
  std::vector<double> submit_us;   // duration of ModelServer::submit
  std::vector<Outcome> outcomes;
  std::string first_error;
  double nominal_s = 1.0;  // scheduled length of the phase
  Clock::time_point start{};
  Clock::time_point last_done{};

  void merge(Phase&& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    slo_met += o.slo_met;
    auto append = [](auto& dst, auto& src) {
      dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                 std::make_move_iterator(src.end()));
    };
    append(latency_us, o.latency_us);
    append(origin_s, o.origin_s);
    append(late_us, o.late_us);
    append(submit_us, o.submit_us);
    append(outcomes, o.outcomes);
    if (first_error.empty()) first_error = o.first_error;
    if (start == Clock::time_point{} || o.start < start) start = o.start;
    last_done = std::max(last_done, o.last_done);
  }

  double seconds() const { return us_between(start, last_done) / 1e6; }
  /// Median latency of each kWindowSeconds window of the phase (by request
  /// origin), in ms. A stalled stretch moves the windows it covers; the
  /// reported p50 is the median over windows.
  std::vector<double> window_p50_ms() const {
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(std::lround(nominal_s / kWindowSeconds)));
    std::vector<std::vector<double>> windows(n);
    for (size_t i = 0; i < latency_us.size(); ++i) {
      const size_t w = std::min(
          n - 1, static_cast<size_t>(origin_s[i] / nominal_s *
                                     static_cast<double>(n)));
      windows[w].push_back(latency_us[i]);
    }
    std::vector<double> out;
    for (auto& w : windows)
      if (!w.empty()) out.push_back(median(std::move(w)) / 1e3);
    return out;
  }
  double p50_ms() const { return median(window_p50_ms()); }
};

struct InFlight {
  Clock::time_point origin;  // latency origin: scheduled (open) / submit
  std::future<serve::Prediction> fut;
  uint16_t tenant = 0;
  uint16_t input = 0;
};

/// Consumes a resolved future into the phase's tallies.
void settle(Phase& ph, InFlight& f, Clock::time_point done, double slo_us) {
  Outcome o{f.tenant, f.input, false, 0};
  try {
    const serve::Prediction p = f.fut.get();
    o.ok = true;
    o.hash = prediction_hash(p);
  } catch (const std::exception& e) {
    if (ph.first_error.empty()) ph.first_error = e.what();
  }
  if (o.ok) {
    const double lat = us_between(f.origin, done);
    ph.latency_us.push_back(lat);
    ph.origin_s.push_back(us_between(ph.start, f.origin) / 1e6);
    ++ph.ok;
    if (lat <= slo_us) ++ph.slo_met;
  } else {
    ++ph.failed;
  }
  ph.last_done = std::max(ph.last_done, done);
  ph.outcomes.push_back(o);
}

/// Open loop: one sender thread submits on a seeded Poisson schedule
/// regardless of completions; this thread collects. Latency runs from each
/// request's scheduled send time. The collector blocks ≤200 µs at a time
/// on the oldest outstanding future, then sweeps every outstanding one, so
/// a request resolved out of order is observed at most ~200 µs late.
Phase run_open(serve::ModelServer& server, const Context& ctx, int phase_id,
               double seconds) {
  const Workload& wl = *ctx.wl;
  struct Send {
    int64_t at_ns;
    uint16_t tenant, input;
  };
  std::vector<Send> schedule;
  Rng rng(mix(mix(ctx.seed, ctx.part),
              0x2000 + static_cast<uint64_t>(phase_id)));
  for (double t = 0.0;;) {
    t += -std::log(1.0 - unit_uniform(rng)) / wl.rate_rps;
    if (t >= seconds) break;
    schedule.push_back(
        {static_cast<int64_t>(t * 1e9),
         static_cast<uint16_t>(rng.randint(0, wl.tenants - 1)),
         static_cast<uint16_t>(rng.randint(0, kPoolSize - 1))});
  }

  Phase ph;
  ph.nominal_s = seconds;
  ph.sent = schedule.size();
  ph.late_us.reserve(schedule.size());
  ph.submit_us.reserve(schedule.size());
  ph.latency_us.reserve(schedule.size());
  ph.outcomes.reserve(schedule.size());
  const double slo_us = wl.slo_ms * 1e3;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> handoff;
  bool done_sending = false;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  ph.start = start;

  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // tight sleep_until
    for (const Send& s : schedule) {
      const Clock::time_point due = start + std::chrono::nanoseconds(s.at_ns);
      std::this_thread::sleep_until(due);
      const Clock::time_point t0 = Clock::now();
      InFlight f;
      f.origin = due;
      f.tenant = s.tenant;
      f.input = s.input;
      f.fut = server.submit(make_request(ctx, s.tenant, s.input));
      const Clock::time_point t1 = Clock::now();
      ph.late_us.push_back(us_between(due, t0));
      ph.submit_us.push_back(us_between(t0, t1));
      {
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back(std::move(f));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done_sending = true;
    }
    cv.notify_one();
  });

  std::vector<InFlight> live;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (live.empty())
        cv.wait(lock, [&] { return !handoff.empty() || done_sending; });
      while (!handoff.empty()) {
        live.push_back(std::move(handoff.front()));
        handoff.pop_front();
      }
      if (live.empty() && done_sending) break;
    }
    live.front().fut.wait_for(std::chrono::microseconds(200));
    size_t keep = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        settle(ph, live[i], Clock::now(), slo_us);
      } else {
        if (keep != i) live[keep] = std::move(live[i]);
        ++keep;
      }
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(keep), live.end());
  }
  sender.join();
  return ph;
}

/// Closed loop: each client submits one request, waits for it, and
/// immediately sends the next until the phase's time is up. Latency runs
/// from submit; lateness is the client's own turnaround between a reply
/// and its next send.
Phase run_closed(serve::ModelServer& server, const Context& ctx, int phase_id,
                 double seconds) {
  const Workload& wl = *ctx.wl;
  const double slo_us = wl.slo_ms * 1e3;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Phase> parts(static_cast<size_t>(wl.clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < wl.clients; ++c) {
    clients.emplace_back([&, c] {
      Phase& ph = parts[static_cast<size_t>(c)];
      ph.start = start;
      Rng rng(mix(mix(ctx.seed, ctx.part),
                  0x3000 + static_cast<uint64_t>(phase_id) * 64 +
                      static_cast<uint64_t>(c)));
      Clock::time_point prev = start;
      while (Clock::now() < end) {
        InFlight f;
        f.tenant = static_cast<uint16_t>(rng.randint(0, wl.tenants - 1));
        f.input = static_cast<uint16_t>(rng.randint(0, kPoolSize - 1));
        const Clock::time_point t0 = Clock::now();
        f.origin = t0;
        f.fut = server.submit(make_request(ctx, f.tenant, f.input));
        const Clock::time_point t1 = Clock::now();
        ++ph.sent;
        ph.late_us.push_back(us_between(prev, t0));
        ph.submit_us.push_back(us_between(t0, t1));
        f.fut.wait();
        prev = Clock::now();
        settle(ph, f, prev, slo_us);
      }
    });
  }
  for (auto& t : clients) t.join();
  Phase all;
  for (auto& p : parts) all.merge(std::move(p));
  all.nominal_s = seconds;
  return all;
}

Phase run_phase(serve::ModelServer& server, const Context& ctx, int phase_id,
                double seconds) {
  return ctx.wl->open_loop ? run_open(server, ctx, phase_id, seconds)
                           : run_closed(server, ctx, phase_id, seconds);
}

// ---- set-up -----------------------------------------------------------------

struct SetupResult {
  std::unique_ptr<serve::ModelServer> server;
  double seconds = 0.0;
  Phase phase;  // the first prediction of every tenant
};

/// ModelServer construction → every tenant's first successful prediction,
/// served one tenant at a time: artifact load, tenant registration, unit
/// open and the first plan compile.
SetupResult set_up(const Context& ctx) {
  SetupResult r;
  Rng rng(mix(ctx.seed, 0x4000));
  const Clock::time_point t0 = Clock::now();
  r.server = std::make_unique<serve::ModelServer>();
  r.server->load_model(kModelName, "1", ctx.artifact);
  r.phase.start = t0;
  for (int t = 0; t < ctx.wl->tenants; ++t) {
    InFlight f;
    f.tenant = static_cast<uint16_t>(t);
    f.input = static_cast<uint16_t>(rng.randint(0, kPoolSize - 1));
    f.origin = Clock::now();
    f.fut = r.server->submit(make_request(ctx, t, f.input));
    ++r.phase.sent;
    f.fut.wait();
    settle(r.phase, f, Clock::now(), ctx.wl->slo_ms * 1e3);
  }
  r.seconds = us_between(t0, Clock::now()) / 1e6;
  return r;
}

/// Lazy set-up the timed phases should not pay: one burst of k back-to-back
/// requests per tenant for k = 2..warm_batch, so the batcher coalesces a
/// batch of every size the workload forms and the session compiles its
/// plan. All tenants' bursts of one size go out together.
Phase warm_shapes(serve::ModelServer& server, const Context& ctx) {
  Phase ph;
  ph.start = Clock::now();
  Rng rng(mix(ctx.seed, 0x5000));
  for (int k = 2; k <= ctx.wl->warm_batch; ++k) {
    std::vector<InFlight> burst;
    for (int t = 0; t < ctx.wl->tenants; ++t) {
      for (int i = 0; i < k; ++i) {
        InFlight f;
        f.tenant = static_cast<uint16_t>(t);
        f.input = static_cast<uint16_t>(rng.randint(0, kPoolSize - 1));
        f.origin = Clock::now();
        f.fut = server.submit(make_request(ctx, t, f.input));
        ++ph.sent;
        burst.push_back(std::move(f));
      }
    }
    for (InFlight& f : burst) {
      f.fut.wait();
      settle(ph, f, Clock::now(), ctx.wl->slo_ms * 1e3);
    }
  }
  return ph;
}

// ---- correctness oracle ----------------------------------------------------

/// Opens one oracle session per tenant that served (artifact defaults, seed
/// + the tenant's id-derived salt), predicts every (tenant, input) pair the
/// load used, and counts successful responses whose bits differ.
uint64_t count_mismatches(const Context& ctx,
                          const std::vector<const Phase*>& phases) {
  std::map<int, std::set<int>> needed;
  for (const Phase* ph : phases)
    for (const Outcome& o : ph->outcomes)
      if (o.ok) needed[o.tenant].insert(o.input);

  const deploy::LoadedArtifact master = deploy::load_artifact(ctx.artifact);
  const std::vector<std::pair<int, std::set<int>>> work(needed.begin(),
                                                        needed.end());
  std::map<std::pair<int, int>, uint64_t> oracle;
  std::mutex oracle_mutex;
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < work.size();) {
      const auto& [tenant, inputs] = work[i];
      serve::SessionOptions so = master.session_defaults;
      so.seed += serve::tenant_salt_of(
          ctx.tenant_ids[static_cast<size_t>(tenant)]);
      deploy::DeployOptions d;
      d.session = so;
      deploy::LoadedArtifact copy;
      {
        std::lock_guard<std::mutex> lock(oracle_mutex);
        copy = deploy::replicate(master);
      }
      auto session = serve::InferenceSession::open(std::move(copy), d);
      for (int input : inputs) {
        const uint64_t h = prediction_hash(
            session->predict(ctx.pool[static_cast<size_t>(input)]));
        std::lock_guard<std::mutex> lock(oracle_mutex);
        oracle[{tenant, input}] = h;
      }
    }
  };
  // Tenants are independent: spread them over a few threads.
  std::vector<std::thread> threads;
  const size_t n_threads = std::min<size_t>(
      work.size(), std::max(1u, std::thread::hardware_concurrency()));
  for (size_t i = 1; i < n_threads; ++i) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();
  uint64_t mismatches = 0;
  for (const Phase* ph : phases)
    for (const Outcome& o : ph->outcomes)
      if (o.ok && oracle.at({o.tenant, o.input}) != o.hash) ++mismatches;
  return mismatches;
}

// ---- per-layer probes ------------------------------------------------------

/// Serving-unit counters summed over every unit of the server.
struct UnitTotals {
  size_t units = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;
  uint64_t timeouts = 0;
  std::map<std::string, uint64_t> tag_ns;  // plan time by op tag
  uint64_t gemm_ns = 0;                    // op_tag_group == "gemm"
};

UnitTotals unit_totals(const serve::ModelServer& server) {
  UnitTotals t;
  for (const serve::UnitMetricsRow& row : server.unit_metrics()) {
    ++t.units;
    t.completed += row.completed;
    t.batches += row.batches;
    t.timeouts += row.timeouts;
    for (const deploy::PlanOpProfile& op : row.plan_ops) {
      t.tag_ns[op.name] += op.total_ns;
      if (std::strcmp(deploy::op_tag_group(op.tag), "gemm") == 0)
        t.gemm_ns += op.total_ns;
    }
  }
  return t;
}

template <typename F>
double median_ms_of(int reps, F&& body) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    body();
    ms.push_back(us_between(t0, Clock::now()) / 1e3);
  }
  return median(ms);
}

/// Direct, uncontended calls into the deploy, session and thread-pool
/// layers (the server is closed by now).
void probe_layers(const Context& ctx, JsonOut& out) {
  deploy::LoadedArtifact master;
  out.num("deploy.load_ms", median_ms_of(kDirectReps, [&] {
            master = deploy::load_artifact(ctx.artifact);
          }));
  out.num("deploy.replicate_ms", median_ms_of(kDirectReps, [&] {
            deploy::LoadedArtifact copy = deploy::replicate(master);
          }));

  std::vector<std::unique_ptr<serve::InferenceSession>> sessions;
  std::vector<double> open_ms;
  for (int i = 0; i < kDirectReps; ++i) {
    deploy::LoadedArtifact copy = deploy::replicate(master);
    const Clock::time_point t0 = Clock::now();
    sessions.push_back(serve::InferenceSession::open(std::move(copy),
                                                     deploy::DeployOptions{}));
    open_ms.push_back(us_between(t0, Clock::now()) / 1e3);
  }
  out.num("deploy.open_ms", median(open_ms));

  const Shape b1 = row_shape(ctx.wl->arch);
  Shape bmax = b1;
  bmax[0] = master.session_defaults.batch_max_requests;
  std::vector<double> c1, cmax;
  for (auto& s : sessions) {
    Clock::time_point t0 = Clock::now();
    s->precompile(b1);
    c1.push_back(us_between(t0, Clock::now()) / 1e3);
    t0 = Clock::now();
    s->precompile(bmax);
    cmax.push_back(us_between(t0, Clock::now()) / 1e3);
  }
  out.num("deploy.compile_ms.b1", median(c1));
  out.num("deploy.compile_ms.bmax", median(cmax));

  // Uncontended single-row predict_into on a side session: the floor
  // under the traced execute stage.
  const serve::InferenceSession& side = *sessions.front();
  const Tensor& x = ctx.pool.front();
  serve::Prediction pred;
  for (int i = 0; i < 20; ++i) side.predict_into(x, pred);
  std::vector<double> predict_us;
  const Clock::time_point budget_end =
      Clock::now() + std::chrono::milliseconds(400);
  while (predict_us.size() < 50 ||
         (Clock::now() < budget_end && predict_us.size() < 4000)) {
    const Clock::time_point t0 = Clock::now();
    side.predict_into(x, pred);
    predict_us.push_back(us_between(t0, Clock::now()));
  }
  out.num("session.predict_us.b1", median(predict_us));

  // A parallel region spanning the global pool: one empty chunk per
  // participant (workers + caller), each yielding until every participant
  // has arrived (or 1 ms passed). Started from a parked pool, it times
  // the wake and join of every worker that a multi-panel GEMM pays.
  ThreadPool& pool = ThreadPool::global();
  out.num("threadpool.size", pool.size());
  const int64_t participants = pool.size() + 1;
  std::atomic<int64_t> arrived{0};
  auto body = [&](int64_t b, int64_t e) {
    arrived.fetch_add(e - b, std::memory_order_acq_rel);
    const Clock::time_point give_up =
        Clock::now() + std::chrono::milliseconds(1);
    while (arrived.load(std::memory_order_acquire) < participants &&
           Clock::now() < give_up)
      std::this_thread::yield();
  };
  std::vector<double> region_us;
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    arrived.store(0, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    parallel_for(participants, body, 1);
    region_us.push_back(us_between(t0, Clock::now()));
  }
  out.num("threadpool.region_us", median(region_us));
}

void phase_counts(JsonOut& out, const std::string& name, const Phase& ph) {
  out.num("loadgen." + name + ".sent", static_cast<double>(ph.sent));
  out.num("loadgen." + name + ".succeeded", static_cast<double>(ph.ok));
  out.num("loadgen." + name + ".failed", static_cast<double>(ph.failed));
}

// ---- modes -----------------------------------------------------------------

template <typename Model>
void write_artifact(Model& model, const std::string& path) {
  model.set_training(false);
  model.deploy();
  serve::SessionOptions so = deploy::default_session_options(model);
  so.mc_samples = kSamples;
  deploy::save_artifact(model, path, so);
}

void write_artifacts(const std::string& dir) {
  models::VariantConfig proposed;
  proposed.variant = models::Variant::kProposed;
  Rng lstm_init(0xA11CE);
  models::LstmForecaster lstm(kLstmTopo, proposed, &lstm_init);
  write_artifact(lstm, dir + "/" + artifact_name(Arch::kLstm));
  Rng resnet_init(0xB0B);
  models::BinaryResNet resnet(kResNetTopo, proposed, &resnet_init);
  write_artifact(resnet, dir + "/" + artifact_name(Arch::kResNet));
}

int mode_setup(const Context& ctx) {
  SetupResult s = set_up(ctx);
  std::vector<double> first_ms;
  for (double us : s.phase.latency_us) first_ms.push_back(us / 1e3);
  s.server->close();
  s.server.reset();
  const uint64_t mismatches = count_mismatches(ctx, {&s.phase});
  JsonOut out;
  out.str("mode", "setup");
  out.num("setup_s", s.seconds);
  out.num("server.first_response_ms", mean(first_ms));
  out.num("sent", static_cast<double>(s.phase.sent));
  out.num("failed", static_cast<double>(s.phase.failed));
  out.num("mismatches", static_cast<double>(mismatches));
  out.str("first_error", s.phase.first_error);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int mode_run(const Context& ctx, double seconds, bool traced,
             const std::string& chrome_path) {
  const Workload& wl = *ctx.wl;
  SetupResult s = set_up(ctx);
  serve::ModelServer& server = *s.server;
  std::vector<double> first_ms;
  for (double us : s.phase.latency_us) first_ms.push_back(us / 1e3);

  Phase warm = warm_shapes(server, ctx);
  warm.merge(run_phase(server, ctx, 0, std::clamp(seconds * 0.1, 1.0, 2.0)));

  JsonOut out;
  out.str("mode", traced ? "trace" : "run");
  out.str("workload", wl.name);
  out.num("seed", static_cast<double>(ctx.seed));
  out.str("gemm_kernel", gemm_backend_name());
  out.num("threadpool_size", ThreadPool::global().size());
  out.num("setup_s", s.seconds);
  out.num("server.first_response_ms", mean(first_ms));
  phase_counts(out, "setup", s.phase);
  phase_counts(out, "warmup", warm);

  std::vector<const Phase*> checked{&s.phase, &warm};
  Phase timed, traced_phase;
  if (!traced) {
    timed = run_phase(server, ctx, 1, seconds);
    out.num("rss_mb", rss_mib());
    out.list("windows.p50_ms", timed.window_p50_ms());
    // Tails over the whole phase: a window holds too few requests for them.
    out.num("timed.p90_ms", percentile(timed.latency_us, 90.0) / 1e3);
    out.num("timed.p99_ms", percentile(timed.latency_us, 99.0) / 1e3);
    out.num("timed.seconds", timed.seconds());
    out.num("timed.slo_met", static_cast<double>(timed.slo_met));
    out.num("loadgen.late_p99_us", percentile(timed.late_us, 99.0));
    phase_counts(out, "timed", timed);
    checked.push_back(&timed);
  } else {
    // Untraced reference half, then the traced half.
    timed = run_phase(server, ctx, 1, seconds / 2);
    const UnitTotals before = unit_totals(server);
    trace::Tracer& tracer = trace::Tracer::instance();
    trace::TracerOptions topts;
    topts.sample_every = 64;
    tracer.configure(topts);
    tracer.reset();
    tracer.set_enabled(true);
    deploy::set_plan_profiling(true);
    traced_phase = run_phase(server, ctx, 2, seconds / 2);
    tracer.set_enabled(false);
    deploy::set_plan_profiling(false);
    const UnitTotals after = unit_totals(server);
    checked.push_back(&timed);
    checked.push_back(&traced_phase);

    const double reqs =
        static_cast<double>(after.completed - before.completed);
    const double batches = static_cast<double>(after.batches - before.batches);
    out.num("server.submit_us", mean(traced_phase.submit_us));
    out.num("server.units", static_cast<double>(after.units));
    out.num("batcher.mean_batch_requests", batches > 0 ? reqs / batches : 0);
    out.num("batcher.timeouts",
            static_cast<double>(after.timeouts - before.timeouts));

    struct StageName {
      trace::Stage stage;
      const char* key;
    };
    const StageName stages[] = {
        {trace::Stage::kAdmission, "stage.admission_us"},
        {trace::Stage::kQueueWait, "stage.queue_wait_us"},
        {trace::Stage::kBatchAssembly, "stage.batch_assembly_us"},
        {trace::Stage::kExecute, "stage.execute_us"},
        {trace::Stage::kResolve, "stage.resolve_us"},
    };
    double stage_sum = 0.0;
    for (const StageName& st : stages) {
      const double m = tracer.stage_latency(st.stage).mean_us();
      stage_sum += m;
      out.num(st.key, m);
    }
    out.num("stage.sum_us", stage_sum);
    out.num("stage.request_us",
            tracer.stage_latency(trace::Stage::kRequest).mean_us());
    out.num("trace.captured", static_cast<double>(tracer.captured()));

    // Plan time per request by op tag (deltas over the traced phase).
    std::map<std::string, double> tag_ns;
    double plan_ns = 0.0;
    for (const auto& [tag, ns] : after.tag_ns) {
      const auto it = before.tag_ns.find(tag);
      tag_ns[tag] = static_cast<double>(
          ns - (it == before.tag_ns.end() ? 0 : it->second));
      plan_ns += tag_ns[tag];
    }
    auto per_req_us = [&](double ns) { return reqs > 0 ? ns / reqs / 1e3 : 0; };
    for (const char* tag :
         {"conv2d", "linear", "lstm_gates", "group_norm", "affine"}) {
      out.num(std::string("plan.") + tag + ".us_per_req",
              per_req_us(tag_ns[tag]));
      plan_ns -= tag_ns[tag];
    }
    out.num("plan.other.us_per_req", per_req_us(plan_ns));
    const double mflop = gemm_mflop_per_request(wl.arch, kSamples);
    const double gemm_us =
        per_req_us(static_cast<double>(after.gemm_ns - before.gemm_ns));
    out.num("plan.gemm_mflop_per_req", mflop);
    out.num("plan.gemm_gflops", gemm_us > 0 ? mflop / gemm_us * 1e3 : 0.0);

    out.num("latency_p50_ms.untraced", timed.p50_ms());
    out.num("latency_p50_ms.traced", traced_phase.p50_ms());
    out.num("trace.overhead_pct",
            timed.p50_ms() > 0
                ? (traced_phase.p50_ms() / timed.p50_ms() - 1.0) * 100.0
                : 0.0);
    out.num("loadgen.late_p99_us", percentile(traced_phase.late_us, 99.0));
    phase_counts(out, "timed", timed);
    phase_counts(out, "traced", traced_phase);
    if (!chrome_path.empty() && !tracer.write_chrome_trace(chrome_path))
      throw std::runtime_error("cannot write " + chrome_path);
  }

  server.close();
  s.server.reset();
  if (traced) probe_layers(ctx, out);

  const uint64_t mismatches = count_mismatches(ctx, checked);
  out.num("check.mismatches", static_cast<double>(mismatches));
  std::string first_error;
  for (const Phase* ph : checked)
    if (first_error.empty()) first_error = ph->first_error;
  out.str("first_error", first_error);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ripple_perfbench prepare --artifacts DIR\n"
               "       ripple_perfbench setup --workload W --seed S "
               "--artifacts DIR\n"
               "       ripple_perfbench run --workload W --seed S --seconds N "
               "--trace 0|1 --artifacts DIR [--part N] [--chrome PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  auto arg = [&](const char* key) -> std::string {
    const auto it = args.find(key);
    return it == args.end() ? std::string() : it->second;
  };
  try {
    if (arg("artifacts").empty()) return usage();
    if (mode == "prepare") {
      write_artifacts(arg("artifacts"));
      std::printf("{\"mode\": \"prepare\"}\n");
      return 0;
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads)
      if (arg("workload") == w.name) wl = &w;
    if (wl == nullptr || arg("seed").empty()) return usage();
    Context ctx =
        make_context(*wl, std::stoull(arg("seed")), arg("artifacts"));
    if (!arg("part").empty()) ctx.part = std::stoull(arg("part"));
    if (mode == "setup") return mode_setup(ctx);
    if (mode == "run") {
      const double seconds = std::stod(arg("seconds"));
      if (!(seconds > 0)) return usage();
      return mode_run(ctx, seconds, arg("trace") == "1", arg("chrome"));
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ripple_perfbench: %s\n", e.what());
    return 1;
  }
}
