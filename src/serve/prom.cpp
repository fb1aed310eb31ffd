#include "serve/prom.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "deploy/backend_kind.h"
#include "deploy/plan.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "tensor/gemm.h"

// Stamped by CMake from `git describe`; builds outside a checkout fall
// back to "unknown" rather than fail.
#ifndef RIPPLE_GIT_DESCRIBE
#define RIPPLE_GIT_DESCRIBE "unknown"
#endif

namespace ripple::serve {

namespace {

// Prometheus label values escape backslash, double-quote, and newline.
std::string escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unit_labels(const UnitMetricsRow& row) {
  std::ostringstream out;
  out << "model=\"" << escape_label(row.model) << "\",version=\""
      << escape_label(row.version) << "\",entry=\""
      << escape_label(row.entry) << "\",tenant=\""
      << escape_label(row.tenant) << "\"";
  return out.str();
}

// One histogram exposition: cumulative le-buckets over the log2 edges,
// +Inf, then _sum (µs) and _count.
void render_histogram(std::ostringstream& out, const std::string& name,
                      const std::string& labels,
                      const LatencyHistogram::Snapshot& snapshot) {
  uint64_t cumulative = 0;
  // The last bucket is open-ended; its edge is the +Inf line below.
  for (size_t b = 0; b + 1 < LatencyHistogram::kBuckets; ++b) {
    cumulative += snapshot.buckets[b];
    out << name << "_bucket{" << labels << (labels.empty() ? "" : ",")
        << "le=\"" << LatencyHistogram::bucket_upper_us(b) << "\"} "
        << cumulative << "\n";
  }
  cumulative += snapshot.buckets[LatencyHistogram::kBuckets - 1];
  out << name << "_bucket{" << labels << (labels.empty() ? "" : ",")
      << "le=\"+Inf\"} " << cumulative << "\n";
  out << name << "_sum{" << labels << "} " << snapshot.total_us << "\n";
  out << name << "_count{" << labels << "} " << snapshot.count << "\n";
}

}  // namespace

bool write_all(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, p + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted, not dead: retry
      return false;                  // EPIPE/ECONNRESET/...: peer is gone
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

MetricsExporter::MetricsExporter(const ModelServer& server)
    : server_(server) {}

MetricsExporter::~MetricsExporter() { stop(); }

std::string MetricsExporter::render() const {
  std::ostringstream out;
  const ServerCounters& c = server_.counters();

  out << "# HELP ripple_server_requests_total Requests by admission "
         "outcome.\n"
      << "# TYPE ripple_server_requests_total counter\n"
      << "ripple_server_requests_total{result=\"accepted\"} "
      << c.submitted() << "\n"
      << "ripple_server_requests_total{result=\"quota_rejected\"} "
      << c.quota_rejected() << "\n"
      << "ripple_server_requests_total{result=\"unknown_model\"} "
      << c.unknown_model() << "\n";

  out << "# HELP ripple_server_registry_ops_total Registry lifecycle "
         "operations.\n"
      << "# TYPE ripple_server_registry_ops_total counter\n"
      << "ripple_server_registry_ops_total{op=\"load\"} " << c.loads()
      << "\n"
      << "ripple_server_registry_ops_total{op=\"unload\"} " << c.unloads()
      << "\n"
      << "ripple_server_registry_ops_total{op=\"swap\"} " << c.swaps()
      << "\n";

  out << "# HELP ripple_server_drained_requests_total Conservation ledger "
         "of retired serving units (submitted == completed once drained).\n"
      << "# TYPE ripple_server_drained_requests_total counter\n"
      << "ripple_server_drained_requests_total{outcome=\"submitted\"} "
      << c.drained_submitted() << "\n"
      << "ripple_server_drained_requests_total{outcome=\"completed\"} "
      << c.drained_completed() << "\n"
      << "ripple_server_drained_requests_total{outcome=\"timeout\"} "
      << c.drained_timeouts() << "\n";

  const std::vector<TenantMetricsRow> tenants = server_.tenant_metrics();
  out << "# HELP ripple_tenant_requests_total Admitted requests per "
         "tenant.\n"
      << "# TYPE ripple_tenant_requests_total counter\n";
  for (const TenantMetricsRow& t : tenants)
    out << "ripple_tenant_requests_total{tenant=\""
        << escape_label(t.tenant) << "\"} " << t.submitted << "\n";
  out << "# HELP ripple_tenant_quota_rejected_total Quota rejections per "
         "tenant.\n"
      << "# TYPE ripple_tenant_quota_rejected_total counter\n";
  for (const TenantMetricsRow& t : tenants)
    out << "ripple_tenant_quota_rejected_total{tenant=\""
        << escape_label(t.tenant) << "\"} " << t.quota_rejected << "\n";

  const std::vector<UnitMetricsRow> units = server_.unit_metrics();
  out << "# HELP ripple_unit_requests_total Requests per serving unit by "
         "stage.\n"
      << "# TYPE ripple_unit_requests_total counter\n";
  for (const UnitMetricsRow& u : units) {
    const std::string labels = unit_labels(u);
    out << "ripple_unit_requests_total{" << labels
        << ",stage=\"submitted\"} " << u.submitted << "\n"
        << "ripple_unit_requests_total{" << labels
        << ",stage=\"completed\"} " << u.completed << "\n"
        << "ripple_unit_requests_total{" << labels << ",stage=\"timeout\"} "
        << u.timeouts << "\n";
  }
  out << "# HELP ripple_unit_batches_total Dispatched batches per serving "
         "unit.\n"
      << "# TYPE ripple_unit_batches_total counter\n";
  for (const UnitMetricsRow& u : units)
    out << "ripple_unit_batches_total{" << unit_labels(u) << "} "
        << u.batches << "\n";
  out << "# HELP ripple_unit_queue_depth Queued-but-undispatched requests "
         "per serving unit.\n"
      << "# TYPE ripple_unit_queue_depth gauge\n";
  for (const UnitMetricsRow& u : units)
    out << "ripple_unit_queue_depth{" << unit_labels(u) << "} "
        << u.queue_depth << "\n";

  out << "# HELP ripple_unit_latency_microseconds Submit-to-completion "
         "latency per serving unit.\n"
      << "# TYPE ripple_unit_latency_microseconds histogram\n";
  for (const UnitMetricsRow& u : units)
    render_histogram(out, "ripple_unit_latency_microseconds",
                     unit_labels(u), u.latency);
  out << "# HELP ripple_unit_analog_latency_microseconds Modeled analog "
         "(ADC conversion) time per request on crossbar backends.\n"
      << "# TYPE ripple_unit_analog_latency_microseconds histogram\n";
  for (const UnitMetricsRow& u : units) {
    if (u.analog.count == 0) continue;
    render_histogram(out, "ripple_unit_analog_latency_microseconds",
                     unit_labels(u), u.analog);
  }

  out << "# HELP ripple_unit_cluster_requests_total Fleet outcomes per "
         "serving unit.\n"
      << "# TYPE ripple_unit_cluster_requests_total counter\n";
  for (const UnitMetricsRow& u : units) {
    const std::string labels = unit_labels(u);
    out << "ripple_unit_cluster_requests_total{" << labels
        << ",outcome=\"succeeded\"} " << u.cluster_succeeded << "\n"
        << "ripple_unit_cluster_requests_total{" << labels
        << ",outcome=\"failed\"} " << u.cluster_failed << "\n"
        << "ripple_unit_cluster_requests_total{" << labels
        << ",outcome=\"shed\"} " << u.cluster_shed << "\n"
        << "ripple_unit_cluster_requests_total{" << labels
        << ",outcome=\"retried\"} " << u.cluster_retries << "\n";
  }
  out << "# HELP ripple_unit_cluster_restarts_total Replica restarts per "
         "serving unit.\n"
      << "# TYPE ripple_unit_cluster_restarts_total counter\n";
  for (const UnitMetricsRow& u : units)
    out << "ripple_unit_cluster_restarts_total{" << unit_labels(u) << "} "
        << u.cluster_restarts << "\n";

  // ---- request tracing (serve/trace.h) -----------------------------------
  const trace::Tracer& tracer = trace::Tracer::instance();
  out << "# HELP ripple_stage_latency_microseconds Span duration per "
         "pipeline stage, over every request finished while tracing was "
         "enabled (sampling gates ring capture, not these).\n"
      << "# TYPE ripple_stage_latency_microseconds histogram\n";
  for (size_t s = 0; s < trace::kStageCount; ++s) {
    const auto stage = static_cast<trace::Stage>(s);
    const LatencyHistogram::Snapshot snap =
        tracer.stage_latency(stage).snapshot();
    if (snap.count == 0) continue;
    render_histogram(out, "ripple_stage_latency_microseconds",
                     std::string("stage=\"") + trace::stage_name(stage) +
                         "\"",
                     snap);
  }
  out << "# HELP ripple_trace_requests_total Trace contexts begun and "
         "timelines captured to the export rings.\n"
      << "# TYPE ripple_trace_requests_total counter\n"
      << "ripple_trace_requests_total{event=\"started\"} "
      << tracer.started() << "\n"
      << "ripple_trace_requests_total{event=\"captured\"} "
      << tracer.captured() << "\n";
  out << "# HELP ripple_trace_dropped_events_total Ring events overwritten "
         "before export plus spans past the per-request cap (drops never "
         "block a request).\n"
      << "# TYPE ripple_trace_dropped_events_total counter\n"
      << "ripple_trace_dropped_events_total " << tracer.dropped_events()
      << "\n";

  // ---- compiled-plan op profile (deploy::set_plan_profiling) -------------
  out << "# HELP ripple_plan_op_nanoseconds_total Accumulated compiled-plan "
         "step time by fused op; group splits GEMM-backed steps (fused "
         "epilogues included) from standalone epilogues.\n"
      << "# TYPE ripple_plan_op_nanoseconds_total counter\n";
  for (const UnitMetricsRow& u : units) {
    const std::string labels = unit_labels(u);
    for (const deploy::PlanOpProfile& op : u.plan_ops)
      out << "ripple_plan_op_nanoseconds_total{" << labels << ",op=\""
          << op.name << "\",group=\"" << deploy::op_tag_group(op.tag)
          << "\"} " << op.total_ns << "\n";
  }
  out << "# HELP ripple_plan_op_calls_total Compiled-plan step executions "
         "by fused op.\n"
      << "# TYPE ripple_plan_op_calls_total counter\n";
  for (const UnitMetricsRow& u : units) {
    const std::string labels = unit_labels(u);
    for (const deploy::PlanOpProfile& op : u.plan_ops)
      out << "ripple_plan_op_calls_total{" << labels << ",op=\"" << op.name
          << "\",group=\"" << deploy::op_tag_group(op.tag) << "\"} "
          << op.calls << "\n";
  }

  // ---- streaming uncertainty monitor -------------------------------------
  out << "# HELP ripple_unit_uncertainty_observations_total Predictions the "
         "uncertainty monitor has folded into its EWMAs.\n"
      << "# TYPE ripple_unit_uncertainty_observations_total counter\n";
  for (const UnitMetricsRow& u : units)
    out << "ripple_unit_uncertainty_observations_total{" << unit_labels(u)
        << "} " << u.uncertainty.count << "\n";
  out << "# HELP ripple_unit_uncertainty Streaming EWMAs of predictive "
         "uncertainty per serving unit: signal is entropy or MC variance, "
         "window is the fast tracker or the slow baseline.\n"
      << "# TYPE ripple_unit_uncertainty gauge\n";
  for (const UnitMetricsRow& u : units) {
    if (u.uncertainty.count == 0) continue;
    const std::string labels = unit_labels(u);
    out << "ripple_unit_uncertainty{" << labels
        << ",signal=\"entropy\",window=\"fast\"} "
        << u.uncertainty.entropy_fast << "\n"
        << "ripple_unit_uncertainty{" << labels
        << ",signal=\"entropy\",window=\"baseline\"} "
        << u.uncertainty.entropy_baseline << "\n"
        << "ripple_unit_uncertainty{" << labels
        << ",signal=\"variance\",window=\"fast\"} "
        << u.uncertainty.variance_fast << "\n"
        << "ripple_unit_uncertainty{" << labels
        << ",signal=\"variance\",window=\"baseline\"} "
        << u.uncertainty.variance_baseline << "\n";
  }
  out << "# HELP ripple_unit_uncertainty_drift Relative drift of the fast "
         "entropy EWMA against its slow baseline (0 = stable; a faulty "
         "unit pushes this away from zero).\n"
      << "# TYPE ripple_unit_uncertainty_drift gauge\n";
  for (const UnitMetricsRow& u : units)
    out << "ripple_unit_uncertainty_drift{" << unit_labels(u) << "} "
        << u.uncertainty.drift << "\n";
  out << "# HELP ripple_replica_uncertainty_drift Entropy drift per replica "
         "of each serving unit — a single fault-injected replica stands "
         "out here while unit-level aggregates stay muted.\n"
      << "# TYPE ripple_replica_uncertainty_drift gauge\n";
  for (const UnitMetricsRow& u : units) {
    const std::string labels = unit_labels(u);
    for (size_t r = 0; r < u.replica_drift.size(); ++r)
      out << "ripple_replica_uncertainty_drift{" << labels << ",replica=\""
          << r << "\"} " << u.replica_drift[r] << "\n";
  }
  return out.str();
}

std::string MetricsExporter::buildinfo() const {
  std::ostringstream out;
  out << "{\"git\":\"" << escape_label(RIPPLE_GIT_DESCRIBE)
      << "\",\"gemm_kernel\":\"" << gemm_backend_name()
      << "\",\"backends\":[\""
      << deploy::backend_name(deploy::Backend::kFp32) << "\",\""
      << deploy::backend_name(deploy::Backend::kQuantSim) << "\",\""
      << deploy::backend_name(deploy::Backend::kQuantInt8) << "\",\""
      << deploy::backend_name(deploy::Backend::kCrossbar)
      << "\"],\"tracing\":"
      << (trace::Tracer::instance().enabled() ? "true" : "false")
      << ",\"plan_profiling\":"
      << (deploy::plan_profiling_enabled() ? "true" : "false") << "}\n";
  return out.str();
}

void MetricsExporter::start(int port) {
  if (thread_.joinable()) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("MetricsExporter: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    throw std::runtime_error(
        "MetricsExporter: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = static_cast<int>(ntohs(bound.sin_port));
  listen_fd_ = fd;
  stop_.store(false);
  thread_ = std::thread([this] { listener_loop(); });
}

void MetricsExporter::listener_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // One read is enough for a scrape's GET line + headers; only the
    // request path matters for routing (an unparsable request degrades
    // to the metrics exposition rather than an error).
    char buf[1024];
    const ssize_t n = ::read(conn, buf, sizeof(buf) - 1);
    std::string path = "/metrics";
    if (n > 0) {
      buf[n] = '\0';
      if (const char* sp = std::strchr(buf, ' ')) {
        if (const char* end = std::strchr(sp + 1, ' '))
          path.assign(sp + 1, end);
      }
    }
    std::string body;
    const char* content_type = "text/plain; version=0.0.4";
    if (path == "/healthz") {
      // Liveness, not readiness: answering at all is the signal.
      body = "ok\n";
      content_type = "text/plain";
    } else if (path == "/buildinfo") {
      body = buildinfo();
      content_type = "application/json";
    } else {
      body = render();
    }
    std::ostringstream response;
    response << "HTTP/1.1 200 OK\r\n"
             << "Content-Type: " << content_type << "\r\n"
             << "Content-Length: " << body.size() << "\r\n"
             << "Connection: close\r\n\r\n"
             << body;
    const std::string wire = response.str();
    // A scraper that disconnects mid-response must not take the server
    // with it: bare ::write would raise SIGPIPE (fatal by default) and
    // treated EINTR as the peer closing. write_all sends MSG_NOSIGNAL
    // and retries interrupts; a truly gone peer just drops this scrape.
    (void)write_all(conn, wire.data(), wire.size());
    ::close(conn);
  }
}

void MetricsExporter::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = -1;
}

}  // namespace ripple::serve
