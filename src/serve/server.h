// serve::ModelServer — the multi-tenant front door of the serving stack.
//
// Everything below this layer serves *one* model for *anonymous* callers:
// a session predicts, a batcher coalesces, a cluster keeps replicas of one
// artifact healthy. Every serving unit of the server is one such
// ClusterController of ServerOptions::cluster.replicas ≥ 1 replicas. The
// ModelServer owns what a deployment actually is —
// many models, many versions of each, many clients — behind one typed
// Request/Response surface:
//
//   registry   .rpla artifacts keyed by (name, version), loaded/unloaded/
//              hot-swapped at runtime. A v3 manifest file registers all of
//              its named entries at once; requests route between entries
//              by manifest weight (A/B pairs, shared-file ensembles), or
//              pin one by name.
//   hot swap   load_model(new version) + set_active — or hot_swap(), which
//              does both and retires the old active — without dropping
//              in-flight requests: lookups run under a shared registry
//              lock, retirement drains each serving unit
//              (ClusterController close semantics) so queued futures
//              resolve, and a submit that raced the swap re-resolves onto
//              the new active version. Exactly-once across the swap.
//   tenants    per-tenant serving units, built lazily from the version's
//              loaded artifact with the tenant's seed salt — isolated,
//              deterministic MC streams per tenant — plus token-bucket
//              quotas and per-tenant latency views (serve/tenant.h).
//   failures   the serve::Status taxonomy, now with kUnknownModel and
//              kQuotaExceeded. submit() only throws for kClosed (server
//              shut down); every per-request failure arrives through the
//              future, exactly once.
//   metrics    per-unit ClusterCounters and replica NodeMetrics flattened
//              into UnitMetricsRow/TenantMetricsRow snapshots — the feed of
//              serve::MetricsExporter (serve/prom.h), optionally exposed
//              over HTTP behind ServerOptions::metrics_port.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "deploy/deploy.h"
#include "serve/cluster.h"
#include "serve/tenant.h"

namespace ripple::serve {

class MetricsExporter;

/// Which model a request wants. version "" = the name's active version;
/// entry "" = weighted routing across the version's manifest entries.
struct ModelRef {
  std::string name;
  std::string version;
  std::string entry;
};

struct ServerOptions {
  /// Template of every serving unit's ClusterController: replicas per unit
  /// (default 1), health, retries, admission control (off by default).
  /// `cluster.deploy` is the default deploy configuration of load_model()
  /// and hot_swap() calls without their own (backend, session overrides,
  /// crossbar knobs; its manifest_entry is unused — every entry of a
  /// manifest registers). `cluster.default_timeout_us` is the deadline of
  /// requests that carry none (0 = none).
  ClusterOptions cluster;
  /// Quota granted to tenants that were never register_tenant()ed.
  QuotaPolicy default_quota;
  /// Auto-register unknown tenants (default_quota, id-derived seed salt).
  /// Off: requests from unregistered tenants fail with kQuotaExceeded.
  bool auto_register_tenants = true;
  /// Prometheus HTTP listener port: -1 = off (default), 0 = any free
  /// port (MetricsExporter::port() reports the binding), >0 = fixed.
  /// render() works regardless.
  int metrics_port = -1;
};

struct Request {
  std::string id;      // echoed in the Response
  std::string tenant;  // quota + seed-isolation identity
  ModelRef model;
  Tensor input;
  /// Absolute deadline; time_point::max() (default) applies the server's
  /// cluster.default_timeout_us.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Opaque caller metadata, carried through untouched.
  std::vector<std::pair<std::string, std::string>> headers;
};

struct Response {
  std::string request_id;
  Status status = Status::kOk;
  std::string error;  // what() of the typed failure when status != kOk
  /// What actually served the request (version/entry resolved).
  std::string model_name;
  std::string model_version;
  std::string model_entry;
  Prediction prediction;  // meaningful iff status == kOk
  int64_t latency_us = 0;
};

/// Registry listing (models()).
struct ModelInfo {
  std::string name;
  std::string version;
  bool active = false;
  std::vector<deploy::ManifestEntryInfo> entries;
};

/// Per-serving-unit metrics snapshot, one row per (model, version, entry,
/// tenant) unit — the Prometheus exporter's feed. Request counts and
/// latency are the unit's ClusterCounters; batches, queue depth, analog
/// time and plan ops are summed or merged over its replicas.
struct UnitMetricsRow {
  std::string model;
  std::string version;
  std::string entry;
  std::string tenant;
  uint64_t submitted = 0;
  uint64_t completed = 0;  // ClusterCounters::resolved()
  uint64_t timeouts = 0;
  uint64_t batches = 0;
  /// Accepted but not yet dispatched: the controller queue plus every
  /// replica's batcher queue.
  int64_t queue_depth = 0;
  LatencyHistogram::Snapshot latency;
  LatencyHistogram::Snapshot analog;
  uint64_t cluster_succeeded = 0;
  uint64_t cluster_failed = 0;
  uint64_t cluster_shed = 0;
  uint64_t cluster_retries = 0;
  uint64_t cluster_restarts = 0;
  /// Streaming predictive-uncertainty EWMAs (UncertaintyMonitor) of the
  /// replica whose drift gauge is furthest from 0 — the fleet's most
  /// suspicious chip instance (the only one at replicas = 1).
  UncertaintyMonitor::Snapshot uncertainty;
  /// Per-replica entropy-drift gauges, indexed by replica id.
  std::vector<double> replica_drift;
  /// Per-fused-op profile of the replicas' compiled plans, summed by op
  /// (deploy::set_plan_profiling gates the counters; empty otherwise).
  std::vector<deploy::PlanOpProfile> plan_ops;
};

/// Per-tenant rollup: admission counters + the tenant's latency histogram
/// merged across every unit it touched.
struct TenantMetricsRow {
  std::string tenant;
  uint64_t submitted = 0;
  uint64_t quota_rejected = 0;
  LatencyHistogram::Snapshot latency;
};

/// Server-level counters. Conservation law across hot swaps:
/// drained_submitted() == drained_completed() once a retired version is
/// fully drained — no future a retired unit accepted is ever dropped.
class ServerCounters {
 public:
  void on_submit() { submitted_.fetch_add(1, relaxed); }
  void on_quota_rejected() { quota_rejected_.fetch_add(1, relaxed); }
  void on_unknown_model() { unknown_model_.fetch_add(1, relaxed); }
  void on_load() { loads_.fetch_add(1, relaxed); }
  void on_unload() { unloads_.fetch_add(1, relaxed); }
  void on_swap() { swaps_.fetch_add(1, relaxed); }
  void on_drained(uint64_t submitted, uint64_t completed,
                  uint64_t timeouts) {
    drained_submitted_.fetch_add(submitted, relaxed);
    drained_completed_.fetch_add(completed, relaxed);
    drained_timeouts_.fetch_add(timeouts, relaxed);
  }

  uint64_t submitted() const { return submitted_.load(relaxed); }
  uint64_t quota_rejected() const { return quota_rejected_.load(relaxed); }
  uint64_t unknown_model() const { return unknown_model_.load(relaxed); }
  uint64_t loads() const { return loads_.load(relaxed); }
  uint64_t unloads() const { return unloads_.load(relaxed); }
  uint64_t swaps() const { return swaps_.load(relaxed); }
  /// Requests accepted by units that have since been retired/closed.
  uint64_t drained_submitted() const {
    return drained_submitted_.load(relaxed);
  }
  uint64_t drained_completed() const {
    return drained_completed_.load(relaxed);
  }
  uint64_t drained_timeouts() const {
    return drained_timeouts_.load(relaxed);
  }

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> quota_rejected_{0};
  std::atomic<uint64_t> unknown_model_{0};
  std::atomic<uint64_t> loads_{0};
  std::atomic<uint64_t> unloads_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> drained_submitted_{0};
  std::atomic<uint64_t> drained_completed_{0};
  std::atomic<uint64_t> drained_timeouts_{0};
};

class ModelServer {
 public:
  explicit ModelServer(ServerOptions options = {});
  ~ModelServer();
  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  // ---- registry lifecycle --------------------------------------------------

  /// Loads a .rpla file and registers every manifest entry of it under
  /// (name, version). The first version loaded under a name becomes its
  /// active version. Throws on duplicate (name, version), unreadable or
  /// corrupt artifacts, and after close().
  void load_model(const std::string& name, const std::string& version,
                  const std::string& artifact_path);
  void load_model(const std::string& name, const std::string& version,
                  const std::string& artifact_path,
                  const deploy::DeployOptions& deploy);

  /// Makes (name, version) the target of version-less requests. New
  /// requests route to it immediately; requests already queued on other
  /// versions complete there.
  void set_active(const std::string& name, const std::string& version);

  /// Drains and removes one version (its in-flight futures resolve
  /// first). Removing the active version re-points active at the newest
  /// remaining version, or unregisters the name entirely.
  void unload_model(const std::string& name, const std::string& version);

  /// load_model + set_active + unload of the previously active version,
  /// in that order — the one-call rolling upgrade. In-flight requests on
  /// the old version drain to completion; requests that race the swap
  /// re-resolve onto the new version (exactly-once either way).
  void hot_swap(const std::string& name, const std::string& version,
                const std::string& artifact_path);
  void hot_swap(const std::string& name, const std::string& version,
                const std::string& artifact_path,
                const deploy::DeployOptions& deploy);

  std::vector<ModelInfo> models() const;

  // ---- tenants -------------------------------------------------------------

  /// Registers (or reconfigures) a tenant. Reconfiguring replaces the
  /// quota bucket and seed salt for *new* serving units; existing units
  /// keep serving their original streams.
  void register_tenant(TenantConfig config);

  // ---- serving -------------------------------------------------------------

  /// Routes the request to its tenant's serving unit for the resolved
  /// (model, version, entry). The future resolves exactly once — with a
  /// Prediction, a ServeError (kTimeout/kOverloaded/kReplicaDown from
  /// the unit; kUnknownModel/kQuotaExceeded from the server, already
  /// failed on return), or the session's CheckError for a malformed
  /// input. Throws ServeError{kClosed} only after close().
  std::future<Prediction> submit(Request request);

  /// Blocking convenience: submit + wait, failures folded into the typed
  /// Response instead of thrown.
  Response serve(Request request);

  // ---- observability -------------------------------------------------------

  const ServerCounters& counters() const { return counters_; }
  std::vector<UnitMetricsRow> unit_metrics() const;
  std::vector<TenantMetricsRow> tenant_metrics() const;
  /// Bound port of the metrics listener (-1 when off).
  int metrics_port() const;
  const ServerOptions& options() const { return options_; }

  /// Drains every serving unit and stops the metrics listener.
  /// Idempotent; the destructor calls it.
  void close();
  bool closed() const;

 private:
  /// One manifest entry of a registered version: the replication master
  /// plus the lazily-created per-tenant units (one ClusterController per
  /// tenant) behind their own lock.
  /// Units are shared_ptr so a submit that copied one out under
  /// units_mutex keeps it alive even if retire() drains and drops the
  /// map's reference concurrently — the racing submit then observes the
  /// closed unit (kClosed) instead of a freed one.
  struct EntryState {
    std::string name;  // "" for single-model v1/v2 artifacts
    double weight = 1.0;
    std::shared_ptr<const deploy::LoadedArtifact> master;
    mutable std::mutex units_mutex;
    bool retired = false;  // set at drain; submits re-resolve elsewhere
    /// By tenant id.
    std::map<std::string, std::shared_ptr<ClusterController>> units;
  };

  struct ModelVersion {
    std::string name;
    std::string version;
    deploy::DeployOptions deploy;
    std::vector<std::unique_ptr<EntryState>> entries;
    /// Weighted-round-robin state: pick_upper[i] is the cumulative integer
    /// weight through entry i; a counter mod pick_upper.back() selects.
    std::vector<uint64_t> pick_upper;
    std::atomic<uint64_t> route_counter{0};
  };

  struct ModelState {
    std::string active;
    std::map<std::string, std::shared_ptr<ModelVersion>> versions;
  };

  std::shared_ptr<ModelVersion> build_version(
      const std::string& name, const std::string& version,
      const std::string& artifact_path,
      const deploy::DeployOptions& deploy) const;
  /// Registry lookup under the shared lock. Null + status on miss.
  std::shared_ptr<ModelVersion> resolve(const ModelRef& ref,
                                        std::string* error) const;
  /// Entry selection: pinned by name, or weighted round-robin.
  EntryState* pick_entry(ModelVersion& mv, const std::string& entry) const;
  /// The tenant's unit for one entry, created on first use. Returns an
  /// owning reference (alive across a concurrent retire()). Throws
  /// ServeError{kClosed} when the entry is already retired.
  std::shared_ptr<ClusterController> unit_for(ModelVersion& mv,
                                              EntryState& entry,
                                              Tenant& tenant);
  std::shared_ptr<Tenant> resolve_tenant(const std::string& id);
  /// What actually served a request (filled on the success path).
  struct Routed {
    std::string version;
    std::string entry;
  };
  /// submit() with resolution feedback for serve()'s response metadata.
  std::future<Prediction> submit_routed(Request request, Routed* routed);
  /// Drains every unit of a version and folds its counters into
  /// counters_ (the drained_* conservation ledger).
  void retire(const std::shared_ptr<ModelVersion>& mv);

  ServerOptions options_;
  ServerCounters counters_;

  mutable std::shared_mutex registry_mutex_;
  bool closed_ = false;
  std::map<std::string, ModelState> registry_;
  /// Retired versions kept until fully drained (retire() holds the only
  /// other reference while closing units).
  /// Tenants are shared_ptr for the same reason as units: submit()
  /// copies one out under tenants_mutex_ and keeps using it lock-free
  /// (admit/on_submit/seed_salt); register_tenant() reconfiguration swaps
  /// in a new object without freeing the one in-flight requests hold.
  mutable std::shared_mutex tenants_mutex_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;

  std::unique_ptr<MetricsExporter> exporter_;
};

}  // namespace ripple::serve
