#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "serve/prom.h"
#include "tensor/check.h"

namespace ripple::serve {

namespace {

std::future<Prediction> failed_future(Status status,
                                      const std::string& what) {
  std::promise<Prediction> promise;
  promise.set_exception(std::make_exception_ptr(ServeError(status, what)));
  return promise.get_future();
}

}  // namespace

// ---- lifecycle --------------------------------------------------------------

ModelServer::ModelServer(ServerOptions options)
    : options_(std::move(options)) {
  RIPPLE_CHECK(options_.cluster.replicas >= 1)
      << "ModelServer: cluster.replicas >= 1";
  if (options_.metrics_port >= 0) {
    exporter_ = std::make_unique<MetricsExporter>(*this);
    exporter_->start(options_.metrics_port);
  }
}

ModelServer::~ModelServer() { close(); }

std::shared_ptr<ModelServer::ModelVersion> ModelServer::build_version(
    const std::string& name, const std::string& version,
    const std::string& artifact_path,
    const deploy::DeployOptions& deploy) const {
  auto mv = std::make_shared<ModelVersion>();
  mv->name = name;
  mv->version = version;
  mv->deploy = deploy;
  const deploy::ManifestInfo info = deploy::inspect_artifact(artifact_path);
  if (info.version >= 3) {
    for (const deploy::ManifestEntryInfo& e : info.entries) {
      auto entry = std::make_unique<EntryState>();
      entry->name = e.name;
      entry->weight = e.weight;
      entry->master = std::make_shared<const deploy::LoadedArtifact>(
          deploy::load_artifact(artifact_path, e.name));
      mv->entries.push_back(std::move(entry));
    }
  } else {
    // Single-model v1/v2 file: one anonymous entry.
    auto entry = std::make_unique<EntryState>();
    entry->master = std::make_shared<const deploy::LoadedArtifact>(
        deploy::load_artifact(artifact_path));
    mv->entries.push_back(std::move(entry));
  }
  // Weighted-round-robin pick table: weights quantized at 1% resolution,
  // then gcd-reduced so the routing period is as short as the ratio
  // allows — 3:1 routes exactly 3 then 1 every 4 requests, not 300 then
  // 100 every 400.
  std::vector<uint64_t> scaled;
  uint64_t g = 0;
  for (const auto& entry : mv->entries) {
    scaled.push_back(std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(entry->weight * 100.0))));
    g = std::gcd(g, scaled.back());
  }
  uint64_t cum = 0;
  for (const uint64_t w : scaled) {
    cum += w / g;
    mv->pick_upper.push_back(cum);
  }
  return mv;
}

void ModelServer::load_model(const std::string& name,
                             const std::string& version,
                             const std::string& artifact_path) {
  load_model(name, version, artifact_path, options_.cluster.deploy);
}

void ModelServer::load_model(const std::string& name,
                             const std::string& version,
                             const std::string& artifact_path,
                             const deploy::DeployOptions& deploy) {
  RIPPLE_CHECK(!name.empty() && !version.empty())
      << "load_model: name and version must be set";
  // Heavy I/O (manifest inspection + per-entry loads) happens before the
  // exclusive lock; the registry flip itself is cheap.
  std::shared_ptr<ModelVersion> mv =
      build_version(name, version, artifact_path, deploy);
  {
    std::unique_lock lock(registry_mutex_);
    if (closed_) throw ServeError(Status::kClosed, "load_model after close()");
    ModelState& state = registry_[name];
    if (!state.versions.emplace(version, mv).second)
      throw std::runtime_error("ModelServer: model '" + name + "' version '" +
                               version + "' already loaded");
    if (state.active.empty()) state.active = version;
  }
  counters_.on_load();
}

void ModelServer::set_active(const std::string& name,
                             const std::string& version) {
  std::unique_lock lock(registry_mutex_);
  auto it = registry_.find(name);
  if (it == registry_.end() || !it->second.versions.count(version))
    throw ServeError(Status::kUnknownModel,
                     "set_active: no model '" + name + "' version '" +
                         version + "'");
  it->second.active = version;
}

void ModelServer::unload_model(const std::string& name,
                               const std::string& version) {
  std::shared_ptr<ModelVersion> retired;
  {
    std::unique_lock lock(registry_mutex_);
    auto it = registry_.find(name);
    if (it == registry_.end()) return;
    auto vit = it->second.versions.find(version);
    if (vit == it->second.versions.end()) return;
    retired = std::move(vit->second);
    it->second.versions.erase(vit);
    if (it->second.active == version) {
      // Newest remaining version (map order) inherits the alias.
      it->second.active = it->second.versions.empty()
                              ? std::string()
                              : it->second.versions.rbegin()->first;
    }
    if (it->second.versions.empty()) registry_.erase(it);
  }
  retire(retired);
  counters_.on_unload();
}

void ModelServer::hot_swap(const std::string& name,
                           const std::string& version,
                           const std::string& artifact_path) {
  hot_swap(name, version, artifact_path, options_.cluster.deploy);
}

void ModelServer::hot_swap(const std::string& name,
                           const std::string& version,
                           const std::string& artifact_path,
                           const deploy::DeployOptions& deploy) {
  std::shared_ptr<ModelVersion> incoming =
      build_version(name, version, artifact_path, deploy);
  std::shared_ptr<ModelVersion> outgoing;
  {
    std::unique_lock lock(registry_mutex_);
    if (closed_) throw ServeError(Status::kClosed, "hot_swap after close()");
    ModelState& state = registry_[name];
    if (!state.versions.emplace(version, incoming).second)
      throw std::runtime_error("ModelServer: model '" + name + "' version '" +
                               version + "' already loaded");
    const std::string old_active = state.active;
    state.active = version;
    if (!old_active.empty() && old_active != version) {
      auto vit = state.versions.find(old_active);
      if (vit != state.versions.end()) {
        outgoing = std::move(vit->second);
        state.versions.erase(vit);
      }
    }
  }
  counters_.on_load();
  counters_.on_swap();
  // New traffic already routes to `version`; now drain the old fleet so
  // every future it accepted resolves, then let it go.
  retire(outgoing);
}

void ModelServer::retire(const std::shared_ptr<ModelVersion>& mv) {
  if (!mv) return;
  for (const auto& entry : mv->entries) {
    std::vector<std::shared_ptr<ClusterController>> units;
    {
      std::lock_guard<std::mutex> lock(entry->units_mutex);
      entry->retired = true;  // late submits re-resolve on the registry
      units.reserve(entry->units.size());
      for (auto& [tenant, unit] : entry->units)
        units.push_back(std::move(unit));
      entry->units.clear();
    }
    for (auto& unit : units) {
      unit->close();  // drain: every queued future resolves
      const ClusterCounters& c = unit->counters();
      counters_.on_drained(c.submitted(), c.resolved(), c.timeouts());
    }
  }
}

void ModelServer::close() {
  std::vector<std::shared_ptr<ModelVersion>> versions;
  {
    std::unique_lock lock(registry_mutex_);
    if (closed_) return;
    closed_ = true;
    for (auto& [name, state] : registry_)
      for (auto& [version, mv] : state.versions)
        versions.push_back(std::move(mv));
    registry_.clear();
  }
  for (const auto& mv : versions) retire(mv);
  if (exporter_) exporter_->stop();
}

bool ModelServer::closed() const {
  std::shared_lock lock(registry_mutex_);
  return closed_;
}

// ---- tenants ----------------------------------------------------------------

void ModelServer::register_tenant(TenantConfig config) {
  RIPPLE_CHECK(!config.id.empty()) << "register_tenant: id must be set";
  const std::string id = config.id;  // keyed before config is moved from
  // Reconfiguration swaps the map's reference; requests mid-submit keep
  // their own shared_ptr to the old Tenant, so it outlives them.
  std::unique_lock lock(tenants_mutex_);
  tenants_[id] = std::make_shared<Tenant>(std::move(config));
}

std::shared_ptr<Tenant> ModelServer::resolve_tenant(const std::string& id) {
  {
    std::shared_lock lock(tenants_mutex_);
    auto it = tenants_.find(id);
    if (it != tenants_.end()) return it->second;
  }
  if (!options_.auto_register_tenants || id.empty()) return nullptr;
  std::unique_lock lock(tenants_mutex_);
  auto& slot = tenants_[id];
  if (!slot) {
    TenantConfig config;
    config.id = id;
    config.quota = options_.default_quota;
    slot = std::make_shared<Tenant>(std::move(config));
  }
  return slot;
}

// ---- serving ----------------------------------------------------------------

std::shared_ptr<ModelServer::ModelVersion> ModelServer::resolve(
    const ModelRef& ref, std::string* error) const {
  std::shared_lock lock(registry_mutex_);
  if (closed_) throw ServeError(Status::kClosed, "submit after close()");
  auto it = registry_.find(ref.name);
  if (it == registry_.end()) {
    *error = "no model named '" + ref.name + "'";
    return nullptr;
  }
  const std::string& version =
      ref.version.empty() ? it->second.active : ref.version;
  auto vit = it->second.versions.find(version);
  if (vit == it->second.versions.end()) {
    *error = "model '" + ref.name + "' has no version '" + version + "'";
    return nullptr;
  }
  return vit->second;
}

ModelServer::EntryState* ModelServer::pick_entry(
    ModelVersion& mv, const std::string& entry) const {
  if (!entry.empty()) {
    for (const auto& e : mv.entries)
      if (e->name == entry) return e.get();
    return nullptr;
  }
  if (mv.entries.size() == 1) return mv.entries.front().get();
  // Deterministic weighted round-robin over the manifest weights: request
  // k lands in the entry whose cumulative-weight bucket contains
  // k mod total — exact proportions, no RNG on the hot path.
  const uint64_t total = mv.pick_upper.back();
  const uint64_t slot =
      mv.route_counter.fetch_add(1, std::memory_order_relaxed) % total;
  for (size_t i = 0; i < mv.entries.size(); ++i)
    if (slot < mv.pick_upper[i]) return mv.entries[i].get();
  return mv.entries.back().get();
}

std::shared_ptr<ClusterController> ModelServer::unit_for(ModelVersion& mv,
                                                         EntryState& entry,
                                                         Tenant& tenant) {
  std::lock_guard<std::mutex> lock(entry.units_mutex);
  if (entry.retired)
    throw ServeError(Status::kClosed,
                     "version retired while routing (hot swap)");
  auto& slot = entry.units[tenant.id()];
  if (slot) return slot;

  // First request of this tenant for this (version, entry): build its
  // fleet from the loaded master under the tenant's seed salt — an
  // isolated, deterministic MC stream (replica 0 serves the salted seed).
  ClusterOptions co = options_.cluster;
  co.deploy = mv.deploy;
  co.deploy.session = mv.deploy.session.has_value()
                          ? *mv.deploy.session
                          : entry.master->session_defaults;
  co.deploy.session->seed += tenant.seed_salt();
  co.deploy.manifest_entry = entry.name;
  co.deploy.crossbar.seed += tenant.seed_salt();
  slot = std::make_shared<ClusterController>(entry.master, std::move(co));
  return slot;
}

std::future<Prediction> ModelServer::submit(Request request) {
  return submit_routed(std::move(request), nullptr);
}

std::future<Prediction> ModelServer::submit_routed(Request request,
                                                   Routed* routed) {
  const auto now = std::chrono::steady_clock::now();
  std::shared_ptr<Tenant> tenant = resolve_tenant(request.tenant);
  if (tenant == nullptr) {
    counters_.on_quota_rejected();
    return failed_future(Status::kQuotaExceeded,
                         "tenant '" + request.tenant +
                             "' is not registered (auto-registration off)");
  }
  if (!tenant->admit(now)) {
    counters_.on_quota_rejected();
    return failed_future(Status::kQuotaExceeded,
                         "tenant '" + request.tenant +
                             "' exceeded its rate quota");
  }
  auto deadline = request.deadline;
  if (deadline == std::chrono::steady_clock::time_point::max() &&
      options_.cluster.default_timeout_us > 0) {
    deadline =
        now + std::chrono::microseconds(options_.cluster.default_timeout_us);
  }

  // Front-door trace context, finished by the unit's cluster once it
  // resolves the request's promise. With tracing off this is one branch.
  trace::TraceContextPtr tctx;
  trace::Tracer& tracer = trace::Tracer::instance();
  if (tracer.enabled()) {
    tctx = tracer.begin_trace(request.tenant, trace::FinishLayer::kCluster);
  }
  // Admission failures after this point resolve the future right here, so
  // the server both records the span and finishes the context.
  const auto admission_failed = [&](Status status, const std::string& what) {
    if (tctx) {
      tracer.record_span(tctx, trace::Stage::kAdmission, now,
                         std::chrono::steady_clock::now());
      tracer.finish(tctx);
    }
    return failed_future(status, what);
  };

  // A submit can race a hot swap: the version resolved under the shared
  // lock may be retired (its units closed) before the unit accepts the
  // request. The retired path surfaces as kClosed — re-resolve on the
  // fresh registry, which now aliases the new active version. Bounded:
  // each retry means a whole swap completed in the window.
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::string error;
    std::shared_ptr<ModelVersion> mv = resolve(request.model, &error);
    if (!mv) {
      counters_.on_unknown_model();
      return admission_failed(Status::kUnknownModel, error);
    }
    EntryState* entry = pick_entry(*mv, request.model.entry);
    if (entry == nullptr) {
      counters_.on_unknown_model();
      return admission_failed(Status::kUnknownModel,
                              "model '" + mv->name + "' version '" +
                                  mv->version + "' has no entry '" +
                                  request.model.entry + "'");
    }
    try {
      // The shared_ptr keeps the unit alive even if a concurrent retire()
      // drops the entry's reference right now; a retired unit's submit
      // observes its closed cluster and lands in the catch below.
      std::shared_ptr<ClusterController> unit =
          unit_for(*mv, *entry, *tenant);
      std::future<Prediction> future =
          unit->submit(request.input, deadline, tctx);
      tenant->on_submit();
      counters_.on_submit();
      if (tctx) {
        // Admission covers tenant/model/entry resolution through unit
        // accept; the unit recorded queue-wait onward into the same
        // context.
        tracer.record_span(tctx, trace::Stage::kAdmission, now,
                           std::chrono::steady_clock::now());
      }
      if (routed != nullptr) {
        routed->version = mv->version;
        routed->entry = entry->name;
      }
      return future;
    } catch (const ServeError& e) {
      if (e.status() != Status::kClosed) throw;
      // Raced a swap; loop re-resolves against the new registry state.
    }
  }
  // The server is still open — per the submit() contract this failure
  // arrives through the future, not a throw (kClosed throws are reserved
  // for close()).
  return admission_failed(
      Status::kOverloaded,
      "ModelServer::submit raced concurrent hot swaps repeatedly");
}

Response ModelServer::serve(Request request) {
  Response response;
  response.request_id = request.id;
  response.model_name = request.model.name;
  const auto start = std::chrono::steady_clock::now();
  const auto fill_latency = [&] {
    response.latency_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
  };
  try {
    // The request goes through unpinned — a version-less request that
    // races a hot swap re-resolves onto the new active version inside
    // submit_routed, which reports back what actually served it so the
    // response metadata and the routing always agree.
    Routed routed;
    std::future<Prediction> future =
        submit_routed(std::move(request), &routed);
    response.model_version = routed.version;
    response.model_entry = routed.entry;
    response.prediction = future.get();
    response.status = Status::kOk;
  } catch (const ServeError& e) {
    response.status = e.status();
    response.error = e.what();
  }
  fill_latency();
  return response;
}

// ---- observability ----------------------------------------------------------

std::vector<UnitMetricsRow> ModelServer::unit_metrics() const {
  std::vector<UnitMetricsRow> rows;
  std::shared_lock lock(registry_mutex_);
  for (const auto& [name, state] : registry_) {
    for (const auto& [version, mv] : state.versions) {
      for (const auto& entry : mv->entries) {
        std::lock_guard<std::mutex> units_lock(entry->units_mutex);
        for (const auto& [tenant, unit] : entry->units) {
          UnitMetricsRow row;
          row.model = name;
          row.version = version;
          row.entry = entry->name;
          row.tenant = tenant;
          const ClusterCounters& c = unit->counters();
          row.submitted = c.submitted();
          row.completed = c.resolved();
          row.timeouts = c.timeouts();
          row.queue_depth = unit->queue_depth();
          row.latency = c.latency().snapshot();
          row.cluster_succeeded = c.succeeded();
          row.cluster_failed = c.failed();
          row.cluster_shed = c.shed();
          row.cluster_retries = c.retries();
          row.cluster_restarts = c.restarts();
          // Replica sums, per-replica drift, and the most-drifted replica's
          // snapshot as the unit-level uncertainty view (the chip instance
          // an operator should look at first).
          double worst = -1.0;
          for (const NodeMetrics& n : unit->metrics()) {
            row.batches += n.batches;
            row.queue_depth += n.queue_depth;
            row.analog.merge(n.analog);
            for (const deploy::PlanOpProfile& op : n.plan_ops)
              deploy::add_op_profile(row.plan_ops, op);
            row.replica_drift.push_back(n.uncertainty.drift);
            if (std::abs(n.uncertainty.drift) > worst) {
              worst = std::abs(n.uncertainty.drift);
              row.uncertainty = n.uncertainty;
            }
          }
          rows.push_back(std::move(row));
        }
      }
    }
  }
  return rows;
}

std::vector<TenantMetricsRow> ModelServer::tenant_metrics() const {
  // Unit rows first (registry lock), then the tenant rollup (tenant
  // lock) — never both locks at once.
  const std::vector<UnitMetricsRow> units = unit_metrics();
  std::vector<TenantMetricsRow> rows;
  std::shared_lock lock(tenants_mutex_);
  rows.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    TenantMetricsRow row;
    row.tenant = id;
    row.submitted = tenant->submitted();
    row.quota_rejected = tenant->quota_rejected();
    for (const UnitMetricsRow& u : units)
      if (u.tenant == id) row.latency.merge(u.latency);
    rows.push_back(std::move(row));
  }
  return rows;
}

int ModelServer::metrics_port() const {
  return exporter_ ? exporter_->port() : -1;
}

std::vector<ModelInfo> ModelServer::models() const {
  std::vector<ModelInfo> infos;
  std::shared_lock lock(registry_mutex_);
  for (const auto& [name, state] : registry_) {
    for (const auto& [version, mv] : state.versions) {
      ModelInfo info;
      info.name = name;
      info.version = version;
      info.active = version == state.active;
      for (const auto& entry : mv->entries)
        info.entries.push_back({entry->name, entry->weight});
      infos.push_back(std::move(info));
    }
  }
  return infos;
}

}  // namespace ripple::serve
