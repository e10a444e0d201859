#include "service/fleet_metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "telemetry/audit.hpp"  // json_escape
#include "telemetry/env.hpp"

namespace apollo::service {

namespace {

/// Disconnected clients kept for history in the export; beyond this the
/// oldest-disconnected are dropped so churning fleets cannot grow the map.
constexpr std::size_t kMaxDisconnectedClients = 256;

using telemetry::json_escape;

std::string ts_ms(std::uint64_t now_ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(now_ns) * 1e-6);
  return buf;
}

std::string u64s(std::uint64_t v) { return std::to_string(v); }

std::string f64s(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Sum of every apollo_regret_seconds_total series in a client's shipment —
/// the client's cumulative regret across kernels at snapshot time.
double total_regret(const telemetry::MetricsSnapshot& snapshot) {
  double total = 0.0;
  for (const auto& series : snapshot.series) {
    if (series.kind == telemetry::MetricKind::Gauge &&
        series.name == "apollo_regret_seconds_total") {
      total += series.gauge_value;
    }
  }
  return total;
}

telemetry::SeriesSnapshot fleet_gauge(const char* name, const char* help, std::string labels,
                                      double value) {
  telemetry::SeriesSnapshot s;
  s.name = name;
  s.help = help;
  s.labels = std::move(labels);
  s.kind = telemetry::MetricKind::Gauge;
  s.gauge_value = value;
  return s;
}

telemetry::SeriesSnapshot fleet_counter(const char* name, const char* help, std::string labels,
                                        std::uint64_t value) {
  telemetry::SeriesSnapshot s;
  s.name = name;
  s.help = help;
  s.labels = std::move(labels);
  s.kind = telemetry::MetricKind::Counter;
  s.counter_value = value;
  return s;
}

}  // namespace

FleetConfig FleetConfig::from_env() {
  FleetConfig config;
  config.metrics_path = telemetry::env_string("APOLLO_FLEET_METRICS_FILE");
  config.events_path = telemetry::env_string("APOLLO_FLEET_EVENTS_FILE");
  config.slo_ms = telemetry::env_int64("APOLLO_FLEET_SLO_MS", config.slo_ms, /*min_value=*/0);
  config.export_ms = telemetry::env_int64("APOLLO_FLEET_EXPORT_MS", config.export_ms);
  return config;
}

FleetMetrics::FleetMetrics(FleetConfig config) : config_(std::move(config)) {
  if (config_.export_ms <= 0) config_.export_ms = 1;
}

FleetMetrics::~FleetMetrics() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (events_.is_open()) events_.flush();
}

void FleetMetrics::event_locked(const std::string& json_body) {
  if (config_.events_path.empty() || events_open_failed_) return;
  if (!events_.is_open()) {
    events_.open(config_.events_path, std::ios::out | std::ios::app);
    if (!events_) {
      events_open_failed_ = true;  // warn once, never retry per event
      std::fprintf(stderr, "apollo_served: cannot open fleet event log %s\n",
                   config_.events_path.c_str());
      return;
    }
  }
  events_ << "{" << json_body << "}\n";
  events_.flush();  // events are rare; a tailer must never see a torn line
}

void FleetMetrics::client_connected(std::uint64_t client_id, const std::string& name,
                                    std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ClientState& client = clients_[client_id];
  client.name = name;
  client.connected = true;
  event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"connect\",\"client\":" +
               u64s(client_id) + ",\"name\":\"" + json_escape(name) + "\"");
  // Drop the oldest disconnected clients once history outgrows the cap.
  std::size_t disconnected = 0;
  for (const auto& [id, state] : clients_) {
    if (!state.connected) ++disconnected;
  }
  for (auto it = clients_.begin();
       disconnected > kMaxDisconnectedClients && it != clients_.end();) {
    if (!it->second.connected) {
      it = clients_.erase(it);
      --disconnected;
    } else {
      ++it;
    }
  }
}

void FleetMetrics::client_disconnected(std::uint64_t client_id, const std::string& cause,
                                       std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  it->second.connected = false;
  it->second.behind_since_ns = 0;
  it->second.in_breach = false;
  event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"disconnect\",\"client\":" +
               u64s(client_id) + ",\"cause\":\"" + json_escape(cause) + "\"");
}

void FleetMetrics::hello_nacked(std::uint64_t client_id, std::uint32_t their_protocol,
                                std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"nack\",\"client\":" +
               u64s(client_id) + ",\"cause\":\"protocol skew\",\"client_protocol\":" +
               u64s(their_protocol) + ",\"daemon_protocol\":" + u64s(kProtocolVersion));
}

void FleetMetrics::caught_up_check_locked(ClientState& client, std::uint64_t daemon_generation,
                                          std::uint64_t now_ns) {
  (void)now_ns;
  if (client.applied_generation >= daemon_generation) {
    client.behind_since_ns = 0;
    client.in_breach = false;
  }
}

void FleetMetrics::batch_received(std::uint64_t client_id, const SampleBatch& batch,
                                  std::uint64_t samples_accepted,
                                  std::uint64_t daemon_generation, std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ClientState& client = clients_[client_id];
  client.batches += 1;
  client.samples += samples_accepted;
  client.applied_generation = std::max(client.applied_generation, batch.origin_generation);
  caught_up_check_locked(client, daemon_generation, now_ns);
}

void FleetMetrics::telemetry_received(std::uint64_t client_id, const TelemetryFrame& frame,
                                      std::uint64_t daemon_generation, std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ClientState& client = clients_[client_id];
  client.telemetry_snapshots += 1;
  telemetry_snapshots_total_ += 1;
  client.applied_generation = std::max(client.applied_generation, frame.applied_generation);

  // Regret attributable to staleness: whatever regret the client accrued
  // since its previous report, charged to staleness when the client was
  // running behind the daemon generation over that interval.
  const double regret = total_regret(frame.snapshot);
  if (client.last_regret_total >= 0.0 && regret > client.last_regret_total &&
      client.behind_since_ns != 0) {
    client.regret_stale_seconds += regret - client.last_regret_total;
  }
  client.last_regret_total = regret;

  // Keep the latest shipment with its gauges tagged by client, so merged
  // gauges stay per-client (last write wins per client, not across clients).
  client.snapshot = frame.snapshot;
  client.snapshot.tag(telemetry::MetricKind::Gauge, "client",
                      client.name.empty() ? "client-" + u64s(client_id) : client.name);
  caught_up_check_locked(client, daemon_generation, now_ns);
}

void FleetMetrics::generation_trained(std::uint64_t generation, std::uint64_t samples,
                                      double train_seconds,
                                      const std::vector<LineageEntry>& lineage,
                                      std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  trains_logged_ += 1;
  // Every client is now behind the new generation until it reports applying
  // it; the staleness clock starts at train time.
  for (auto& [id, client] : clients_) {
    if (client.connected && client.applied_generation < generation &&
        client.behind_since_ns == 0) {
      client.behind_since_ns = now_ns;
    }
  }
  std::string lineage_json = "[";
  for (std::size_t i = 0; i < lineage.size(); ++i) {
    if (i > 0) lineage_json += ",";
    lineage_json += "{\"client\":" + u64s(lineage[i].client_id) + ",\"seqs\":[";
    for (std::size_t s = 0; s < lineage[i].seqs.size(); ++s) {
      if (s > 0) lineage_json += ",";
      lineage_json += u64s(lineage[i].seqs[s]);
    }
    lineage_json += "]}";
  }
  lineage_json += "]";
  event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"train\",\"generation\":" +
               u64s(generation) + ",\"samples\":" + u64s(samples) + ",\"train_seconds\":" +
               f64s(train_seconds) + ",\"lineage\":" + lineage_json);
}

void FleetMetrics::train_failed(const std::string& cause, std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"train_failed\",\"cause\":\"" +
               json_escape(cause) + "\"");
}

void FleetMetrics::push_sent(std::uint64_t generation, std::uint64_t clients,
                             std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, client] : clients_) {
    if (client.connected) client.last_push_ns = now_ns;
  }
  event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"push\",\"generation\":" +
               u64s(generation) + ",\"clients\":" + u64s(clients));
}

void FleetMetrics::slo_check_locked(std::uint64_t daemon_generation, std::uint64_t now_ns) {
  if (config_.slo_ms <= 0) return;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(config_.slo_ms) * 1000000ull;
  for (auto& [id, client] : clients_) {
    if (!client.connected || client.behind_since_ns == 0 || client.in_breach) continue;
    if (client.applied_generation >= daemon_generation) {
      client.behind_since_ns = 0;
      continue;
    }
    if (now_ns - client.behind_since_ns > budget_ns) {
      client.in_breach = true;
      client.slo_breaches += 1;
      slo_breaches_total_ += 1;
      event_locked("\"ts_ms\":" + ts_ms(now_ns) + ",\"event\":\"slo_breach\",\"client\":" +
                   u64s(id) + ",\"lag\":" + u64s(daemon_generation - client.applied_generation) +
                   ",\"stale_ms\":" +
                   f64s(static_cast<double>(now_ns - client.behind_since_ns) * 1e-6));
    }
  }
}

FleetMetrics::ClientView FleetMetrics::view_locked(std::uint64_t client_id,
                                                   const ClientState& client,
                                                   std::uint64_t daemon_generation,
                                                   std::uint64_t now_ns) const {
  ClientView view;
  view.client_id = client_id;
  view.name = client.name.empty() ? "client-" + u64s(client_id) : client.name;
  view.connected = client.connected;
  view.applied_generation = client.applied_generation;
  view.generation_lag = daemon_generation > client.applied_generation
                            ? daemon_generation - client.applied_generation
                            : 0;
  view.staleness_seconds =
      client.behind_since_ns != 0 && now_ns > client.behind_since_ns
          ? static_cast<double>(now_ns - client.behind_since_ns) * 1e-9
          : 0.0;
  view.last_push_age_seconds =
      client.last_push_ns != 0 && now_ns > client.last_push_ns
          ? static_cast<double>(now_ns - client.last_push_ns) * 1e-9
          : (client.last_push_ns != 0 ? 0.0 : -1.0);
  view.batches = client.batches;
  view.samples = client.samples;
  view.telemetry_snapshots = client.telemetry_snapshots;
  view.slo_breaches = client.slo_breaches;
  view.regret_stale_seconds = client.regret_stale_seconds;
  return view;
}

std::vector<FleetMetrics::ClientView> FleetMetrics::clients(std::uint64_t daemon_generation,
                                                            std::uint64_t now_ns) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ClientView> out;
  out.reserve(clients_.size());
  for (const auto& [id, client] : clients_) {
    out.push_back(view_locked(id, client, daemon_generation, now_ns));
  }
  return out;
}

std::uint64_t FleetMetrics::slo_breaches() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slo_breaches_total_;
}

std::uint64_t FleetMetrics::telemetry_snapshots() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return telemetry_snapshots_total_;
}

telemetry::MetricsSnapshot FleetMetrics::merged_locked(std::uint64_t daemon_generation,
                                                       std::uint64_t now_ns) const {
  telemetry::MetricsSnapshot merged;
  // Client shipments first: counters sum exactly, histograms merge
  // bucket-for-bucket, gauges were client-tagged at receipt so they union.
  for (const auto& [id, client] : clients_) merged.merge(client.snapshot);

  std::uint64_t connected = 0;
  for (const auto& [id, client] : clients_) connected += client.connected ? 1 : 0;
  merged.upsert(fleet_gauge("apollo_fleet_clients", "Clients currently connected.", "",
                            static_cast<double>(connected)));
  merged.upsert(fleet_gauge("apollo_fleet_generation", "Daemon model generation.", "",
                            static_cast<double>(daemon_generation)));
  merged.upsert(fleet_counter("apollo_fleet_trains_total", "Generations trained.", "",
                              trains_logged_));
  merged.upsert(fleet_counter("apollo_fleet_telemetry_snapshots_total",
                              "Client metrics shipments merged.", "",
                              telemetry_snapshots_total_));

  for (const auto& [id, client] : clients_) {
    const ClientView view = view_locked(id, client, daemon_generation, now_ns);
    const std::string label = "client=\"" + json_escape(view.name) + "\"";
    merged.upsert(fleet_gauge("apollo_fleet_connected", "1 while the client is connected.",
                              label, view.connected ? 1.0 : 0.0));
    merged.upsert(fleet_gauge("apollo_fleet_generation_lag",
                              "Generations the client trails the daemon.", label,
                              static_cast<double>(view.generation_lag)));
    merged.upsert(fleet_gauge("apollo_fleet_staleness_seconds",
                              "How long the client has been behind the daemon generation.",
                              label, view.staleness_seconds));
    if (view.last_push_age_seconds >= 0.0) {
      merged.upsert(fleet_gauge("apollo_fleet_last_push_age_seconds",
                                "Since the daemon last pushed a model to the client.", label,
                                view.last_push_age_seconds));
    }
    merged.upsert(fleet_counter("apollo_fleet_batches_total",
                                "Sample batches the client contributed.", label, view.batches));
    merged.upsert(fleet_counter("apollo_fleet_samples_total",
                                "Samples the client contributed.", label, view.samples));
    merged.upsert(fleet_counter("apollo_fleet_slo_breaches_total",
                                "Staleness SLO breach episodes.", label, view.slo_breaches));
    merged.upsert(fleet_gauge("apollo_fleet_regret_stale_seconds_total",
                              "Client-reported regret accrued while running a stale model.",
                              label, view.regret_stale_seconds));
  }
  return merged;
}

telemetry::MetricsSnapshot FleetMetrics::merged(std::uint64_t daemon_generation,
                                                std::uint64_t now_ns) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return merged_locked(daemon_generation, now_ns);
}

void FleetMetrics::export_locked(std::uint64_t daemon_generation, std::uint64_t now_ns) {
  last_export_ns_ = now_ns;
  if (config_.metrics_path.empty()) return;
  try {
    merged_locked(daemon_generation, now_ns).write_file(config_.metrics_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "apollo_served: fleet metrics export failed: %s\n", error.what());
  }
}

void FleetMetrics::tick(std::uint64_t daemon_generation, std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  slo_check_locked(daemon_generation, now_ns);
  const std::uint64_t cadence_ns = static_cast<std::uint64_t>(config_.export_ms) * 1000000ull;
  if (last_export_ns_ == 0 || now_ns - last_export_ns_ >= cadence_ns) {
    export_locked(daemon_generation, now_ns);
  }
}

void FleetMetrics::export_now(std::uint64_t daemon_generation, std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  slo_check_locked(daemon_generation, now_ns);
  export_locked(daemon_generation, now_ns);
}

}  // namespace apollo::service
