// Runtime::metrics() / reset_metrics(): folding every layer's statistics
// into the Simulator's MetricsRegistry and snapshotting the RunReport.
#include "core/run_report.h"

#include <algorithm>
#include <initializer_list>
#include <string>

#include "core/runtime.h"

namespace xlupc::core {

std::uint64_t RunReport::counter(std::string_view name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

double RunReport::gauge(std::string_view name) const {
  for (const auto& [k, v] : gauges) {
    if (k == name) return v;
  }
  return 0.0;
}

namespace {

/// Mean utilization (percent) of the resources of the kinds selected.
double mean_utilization_pct(const net::Machine& machine,
                            std::initializer_list<net::ResourceKind> kinds) {
  double sum = 0.0;
  std::uint64_t n = 0;
  machine.for_each_resource(
      [&](const sim::Resource& r, const net::ResourceId& id) {
        if (std::find(kinds.begin(), kinds.end(), id.kind) == kinds.end()) {
          return;
        }
        sum += r.utilization();
        ++n;
      });
  return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

}  // namespace

RunReport Runtime::metrics() {
  sim::MetricsRegistry& reg = sim_.metrics();

  // The run's live report families: each struct-backed key appears only
  // when every family its row needs is live (sim::MetricRow).
  namespace fam = sim::family;
  sim::Families live = 0;
  if (counters_.local_amos + counters_.shm_amos + counters_.am_amos +
          counters_.rdma_amos > 0) {
    live |= fam::kAmo;
  }
  if (cfg_.coalesce.enabled()) live |= fam::kCoalesce;
  if (cfg_.platform.kind == net::TransportKind::kIb) live |= fam::kIb;
  if (machine_.faults().enabled()) live |= fam::kFaults;
  if (machine_.faults().fabric_enabled()) live |= fam::kFabricFaults;
  if (machine_.fabric().enabled()) live |= fam::kFabric;
  const net::TransportStats& ts = transport_.stats();
  if (machine_.faults().enabled() || ts.bounce_fallbacks > 0) {
    live |= fam::kBounce;
  }

  // --- struct counters: runtime, cache, comm, transport, detector,
  // fabric (per-node and per-thread copies combined through their rows) ---
  sim::fold(reg, counters_, kOpCounterRows, live);
  AddressCacheStats cs;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    sim::merge(cs, node(n).cache.stats(), kAddressCacheRows);
  }
  sim::fold(reg, cs, kAddressCacheRows, live);
  CommStats comm;
  CoalesceStats co;
  for (const auto& th : threads_) {
    sim::merge(comm, th->comm_stats(), kCommRows);
    sim::merge(co, th->coalesce_stats(), kCoalesceRows);
  }
  sim::fold(reg, comm, kCommRows, live);
  sim::fold(reg, co, kCoalesceRows, live);
  sim::fold(reg, ts, net::kTransportRows, live);
  sim::fold(reg, detector_ != nullptr ? detector_->stats() : DetectorStats{},
            kDetectorRows, live);
  sim::fold(reg, machine_.fabric().stats(), net::kFabricRows, live);

  // --- derived values and totals of classes without a stats struct ---
  reg.set_gauge("cache.hit_rate", cs.hit_rate());
  std::uint64_t cache_entries = 0;
  std::uint64_t pin_calls = 0, registrations = 0, deregistrations = 0;
  std::uint64_t pinned_bytes = 0, pin_handles = 0;
  std::uint64_t cap_evictions = 0;
  std::uint64_t rc_hits = 0, rc_misses = 0, rc_evictions = 0;
  std::uint64_t rc_resident = 0;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    cache_entries += node(n).cache.size();
    const mem::PinnedAddressTable& pt = node(n).pinned;
    pin_calls += pt.total_pin_calls();
    registrations += pt.total_registrations();
    deregistrations += pt.total_deregistrations();
    cap_evictions += pt.total_cap_evictions();
    pinned_bytes += pt.pinned_bytes();
    pin_handles += pt.handle_count();
    const mem::RegistrationCache& rc = transport_.reg_cache(n);
    rc_hits += rc.hits();
    rc_misses += rc.misses();
    rc_evictions += rc.evictions();
    rc_resident += rc.resident_bytes();
  }
  reg.set("cache.entries", cache_entries);
  reg.set("pin.calls", pin_calls);
  reg.set("pin.registrations", registrations);
  reg.set("pin.deregistrations", deregistrations);
  reg.set("pin.pinned_bytes", pinned_bytes);
  reg.set("pin.handles", pin_handles);
  reg.set("regcache.hits", rc_hits);
  reg.set("regcache.misses", rc_misses);
  reg.set("regcache.evictions", rc_evictions);
  reg.set("regcache.resident_bytes", rc_resident);
  if (live & fam::kFaults) {
    reg.set_gauge("reliability.backoff_us", sim::to_us(ts.backoff_ns));
    reg.set("reliability.forced_evictions", cap_evictions);
  }
  reg.set("sim.events", sim_.events_executed() - events_epoch_);

  // --- resource utilization (per resource + aggregate gauges) ---
  RunReport report;
  machine_.for_each_resource([&](const sim::Resource& r,
                                 const net::ResourceId& id) {
    ResourceUsage u;
    u.name = machine_.resource_name(id);
    u.capacity = r.capacity();
    u.acquisitions = r.acquisitions();
    u.busy_us = sim::to_us(r.busy_time());
    u.queue_wait_us = sim::to_us(r.queue_wait_time());
    u.utilization_pct = 100.0 * r.utilization();
    report.resources.push_back(std::move(u));
  });
  using Kind = net::ResourceKind;
  reg.set_gauge("util.cpu_pct", mean_utilization_pct(machine_, {Kind::kCore}));
  reg.set_gauge("util.comm_cpu_pct",
                mean_utilization_pct(machine_, {Kind::kComm}));
  reg.set_gauge("util.nic_tx_pct",
                mean_utilization_pct(machine_, {Kind::kNicTx}));
  reg.set_gauge("util.nic_dma_pct",
                mean_utilization_pct(machine_, {Kind::kNicDma}));
  reg.set_gauge("util.nic_pct",
                mean_utilization_pct(machine_, {Kind::kNicTx, Kind::kNicDma}));
  if (live & fam::kFabric) {
    reg.set("fabric.ports", machine_.fabric().port_count());
    reg.set_gauge("util.fabric_pct",
                  mean_utilization_pct(machine_, {Kind::kPortWire}));
  }

  // --- snapshot ---
  report.platform = cfg_.platform.name;
  report.elapsed_us = sim::to_us(sim_.now() - metrics_epoch_);
  report.events = reg.counter("sim.events");
  report.counters.assign(reg.counters().begin(), reg.counters().end());
  report.gauges.assign(reg.gauges().begin(), reg.gauges().end());

  // --- Tracer bridge: per-(op, path) service-time aggregates ---
  if (tracer_.enabled()) {
    const TraceSummary summary = tracer_.summarize();
    for (const auto& [key, line] : summary.lines) {
      TraceReportLine out;
      out.op = to_string(key.first);
      out.path = to_string(key.second);
      out.count = line.count;
      out.total_us = line.total_us;
      out.mean_us = line.mean_us;
      out.max_us = line.max_us;
      report.trace.push_back(std::move(out));
    }
  }
  return report;
}

void Runtime::reset_metrics() {
  counters_ = OpCounters{};
  transport_.reset_stats();
  if (detector_) detector_->reset_stats();
  for (auto& th : threads_) th->completion_.reset_stats();
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    node(n).cache.reset_stats();
    node(n).pinned.reset_counters();
  }
  machine_.reset_resource_usage();
  machine_.fabric().reset_stats();
  sim_.metrics().reset();
  tracer_.clear();
  metrics_epoch_ = sim_.now();
  events_epoch_ = sim_.events_executed();
}

}  // namespace xlupc::core
