// Runtime::metrics() / reset_metrics(): folding every layer's statistics
// into the Simulator's MetricsRegistry and snapshotting the RunReport.
#include "core/run_report.h"

#include <algorithm>
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

/// Mean utilization (percent) of the resources selected by `pick`.
template <class Pick>
double mean_utilization_pct(const net::Machine& machine, Pick pick) {
  double sum = 0.0;
  std::uint64_t n = 0;
  machine.for_each_resource([&](const sim::Resource& r) {
    if (!pick(r.name())) return;
    sum += r.utilization();
    ++n;
  });
  return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

bool name_has(const std::string& name, std::string_view part) {
  return name.find(part) != std::string::npos;
}

}  // namespace

RunReport Runtime::metrics() {
  sim::MetricsRegistry& reg = sim_.metrics();

  // --- runtime layer: how every access was served (OpCounters) ---
  reg.set("runtime.gets.local", counters_.local_gets);
  reg.set("runtime.gets.shm", counters_.shm_gets);
  reg.set("runtime.gets.am", counters_.am_gets);
  reg.set("runtime.gets.rdma", counters_.rdma_gets);
  reg.set("runtime.puts.local", counters_.local_puts);
  reg.set("runtime.puts.shm", counters_.shm_puts);
  reg.set("runtime.puts.am", counters_.am_puts);
  reg.set("runtime.puts.rdma", counters_.rdma_puts);
  reg.set("runtime.rdma_naks", counters_.rdma_naks);

  // --- remote atomics (docs/COMM_ENGINE.md) ---
  // Folded only when the run issued FAA/CAS, so atomics-free reports
  // stay byte-identical to builds that predate the AMO verbs.
  const std::uint64_t total_amos = counters_.local_amos + counters_.shm_amos +
                                   counters_.am_amos + counters_.rdma_amos;
  if (total_amos > 0) {
    reg.set("comm.amo.local", counters_.local_amos);
    reg.set("comm.amo.shm", counters_.shm_amos);
    reg.set("comm.amo.am", counters_.am_amos);
    reg.set("comm.amo.offloaded", counters_.rdma_amos);
    reg.set("comm.amo.cas_failures", counters_.cas_failures);
  }

  // --- address cache, pinned tables (summed over nodes) ---
  AddressCacheStats cs;
  std::uint64_t cache_entries = 0;
  std::uint64_t pin_calls = 0, registrations = 0, deregistrations = 0;
  std::uint64_t pinned_bytes = 0, pin_handles = 0;
  std::uint64_t cap_evictions = 0;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    const AddressCacheStats& s = node(n).cache.stats();
    cs.hits += s.hits;
    cs.misses += s.misses;
    cs.insertions += s.insertions;
    cs.evictions += s.evictions;
    cs.invalidations += s.invalidations;
    cache_entries += node(n).cache.size();
    const mem::PinnedAddressTable& pt = node(n).pinned;
    pin_calls += pt.total_pin_calls();
    registrations += pt.total_registrations();
    deregistrations += pt.total_deregistrations();
    cap_evictions += pt.total_cap_evictions();
    pinned_bytes += pt.pinned_bytes();
    pin_handles += pt.handle_count();
  }
  reg.set("cache.hits", cs.hits);
  reg.set("cache.misses", cs.misses);
  reg.set("cache.insertions", cs.insertions);
  reg.set("cache.evictions", cs.evictions);
  reg.set("cache.invalidations", cs.invalidations);
  reg.set("cache.entries", cache_entries);
  reg.set_gauge("cache.hit_rate", cs.hit_rate());
  reg.set("pin.calls", pin_calls);
  reg.set("pin.registrations", registrations);
  reg.set("pin.deregistrations", deregistrations);
  reg.set("pin.pinned_bytes", pinned_bytes);
  reg.set("pin.handles", pin_handles);

  // --- communication engine: per-thread completion engines summed
  // (high-water mark takes the max across threads) ---
  std::uint64_t comm_issued = 0, comm_stalls = 0, comm_hwm = 0;
  for (const auto& th : threads_) {
    const CommStats& s = th->comm_stats();
    comm_issued += s.issued;
    comm_stalls += s.wait_stalls;
    comm_hwm = std::max(comm_hwm, s.outstanding_hwm);
  }
  reg.set("comm.issued", comm_issued);
  reg.set("comm.outstanding_hwm", comm_hwm);
  reg.set("comm.wait_stalls", comm_stalls);

  // --- small-message coalescing (docs/COALESCING.md) ---
  // Folded only when coalescing is enabled, so default-config reports
  // stay byte-identical to builds that predate the CoalescingEngine.
  if (cfg_.coalesce.enabled()) {
    CoalesceStats co;
    for (const auto& th : threads_) {
      const CoalesceStats& s = th->coalesce_stats();
      co.staged_ops += s.staged_ops;
      co.batches += s.batches;
      co.batched_bytes += s.batched_bytes;
      co.flush_watermark += s.flush_watermark;
      co.flush_fence += s.flush_fence;
      co.flush_wait += s.flush_wait;
      co.flush_explicit += s.flush_explicit;
      co.max_batch_ops = std::max(co.max_batch_ops, s.max_batch_ops);
    }
    reg.set("comm.coalesce.staged_ops", co.staged_ops);
    reg.set("comm.coalesce.batches", co.batches);
    reg.set("comm.coalesce.batched_bytes", co.batched_bytes);
    reg.set("comm.coalesce.flush.watermark", co.flush_watermark);
    reg.set("comm.coalesce.flush.fence", co.flush_fence);
    reg.set("comm.coalesce.flush.wait", co.flush_wait);
    reg.set("comm.coalesce.flush.explicit", co.flush_explicit);
    reg.set("comm.coalesce.max_batch_ops", co.max_batch_ops);
  }

  // --- transport layer: messages by protocol, registration caches ---
  // TransportStats::fold_into is the single source of the registry
  // mapping for transport-owned counters (transport.*, and the
  // fault.*/reliability.* names the protocol engine feeds); the struct
  // and the registry cannot drift (metrics_test asserts equality).
  const net::TransportStats& ts = transport_.stats();
  ts.fold_into(reg, machine_.faults().enabled(), cfg_.coalesce.enabled(),
               cfg_.platform.kind == net::TransportKind::kIb,
               machine_.faults().fabric_enabled(), total_amos > 0);
  std::uint64_t rc_hits = 0, rc_misses = 0, rc_evictions = 0;
  std::uint64_t rc_resident = 0;
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    const mem::RegistrationCache& rc = transport_.reg_cache(n);
    rc_hits += rc.hits();
    rc_misses += rc.misses();
    rc_evictions += rc.evictions();
    rc_resident += rc.resident_bytes();
  }
  reg.set("regcache.hits", rc_hits);
  reg.set("regcache.misses", rc_misses);
  reg.set("regcache.evictions", rc_evictions);
  reg.set("regcache.resident_bytes", rc_resident);

  // --- fault injection + reliability layer (docs/FAULTS.md) ---
  // Transport-owned fault.*/reliability.* names were folded above; only
  // the runtime-owned ones remain here, gated the same way so fault-free
  // reports stay byte-identical to builds that predate the fault layer.
  if (machine_.faults().enabled()) {
    reg.set("fault.pin_failures", counters_.pin_failures);
    reg.set("reliability.rdma_nak_fallbacks", counters_.rdma_naks);
    reg.set("reliability.forced_evictions", cap_evictions);
  }

  // --- failure detector + circuit breaker (fabric fault plans only) ---
  // Gated on fabric_enabled() so message-fault-only plans (and of course
  // the null plan) keep their pre-fabric reports byte-identical.
  if (machine_.faults().fabric_enabled()) {
    DetectorStats ds;
    if (detector_ != nullptr) ds = detector_->stats();
    reg.set("fault.detector.heartbeats", ds.heartbeats);
    reg.set("fault.detector.suspicions", ds.suspicions);
    reg.set("fault.detector.deaths", ds.deaths);
    reg.set("fault.detector.epoch", ds.epoch);
    reg.set("fault.breaker.fast_fails", counters_.breaker_fast_fails);
  }

  // --- congestion-aware fabric (docs/FABRIC.md) ---
  // Gated on the fabric being enabled (finite port_credits), so every
  // infinite-buffer report stays byte-identical to pre-fabric builds.
  if (machine_.fabric().enabled()) {
    const net::FabricStats& fs = machine_.fabric().stats();
    reg.set("fabric.msgs", fs.msgs);
    reg.set("fabric.hops", fs.hops);
    reg.set("fabric.credit_waits", fs.credit_waits);
    reg.set("fabric.credit_wait_ns", fs.credit_wait_ns);
    reg.set("fabric.adaptive_diverts", fs.adaptive_diverts);
    reg.set("fabric.failover_transits", fs.failover_transits);
    reg.set("fabric.ports", machine_.fabric().port_count());
  }

  // --- simulation engine ---
  reg.set("sim.events", sim_.events_executed() - events_epoch_);

  // --- resource utilization (per resource + aggregate gauges) ---
  RunReport report;
  machine_.for_each_resource([&](const sim::Resource& r) {
    ResourceUsage u;
    u.name = r.name();
    u.capacity = r.capacity();
    u.acquisitions = r.acquisitions();
    u.busy_us = sim::to_us(r.busy_time());
    u.queue_wait_us = sim::to_us(r.queue_wait_time());
    u.utilization_pct = 100.0 * r.utilization();
    report.resources.push_back(std::move(u));
  });
  reg.set_gauge("util.cpu_pct", mean_utilization_pct(machine_, [](auto& n) {
                  return name_has(n, ".core");
                }));
  reg.set_gauge("util.comm_cpu_pct",
                mean_utilization_pct(machine_, [](auto& n) {
                  return name_has(n, ".comm");
                }));
  reg.set_gauge("util.nic_tx_pct", mean_utilization_pct(machine_, [](auto& n) {
                  return name_has(n, ".nic_tx");
                }));
  reg.set_gauge("util.nic_dma_pct", mean_utilization_pct(machine_, [](auto& n) {
                  return name_has(n, ".nic_dma");
                }));
  reg.set_gauge("util.nic_pct", mean_utilization_pct(machine_, [](auto& n) {
                  return name_has(n, ".nic_");
                }));
  if (machine_.fabric().enabled()) {
    reg.set_gauge("util.fabric_pct",
                  mean_utilization_pct(machine_, [](auto& n) {
                    return name_has(n, "fab.") && name_has(n, ".wire");
                  }));
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
