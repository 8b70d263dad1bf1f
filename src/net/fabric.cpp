#include "net/fabric.h"

#include <stdexcept>
#include <string>

#include "net/topology.h"
#include "sim/simulator.h"

namespace xlupc::net {

using sim::Duration;
using sim::Task;

namespace {

// splitmix64 finalizer — the same stateless mix FaultPlan::failover_route
// uses, so route placement is a pure function of (seed, src, dst) and
// consumes no RNG stream.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kEcmp: return "ecmp";
    case RoutePolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

Fabric::Fabric(sim::Simulator& sim, const PlatformParams& params,
               FabricParams config)
    : sim_(&sim), params_(&params), config_(config) {}

std::uint32_t Fabric::route_count(NodeId src, NodeId dst) const {
  return 1 + redundant_paths(params_->topology, src, dst);
}

std::uint32_t Fabric::primary_route(NodeId src, NodeId dst) const {
  const std::uint32_t nroutes = route_count(src, dst);
  if (nroutes == 1) return 0;
  const std::uint64_t key = link_key(src, dst);
  return static_cast<std::uint32_t>(mix(config_.route_seed ^ mix(key)) %
                                    nroutes);
}

std::uint32_t Fabric::select_route(NodeId src, NodeId dst) const {
  const std::uint32_t primary = primary_route(src, dst);
  if (config_.routing == RoutePolicy::kEcmp) return primary;
  const std::uint32_t nroutes = route_count(src, dst);
  if (nroutes == 1) return primary;
  // Least-congested scan starting at the primary; only a strictly lower
  // load diverts, so an uncongested fabric routes exactly like ECMP.
  std::uint32_t best = primary;
  std::uint64_t best_load = route_load(src, dst, primary);
  for (std::uint32_t i = 1; i < nroutes && best_load > 0; ++i) {
    const std::uint32_t r = (primary + i) % nroutes;
    const std::uint64_t load = route_load(src, dst, r);
    if (load < best_load) {
      best = r;
      best_load = load;
    }
  }
  return best;
}

Fabric::Path Fabric::route_path(NodeId src, NodeId dst,
                                std::uint32_t route) const {
  Path path;
  if (src == dst) return path;
  switch (params_->topology) {
    case TopologyKind::kFlatSwitch:
      // One single-stage switch: the egress port toward dst.
      path.add(port_key(Level::kLeafDown, 0, dst));
      break;
    case TopologyKind::kMyrinetCrossbar: {
      // Single-route 3-level crossbar: linecard / mid (group) / top.
      const std::uint32_t ls = src / kMyrinetLinecard;
      const std::uint32_t ld = dst / kMyrinetLinecard;
      const std::uint32_t gs = src / kMyrinetGroup;
      const std::uint32_t gd = dst / kMyrinetGroup;
      if (ls == ld) {
        path.add(port_key(Level::kLcDown, ld, dst % kMyrinetLinecard));
        break;
      }
      const std::uint32_t lc_per_group = kMyrinetGroup / kMyrinetLinecard;
      path.add(port_key(Level::kLcUp, ls, 0));
      if (gs != gd) {
        path.add(port_key(Level::kMidUp, gs, 0));
        path.add(port_key(Level::kTopDown, 0, gd));
      }
      path.add(port_key(Level::kMidDown, gd, ld % lc_per_group));
      path.add(port_key(Level::kLcDown, ld, dst % kMyrinetLinecard));
      break;
    }
    case TopologyKind::kFatTree: {
      // leaf / pod-spine / core, with `route` choosing the spine (and
      // its core plane) among the pod's kFatTreeLeaf spine switches.
      const std::uint32_t ls = src / kFatTreeLeaf;
      const std::uint32_t ld = dst / kFatTreeLeaf;
      const std::uint32_t ps = src / kFatTreePod;
      const std::uint32_t pd = dst / kFatTreePod;
      if (ls == ld) {
        path.add(port_key(Level::kLeafDown, ld, dst % kFatTreeLeaf));
        break;
      }
      const std::uint32_t leaves_per_pod = kFatTreePod / kFatTreeLeaf;
      path.add(port_key(Level::kLeafUp, ls, route));
      if (ps != pd) {
        path.add(port_key(Level::kSpineUp,
                          ps * kFatTreeLeaf + route, 0));
        path.add(port_key(Level::kTopDown, route, pd));
      }
      path.add(port_key(Level::kSpineDown, pd * kFatTreeLeaf + route,
                        ld % leaves_per_pod));
      path.add(port_key(Level::kLeafDown, ld, dst % kFatTreeLeaf));
      break;
    }
  }
  return path;
}

std::uint64_t Fabric::route_load(NodeId src, NodeId dst,
                                 std::uint32_t route) const {
  const Path path = route_path(src, dst, route);
  std::uint64_t load = 0;
  for (std::uint32_t i = 0; i < path.n; ++i) {
    // An untouched port is by definition idle; reading its load must
    // not materialize it (that would make *observing* routes perturb
    // the report's resource list).
    const Port* p = ports_.find(path.key[i]);
    if (p == nullptr) continue;
    load += p->buf.in_use() + p->buf.queue_length();
  }
  return load;
}

std::string Fabric::port_name(std::uint64_t key) const {
  const auto level = static_cast<Level>(key >> 56);
  const auto sw = static_cast<std::uint32_t>((key >> 24) & 0xffffffffu);
  const auto port = static_cast<std::uint32_t>(key & 0xffffffu);
  const char* stage = "?";
  const char* dir = "dn";
  switch (level) {
    case Level::kLeafDown: stage = "leaf"; break;
    case Level::kLeafUp: stage = "leaf"; dir = "up"; break;
    case Level::kSpineDown: stage = "spine"; break;
    case Level::kSpineUp: stage = "spine"; dir = "up"; break;
    case Level::kTopDown: stage = "top"; break;
    case Level::kLcDown: stage = "lc"; break;
    case Level::kLcUp: stage = "lc"; dir = "up"; break;
    case Level::kMidDown: stage = "mid"; break;
    case Level::kMidUp: stage = "mid"; dir = "up"; break;
  }
  return "fab." + std::string(stage) + std::to_string(sw) + "." + dir +
         std::to_string(port);
}

Fabric::Port& Fabric::port(std::uint64_t key) {
  if (Port* p = ports_.find(key)) return *p;
  return ports_.try_emplace(key, *sim_, config_.port_credits, usage_epoch_);
}

void Fabric::for_each_port(
    const std::function<void(std::uint64_t, const sim::Resource&,
                             const sim::Resource&)>& fn) const {
  ports_.for_each(
      [&fn](std::uint64_t key, const Port& p) { fn(key, p.buf, p.wire); });
}

void Fabric::reset_port_usage() {
  usage_epoch_ = sim_->now();
  ports_.for_each([](std::uint64_t, Port& p) {
    p.buf.reset_usage();
    p.wire.reset_usage();
  });
}

Task<void> Fabric::transit(NodeId src, NodeId dst, std::uint64_t bytes) {
  // kSelectAtInjection: the route is picked inside transit_on, after the
  // source-side injection latency — the adaptive policy must observe the
  // buffer occupancy at the instant the message enters the first switch,
  // not at enqueue time.
  return transit_on(src, dst, bytes, kSelectAtInjection, 0);
}

Task<void> Fabric::transit_failover(NodeId src, NodeId dst,
                                    std::uint64_t bytes, std::uint32_t alt) {
  // Map the alternate index (0-based over non-primary routes) onto the
  // route space, and pay the same two-extra-hop detour premium as the
  // contention-free failover model (net::failover_latency), so the
  // fault layer's reroute semantics survive the finite-buffer fabric.
  const std::uint32_t nroutes = route_count(src, dst);
  const std::uint32_t primary = primary_route(src, dst);
  std::uint32_t route = alt % (nroutes > 1 ? nroutes - 1 : 1);
  if (route >= primary) ++route;
  ++stats_.failover_transits;
  return transit_on(src, dst, bytes, route % nroutes,
                    2 * params_->hop_latency);
}

Task<void> Fabric::transit_on(NodeId src, NodeId dst, std::uint64_t bytes,
                              std::uint32_t route, Duration detour) {
  ++stats_.msgs;
  if (src == dst) co_return;
  auto& sim = *sim_;
  const Duration ser = params_->serialize(bytes);

  // Source-side injection latency (plus any failover detour premium).
  co_await sim.delay(params_->wire_base + detour);

  if (route == kSelectAtInjection) {
    route = select_route(src, dst);
    if (config_.routing == RoutePolicy::kAdaptive &&
        route != primary_route(src, dst)) {
      ++stats_.adaptive_diverts;
    }
  }
  const Path path = route_path(src, dst, route);
  stats_.hops += path.n;

  // Credit-based store-and-forward walk. Invariant at the top of each
  // iteration: the message holds one buffer slot at switch i. To advance
  // it wins the egress wire (one serialization at a time), then must be
  // granted a slot at switch i+1 *before* the local slot and wire are
  // freed — the credit handshake. A full downstream buffer therefore
  // parks the message while it still occupies this port: head-of-line
  // blocking, and sustained overload backs up hop by hop into a
  // congestion tree (incast collapse emerges from these three lines).
  Port* cur = &port(path.key[0]);
  {
    const sim::Time t0 = sim.now();
    co_await cur->buf.acquire();
    if (sim.now() != t0) {
      ++stats_.credit_waits;
      stats_.credit_wait_ns += sim.now() - t0;
    }
  }
  for (std::uint32_t i = 0; i < path.n; ++i) {
    co_await cur->wire.acquire();
    if (ser != 0) co_await sim.delay(ser);
    Port* next = nullptr;
    if (i + 1 < path.n) {
      next = &port(path.key[i + 1]);
      const sim::Time t0 = sim.now();
      co_await next->buf.acquire();
      if (sim.now() != t0) {
        ++stats_.credit_waits;
        stats_.credit_wait_ns += sim.now() - t0;
      }
    }
    cur->wire.release();
    cur->buf.release();
    // Per-hop propagation; the wire is already free for the next
    // serialization (propagation pipelines, store-and-forward does not).
    co_await sim.delay(params_->hop_latency);
    cur = next;
  }
}

}  // namespace xlupc::net
