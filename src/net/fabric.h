// Congestion-aware fabric: finite switch buffers, credit-based flow
// control and routing policy over the interconnect topologies
// (docs/FABRIC.md, ROADMAP item 5).
//
// The point-to-point wire models in net/topology.h are contention-free:
// two flows crossing the same switch never interact. This subsystem
// models what happens when they do. Every switch egress port carries a
// finite buffer (`port_credits` slots, the credit window of Liu et al.'s
// MPICH2-over-InfiniBand flow-control design) and a single-lane wire; a
// message traverses its route hop by hop, store-and-forward: it must
// hold a buffer slot at the current switch, win the egress wire for one
// serialization time, and acquire a slot at the *next* switch before the
// current one is freed. When a downstream buffer is full the message
// blocks while still holding its upstream slot and wire — head-of-line
// blocking — so sustained overload of one port backs up the tree
// (congestion trees / incast collapse emerge rather than being scripted).
//
// Routing across the fat tree's redundant pod-spine/core paths
// (net::redundant_paths) comes in two deterministic flavours:
//  * kEcmp     — static per-(src,dst) route hashing (seeded splitmix64,
//                the idiom of sim::FaultPlan::failover_route): the same
//                pair always takes the same path, so hash collisions on
//                a hot destination stay collided;
//  * kAdaptive — per-message least-congested selection: candidate routes
//                are scanned starting from the ECMP primary and the one
//                with the lowest current buffer occupancy wins (strict
//                improvement only, so an idle fabric routes exactly like
//                ECMP).
// Both consume no RNG state and read only simulator-deterministic
// occupancy, so same-seed runs replay byte-for-byte.
//
// A default FabricParams (port_credits == 0: infinite buffers) disables
// the subsystem entirely: no ports are created, ProtocolEngine::deliver
// keeps its frameless single-delay fast path, and every run is
// byte-identical to a build without this file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/flat_map.h"
#include "common/types.h"
#include "net/params.h"
#include "sim/metrics.h"
#include "sim/resource.h"
#include "sim/task.h"

namespace xlupc::net {

/// Route-selection policy across redundant paths (fat-tree pod/core
/// layers; single-path topologies ignore the policy).
enum class RoutePolicy : std::uint8_t {
  kEcmp,      ///< static seeded per-(src,dst) hash
  kAdaptive,  ///< per-message least-congested, ECMP-primary tie-break
};

const char* to_string(RoutePolicy p);

/// Knobs of the congestion-aware fabric (docs/FABRIC.md).
struct FabricParams {
  /// Buffer slots (credits) per switch egress port. 0 = infinite
  /// buffers: the fabric is disabled and wire delays collapse to the
  /// contention-free point-to-point model, byte-identical to builds
  /// without the subsystem.
  std::uint32_t port_credits = 0;
  /// Path selection across net::redundant_paths alternates.
  RoutePolicy routing = RoutePolicy::kEcmp;
  /// Seed of the ECMP route hash (independent of the fault-plan and
  /// runtime seeds so route placement can be varied in isolation).
  std::uint64_t route_seed = 0;

  bool enabled() const noexcept { return port_credits > 0; }
};

/// Work counters of the fabric.
struct FabricStats {
  std::uint64_t msgs = 0;            ///< messages carried hop-by-hop
  std::uint64_t hops = 0;            ///< switch ports traversed in total
  std::uint64_t credit_waits = 0;    ///< buffer-slot waits (backpressure)
  std::uint64_t credit_wait_ns = 0;  ///< simulated ns blocked on credits
  std::uint64_t adaptive_diverts = 0;  ///< adaptive picks != ECMP primary
  std::uint64_t failover_transits = 0; ///< transits detoured by link-down
};

/// Report keys of FabricStats; present only when the fabric is enabled.
inline constexpr sim::MetricRow<FabricStats> kFabricRows[] = {
    {"fabric.msgs", &FabricStats::msgs, sim::family::kFabric},
    {"fabric.hops", &FabricStats::hops, sim::family::kFabric},
    {"fabric.credit_waits", &FabricStats::credit_waits, sim::family::kFabric},
    {"fabric.credit_wait_ns", &FabricStats::credit_wait_ns,
     sim::family::kFabric},
    {"fabric.adaptive_diverts", &FabricStats::adaptive_diverts,
     sim::family::kFabric},
    {"fabric.failover_transits", &FabricStats::failover_transits,
     sim::family::kFabric},
};

/// The switch fabric of one Machine. Ports are materialized lazily on
/// first traversal (an idle corner of a big fat tree costs nothing) and
/// keyed deterministically, so iteration order — and therefore every
/// report built from it — is stable across runs.
class Fabric {
 public:
  Fabric(sim::Simulator& sim, const PlatformParams& params,
         FabricParams config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  bool enabled() const noexcept { return config_.enabled(); }
  const FabricParams& config() const noexcept { return config_; }

  /// One message of `bytes` wire bytes src -> dst through the switches:
  /// selects a route by the configured policy and walks it hop by hop
  /// under credit flow control. Only called when enabled().
  sim::Task<void> transit(NodeId src, NodeId dst, std::uint64_t bytes);

  /// Transit over the `alt`-th alternate route (0-based, skipping the
  /// ECMP primary), paying the two-extra-hop detour premium of
  /// net::failover_latency — the congestion-aware form of the fault
  /// layer's link-down path failover (docs/FAULTS.md).
  sim::Task<void> transit_failover(NodeId src, NodeId dst,
                                   std::uint64_t bytes, std::uint32_t alt);

  /// Routes available between the pair: 1 + net::redundant_paths.
  std::uint32_t route_count(NodeId src, NodeId dst) const;
  /// The static ECMP hash pick for the pair (policy-independent).
  std::uint32_t primary_route(NodeId src, NodeId dst) const;
  /// The route the configured policy would pick right now.
  std::uint32_t select_route(NodeId src, NodeId dst) const;

  const FabricStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FabricStats{}; }

  /// Ports materialized so far (switch egress ports touched by traffic).
  std::size_t port_count() const noexcept { return ports_.size(); }

  /// Visit every materialized port, its key with its buffer and wire
  /// resources, in deterministic key order.
  void for_each_port(
      const std::function<void(std::uint64_t key, const sim::Resource& buf,
                               const sim::Resource& wire)>& fn) const;

  /// The report name of port `key`, e.g. "fab.leaf0.dn3" (Machine adds
  /// ".buf" or ".wire" for its two resources).
  std::string port_name(std::uint64_t key) const;

  /// Zero the usage statistics of every port (new metrics window).
  void reset_port_usage();

 private:
  /// One switch egress port: `buf` holds the finite buffer slots (the
  /// credit window advertised to the upstream hop), `wire` is the
  /// single-lane egress link that serializes one message at a time. Held
  /// in place in the ports table, whose values never move.
  struct Port {
    Port(sim::Simulator& sim, std::uint64_t credits, sim::Time usage_epoch)
        : buf(sim, credits, usage_epoch), wire(sim, 1, usage_epoch) {}
    sim::Resource buf;
    sim::Resource wire;
  };

  /// Egress-port levels across the three topologies. Values are packed
  /// into the port key, so each is unique within one Fabric instance.
  enum class Level : std::uint8_t {
    kLeafDown,   // fat tree: leaf -> node         | flat switch -> node
    kLeafUp,     // fat tree: leaf -> pod spine r
    kSpineDown,  // fat tree: pod spine -> leaf
    kSpineUp,    // fat tree: pod spine -> core plane
    kTopDown,    // fat tree: core -> pod          | Myrinet: top -> group
    kLcDown,     // Myrinet: linecard -> node
    kLcUp,       // Myrinet: linecard -> mid
    kMidDown,    // Myrinet: mid -> linecard
    kMidUp,      // Myrinet: mid -> top
  };

  /// A route expressed as its egress ports, source side first. At most
  /// 5 entries (the deepest route is 5 hops on either 3-level topology).
  struct Path {
    std::uint64_t key[5];
    std::uint32_t n = 0;
    void add(std::uint64_t k) { key[n++] = k; }
  };

  /// Sentinel route: pick by policy at injection time (inside
  /// transit_on, after the wire_base delay), so the adaptive scan sees
  /// the buffer occupancy the message actually meets.
  static constexpr std::uint32_t kSelectAtInjection = 0xffffffffu;

  static std::uint64_t port_key(Level level, std::uint32_t sw,
                                std::uint32_t port) noexcept {
    return (static_cast<std::uint64_t>(level) << 56) |
           (static_cast<std::uint64_t>(sw) << 24) | port;
  }

  /// Enumerate the egress ports of route `route` between the pair.
  Path route_path(NodeId src, NodeId dst, std::uint32_t route) const;

  /// Current congestion on a route: summed buffer occupancy + queue
  /// length over its ports. Ports never materialized count zero —
  /// reading the load must not create them.
  std::uint64_t route_load(NodeId src, NodeId dst,
                           std::uint32_t route) const;

  Port& port(std::uint64_t key);

  /// The hop-by-hop walk shared by transit and transit_failover.
  sim::Task<void> transit_on(NodeId src, NodeId dst, std::uint64_t bytes,
                             std::uint32_t route, sim::Duration detour);

  sim::Simulator* sim_;
  const PlatformParams* params_;
  FabricParams config_;
  FabricStats stats_;
  StableMap<std::uint64_t, Port> ports_;
  /// When reset_port_usage() last ran: a port first touched later starts
  /// its usage window there, like the ports that existed at the reset.
  sim::Time usage_epoch_ = 0;
};

}  // namespace xlupc::net
