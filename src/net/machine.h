// Hardware resources of the simulated cluster.
//
// Each node owns per-core CPU resources, a communication processor (used
// by transports that progress independently of application CPUs, i.e.
// LAPI), and a NIC with separate send-path and RDMA/DMA engines. All are
// FIFO resources, so contention (e.g. four UPC threads sharing one blade
// NIC on MareNostrum) emerges naturally.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/fabric.h"
#include "net/params.h"
#include "net/topology.h"
#include "sim/fault_plan.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace xlupc::net {

struct MachineConfig {
  std::uint32_t nodes = 1;
  std::uint32_t cores_per_node = 1;
  /// Deterministic fault-injection plan (docs/FAULTS.md). The default is
  /// the null plan: no faults, and zero overhead in the transports.
  sim::FaultParams faults;
  /// Congestion-aware fabric knobs (docs/FABRIC.md). The default —
  /// infinite buffers — disables the subsystem: wire delays stay
  /// contention-free point-to-point, byte-identical to older builds.
  FabricParams fabric;
};

/// What a hardware resource models. The utilization gauges select
/// resources by it.
enum class ResourceKind : std::uint8_t {
  kCore,
  kComm,
  kNicTx,
  kNicDma,
  kPortBuf,   ///< a fabric port's buffer slots
  kPortWire,  ///< a fabric port's egress link
};

/// Where a visited resource sits: enough for Machine::resource_name to
/// format its report name.
struct ResourceId {
  ResourceKind kind = ResourceKind::kCore;
  std::uint32_t core = 0;   ///< kCore: the core's number in its node
  std::uint64_t where = 0;  ///< the node, or the fabric port's key
};

class Machine {
 public:
  Machine(sim::Simulator& sim, PlatformParams params, MachineConfig config);

  sim::Simulator& simulator() noexcept { return *sim_; }
  const PlatformParams& params() const noexcept { return params_; }
  std::uint32_t nodes() const noexcept { return config_.nodes; }
  std::uint32_t cores_per_node() const noexcept {
    return config_.cores_per_node;
  }

  /// Application core `core` of node `node`.
  sim::Resource& core(NodeId node, std::uint32_t core);
  /// The node's dedicated communication processor.
  sim::Resource& comm_cpu(NodeId node);
  /// NIC send path (host-driven messaging).
  sim::Resource& nic_tx(NodeId node);
  /// NIC RDMA/DMA engine (one-sided transfers).
  sim::Resource& nic_dma(NodeId node);

  /// Visit every hardware resource in a stable order (node-major:
  /// cores, comm CPU, NIC tx, NIC dma; then the fabric ports in key
  /// order), with where it sits; used to build run reports.
  void for_each_resource(
      const std::function<void(const sim::Resource&, const ResourceId&)>&
          fn) const;

  /// The name a report gives a resource: "n3.core1", "n3.comm",
  /// "n3.nic_tx", "n3.nic_dma", or a fabric port's name plus ".buf" or
  /// ".wire". Formatted on each call; a Resource carries no name.
  std::string resource_name(const ResourceId& id) const;

  /// Zero the usage statistics of every resource (new metrics window).
  void reset_resource_usage();

  /// The cluster's fault-injection plan (a disabled null plan by default).
  sim::FaultPlan& faults() noexcept { return faults_; }
  const sim::FaultPlan& faults() const noexcept { return faults_; }

  /// The congestion-aware switch fabric (disabled — infinite buffers —
  /// by default; docs/FABRIC.md).
  Fabric& fabric() noexcept { return fabric_; }
  const Fabric& fabric() const noexcept { return fabric_; }

  /// One-way wire latency between nodes.
  sim::Duration latency(NodeId a, NodeId b) const {
    return wire_latency(params_, a, b);
  }
  /// Link serialization time for a payload plus protocol header.
  sim::Duration serialize_with_header(std::uint64_t payload_bytes) const {
    return params_.serialize(payload_bytes + params_.header_bytes);
  }

 private:
  /// Resource `slot` of `node`; slots 0..cores-1 are the cores, then come
  /// the comm CPU, NIC tx and NIC dma. Throws std::out_of_range for a
  /// node beyond the machine.
  sim::Resource& at(NodeId node, std::uint32_t slot);

  sim::Simulator* sim_;
  PlatformParams params_;
  MachineConfig config_;
  sim::FaultPlan faults_;
  Fabric fabric_;
  std::uint32_t slots_;  ///< resources per node: cores + 3
  /// Every node's resources in place, node-major, `slots_` per node.
  std::vector<sim::Resource> resources_;
};

}  // namespace xlupc::net
