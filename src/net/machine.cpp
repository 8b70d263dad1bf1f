#include "net/machine.h"

#include <stdexcept>

namespace xlupc::net {

Machine::Machine(sim::Simulator& sim, PlatformParams params,
                 MachineConfig config)
    : sim_(&sim),
      params_(std::move(params)),
      config_(std::move(config)),
      faults_(config_.faults),
      fabric_(sim, params_, config_.fabric),
      slots_(config_.cores_per_node + 3) {
  if (config_.nodes == 0 || config_.cores_per_node == 0) {
    throw std::invalid_argument("Machine: nodes and cores must be positive");
  }
  // Reserved once and never resized: a queued awaiter holds the address
  // of the Resource it waits on, so the array must not relocate.
  resources_.reserve(static_cast<std::size_t>(config_.nodes) * slots_);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    for (std::uint32_t c = 0; c < config_.cores_per_node; ++c) {
      resources_.emplace_back(sim, 1);
    }
    // Communication processors: LAPI-style transports dispatch header
    // handlers on a small pool of service (SMT) threads per node.
    resources_.emplace_back(
        sim, std::max<std::uint32_t>(2, config_.cores_per_node / 4));
    resources_.emplace_back(sim, 1);  // NIC tx
    // NICs carry independent send/receive DMA engines; one-sided traffic
    // in both directions can overlap.
    resources_.emplace_back(sim, 2);
  }
}

void Machine::for_each_resource(
    const std::function<void(const sim::Resource&, const ResourceId&)>& fn)
    const {
  const std::uint32_t cores = config_.cores_per_node;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    const auto slot = static_cast<std::uint32_t>(i % slots_);
    ResourceId id;
    id.where = i / slots_;
    if (slot < cores) {
      id.core = slot;
    } else {
      id.kind = slot == cores       ? ResourceKind::kComm
                : slot == cores + 1 ? ResourceKind::kNicTx
                                    : ResourceKind::kNicDma;
    }
    fn(resources_[i], id);
  }
  // Fabric ports trail the node resources; none exist (and none are ever
  // created) when the fabric is disabled, so default-config reports are
  // untouched.
  fabric_.for_each_port([&fn](std::uint64_t key, const sim::Resource& buf,
                              const sim::Resource& wire) {
    fn(buf, ResourceId{ResourceKind::kPortBuf, 0, key});
    fn(wire, ResourceId{ResourceKind::kPortWire, 0, key});
  });
}

std::string Machine::resource_name(const ResourceId& id) const {
  if (id.kind == ResourceKind::kPortBuf) {
    return fabric_.port_name(id.where) + ".buf";
  }
  if (id.kind == ResourceKind::kPortWire) {
    return fabric_.port_name(id.where) + ".wire";
  }
  // Appended piecewise: GCC 12's -Wrestrict misfires on "n" + str + ".".
  std::string name = "n";
  name += std::to_string(id.where);
  switch (id.kind) {
    case ResourceKind::kCore:
      name += ".core";
      name += std::to_string(id.core);
      break;
    case ResourceKind::kComm:
      name += ".comm";
      break;
    case ResourceKind::kNicTx:
      name += ".nic_tx";
      break;
    default:
      name += ".nic_dma";
      break;
  }
  return name;
}

void Machine::reset_resource_usage() {
  for (sim::Resource& r : resources_) r.reset_usage();
  fabric_.reset_port_usage();
}

sim::Resource& Machine::at(NodeId node, std::uint32_t slot) {
  if (node >= config_.nodes) {
    throw std::out_of_range("Machine: node beyond the machine");
  }
  return resources_[static_cast<std::size_t>(node) * slots_ + slot];
}

sim::Resource& Machine::core(NodeId node, std::uint32_t core) {
  if (core >= config_.cores_per_node) {
    throw std::out_of_range("Machine: core beyond the node");
  }
  return at(node, core);
}

sim::Resource& Machine::comm_cpu(NodeId node) {
  return at(node, config_.cores_per_node);
}

sim::Resource& Machine::nic_tx(NodeId node) {
  return at(node, config_.cores_per_node + 1);
}

sim::Resource& Machine::nic_dma(NodeId node) {
  return at(node, config_.cores_per_node + 2);
}

}  // namespace xlupc::net
