#include "net/machine.h"

#include <stdexcept>

namespace xlupc::net {

Machine::Machine(sim::Simulator& sim, PlatformParams params,
                 MachineConfig config)
    : sim_(&sim),
      params_(std::move(params)),
      config_(std::move(config)),
      faults_(config_.faults),
      fabric_(sim, params_, config_.fabric) {
  if (config_.nodes == 0 || config_.cores_per_node == 0) {
    throw std::invalid_argument("Machine: nodes and cores must be positive");
  }
  nodes_.reserve(config_.nodes);
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    // Appended piecewise: GCC 12's -Wrestrict misfires on "n" + str + ".".
    std::string prefix = "n";
    prefix += std::to_string(n);
    prefix += '.';
    Node node;
    node.cores.reserve(config_.cores_per_node);
    for (std::uint32_t c = 0; c < config_.cores_per_node; ++c) {
      node.cores.push_back(std::make_unique<sim::Resource>(
          sim, 1, prefix + "core" + std::to_string(c)));
    }
    // Communication processors: LAPI-style transports dispatch header
    // handlers on a small pool of service (SMT) threads per node.
    node.comm = std::make_unique<sim::Resource>(
        sim, std::max<std::uint32_t>(2, config_.cores_per_node / 4),
        prefix + "comm");
    node.tx = std::make_unique<sim::Resource>(sim, 1, prefix + "nic_tx");
    // NICs carry independent send/receive DMA engines; one-sided traffic
    // in both directions can overlap.
    node.dma = std::make_unique<sim::Resource>(sim, 2, prefix + "nic_dma");
    nodes_.push_back(std::move(node));
  }
}

void Machine::for_each_resource(
    const std::function<void(const sim::Resource&)>& fn) const {
  for (const Node& node : nodes_) {
    for (const auto& core : node.cores) fn(*core);
    fn(*node.comm);
    fn(*node.tx);
    fn(*node.dma);
  }
  // Fabric ports trail the node resources; none exist (and none are ever
  // created) when the fabric is disabled, so default-config reports are
  // untouched.
  fabric_.for_each_port(fn);
}

void Machine::reset_resource_usage() {
  for (Node& node : nodes_) {
    for (auto& core : node.cores) core->reset_usage();
    node.comm->reset_usage();
    node.tx->reset_usage();
    node.dma->reset_usage();
  }
  fabric_.reset_port_usage();
}

sim::Resource& Machine::core(NodeId node, std::uint32_t core) {
  return *nodes_.at(node).cores.at(core);
}

sim::Resource& Machine::comm_cpu(NodeId node) { return *nodes_.at(node).comm; }

sim::Resource& Machine::nic_tx(NodeId node) { return *nodes_.at(node).tx; }

sim::Resource& Machine::nic_dma(NodeId node) { return *nodes_.at(node).dma; }

}  // namespace xlupc::net
