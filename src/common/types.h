// Shared vocabulary types used across all xlupc libraries.
#pragma once

#include <cstdint>

namespace xlupc {

/// Identifies a physical node (blade / server) in the machine.
using NodeId = std::uint32_t;

/// Identifies a UPC thread, 0 .. THREADS-1 (global numbering).
using ThreadId = std::uint32_t;

/// A simulated virtual address. Address spaces of distinct nodes are
/// disjoint by construction (distinct high bits), recreating the property
/// that "distributed shared array All-0 has a different local address on
/// every node" (paper Fig. 2).
using Addr = std::uint64_t;

/// RDMA registration key returned by memory pinning, as required by
/// RDMA-capable transports to address remote memory.
using RdmaKey = std::uint64_t;

inline constexpr Addr kNullAddr = 0;

/// Outcome of a transport leg or runtime operation, returned as a value
/// from the protocol engine up to the API (docs/FAULTS.md). Ordered by
/// severity: the worst of several outcomes is their std::max.
enum class OpStatus : std::uint8_t {
  kOk = 0,
  kTimeout,     ///< retransmission budget exhausted (peer may be alive)
  kPeerFailed,  ///< a leg's endpoint crash-stopped
};

/// Key of the ordered node pair (src, dst). Ascending keys order pairs
/// as std::pair does: by src, then by dst.
constexpr std::uint64_t link_key(NodeId src, NodeId dst) noexcept {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

}  // namespace xlupc
