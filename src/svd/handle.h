// SVD handles: opaque identifiers for shared objects (paper Sec. 2.1).
//
// "An SVD handle contains the partition number in the directory, and the
// index of the object in the partition." Handles pack into a single
// 64-bit word so the transport can carry them opaquely.
#pragma once

#include <cstdint>

#include "common/flat_map.h"

namespace xlupc::svd {

/// Partition number of the ALL partition (statically or collectively
/// allocated shared variables).
inline constexpr std::uint32_t kAllPartition = 0xffffffffu;

struct Handle {
  std::uint32_t partition = 0;  ///< owning thread's partition, or ALL
  std::uint32_t index = 0;      ///< slot within the partition

  friend bool operator==(const Handle&, const Handle&) = default;

  /// Pack into one word for the wire.
  std::uint64_t pack() const {
    return (static_cast<std::uint64_t>(partition) << 32) | index;
  }
  static Handle unpack(std::uint64_t bits) {
    return Handle{static_cast<std::uint32_t>(bits >> 32),
                  static_cast<std::uint32_t>(bits & 0xffffffffu)};
  }

  bool is_all() const { return partition == kAllPartition; }
};

struct HandleHash {
  std::size_t operator()(const Handle& h) const noexcept {
    return static_cast<std::size_t>(mix64(h.pack()));
  }
};

}  // namespace xlupc::svd
