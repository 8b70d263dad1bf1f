// Pinned (registered) memory bookkeeping — the paper's "pinned address
// table" (Sec. 3): tagged by local virtual addresses, holding the
// RDMA-format keys the transport needs.
//
// Two pinning strategies are provided, mirroring Sec. 3.1:
//  * kGreedy  — "pin everything": the entire shared object is pinned at
//               once on first access and stays pinned until freed; the
//               per-handle and total limits are IGNORED (as the paper's
//               simplified presentation does).
//  * kChunked — the "more elaborate technique" of [10]: registration is
//               split into chunks no larger than the transport's
//               per-handle limit, and a total-pinned-bytes budget is
//               enforced (unused chunks are recycled LRU).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace xlupc::mem {

enum class PinStrategy : std::uint8_t {
  kGreedy,
  kChunked,
};

/// Registration granularity of the chunked strategy. Remote-address-cache
/// entries are tagged per chunk of this size under kChunked, so that a
/// cache hit always implies the addressed chunk is pinned at the target.
inline constexpr std::size_t kPinChunkBytes = 1 << 20;

/// Limits imposed by the network transport on memory registration.
struct PinLimits {
  /// Max contiguous bytes a single registration handle may cover
  /// (LAPI: 32 MB on the paper's machines). 0 = unlimited.
  std::size_t max_bytes_per_handle = 0;
  /// Max total pinned (DMAable) bytes on a node (GM: 1 GB). 0 = unlimited.
  std::size_t max_total_bytes = 0;
};

/// Outcome of a pin request, including the work done so the caller can
/// charge simulated time for it.
struct PinResult {
  bool ok = false;              ///< range is pinned (now or already)
  bool already_pinned = false;  ///< no new registration was needed
  std::size_t new_handles = 0;  ///< registration calls performed
  std::size_t new_bytes = 0;    ///< bytes newly registered
  std::size_t evicted_handles = 0;  ///< deregistrations forced (chunked)
  std::size_t evicted_bytes = 0;
  RdmaKey key = 0;  ///< key for the start of the range when ok
};

class PinnedAddressTable {
 public:
  PinnedAddressTable(PinStrategy strategy, PinLimits limits)
      : strategy_(strategy), limits_(limits) {}

  /// Pin [addr, addr+len). Under kGreedy the caller passes the whole
  /// object's extent; under kChunked only the touched chunks are pinned.
  PinResult pin(Addr addr, std::size_t len);

  /// True when every byte of [addr, addr+len) is currently registered.
  bool is_pinned(Addr addr, std::size_t len) const;

  /// Look up the RDMA key covering `addr` (first matching region).
  std::optional<RdmaKey> key_for(Addr addr) const;

  /// Unpin every region overlapping [addr, addr+len) — used when a shared
  /// object is freed (the cache is eagerly invalidated at the same time).
  /// Returns the number of handles deregistered.
  std::size_t unpin(Addr addr, std::size_t len);

  std::size_t pinned_bytes() const noexcept { return pinned_bytes_; }
  std::size_t handle_count() const noexcept { return regions_.size(); }
  PinStrategy strategy() const noexcept { return strategy_; }
  const PinLimits& limits() const noexcept { return limits_; }

  /// Lifetime counters for experiments.
  std::uint64_t total_pin_calls() const noexcept { return pin_calls_; }
  std::uint64_t total_registrations() const noexcept { return registrations_; }
  std::uint64_t total_deregistrations() const noexcept {
    return deregistrations_;
  }
  /// Deregistrations forced by total-pinned-bytes pressure specifically
  /// (a subset of total_deregistrations — unpin() is excluded).
  std::uint64_t total_cap_evictions() const noexcept { return cap_evictions_; }

  /// Zero the lifetime counters; pinned regions themselves are kept.
  void reset_counters() {
    pin_calls_ = registrations_ = deregistrations_ = cap_evictions_ = 0;
  }

 private:
  struct Region {
    Addr base;
    std::size_t len;
    RdmaKey key;
    std::uint64_t last_use;  // logical clock for LRU recycling (chunked)

    Addr end() const noexcept { return base + len; }
  };
  using Regions = std::vector<Region>;

  /// The last region starting at or below `addr`, or end().
  Regions::iterator at_or_below(Addr addr);
  Regions::const_iterator at_or_below(Addr addr) const;

  PinResult pin_greedy(Addr addr, std::size_t len);
  PinResult pin_chunked(Addr addr, std::size_t len);
  bool covered(Addr addr, std::size_t len) const;
  void insert_region(Addr addr, std::size_t len, PinResult& result);
  // Evict least-recently-used regions until `need` bytes fit in the budget.
  // Returns false if impossible.
  bool make_room(std::size_t need, PinResult& result);

  PinStrategy strategy_;
  PinLimits limits_;
  Regions regions_;  // ascending bases, non-overlapping
  std::size_t pinned_bytes_ = 0;
  RdmaKey next_key_ = 1;
  std::uint64_t use_clock_ = 0;
  std::uint64_t pin_calls_ = 0;
  std::uint64_t registrations_ = 0;
  std::uint64_t deregistrations_ = 0;
  std::uint64_t cap_evictions_ = 0;
};

}  // namespace xlupc::mem
