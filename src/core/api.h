// Public value types of the XLUPC-style runtime.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "core/layout.h"
#include "mem/pinned_table.h"
#include "net/fabric.h"
#include "net/params.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "svd/handle.h"

namespace xlupc::core {

/// Descriptor of a distributed shared array: the SVD handle plus the
/// geometry every thread can compute locations with.
struct ArrayDesc {
  svd::Handle handle;
  LayoutPtr layout;

  bool valid() const noexcept { return layout != nullptr; }
};

/// Descriptor of a upc_lock-style shared lock, affine to its home thread.
struct LockDesc {
  svd::Handle handle;
  ThreadId home = 0;
};

/// Remote-address-cache configuration (paper Sec. 4.5: dynamic hash table
/// growing on demand to a fixed limit, default 100 entries).
struct CacheConfig {
  bool enabled = true;
  std::size_t max_entries = 100;
  /// Override for "use the cache for PUT operations"; defaults to the
  /// platform's setting (the paper disables it on LAPI).
  std::optional<bool> put_enabled;
  /// Resolution-strategy ablation: replace the bounded cache with the
  /// full distributed table of remote addresses the paper rejects
  /// (Sec. 2.1) — every allocation publishes base addresses to every
  /// node (O(nodes^2) messages) and each node stores O(nodes x objects)
  /// entries. Requires the greedy pin strategy.
  bool full_table = false;
};

/// Small-message coalescing configuration (docs/COALESCING.md). Off by
/// default (`threshold == 0`): every existing run is byte-identical to a
/// build without the CoalescingEngine. When on, nonblocking single-element
/// ops of at most `threshold` bytes bound for a remote node are staged in
/// a per-(thread, destination) buffer and shipped as one aggregated wire
/// message, flushed on a watermark (`max_bytes`/`max_ops`), on fence(),
/// on wait() of a contained handle, or on an explicit flush(dest).
struct CoalesceConfig {
  /// Ops with payload <= threshold bytes are staged; 0 disables coalescing.
  std::uint32_t threshold = 0;
  /// Watermark: flush the destination's buffer once it carries this many
  /// payload+descriptor bytes...
  std::uint32_t max_bytes = 2048;
  /// ...or this many member ops, whichever trips first.
  std::uint32_t max_ops = 16;

  bool enabled() const noexcept { return threshold > 0; }
};

struct RuntimeConfig {
  net::PlatformParams platform;
  std::uint32_t nodes = 2;
  std::uint32_t threads_per_node = 1;
  CacheConfig cache;
  mem::PinStrategy pin_strategy = mem::PinStrategy::kGreedy;
  std::uint64_t seed = 1;
  /// Record a TraceEvent for every data-movement operation (the
  /// Paraver-style analysis of paper Sec. 4.6).
  bool trace = false;
  /// Deterministic fault-injection plan (docs/FAULTS.md). The default
  /// null plan disables fault injection entirely: runs are byte-identical
  /// to a build without the fault layer.
  sim::FaultParams faults;
  /// Small-message coalescing knobs (docs/COALESCING.md); default off.
  CoalesceConfig coalesce;
  /// Congestion-aware fabric knobs (docs/FABRIC.md). Default —
  /// infinite switch buffers — keeps the contention-free wire model and
  /// byte-identical runs; a nonzero port_credits turns on finite
  /// buffers, credit flow control and the routing policy.
  net::FabricParams fabric;

  std::uint32_t threads() const noexcept { return nodes * threads_per_node; }
};

/// How each access was ultimately served — the observable behaviour the
/// paper's evaluation is built on.
struct OpCounters {
  std::uint64_t local_gets = 0;  ///< same-thread (affine) accesses
  std::uint64_t shm_gets = 0;    ///< same-node, cross-thread accesses
  std::uint64_t am_gets = 0;     ///< remote, default SVD path
  std::uint64_t rdma_gets = 0;   ///< remote, cache hit -> RDMA
  std::uint64_t local_puts = 0;
  std::uint64_t shm_puts = 0;
  std::uint64_t am_puts = 0;
  std::uint64_t rdma_puts = 0;
  std::uint64_t rdma_naks = 0;   ///< RDMA refused (unpinned), fell back
  // Remote atomics (FAA/CAS). All zero unless the workload issues them.
  std::uint64_t local_amos = 0;  ///< same-thread (affine) atomics
  std::uint64_t shm_amos = 0;    ///< same-node, cross-thread atomics
  std::uint64_t am_amos = 0;     ///< remote, AM-handler lowering
  std::uint64_t rdma_amos = 0;   ///< remote, NIC-offloaded verbs atomics
  std::uint64_t cas_failures = 0;  ///< CAS ops whose compare missed
  /// Injected transient registration failures (FaultPlan::pin_fails):
  /// the target served the access but could not piggyback a base
  /// address, so the initiator's cache was not populated.
  std::uint64_t pin_failures = 0;
  /// Circuit-breaker trips (docs/FAULTS.md): ops refused up front with
  /// OpStatus::kPeerFailed because the failure detector had already
  /// declared the target dead. Nonzero only under fabric fault plans.
  std::uint64_t breaker_fast_fails = 0;
};

/// Report keys of OpCounters (docs/OBSERVABILITY.md).
inline constexpr sim::MetricRow<OpCounters> kOpCounterRows[] = {
    {"runtime.gets.local", &OpCounters::local_gets},
    {"runtime.gets.shm", &OpCounters::shm_gets},
    {"runtime.gets.am", &OpCounters::am_gets},
    {"runtime.gets.rdma", &OpCounters::rdma_gets},
    {"runtime.puts.local", &OpCounters::local_puts},
    {"runtime.puts.shm", &OpCounters::shm_puts},
    {"runtime.puts.am", &OpCounters::am_puts},
    {"runtime.puts.rdma", &OpCounters::rdma_puts},
    {"runtime.rdma_naks", &OpCounters::rdma_naks},
    {"comm.amo.local", &OpCounters::local_amos, sim::family::kAmo},
    {"comm.amo.shm", &OpCounters::shm_amos, sim::family::kAmo},
    {"comm.amo.am", &OpCounters::am_amos, sim::family::kAmo},
    {"comm.amo.offloaded", &OpCounters::rdma_amos, sim::family::kAmo},
    {"comm.amo.cas_failures", &OpCounters::cas_failures, sim::family::kAmo},
    {"fault.pin_failures", &OpCounters::pin_failures, sim::family::kFaults},
    {"reliability.rdma_nak_fallbacks", &OpCounters::rdma_naks,
     sim::family::kFaults},
    {"fault.breaker.fast_fails", &OpCounters::breaker_fast_fails,
     sim::family::kFabricFaults},
};

}  // namespace xlupc::core
