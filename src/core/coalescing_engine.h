// Small-message coalescing: per-(thread, destination-node) staging
// buffers that batch eligible nonblocking ops into aggregated wire
// messages (docs/COALESCING.md).
//
// The paper's central bottleneck is per-message software overhead on
// fine-grained remote accesses; aggregation amortises the send/dispatch
// envelope (send_overhead, NIC injection, wire header, recv_overhead)
// over every member while each member still pays its own translation and
// copy on the target handler CPU — so GM's no-overlap effect is
// preserved per leg, only the envelope is shared.
//
// Staging is an issue-time decision made by the CompletionEngine: an op
// is eligible when coalescing is enabled, the op is nonblocking, single
// element (no memget/memput splitting), bound for a *remote* node, and
// its payload is at most CoalesceConfig::threshold bytes. Staged ops
// bypass the remote address cache entirely (no base-address piggyback):
// they live below the threshold where the per-message envelope, not the
// translation, dominates. Everything else takes the ordinary AccessPath.
//
// Flush triggers, in the order the runtime applies them:
//  * watermark — the buffer reaches max_bytes or max_ops at stage time;
//  * wait()    — the handle being waited on is inside a buffer;
//  * fence()/wait_all() — every buffer of the thread is flushed;
//  * flush(dest)/flush_all() — explicit user request.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "sim/metrics.h"
#include "sim/task.h"

namespace xlupc::sim {
class MetricsRegistry;
}  // namespace xlupc::sim

namespace xlupc::core {

class CompletionEngine;
class Runtime;
class UpcThread;

/// What triggered a flush (kept as distinct counters so the sweep bench
/// can tell watermark-paced batching from fence-paced batching).
enum class FlushReason : std::uint8_t {
  kWatermark,
  kFence,
  kWait,
  kExplicit,
};

/// Per-thread coalescing counters.
struct CoalesceStats {
  std::uint64_t staged_ops = 0;      ///< ops diverted into a buffer
  std::uint64_t batches = 0;         ///< aggregated messages shipped
  std::uint64_t batched_bytes = 0;   ///< payload bytes carried in batches
  std::uint64_t flush_watermark = 0; ///< flushes tripped by the watermark
  std::uint64_t flush_fence = 0;     ///< flushes forced by fence/wait_all
  std::uint64_t flush_wait = 0;      ///< flushes forced by wait(handle)
  std::uint64_t flush_explicit = 0;  ///< flushes requested by the user
  std::uint64_t max_batch_ops = 0;   ///< largest batch shipped
};

/// Report keys of CoalesceStats, combined over threads; present only
/// when coalescing is enabled.
inline constexpr sim::MetricRow<CoalesceStats> kCoalesceRows[] = {
    {"comm.coalesce.staged_ops", &CoalesceStats::staged_ops,
     sim::family::kCoalesce},
    {"comm.coalesce.batches", &CoalesceStats::batches, sim::family::kCoalesce},
    {"comm.coalesce.batched_bytes", &CoalesceStats::batched_bytes,
     sim::family::kCoalesce},
    {"comm.coalesce.flush.watermark", &CoalesceStats::flush_watermark,
     sim::family::kCoalesce},
    {"comm.coalesce.flush.fence", &CoalesceStats::flush_fence,
     sim::family::kCoalesce},
    {"comm.coalesce.flush.wait", &CoalesceStats::flush_wait,
     sim::family::kCoalesce},
    {"comm.coalesce.flush.explicit", &CoalesceStats::flush_explicit,
     sim::family::kCoalesce},
    {"comm.coalesce.max_batch_ops", &CoalesceStats::max_batch_ops,
     sim::family::kCoalesce, sim::Combine::kMax},
};

/// The staging layer itself: one instance per UpcThread, owned by its
/// CompletionEngine. All calls must come from the thread's own coroutine
/// body (same discipline as the CompletionEngine).
class CoalescingEngine {
 public:
  CoalescingEngine(Runtime& rt, UpcThread& th, CompletionEngine& ce);
  CoalescingEngine(const CoalescingEngine&) = delete;
  CoalescingEngine& operator=(const CoalescingEngine&) = delete;

  /// Append one eligible op (already recorded in slot `slot_idx`) to the
  /// destination's buffer; trips the watermark flush when the buffer
  /// reaches CoalesceConfig::max_bytes / max_ops.
  void stage(NodeId dest, std::uint32_t slot_idx, net::RdmaBatchOp op);

  /// Ship the destination's buffer as one aggregated message (no-op when
  /// the buffer is empty). The batch coroutine runs detached; member
  /// slots complete when the batch reply arrives.
  void flush(NodeId dest, FlushReason reason);
  /// Flush every destination buffer of this thread (deterministic
  /// ascending-NodeId order).
  void flush_all(FlushReason reason);
  /// Flush whichever buffer holds slot `slot_idx` (no-op when none does);
  /// the wait()-on-a-staged-handle path.
  void flush_containing(std::uint32_t slot_idx, FlushReason reason);

  bool empty() const noexcept { return buffers_.empty(); }
  const CoalesceStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = CoalesceStats{}; }

 private:
  struct Staged {
    std::uint32_t slot = 0;
    net::RdmaBatchOp op;
  };
  struct Buffer {
    std::vector<Staged> ops;
    std::size_t bytes = 0;  ///< descriptor + payload footprint so far
  };

  sim::Task<void> run_batch(NodeId dest, std::vector<Staged> staged);

  Runtime& rt_;
  UpcThread& th_;
  CompletionEngine& ce_;
  // std::map: flush_all iterates destinations in ascending NodeId order,
  // keeping multi-destination flushes deterministic.
  std::map<NodeId, Buffer> buffers_;
  CoalesceStats stats_;
};

}  // namespace xlupc::core
