// The communication engine: explicit CommOp descriptors, the tier
// dispatch that serves them, and per-thread completion tracking for the
// nonblocking surface (docs/COMM_ENGINE.md).
//
// Every data-movement call — blocking or nonblocking, 1-D or 2-D,
// single-run or memget-style multi-run — is first captured as a CommOp
// and handed to the thread's CompletionEngine. Blocking calls run it
// inline (run_blocking): the caller's own coroutine awaits the tier
// dispatch, with no slot or handle. Nonblocking calls issue it: a runner
// coroutine is spawned at the current simulated time and the caller
// keeps going, overlapping the op's network round trip with its own
// work (the upc_memget_nb shape the paper's pipelining argument rests
// on).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/address_cache.h"
#include "core/api.h"
#include "core/coalescing_engine.h"
#include "core/trace.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace xlupc::core {

class Runtime;
class UpcThread;

enum class OpKind : std::uint8_t { kGet, kPut, kFaa, kCas };

/// Atomic memory operations (remote FAA/CAS) share the tier dispatch
/// with GET/PUT but return a value and must apply indivisibly at the
/// element's home — they are never coalesced and never split.
inline bool is_amo(OpKind k) noexcept {
  return k == OpKind::kFaa || k == OpKind::kCas;
}

/// Non-owning view of an ArrayDesc for op descriptors. The aliasing
/// shared_ptr constructor with an empty control block makes copies and
/// destruction refcount-free — ops are issued tens of millions of times
/// per run, and the atomic refcount churn of a full ArrayDesc copy was
/// measurable (docs/PERFORMANCE.md). The caller's descriptor must outlive
/// the op, which the UPC surface guarantees: blocking calls complete
/// inline, and nonblocking handles must be waited before the array is
/// freed.
inline ArrayDesc unowned_view(const ArrayDesc& a) noexcept {
  return ArrayDesc{a.handle, LayoutPtr(LayoutPtr(), a.layout.get())};
}

/// One data-movement operation, fully described at issue time. Its span
/// coroutine serves a 1-D GET or PUT one ownership run at a time; only
/// `multi` ops (memget/memput) may cover more than one run.
/// `array` is an unowned_view — see above.
struct CommOp {
  OpKind kind = OpKind::kGet;
  ArrayDesc array;
  std::uint64_t elem = 0;  ///< starting element (1-D linearization)
  std::uint64_t row = 0;   ///< 2-D element access (two_d set)
  std::uint64_t col = 0;
  bool two_d = false;
  bool multi = false;  ///< may span ownership runs (memget/memput)
  std::byte* dst = nullptr;        ///< kGet destination
  const std::byte* src = nullptr;  ///< kPut source
  std::size_t bytes = 0;
  // --- atomic verbs (kFaa/kCas) ---
  std::uint64_t operand = 0;       ///< FAA delta / CAS desired value
  std::uint64_t compare = 0;       ///< CAS expected value
  /// Where the fetched old value lands at retirement. Caller-owned; must
  /// outlive the op (same contract as dst for nonblocking GETs).
  std::uint64_t* result = nullptr;
};

/// Typed outcome of a completed operation (common/types.h).
using xlupc::OpStatus;

/// Ticket for an issued operation. Handles are single-use: wait()
/// retires the slot, after which the handle is spent (waiting again is a
/// no-op). The generation counter guards against stale handles whose
/// slot has been reused.
struct OpHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  std::uint32_t slot = kInvalidSlot;
  std::uint64_t gen = 0;

  bool valid() const noexcept { return slot != kInvalidSlot; }
};

/// Per-thread counters of the completion engine.
struct CommStats {
  std::uint64_t issued = 0;       ///< ops issued (blocking and nonblocking)
  std::uint64_t wait_stalls = 0;  ///< wait() calls that had to suspend
  std::uint64_t outstanding_hwm = 0;  ///< max simultaneous async ops
};

/// Report keys of CommStats, combined over threads.
inline constexpr sim::MetricRow<CommStats> kCommRows[] = {
    {"comm.issued", &CommStats::issued},
    {"comm.outstanding_hwm", &CommStats::outstanding_hwm, 0,
     sim::Combine::kMax},
    {"comm.wait_stalls", &CommStats::wait_stalls},
};

/// Tier dispatch shared by every access: local / shm within the node,
/// RDMA on an address-cache hit, default SVD Active-Message path
/// otherwise. This is the code that used to live inside Runtime; it is
/// policy-free with respect to blocking — the CompletionEngine decides
/// *when* an op executes, AccessPath decides *how*.
class AccessPath {
 public:
  explicit AccessPath(Runtime& rt) : rt_(rt) {}
  AccessPath(const AccessPath&) = delete;
  AccessPath& operator=(const AccessPath&) = delete;

  /// Serve one CommOp to completion (local completion for PUTs; remote
  /// completion is tracked by the thread's CompletionEngine for fence)
  /// and return its status; a multi-run op stops at its first failed run.
  /// A plain dispatcher, not a coroutine: every op forwards straight to
  /// its span coroutine, which is the one frame the op keeps above its
  /// transport leg.
  sim::Task<OpStatus> execute(UpcThread& th, CommOp op);

  /// The `elem` of a span op whose start is located already: a 2-D op,
  /// served as one piece at `loc`.
  static constexpr std::uint64_t kLocated = ~std::uint64_t{0};

  /// The tier dispatch of a GET or PUT: a 1-D op from element `elem`
  /// (`loc` unused), walked one ownership run — one contiguous piece on
  /// its owner — at a time, or a 2-D op at `loc` (elem == kLocated), one
  /// piece. A memget or memput stops at its first failed piece; each
  /// piece is counted and traced on its own. The descriptor is taken by
  /// value — copies of an unowned_view are refcount-free — so callers may
  /// pass a descriptor that dies before the returned task is awaited.
  /// Returns the status of the failed transport leg, or kPeerFailed up
  /// front against a declared-dead owner (the circuit breaker).
  sim::Task<OpStatus> get_span(UpcThread& th, ArrayDesc a, Layout::Loc loc,
                               std::uint64_t elem, std::span<std::byte> dst);
  sim::Task<OpStatus> put_span(UpcThread& th, ArrayDesc a, Layout::Loc loc,
                               std::uint64_t elem,
                               std::span<const std::byte> src);
  /// Atomic tier dispatch: local/shm apply on the calling node, remote
  /// elements go through Transport::amo() — NIC-offloaded verbs atomics
  /// on IB (address-cache hit), AM-handler lowering otherwise. Writes
  /// the fetched old value through `result` (only on kOk). Takes the
  /// CommOp fields it uses, not the whole descriptor.
  sim::Task<OpStatus> amo_span(UpcThread& th, OpKind kind, ArrayDesc a,
                               Layout::Loc loc, std::uint64_t operand,
                               std::uint64_t compare, std::uint64_t* result);

  // --- coalescing routing helpers (docs/COALESCING.md) ---
  /// The remote node a single-run op is bound for, or nullopt when the
  /// element is owned by the calling thread's own node (local/shm tiers
  /// are never staged).
  static std::optional<NodeId> remote_dest(const UpcThread& th,
                                           const CommOp& op);
  /// Translate a staged CommOp into its aggregated-batch wire form (SVD
  /// handle + node offset; PUT payloads are copied out at stage time, so
  /// the user buffer is reusable immediately — same local-completion
  /// semantics as the eager AM path).
  static net::RdmaBatchOp to_batch_op(const CommOp& op);

 private:
  // What the span coroutines recompute where they use it rather than
  // keep across their suspensions (GCC 12 keeps every local of a
  // coroutine in its frame): plain functions cost the frame nothing.
  const net::PlatformParams& params() const noexcept;
  sim::Resource& core_of(const UpcThread& th);
  static net::Initiator seat_of(const UpcThread& th) noexcept;
  static NodeId owner_of(const ArrayDesc& a, Layout::Loc loc) {
    return a.layout->node_of(loc.thread);
  }

  /// Record one trace event (no-op with tracing off).
  void trace(const UpcThread& th, TraceOp op, TracePath path, NodeId owner,
             std::uint32_t len, sim::Time t_start) const;
  /// The remote address of `node_off` on an address-cache hit for `key`,
  /// kNullAddr on a miss (a plain function: its optional stays out of
  /// the caller's coroutine frame).
  Addr cached_addr(const UpcThread& th, const CacheKey& key,
                   std::uint64_t node_off);
  /// amo_span's shared-local tier once its core charge is paid: apply
  /// the verb, count and trace it (a plain function, so its locals stay
  /// out of amo_span's frame).
  void apply_local_amo(const UpcThread& th, OpKind kind, const ArrayDesc& a,
                       Layout::Loc loc, std::uint64_t node_off,
                       std::uint64_t operand, std::uint64_t compare,
                       std::uint64_t* result, sim::Time t_start);
  /// The AM GET request of the piece at `loc` (node offset `node_off`)
  /// into `dst`: a plain function, so get_span's frame keeps only the
  /// request the transport's leg reads, not the parts it is built from.
  static net::GetRequest am_request(const ArrayDesc& a, Layout::Loc loc,
                                    std::uint64_t node_off,
                                    std::span<std::byte> dst, bool want_base);
  /// The span coroutines' piece walk: the bytes of the next piece, of at
  /// most `left`, with `loc` set to its start and `elem` advanced past
  /// it; with elem == kLocated the one piece at `loc`, `left` bytes.
  static std::size_t next_piece(const Layout& layout, Layout::Loc& loc,
                                std::uint64_t& elem, std::size_t left);

  Runtime& rt_;
};

/// Per-thread completion bookkeeping: op slots for the nonblocking
/// surface plus the PUT remote-completion counter fence() drains. One
/// engine per UpcThread; all calls must come from that thread's own
/// coroutine body.
class CompletionEngine {
 public:
  CompletionEngine(Runtime& rt, UpcThread& th) : rt_(rt), th_(th) {}
  CompletionEngine(const CompletionEngine&) = delete;
  CompletionEngine& operator=(const CompletionEngine&) = delete;

  /// Record `op` in a fresh slot and start it: staged into a coalescing
  /// buffer when eligible, else a runner coroutine at the current
  /// simulated time that overlaps with the caller.
  OpHandle issue(CommOp op);

  /// The blocking calls' path: count the op and execute it inline on
  /// the caller's coroutine, with no slot, handle, or wait() frame, and
  /// return its status. Blocking ops are never staged.
  sim::Task<OpStatus> run_blocking(CommOp op);

  /// Complete the op behind `h`: suspend until it finishes and return
  /// the status it ended with. Retires the slot; waiting on a spent or
  /// invalid handle is a no-op returning kOk.
  sim::Task<OpStatus> wait(OpHandle h);

  /// wait() every live handle of this thread, oldest slot first, and
  /// return the worst status across them (kPeerFailed > kTimeout > kOk).
  /// Flushes every staging buffer first (flush-on-fence semantics).
  sim::Task<OpStatus> wait_all();

  // --- small-message coalescing surface (docs/COALESCING.md) ---
  // The staging buffers are made by the first staged op; until then
  // flushes are no-ops and the statistics read zero.
  /// Ship the staging buffer bound for `dest` now (explicit flush).
  void flush(NodeId dest) {
    if (coalescer_) coalescer_->flush(dest, FlushReason::kExplicit);
  }
  /// Ship every staging buffer of this thread (explicit flush; also the
  /// end-of-run safety net for unwaited staged ops).
  void flush_all() {
    if (coalescer_) coalescer_->flush_all(FlushReason::kExplicit);
  }
  const CoalesceStats& coalesce_stats() const noexcept {
    static constexpr CoalesceStats kNone{};
    return coalescer_ ? coalescer_->stats() : kNone;
  }

  /// PUT remote-completion tracking (fence checkpoint semantics).
  void note_put_issued() { ++outstanding_puts_; }
  void note_put_completed();
  sim::Task<void> drain_puts();

  std::uint64_t outstanding() const noexcept { return outstanding_async_; }
  /// PUTs issued whose remote completion has not arrived yet.
  std::uint64_t outstanding_puts() const noexcept { return outstanding_puts_; }
  const CommStats& stats() const noexcept { return stats_; }
  void reset_stats() {
    stats_ = CommStats{};
    if (coalescer_) coalescer_->reset_stats();
  }

 private:
  friend class CoalescingEngine;

  struct Slot {
    std::uint64_t gen = 0;
    bool active = false;
    bool done = false;
    bool staged = false;  ///< parked in a coalescing buffer / in a batch
    OpStatus status = OpStatus::kOk;  ///< the op's outcome, once done
    CommOp op;
    // In-place (optional, not unique_ptr): a wait stall happens on every
    // contended access and must not cost a heap round trip.
    std::optional<sim::Trigger> waiter;
  };

  /// The nonblocking surface's slots and the free list of retired ones.
  /// A deque: Slot references stay stable across the co_awaits in
  /// run_async/wait while new slots are issued.
  struct SlotStore {
    std::deque<Slot> slots;
    std::vector<std::uint32_t> free;
  };

  /// Suspends drain_puts() until note_put_completed() counts the last
  /// outstanding PUT: the fence has one waiter, the thread itself.
  struct FenceWait {
    CompletionEngine* engine;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      engine->fence_waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  Slot& slot(std::uint32_t idx) { return slots_->slots[idx]; }
  std::size_t slot_count() const noexcept {
    return slots_ ? slots_->slots.size() : 0;
  }
  sim::Task<void> run_async(std::uint32_t idx);
  /// Op completion: mark the slot done with the op's status and wake its
  /// waiter. The CoalescingEngine calls it for each member of a batch
  /// (with the batch's status) while each member's OpHandle stays valid.
  void complete(std::uint32_t idx, OpStatus status);
  void retire(std::uint32_t idx);

  Runtime& rt_;
  UpcThread& th_;
  // Made by the first issue(): a thread that only makes blocking calls
  // never needs a slot, and pays for the pointer alone.
  std::unique_ptr<SlotStore> slots_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t outstanding_async_ = 0;
  CommStats stats_;

  // PUT remote-completion tracking for fence()/drain_puts(): the count,
  // and the thread's suspended drain_puts() while it waits.
  std::uint64_t outstanding_puts_ = 0;
  std::coroutine_handle<> fence_waiter_{};

  // Small-message staging buffers, made by the first staged op (so
  // never when cfg.coalesce is off).
  std::unique_ptr<CoalescingEngine> coalescer_;
};

}  // namespace xlupc::core
