#include "core/access_path.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <variant>

#include "core/runtime.h"

namespace xlupc::core {

using sim::Duration;
using sim::Task;

// ===================================================== tier dispatch ===

constexpr std::uint32_t kAmoLen = sizeof(std::uint64_t);  ///< traced size

// The span coroutines are the frames a UPC thread keeps while its op is
// in flight, so they hold little: GCC 12 keeps every local and every
// co_await temporary of a coroutine in its frame, each in a slot of its
// own. The CPU charges share one awaiter (sim::Resource::Waiter), the
// trace record is a member call rather than a capturing lambda, and no
// request or descriptor is copied only to be passed on.

const net::PlatformParams& AccessPath::params() const noexcept {
  return rt_.cfg_.platform;
}

sim::Resource& AccessPath::core_of(const UpcThread& th) {
  return rt_.machine_.core(th.node(), th.core());
}

net::Initiator AccessPath::seat_of(const UpcThread& th) noexcept {
  return {th.node(), th.core()};
}

void AccessPath::trace(const UpcThread& th, TraceOp op, TracePath path,
                       NodeId owner, std::uint32_t len,
                       sim::Time t_start) const {
  // With tracing off (the common case) no TraceEvent is even
  // constructed on the per-access path.
  if (!rt_.tracer_.enabled()) return;
  rt_.tracer_.record(
      TraceEvent{th.id(), op, path, owner, len, t_start, rt_.sim_.now()});
}

Addr AccessPath::cached_addr(const UpcThread& th, const CacheKey& key,
                             std::uint64_t node_off) {
  const auto info = rt_.node(th.node()).cache.lookup(key);
  return info ? info->base + node_off : kNullAddr;
}

net::GetRequest AccessPath::am_request(const ArrayDesc& a, Layout::Loc loc,
                                       std::uint64_t node_off,
                                       std::span<std::byte> dst,
                                       bool want_base) {
  return net::GetRequest{
      .svd_handle = a.handle.pack(),
      .offset = node_off,
      .len = static_cast<std::uint32_t>(dst.size()),
      .want_base = want_base,
      .target_core = a.layout->core_of(loc.thread),
      .local_buf =
          static_cast<Addr>(reinterpret_cast<std::uintptr_t>(dst.data()))};
}

std::size_t AccessPath::next_piece(const Layout& layout, Layout::Loc& loc,
                                   std::uint64_t& elem, std::size_t left) {
  if (elem == kLocated) return left;
  loc = layout.locate(elem);
  const std::size_t len = std::min<std::size_t>(
      left, layout.run_length(elem) * layout.elem_size());
  elem += len / layout.elem_size();
  return len;
}

namespace {

/// get_span's transport leg: the task of a piece's RDMA read or AM GET,
/// and what the transport reads from and lands in, one of the two at a
/// time. Arm `task`, then co_await the variable in place (GCC 12 gives a
/// co_await operand that is not a plain variable, and every by-value
/// argument of a call inside it, a slot of the frame of its own);
/// awaiting returns the leg's status and frees the leg's frame.
struct GetLeg {
  /// The AM GET's request and the reply it lands.
  struct Am {
    net::GetRequest req;
    net::GetReply reply;
  };

  std::variant<net::RdmaGetResult, Am> slot;
  Task<OpStatus> task;  ///< after `slot`: a leg dies before what it uses

  net::RdmaGetResult& rdma() { return std::get<net::RdmaGetResult>(slot); }
  Am& am() { return std::get<Am>(slot); }

  bool await_ready() const { return task.await_ready(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
    return task.await_suspend(h);
  }
  OpStatus await_resume() {
    const OpStatus st = task.await_resume();
    task = {};
    return st;
  }
};

/// Copy a landed piece into the user's buffer and free the landing
/// buffer, so a memget's later pieces do not keep it.
void land(std::byte* out, net::Bytes& data, std::size_t len) {
  std::memcpy(out, data.data(), len);
  data = {};
}

}  // namespace

Task<OpStatus> AccessPath::get_span(UpcThread& th, ArrayDesc a,
                                    Layout::Loc loc, std::uint64_t elem,
                                    std::span<std::byte> dst) {
  // A thread waiting on a GET keeps this frame and its leg's, so it
  // holds only what a suspension crosses: the platform, the owner, the
  // initiator and the cache key are recomputed where used.
  OpStatus st = OpStatus::kOk;
  sim::Resource::Waiter cpu;  // each charge on this thread's core
  GetLeg leg;                 // each piece's RDMA read, then any AM GET

  // One piece per ownership run, each contiguous on its owner; a memget
  // stops at its first failed piece. `dst` is what is left to read.
  for (std::size_t len = 0; !dst.empty(); dst = dst.subspan(len)) {
    len = next_piece(*a.layout, loc, elem, dst.size());
    const std::uint64_t node_off = a.layout->node_offset(loc);
    const sim::Time t_start = rt_.sim_.now();

    if (owner_of(a, loc) == th.node()) {
      // Shared-local access: SVD translation is a local lookup; data
      // moves over the node's memory system, no network involved.
      cpu.use(core_of(th),
              (loc.thread == th.id() ? params().local_access
                                     : params().shm_latency) +
                  sim::transfer_time(len, params().shm_copy_bw));
      co_await cpu;
      rt_.node(th.node()).space.read(
          rt_.local_translate(th.node(), a.handle, node_off, len),
          dst.first(len));
      if (loc.thread == th.id()) {
        ++rt_.counters_.local_gets;
        trace(th, TraceOp::kGet, TracePath::kLocal, th.node(), len, t_start);
      } else {
        ++rt_.counters_.shm_gets;
        trace(th, TraceOp::kGet, TracePath::kShm, th.node(), len, t_start);
      }
      continue;
    }

    // Circuit breaker: once the failure detector has declared the owner
    // dead, fail fast with kPeerFailed instead of hammering the dead
    // peer through a full retransmission budget per access.
    if (rt_.peer_failed(owner_of(a, loc))) {
      ++rt_.counters_.breaker_fast_fails;
      co_return OpStatus::kPeerFailed;
    }

    if (rt_.cfg_.cache.enabled) {
      cpu.use(core_of(th), params().cache_lookup);
      co_await cpu;
      if (const Addr raddr = cached_addr(
              th, rt_.make_key(a, owner_of(a, loc), node_off), node_off)) {
        if (len > params().rdma_bounce_limit) {
          // Zero-copy into the user buffer: it must be registered
          // locally, a charge only when the registration cache misses.
          cpu.use(core_of(th),
                  rt_.transport_.local_registration(
                      seat_of(th),
                      static_cast<Addr>(
                          reinterpret_cast<std::uintptr_t>(dst.data())),
                      len));
          if (cpu.hold != 0) co_await cpu;
        }
        leg.slot.emplace<net::RdmaGetResult>();
        leg.task = rt_.transport_.rdma_get(seat_of(th), owner_of(a, loc),
                                           raddr,
                                           static_cast<std::uint32_t>(len),
                                           leg.rdma());
        st = co_await leg;
        if (st != OpStatus::kOk) co_return st;
        if (leg.rdma().ok()) {
          if (len <= params().rdma_bounce_limit) {
            // Landed in a preregistered bounce buffer; copy out on the
            // CPU.
            cpu.use(core_of(th), params().copy_time(len));
            co_await cpu;
          }
          land(dst.data(), leg.rdma().data, len);
          ++rt_.counters_.rdma_gets;
          // Offload backends (IB) complete one-sided reads entirely on
          // the NIC DMA engine; mark them apart from handler-CPU
          // completions.
          trace(th, TraceOp::kGet,
                params().rdma_offload ? TracePath::kRdmaOffload
                                      : TracePath::kRdma,
                owner_of(a, loc), len, t_start);
          continue;
        }
        // NAK: the target no longer pins that window. Invalidate and fall
        // back to the default path (which will re-populate the cache).
        rt_.node(th.node()).cache.invalidate(
            rt_.make_key(a, owner_of(a, loc), node_off));
        ++rt_.counters_.rdma_naks;
      }
    }

    // Default SVD path (Fig. 3a): AM request, target-side translation,
    // the reply piggybacks the base address when caching is on.
    leg.slot.emplace<GetLeg::Am>(GetLeg::Am{
        am_request(a, loc, node_off, dst.first(len), rt_.cfg_.cache.enabled),
        {}});
    leg.task = rt_.transport_.get(seat_of(th), owner_of(a, loc), leg.am().req,
                                  leg.am().reply);
    st = co_await leg;
    if (st != OpStatus::kOk) co_return st;
    if (leg.am().reply.base && rt_.cfg_.cache.enabled) {
      cpu.use(core_of(th), params().cache_update);
      co_await cpu;
      rt_.node(th.node()).cache.insert(
          rt_.make_key(a, owner_of(a, loc), node_off), *leg.am().reply.base);
    }
    land(dst.data(), leg.am().reply.data, len);
    ++rt_.counters_.am_gets;
    trace(th, TraceOp::kGet, TracePath::kAm, owner_of(a, loc), len, t_start);
  }
  co_return OpStatus::kOk;
}

Task<OpStatus> AccessPath::put_span(UpcThread& th, ArrayDesc a,
                                    Layout::Loc loc, std::uint64_t elem,
                                    std::span<const std::byte> src) {
  const auto& p = rt_.cfg_.platform;
  const Layout& layout = *a.layout;
  const net::Initiator from{th.node(), th.core()};
  const bool cache_on = rt_.put_cache_enabled();
  Runtime* rt = &rt_;
  sim::Resource::Waiter cpu;  // each charge on this thread's core

  // One piece per ownership run, as in get_span.
  for (std::size_t off = 0, len = 0; off < src.size(); off += len) {
    len = next_piece(layout, loc, elem, src.size() - off);
    const std::span<const std::byte> piece = src.subspan(off, len);
    const NodeId owner = layout.node_of(loc.thread);
    const std::uint64_t node_off = layout.node_offset(loc);
    const sim::Time t_start = rt_.sim_.now();

    if (owner == th.node()) {
      const bool same_thread = loc.thread == th.id();
      cpu.use(rt_.machine_.core(th.node(), th.core()),
              (same_thread ? p.local_access : p.shm_latency) +
                  sim::transfer_time(len, p.shm_copy_bw));
      co_await cpu;
      const Addr addr = rt_.local_translate(owner, a.handle, node_off, len);
      rt_.node(owner).space.write(addr, piece);
      if (same_thread) {
        ++rt_.counters_.local_puts;
        trace(th, TraceOp::kPut, TracePath::kLocal, owner, len, t_start);
      } else {
        ++rt_.counters_.shm_puts;
        trace(th, TraceOp::kPut, TracePath::kShm, owner, len, t_start);
      }
      continue;
    }

    // Circuit breaker (same contract as get_span).
    if (rt_.peer_failed(owner)) {
      ++rt_.counters_.breaker_fast_fails;
      co_return OpStatus::kPeerFailed;
    }

    const CacheKey key = rt_.make_key(a, owner, node_off);
    if (cache_on) {
      cpu.use(rt_.machine_.core(th.node(), th.core()), p.cache_lookup);
      co_await cpu;
      if (const Addr raddr = cached_addr(th, key, node_off)) {
        if (len <= p.rdma_bounce_limit) {
          // Stage into a preregistered bounce buffer.
          cpu.use(rt_.machine_.core(th.node(), th.core()), p.copy_time(len));
          co_await cpu;
        } else {
          co_await rt_.transport_.ensure_local_registered(
              from, static_cast<Addr>(reinterpret_cast<std::uintptr_t>(
                        piece.data())),
              len);
        }
        rt_.note_put_issued(th);
        const ThreadId tid = th.id();
        const net::RdmaPutResult res = co_await rt_.transport_.rdma_put(
            from, owner, raddr, {piece.begin(), piece.end()},
            [rt, tid] { rt->note_put_completed(tid); });
        if (res.status == OpStatus::kOk && res.ok()) {
          ++rt_.counters_.rdma_puts;
          trace(th, TraceOp::kPut,
                p.rdma_offload ? TracePath::kRdmaOffload : TracePath::kRdma,
                owner, len, t_start);
          continue;
        }
        // NAKed or failed: the completion hook never fires, so release
        // the outstanding count here, or fence() waits for a completion
        // that can never arrive.
        rt_.note_put_completed(th.id());
        if (res.status != OpStatus::kOk) co_return res.status;
        rt_.node(th.node()).cache.invalidate(key);
        ++rt_.counters_.rdma_naks;
      }
    }

    net::PutRequest req;
    req.svd_handle = a.handle.pack();
    req.offset = node_off;
    req.data.assign(piece.begin(), piece.end());
    req.want_base = cache_on;
    req.target_core = layout.core_of(loc.thread);
    req.local_buf =
        static_cast<Addr>(reinterpret_cast<std::uintptr_t>(piece.data()));
    rt_.note_put_issued(th);
    const ThreadId tid = th.id();
    const NodeId my_node = th.node();
    const OpStatus st = co_await rt_.transport_.put(
        from, owner, std::move(req),
        [rt, tid, key, my_node, cache_on](const net::PutAck& ack) {
          if (ack.base && cache_on) {
            rt->node(my_node).cache.insert(key, *ack.base);
          }
          rt->note_put_completed(tid);
        });
    if (st != OpStatus::kOk) {
      // Same release: an awaited leg (rendezvous RTS/CTS, or the QP post
      // on IB) failed, so the detached half that fires on_ack never ran.
      rt_.note_put_completed(th.id());
      co_return st;
    }
    ++rt_.counters_.am_puts;
    trace(th, TraceOp::kPut, TracePath::kAm, owner, len, t_start);
  }
  co_return OpStatus::kOk;
}

void AccessPath::apply_local_amo(const UpcThread& th, OpKind kind,
                                 const ArrayDesc& a, Layout::Loc loc,
                                 std::uint64_t node_off, std::uint64_t operand,
                                 std::uint64_t compare, std::uint64_t* result,
                                 sim::Time t_start) {
  const NodeId owner = th.node();
  const std::uint64_t old = rt_.apply_amo(
      owner, rt_.local_translate(owner, a.handle, node_off, kAmoLen), kind,
      operand, compare);
  if (result != nullptr) *result = old;
  if (loc.thread == th.id()) {
    ++rt_.counters_.local_amos;
    trace(th, TraceOp::kAmo, TracePath::kLocal, owner, kAmoLen, t_start);
  } else {
    ++rt_.counters_.shm_amos;
    trace(th, TraceOp::kAmo, TracePath::kShm, owner, kAmoLen, t_start);
  }
  if (kind == OpKind::kCas && old != compare) {
    ++rt_.counters_.cas_failures;
  }
}

Task<OpStatus> AccessPath::amo_span(UpcThread& th, OpKind kind, ArrayDesc a,
                                    Layout::Loc loc, std::uint64_t operand,
                                    std::uint64_t compare,
                                    std::uint64_t* result) {
  // Like get_span's, this frame keeps only what a suspension crosses.
  const std::uint64_t node_off = a.layout->node_offset(loc);
  const sim::Time t_start = rt_.sim_.now();
  sim::Resource::Waiter cpu;  // each charge on this thread's core

  if (owner_of(a, loc) == th.node()) {
    // Shared-local atomic: translation is a local lookup and the word is
    // updated through the node's memory system. Within a node the UPC
    // threads are cooperatively scheduled on the DES, so the plain
    // read-modify-write is already indivisible.
    cpu.use(core_of(th), loc.thread == th.id() ? params().local_access
                                               : params().shm_latency);
    co_await cpu;
    apply_local_amo(th, kind, a, loc, node_off, operand, compare, result,
                    t_start);
    co_return OpStatus::kOk;
  }

  // Circuit breaker (same contract as get_span).
  if (rt_.peer_failed(owner_of(a, loc))) {
    ++rt_.counters_.breaker_fast_fails;
    co_return OpStatus::kPeerFailed;
  }

  net::AmoRequest req;
  req.verb = kind == OpKind::kFaa ? net::AmoVerb::kFaa : net::AmoVerb::kCas;
  req.svd_handle = a.handle.pack();
  req.offset = node_off;
  req.operand = operand;
  req.compare = compare;
  req.target_core = a.layout->core_of(loc.thread);

  // Address-cache probe, meaningful only on offload backends (IB): a hit
  // arms the NIC-offloaded lowering with the cached remote address. On
  // GM/LAPI the AM handler translates at the home, so the probe (and its
  // cache_lookup charge) is skipped entirely — their AMO timing does not
  // depend on cache state.
  if (rt_.cfg_.cache.enabled && params().rdma_offload) {
    cpu.use(core_of(th), params().cache_lookup);
    co_await cpu;
    req.raddr = cached_addr(th, rt_.make_key(a, owner_of(a, loc), node_off),
                            node_off);
  }

  // One co_await site serves the first try and the retry after a NAK;
  // the leg reads `req` and lands its result in `res`.
  net::AmoResult res;
  for (;;) {
    Task<OpStatus> leg =
        rt_.transport_.amo(seat_of(th), owner_of(a, loc), req, res);
    const OpStatus st = co_await leg;
    if (st != OpStatus::kOk) co_return st;
    if (!res.ok()) {
      // NAK: the cached window is no longer pinned. Invalidate and retry
      // through the AM lowering (which translates at the home node).
      rt_.node(th.node()).cache.invalidate(
          rt_.make_key(a, owner_of(a, loc), node_off));
      ++rt_.counters_.rdma_naks;
      req.raddr = kNullAddr;
      continue;
    }
    if (result != nullptr) *result = res.value;
    if (res.offloaded) {
      ++rt_.counters_.rdma_amos;
      trace(th, TraceOp::kAmo, TracePath::kRdmaOffload, owner_of(a, loc),
            kAmoLen, t_start);
    } else {
      ++rt_.counters_.am_amos;
      trace(th, TraceOp::kAmo, TracePath::kAm, owner_of(a, loc), kAmoLen,
            t_start);
    }
    if (kind == OpKind::kCas && res.value != compare) {
      ++rt_.counters_.cas_failures;
    }
    co_return OpStatus::kOk;
  }
}

Task<OpStatus> AccessPath::execute(UpcThread& th, CommOp op) {
  // Plain dispatcher: every op forwards to its span coroutine with no
  // execute() frame. Safe because the span coroutines copy their
  // ArrayDesc / Loc / span arguments into their own frame — nothing
  // references the local `op` after this returns.
  const Layout& layout = *op.array.layout;
  if (is_amo(op.kind)) {
    return amo_span(th, op.kind, std::move(op.array), layout.locate(op.elem),
                    op.operand, op.compare, op.result);
  }
  Layout::Loc loc;
  std::uint64_t elem = op.elem;
  if (op.two_d) {
    loc = layout.locate2d(op.row, op.col);
    elem = kLocated;
  }
  if (op.kind == OpKind::kGet) {
    return get_span(th, std::move(op.array), loc, elem,
                    std::span<std::byte>(op.dst, op.bytes));
  }
  return put_span(th, std::move(op.array), loc, elem,
                  std::span<const std::byte>(op.src, op.bytes));
}

Task<OpStatus> CompletionEngine::run_blocking(CommOp op) {
  ++stats_.issued;
  return rt_.path_.execute(th_, std::move(op));
}

// ========================================== coalescing eligibility ====

std::optional<NodeId> AccessPath::remote_dest(const UpcThread& th,
                                              const CommOp& op) {
  const Layout& layout = *op.array.layout;
  const Layout::Loc loc =
      op.two_d ? layout.locate2d(op.row, op.col) : layout.locate(op.elem);
  const NodeId owner = layout.node_of(loc.thread);
  if (owner == th.node()) return std::nullopt;
  return owner;
}

net::RdmaBatchOp AccessPath::to_batch_op(const CommOp& op) {
  const Layout& layout = *op.array.layout;
  const Layout::Loc loc =
      op.two_d ? layout.locate2d(op.row, op.col) : layout.locate(op.elem);
  net::RdmaBatchOp w;
  w.is_get = op.kind == OpKind::kGet;
  w.svd_handle = op.array.handle.pack();
  w.offset = layout.node_offset(loc);
  w.len = static_cast<std::uint32_t>(op.bytes);
  w.target_core = layout.core_of(loc.thread);
  if (!w.is_get) w.data.assign(op.src, op.src + op.bytes);
  return w;
}

// ===================================================== completion ======

OpHandle CompletionEngine::issue(CommOp op) {
  if (!slots_) slots_ = std::make_unique<SlotStore>();
  std::uint32_t idx;
  if (!slots_->free.empty()) {
    idx = slots_->free.back();
    slots_->free.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_->slots.size());
    slots_->slots.emplace_back();
  }
  Slot& s = slot(idx);
  s.gen = next_gen_++;
  s.active = true;
  s.done = false;
  s.staged = false;
  s.status = OpStatus::kOk;
  s.op = std::move(op);
  s.waiter.reset();
  ++stats_.issued;
  // Coalescing eligibility (docs/COALESCING.md): single run, bound for a
  // remote node, payload at or below the threshold; with the default
  // threshold of 0 nothing ever is. Atomics are never staged: a batched
  // FAA would lose its read-modify-write indivisibility and its
  // value-return path.
  const CoalesceConfig& cc = rt_.cfg_.coalesce;
  std::optional<NodeId> dest;
  if (cc.enabled() && !s.op.multi && !is_amo(s.op.kind) &&
      s.op.bytes <= cc.threshold) {
    dest = AccessPath::remote_dest(th_, s.op);
  }
  ++outstanding_async_;
  stats_.outstanding_hwm =
      std::max(stats_.outstanding_hwm, outstanding_async_);
  if (dest) {
    s.staged = true;
    if (!coalescer_) {
      coalescer_ = std::make_unique<CoalescingEngine>(rt_, th_, *this);
    }
    coalescer_->stage(*dest, idx, AccessPath::to_batch_op(s.op));
  } else {
    rt_.sim_.spawn(run_async(idx));
  }
  return OpHandle{idx, s.gen};
}

Task<void> CompletionEngine::run_async(std::uint32_t idx) {
  complete(idx, co_await rt_.path_.execute(th_, slot(idx).op));
}

void CompletionEngine::complete(std::uint32_t idx, OpStatus status) {
  Slot& s = slot(idx);
  s.status = status;
  s.done = true;
  s.staged = false;
  --outstanding_async_;
  if (s.waiter) s.waiter->fire();
}

void CompletionEngine::retire(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.active = false;
  s.waiter.reset();
  s.op = CommOp{};
  slots_->free.push_back(idx);
}

Task<OpStatus> CompletionEngine::wait(OpHandle h) {
  if (!h.valid() || h.slot >= slot_count()) co_return OpStatus::kOk;
  Slot& s = slot(h.slot);
  if (!s.active || s.gen != h.gen) {
    co_return OpStatus::kOk;  // spent handle: wait is idempotent
  }
  if (s.staged && !s.done) {
    // Flush-on-wait: the handle is parked in a staging buffer — ship the
    // whole buffer now and then wait for the batch like any async op.
    coalescer_->flush_containing(h.slot, FlushReason::kWait);
  }
  if (!s.done) {
    ++stats_.wait_stalls;
    s.waiter.emplace(rt_.sim_);
    co_await s.waiter->wait();
  }
  const OpStatus st = s.status;
  retire(h.slot);
  co_return st;
}

Task<OpStatus> CompletionEngine::wait_all() {
  // Flush-on-fence: fence() and wait_all() ship every staging buffer
  // before retiring the outstanding handles.
  if (coalescer_) coalescer_->flush_all(FlushReason::kFence);
  OpStatus worst = OpStatus::kOk;
  for (std::uint32_t i = 0; i < slot_count(); ++i) {
    if (!slot(i).active) continue;
    const OpStatus st = co_await wait(OpHandle{i, slot(i).gen});
    worst = std::max(worst, st);
  }
  co_return worst;
}

void CompletionEngine::note_put_completed() {
  if (outstanding_puts_ == 0) {
    throw std::logic_error("CompletionEngine: put completion without issue");
  }
  if (--outstanding_puts_ == 0 && fence_waiter_) {
    rt_.sim_.post_resume(std::exchange(fence_waiter_, {}));
  }
}

Task<void> CompletionEngine::drain_puts() {
  while (outstanding_puts_ > 0) co_await FenceWait{this};
}

}  // namespace xlupc::core
