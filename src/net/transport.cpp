#include "net/transport.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/topology.h"

namespace xlupc::net {

using sim::Duration;
using sim::Task;

void raise_if_failed(OpStatus st) {
  if (st == OpStatus::kTimeout) {
    throw TransportTimeout("transport: retransmission budget exhausted");
  }
  if (st == OpStatus::kPeerFailed) {
    throw PeerDeadError("transport: the peer crash-stopped");
  }
}

Transport::Transport(Machine& machine, AmTarget& target)
    : machine_(machine),
      target_(target),
      ib_(machine.params().kind == TransportKind::kIb),
      protocol_(machine, stats_),
      cqs_(ib_ ? machine.nodes() : 0) {
  reg_caches_.reserve(machine.nodes());
  for (std::uint32_t n = 0; n < machine.nodes(); ++n) {
    reg_caches_.emplace_back(machine.params().max_dmaable_bytes);
  }
}

void Transport::reset_stats() {
  stats_ = TransportStats{};
  for (auto& rc : reg_caches_) rc.reset_counters();
}

// ------------------------------------------------ IB queue pairs ---

const std::shared_ptr<ib::QueuePair>& Transport::qp(NodeId src, NodeId dst) {
  auto& q = qps_.try_emplace(link_key(src, dst));
  if (!q) {
    q = std::make_shared<ib::QueuePair>(machine_.simulator(),
                                        machine_.params().sq_depth, cqs_[src]);
  }
  return q;
}

const ib::QueuePair* Transport::queue_pair(NodeId src, NodeId dst) const {
  const auto* q = qps_.find(link_key(src, dst));
  return q == nullptr ? nullptr : q->get();
}

Task<OpStatus> Transport::post_wqe(NodeId src, NodeId dst, ib::Wqe& wqe) {
  const std::shared_ptr<ib::QueuePair>& qp_ptr = qp(src, dst);
  ib::QueuePair& q = *qp_ptr;
  if (q.in_error()) {
    // The connection was error-fenced by a failure event. Posting against
    // a peer the detector still considers dead is pointless — fail the
    // leg instead of re-establishing a connection that can only fail
    // again.
    if (protocol_.peer_declared_dead(dst)) co_return OpStatus::kPeerFailed;
    // Tear down and re-establish: one connection-setup round trip, then
    // the QP comes back RTS as a fresh incarnation. Resyncing both
    // directions of the link rebases the sequence stamps onto what the
    // receiver has applied, so replayed traffic stays apply-once.
    co_await machine_.simulator().delay(2 * machine_.latency(src, dst));
    q.reactivate();
    ++stats_.qp_reconnects;
    protocol_.resync_link(src, dst);
    protocol_.resync_link(dst, src);
  }
  ++stats_.qp_posts;
  if (q.would_stall()) ++stats_.sq_stalls;
  co_await q.post_send();
  wqe = ib::Wqe(qp_ptr);
  co_return OpStatus::kOk;
}

void Transport::peer_dead(NodeId node) {
  // In-flight legs to the dead peer fail fast inside the protocol
  // engine's delivery loop instead of burning the retransmit budget.
  protocol_.declare_peer_dead(node);
  qps_.for_each([&](std::uint64_t key, const auto& q) {
    const bool touches = key >> 32 == node || (key & 0xffffffffu) == node;
    if (touches && !q->in_error()) {
      q->to_error();
      ++stats_.qp_errors;
    }
  });
}

void Transport::on_link_down(NodeId a, NodeId b) {
  // With a redundant path the protocol engine reroutes around the dark
  // link and the connection stays up; only a path-less pair fences.
  if (redundant_paths(machine_.params().topology, a, b) > 0) return;
  for (const std::uint64_t key : {link_key(a, b), link_key(b, a)}) {
    const auto* q = qps_.find(key);
    if (q != nullptr && !(*q)->in_error()) {
      (*q)->to_error();
      ++stats_.qp_errors;
    }
  }
}

AmTarget::BatchServe AmTarget::serve_batch(NodeId target, RdmaBatch&& batch) {
  // Default routing: each member goes through the ordinary AM handlers
  // with want_base=false — batch members never populate the initiator's
  // remote address cache, so the one-sided RDMA tiers are unaffected.
  BatchServe out;
  for (auto& op : batch.ops) {
    if (op.is_get) {
      GetRequest req;
      req.svd_handle = op.svd_handle;
      req.offset = op.offset;
      req.len = op.len;
      req.want_base = false;
      req.target_core = op.target_core;
      out.get_data.push_back(std::move(serve_get(target, req).data));
    } else {
      PutRequest req;
      req.svd_handle = op.svd_handle;
      req.offset = op.offset;
      req.data = std::move(op.data);
      req.want_base = false;
      req.target_core = op.target_core;
      serve_put(target, std::move(req));
    }
  }
  return out;
}

std::uint64_t AmTarget::serve_amo(NodeId /*target*/, const AmoRequest& /*req*/) {
  // Only targets that actually serve atomics (the runtime) override
  // this; reaching the default is a wiring bug, not a runtime event.
  throw std::logic_error("AmTarget::serve_amo: target does not serve atomics");
}

Duration Transport::reg_cache_cost(NodeId node, Addr addr, std::size_t len,
                                   bool pin_failed) {
  const auto& p = machine_.params();
  if (pin_failed) {
    // IB's RNR retry budget ran out: degrade to staging through bounce
    // buffers instead of NAKing forever.
    ++stats_.bounce_fallbacks;
    return p.copy_time(len);
  }
  const auto rl = reg_caches_[node].ensure(addr, len);
  Duration cost = 0;
  if (rl.bounced) {
    // Region exceeds the whole DMAable budget: registration is
    // impossible, so the transfer degrades to staging through bounce
    // buffers — one extra host copy instead of an aborted (or cap-
    // overshooting) registration.
    ++stats_.bounce_fallbacks;
    cost += p.copy_time(len);
  } else if (!rl.hit) {
    cost += p.reg_time(rl.registered, 1);
  }
  return cost + p.dereg_base * rl.evicted_regions;  // lazy deregistration
}

Task<void> Transport::ensure_local_registered(Initiator from, Addr key,
                                              std::size_t len) {
  const Duration cost = local_registration(from, key, len);
  if (cost != 0) co_await machine_.core(from.node, from.core).use(cost);
}

template <bool kIb>
Task<OpStatus> Transport::admit_rendezvous(Initiator from, NodeId dst,
                                           sim::Resource& hcpu,
                                           WqeFor<kIb>& wqe,
                                           bool& pin_failed) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  for (std::uint32_t attempt = 0;; ++attempt) {
    co_await hcpu.acquire();
    co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
    pin_failed = kIb && machine_.faults().enabled() &&
                 machine_.faults().pin_fails(dst);
    if (!pin_failed || attempt >= p.rnr_retry_limit) co_return OpStatus::kOk;
    if constexpr (kIb) {
      // RNR NAK frame back to the initiator.
      ++stats_.rnr_naks;
      hcpu.release();
      co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                        machine_.serialize_with_header(0));
      stats_.wire_bytes += p.header_bytes;
      OpStatus st = co_await deliver(
          dst, from.node, &machine_.nic_tx(dst),
          p.nic_tx_overhead + machine_.serialize_with_header(0),
          p.header_bytes);
      if (st != OpStatus::kOk) co_return st;
      // Initiator: the NAKed WQE completes in error; wait out the RNR
      // timer, then re-post the request.
      co_await machine_.core(from.node, from.core).use(p.rdma_completion);
      wqe.retire();
      co_await sim.delay(p.rnr_backoff);
      ++stats_.rnr_retries;
      co_await machine_.core(from.node, from.core).use(p.send_overhead);
      st = co_await post_wqe(from.node, dst, wqe);
      if (st != OpStatus::kOk) co_return st;
      co_await machine_.nic_tx(from.node)
          .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
      stats_.wire_bytes += p.header_bytes;
      st = co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                            p.nic_tx_overhead +
                                machine_.serialize_with_header(0),
                            p.header_bytes);
      if (st != OpStatus::kOk) co_return st;
    }
  }
}

// ---------------------------------------------------------------- GET ---

Task<OpStatus> Transport::get(Initiator from, NodeId dst,
                              const GetRequest& req, GetReply& reply) {
  if (req.len <= machine_.params().eager_limit) {
    ++stats_.am_gets;
    return ib_ ? get_eager<true>(from, dst, req, reply)
               : get_eager<false>(from, dst, req, reply);
  }
  ++stats_.rendezvous_gets;
  return ib_ ? get_rendezvous<true>(from, dst, req, reply)
             : get_rendezvous<false>(from, dst, req, reply);
}

Duration Transport::handle_get(NodeId dst, const GetRequest& req,
                               GetReply& reply, Addr* src_addr) {
  const auto& p = machine_.params();
  AmTarget::GetServe serve = target_.serve_get(dst, req);
  reply.data = std::move(serve.data);
  reply.base = serve.base;
  if (src_addr != nullptr) *src_addr = serve.src_addr;
  return p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
         p.dereg_base * serve.reg_evicted_handles;
}

template <bool kIb>
Task<OpStatus> Transport::get_eager(Initiator from, NodeId dst,
                                    const GetRequest& req, GetReply& reply) {
  // Every resource wait below re-arms `w`, and every wire traversal and
  // handler delay `step`, so the frame holds one slot of each, and no
  // reference it can recompute (machine_.params() included): the frames
  // of GETs in flight are what a memget scan keeps.
  OpStatus st = OpStatus::kOk;
  WqeFor<kIb> wqe;
  sim::Resource::Waiter w;
  ProtocolEngine::Delivery step;

  // Initiator: build and post the AM request (Fig. 5: "send Active Msg").
  // On IB the request is header-only, so its WQE carries it inline.
  w.use(machine_.core(from.node, from.core), machine_.params().send_overhead);
  co_await w;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, wqe);
  if (st != OpStatus::kOk) co_return st;
  w.use(machine_.nic_tx(from.node), machine_.params().nic_tx_overhead +
                                        machine_.serialize_with_header(0));
  co_await w;
  stats_.wire_bytes += machine_.params().header_bytes;
  step = deliver(from.node, dst, &machine_.nic_tx(from.node),
                 machine_.params().nic_tx_overhead +
                     machine_.serialize_with_header(0),
                 machine_.params().header_bytes);
  st = co_await step;
  if (st != OpStatus::kOk) co_return st;

  // Target: header handler translates the SVD handle, optionally pins the
  // object, and copies the data into a bounce buffer.
  w.acquire(handler_cpu(dst, req.target_core));
  co_await w;
  step = {machine_.simulator().delay(scaled(
              dst, machine_.params().recv_overhead +
                       machine_.params().svd_lookup)),
          {}, {}};
  co_await step;
  step = {machine_.simulator().delay(scaled(
              dst, handle_get(dst, req, reply) +
                       // copy into the send bounce buffer
                       machine_.params().copy_time(req.len))),
          {}, {}};
  co_await step;
  handler_cpu(dst, req.target_core).release();

  // Reply carrying the data (plus the piggybacked base address); on IB an
  // RDMA write into the initiator's preposted eager buffer.
  w.use(machine_.nic_tx(dst), machine_.params().nic_tx_overhead +
                                  machine_.serialize_with_header(req.len));
  co_await w;
  stats_.wire_bytes += machine_.params().header_bytes + req.len;
  step = deliver(dst, from.node, &machine_.nic_tx(dst),
                 machine_.params().nic_tx_overhead +
                     machine_.serialize_with_header(req.len),
                 machine_.params().header_bytes + req.len);
  st = co_await step;
  if (st != OpStatus::kOk) co_return st;

  // Initiator: receive dispatch (IB: CQ poll); small replies land in a
  // preposted bounce buffer and are copied out, larger ones land in place.
  w.use(machine_.core(from.node, from.core),
        reply_overhead<kIb>() + (req.len <= machine_.params().both_copy_limit
                                     ? machine_.params().copy_time(req.len)
                                     : Duration{0}));
  co_await w;
  wqe.retire();
  co_return OpStatus::kOk;
}

template <bool kIb>
Task<OpStatus> Transport::get_rendezvous(Initiator from, NodeId dst,
                                         const GetRequest& req,
                                         GetReply& reply) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  // Initiator: pre-register the private receive buffer for zero-copy
  // delivery (registration cache, lazy deregistration), then post the
  // request.
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  if (req.local_buf != kNullAddr) {
    co_await ensure_local_registered(from, req.local_buf, req.len);
  }
  WqeFor<kIb> wqe;
  OpStatus st = OpStatus::kOk;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, wqe);
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  st = co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                        p.nic_tx_overhead + machine_.serialize_with_header(0),
                        p.header_bytes);
  if (st != OpStatus::kOk) co_return st;

  // Target: translate, register the source region, directed zero-copy send.
  auto& hcpu = handler_cpu(dst, req.target_core);
  bool pin_failed = false;
  st = co_await admit_rendezvous<kIb>(from, dst, hcpu, wqe, pin_failed);
  if (st != OpStatus::kOk) co_return st;
  Addr src_addr = kNullAddr;
  const Duration reg = handle_get(dst, req, reply, &src_addr);
  co_await sim.delay(scaled(
      dst, reg + reg_cache_cost(dst, src_addr, req.len, pin_failed)));
  hcpu.release();

  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(req.len));
  stats_.wire_bytes += p.header_bytes + req.len;
  st = co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                        p.nic_tx_overhead +
                            machine_.serialize_with_header(req.len),
                        p.header_bytes + req.len);
  if (st != OpStatus::kOk) co_return st;

  // Zero-copy landing: completion notification only (IB: a CQ poll).
  co_await machine_.core(from.node, from.core).use(reply_overhead<kIb>());
  wqe.retire();
  co_return OpStatus::kOk;
}

// ---------------------------------------------------------------- PUT ---

Task<OpStatus> Transport::put(Initiator from, NodeId dst, PutRequest req,
                              PutAckHook on_ack) {
  const std::size_t len = req.data.size();
  const auto& p = machine_.params();
  // IB carries the smallest payloads inline in the WQE.
  const bool inline_send = ib_ && len <= p.inline_limit;
  if (inline_send || len <= p.eager_limit) {
    ++stats_.am_puts;
    if (inline_send) ++stats_.inline_sends;
    return ib_ ? put_eager<true>(from, dst, std::move(req), std::move(on_ack))
               : put_eager<false>(from, dst, std::move(req),
                                  std::move(on_ack));
  }
  ++stats_.rendezvous_puts;
  return ib_ ? put_rendezvous<true>(from, dst, std::move(req),
                                    std::move(on_ack))
             : put_rendezvous<false>(from, dst, std::move(req),
                                     std::move(on_ack));
}

template <bool kIb>
Task<OpStatus> Transport::put_eager(Initiator from, NodeId dst, PutRequest req,
                                    PutAckHook on_ack) {
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // Initiator: copy into a send bounce buffer (frees the user buffer —
  // local completion), then inject on the NIC. An IB inline send carries
  // the payload in the WQE itself: the user buffer is reusable at post
  // time and no bounce copy is charged.
  Duration send_cost = p.send_overhead;
  if (!kIb || len > p.inline_limit) send_cost += p.copy_time(len);
  co_await machine_.core(from.node, from.core).use(send_cost);
  WqeFor<kIb> wqe;
  OpStatus st = OpStatus::kOk;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, wqe);
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  // The remote half proceeds in the background; PUT is locally complete.
  machine_.simulator().spawn(put_remote<kIb>(
      from, dst, std::move(req), std::move(on_ack), std::move(wqe)));
  co_return OpStatus::kOk;
}

template <bool kIb>
Task<void> Transport::put_remote(Initiator from, NodeId dst, PutRequest req,
                                 PutAckHook on_ack, WqeFor<kIb> wqe) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // Detached half: the initiator already completed locally, so a lost leg
  // still retires the WQE and completes the operation (without a
  // piggybacked base) — fences cannot deadlock; the loss is visible in
  // stats().timeouts.
  if (co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                       p.nic_tx_overhead + machine_.serialize_with_header(len),
                       p.header_bytes + len) == OpStatus::kOk) {
    auto& hcpu = handler_cpu(dst, req.target_core);
    co_await hcpu.acquire();
    co_await sim.delay(
        scaled(dst, p.recv_overhead + p.svd_lookup + p.copy_time(len)));
    auto serve = target_.serve_put(dst, std::move(req));
    co_await sim.delay(
        scaled(dst, p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                        p.dereg_base * serve.reg_evicted_handles));
    hcpu.release();

    // Acknowledgement (may carry the piggybacked base address).
    co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                      machine_.serialize_with_header(0));
    stats_.wire_bytes += p.header_bytes;
    if (co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                         p.nic_tx_overhead + machine_.serialize_with_header(0),
                         p.header_bytes) == OpStatus::kOk) {
      co_await machine_.core(from.node, from.core).use(reply_overhead<kIb>());
      wqe.retire();
      if (on_ack) on_ack(PutAck{serve.base});
      co_return;
    }
  }
  wqe.retire();
  if (on_ack) on_ack(PutAck{});
}

template <bool kIb>
Task<OpStatus> Transport::put_rendezvous(Initiator from, NodeId dst,
                                         PutRequest req, PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // RTS (no data).
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  WqeFor<kIb> rts;
  OpStatus st = OpStatus::kOk;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, rts);
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  st = co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                        p.nic_tx_overhead + machine_.serialize_with_header(0),
                        p.header_bytes);
  if (st != OpStatus::kOk) co_return st;

  // Target: translate + register the destination region.
  auto& hcpu = handler_cpu(dst, req.target_core);
  bool pin_failed = false;
  st = co_await admit_rendezvous<kIb>(from, dst, hcpu, rts, pin_failed);
  if (st != OpStatus::kOk) co_return st;
  auto serve = target_.serve_put_rendezvous(dst, req, len);
  co_await sim.delay(
      scaled(dst, p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                      p.dereg_base * serve.reg_evicted_handles +
                      reg_cache_cost(dst, serve.dst_addr, len, pin_failed)));
  hcpu.release();

  // CTS back to the initiator; the RTS WQE retires here.
  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  st = co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                        p.nic_tx_overhead + machine_.serialize_with_header(0),
                        p.header_bytes);
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.core(from.node, from.core).use(reply_overhead<kIb>());
  rts.retire();

  // Stream the payload zero-copy (an RDMA write from the registered user
  // buffer on IB); local completion when the NIC has drained it.
  if (req.local_buf != kNullAddr) {
    co_await ensure_local_registered(from, req.local_buf, len);
  }
  WqeFor<kIb> payload;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, payload);
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  PutAck ack{serve.base};
  machine_.simulator().spawn(put_payload_remote<kIb>(
      from, dst, std::move(req), ack, std::move(on_ack), std::move(payload)));
  co_return OpStatus::kOk;
}

template <bool kIb>
Task<void> Transport::put_payload_remote(Initiator from, NodeId dst,
                                         PutRequest req, PutAck ack,
                                         PutAckHook on_ack,
                                         WqeFor<kIb> wqe) {
  const auto& p = machine_.params();
  if (co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                       p.nic_tx_overhead +
                           machine_.serialize_with_header(req.data.size()),
                       p.header_bytes + req.data.size()) == OpStatus::kOk) {
    // Data lands via DMA into the registered destination — no target CPU.
    target_.deliver_put_payload(dst, req.svd_handle, req.offset,
                                std::move(req.data));
    co_await machine_.core(from.node, from.core).use(reply_overhead<kIb>());
  } else {
    ack = PutAck{};  // lost like put_remote's legs: no base
  }
  wqe.retire();
  if (on_ack) on_ack(ack);
}

// --------------------------------------------------------------- RDMA ---

Task<OpStatus> Transport::rdma_get(Initiator from, NodeId dst, Addr raddr,
                                   std::uint32_t len, RdmaGetResult& result) {
  return ib_ ? rdma_get_leg<true>(from, dst, raddr, len, result)
             : rdma_get_leg<false>(from, dst, raddr, len, result);
}

void Transport::read_window(NodeId dst, Addr raddr, std::size_t len,
                            RdmaGetResult& result) {
  const RdmaWindow win = target_.rdma_memory(dst, raddr, len);
  result.nak = win.nak;
  if (win.ok()) result.data.assign(win.memory, win.memory + len);
}

template <bool kIb>
Task<OpStatus> Transport::rdma_get_leg(Initiator from, NodeId dst,
                                       Addr raddr, std::uint32_t len,
                                       RdmaGetResult& result) {
  // The read runs entirely on the NIC DMA engines (zero target-CPU
  // cycles); IB adds only the QP/CQ bookkeeping. Waits and traversals
  // re-arm `w` and `step`, as in get_eager.
  OpStatus st = OpStatus::kOk;
  WqeFor<kIb> wqe;
  sim::Resource::Waiter w;
  ProtocolEngine::Delivery step;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, wqe);
  if (st != OpStatus::kOk) co_return st;
  ++stats_.rdma_gets;

  // Post the read descriptor; the initiator NIC sends it to the target NIC.
  w.use(machine_.core(from.node, from.core), machine_.params().rdma_get_setup);
  co_await w;
  w.use(machine_.nic_dma(from.node), machine_.params().dma_engine_overhead +
                                         machine_.serialize_with_header(0));
  co_await w;
  stats_.wire_bytes += machine_.params().header_bytes;
  step = deliver(from.node, dst, &machine_.nic_dma(from.node),
                 machine_.params().dma_engine_overhead +
                     machine_.serialize_with_header(0),
                 machine_.params().header_bytes);
  st = co_await step;
  if (st != OpStatus::kOk) co_return st;

  // Target NIC DMA engine reads pinned memory and streams it back — the
  // remote CPU is not involved at all.
  w.acquire(machine_.nic_dma(dst));
  co_await w;
  read_window(dst, raddr, len, result);
  if (!result.ok()) {
    // NAK: window not pinned. Small control frame back.
    step = {machine_.simulator().delay(machine_.params().dma_engine_overhead),
            {}, {}};
    co_await step;
    machine_.nic_dma(dst).release();
    ++stats_.rdma_naks;
    step = deliver(dst, from.node, &machine_.nic_dma(dst),
                   machine_.params().dma_engine_overhead, 0);
    st = co_await step;
    if (st != OpStatus::kOk) co_return st;
    w.use(machine_.core(from.node, from.core),
          machine_.params().rdma_completion);
    co_await w;
    wqe.retire();
    co_return OpStatus::kOk;
  }
  step = {machine_.simulator().delay(machine_.params().dma_engine_overhead +
                                     machine_.serialize_with_header(len)),
          {}, {}};
  co_await step;
  machine_.nic_dma(dst).release();
  stats_.wire_bytes += machine_.params().header_bytes + len;
  step = deliver(dst, from.node, &machine_.nic_dma(dst),
                 machine_.params().dma_engine_overhead +
                     machine_.serialize_with_header(len),
                 machine_.params().header_bytes + len);
  st = co_await step;
  if (st != OpStatus::kOk) co_return st;

  // Completion detection at the initiator.
  w.use(machine_.core(from.node, from.core), machine_.params().rdma_completion);
  co_await w;
  wqe.retire();
  co_return OpStatus::kOk;
}

Task<RdmaPutResult> Transport::rdma_put(Initiator from, NodeId dst, Addr raddr,
                                        Bytes data, DoneHook on_done) {
  return ib_ ? rdma_put_leg<true>(from, dst, raddr, std::move(data),
                                  std::move(on_done))
             : rdma_put_leg<false>(from, dst, raddr, std::move(data),
                                   std::move(on_done));
}

template <bool kIb>
Task<RdmaPutResult> Transport::rdma_put_leg(Initiator from, NodeId dst,
                                            Addr raddr, Bytes data,
                                            DoneHook on_done) {
  // On IB the RDMA-write WQE retires at local completion (source buffer
  // drained); the landing half needs no QP slot.
  WqeFor<kIb> wqe;
  OpStatus st = OpStatus::kOk;
  if constexpr (kIb) st = co_await post_wqe(from.node, dst, wqe);
  if (st != OpStatus::kOk) co_return RdmaPutResult{RdmaNak::kNone, st};
  ++stats_.rdma_puts;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = data.size();

  const RdmaWindow win = target_.rdma_memory(dst, raddr, len);
  if (!win.ok()) {
    // NAK discovered after a descriptor roundtrip.
    ++stats_.rdma_naks;
    co_await machine_.core(from.node, from.core).use(p.rdma_put_setup);
    if (!machine_.faults().enabled() && !machine_.fabric().enabled()) {
      co_await sim.delay(machine_.latency(from.node, dst) +
                         machine_.latency(dst, from.node));
    } else {
      st = co_await deliver(from.node, dst, &machine_.nic_dma(from.node),
                            p.dma_engine_overhead, 0);
      if (st != OpStatus::kOk) co_return RdmaPutResult{RdmaNak::kNone, st};
      st = co_await deliver(dst, from.node, &machine_.nic_dma(dst),
                            p.dma_engine_overhead, 0);
      if (st != OpStatus::kOk) co_return RdmaPutResult{RdmaNak::kNone, st};
    }
    co_await machine_.core(from.node, from.core).use(p.rdma_completion);
    wqe.retire();
    co_return RdmaPutResult{win.nak, OpStatus::kOk};
  }

  co_await machine_.core(from.node, from.core).use(p.rdma_put_setup);
  // Local completion when the DMA engine has drained the source buffer.
  co_await machine_.nic_dma(from.node)
      .use(p.dma_engine_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  machine_.simulator().spawn(rdma_put_landing(from, dst, win.memory,
                                              std::move(data),
                                              std::move(on_done)));
  wqe.retire();
  co_return RdmaPutResult{};
}

Task<void> Transport::rdma_put_landing(Initiator from, NodeId dst,
                                       std::byte* dst_mem,
                                       Bytes data,
                                       DoneHook on_done) {
  const auto& p = machine_.params();
  // A failed leg never lands its data, but still completes locally so
  // fences cannot deadlock; the loss is visible in stats().timeouts.
  if (co_await deliver(from.node, dst, &machine_.nic_dma(from.node),
                       p.dma_engine_overhead +
                           machine_.serialize_with_header(data.size()),
                       p.header_bytes + data.size()) == OpStatus::kOk) {
    std::copy(data.begin(), data.end(), dst_mem);
  }
  if (on_done) on_done();
}

// ------------------------------------------------------------ control ---

Task<OpStatus> Transport::control(Initiator from, NodeId dst,
                                  ControlMsg msg) {
  ++stats_.control_msgs;
  const auto& p = machine_.params();

  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(kControlBytes));
  stats_.wire_bytes += p.header_bytes + kControlBytes;
  const OpStatus st = co_await deliver(
      from.node, dst, &machine_.nic_tx(from.node),
      p.nic_tx_overhead + machine_.serialize_with_header(kControlBytes),
      p.header_bytes + kControlBytes);
  if (st != OpStatus::kOk) co_return st;

  auto& hcpu = handler_cpu(dst, 0);
  co_await hcpu.use(scaled(dst, p.recv_overhead));
  target_.serve_control(dst, from.node, msg);
  co_return OpStatus::kOk;
}

// ------------------------------------------------------------ atomics ---

Task<OpStatus> Transport::amo(Initiator from, NodeId dst,
                              const AmoRequest& req, AmoResult& result) {
  // A plain dispatcher, like get(): folding the NIC lowering into the AM
  // coroutine would grow every AM AMO frame by the NIC path's locals.
  if (ib_ && req.raddr != kNullAddr) return amo_nic(from, dst, req, result);
  return amo_am(from, dst, req, result);
}

Task<OpStatus> Transport::amo_am(Initiator from, NodeId dst,
                                 const AmoRequest& req, AmoResult& result) {
  // AM-handler lowering (GM/LAPI and the IB cold-cache fallback): a
  // small request AM serviced on the handler CPU at the home node. The
  // handler CPU's mutual exclusion is what makes the read-modify-write
  // indivisible, and because the handler only runs after deliver() has
  // accepted the leg — the ProtocolEngine's sequence window suppresses
  // duplicated or retransmitted copies first — a FAA applies exactly
  // once however many times its request crosses the wire. Waits and
  // traversals re-arm `w` and `step`, as in get_eager.
  ++stats_.amo_msgs;
  OpStatus st = OpStatus::kOk;
  sim::Resource::Waiter w;
  ProtocolEngine::Delivery step;

  w.use(machine_.core(from.node, from.core), machine_.params().send_overhead);
  co_await w;
  w.use(machine_.nic_tx(from.node),
        machine_.params().nic_tx_overhead +
            machine_.serialize_with_header(kAmoBytes));
  co_await w;
  stats_.wire_bytes += machine_.params().header_bytes + kAmoBytes;
  step = deliver(from.node, dst, &machine_.nic_tx(from.node),
                 machine_.params().nic_tx_overhead +
                     machine_.serialize_with_header(kAmoBytes),
                 machine_.params().header_bytes + kAmoBytes);
  st = co_await step;
  if (st != OpStatus::kOk) co_return st;

  // Home node: translate the handle and apply the verb on the handler
  // CPU — serialized against every other AM, so concurrent atomics from
  // any number of initiators linearize here.
  w.acquire(handler_cpu(dst, req.target_core));
  co_await w;
  step = {machine_.simulator().delay(scaled(
              dst, machine_.params().recv_overhead +
                       machine_.params().svd_lookup)),
          {}, {}};
  co_await step;
  result = AmoResult{RdmaNak::kNone, target_.serve_amo(dst, req),
                     /*offloaded=*/false};
  handler_cpu(dst, req.target_core).release();

  // Reply carrying the old value.
  w.use(machine_.nic_tx(dst),
        machine_.params().nic_tx_overhead +
            machine_.serialize_with_header(sizeof(result.value)));
  co_await w;
  stats_.wire_bytes += machine_.params().header_bytes + sizeof(result.value);
  step = deliver(dst, from.node, &machine_.nic_tx(dst),
                 machine_.params().nic_tx_overhead +
                     machine_.serialize_with_header(sizeof(result.value)),
                 machine_.params().header_bytes + sizeof(result.value));
  st = co_await step;
  if (st != OpStatus::kOk) co_return st;
  w.use(machine_.core(from.node, from.core), machine_.params().recv_overhead);
  co_await w;
  co_return OpStatus::kOk;
}

Task<OpStatus> Transport::amo_nic(Initiator from, NodeId dst,
                                  const AmoRequest& req, AmoResult& result) {
  // NIC-offloaded verbs atomic (fetch-and-add / compare-and-swap WQE):
  // the target's DMA engine performs the fetch-modify-write against
  // pinned memory — no target CPU, neither application core nor progress
  // engine. The DMA engine's mutual exclusion is the HCA's atomicity
  // guarantee; the request leg rides the ProtocolEngine's sequence
  // window, so a retransmitted request can never double-apply.
  ++stats_.amo_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  ib::Wqe wqe;
  OpStatus st = co_await post_wqe(from.node, dst, wqe);
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.core(from.node, from.core).use(p.rdma_get_setup);
  co_await machine_.nic_dma(from.node)
      .use(p.dma_engine_overhead + machine_.serialize_with_header(kAmoBytes));
  stats_.wire_bytes += p.header_bytes + kAmoBytes;
  st = co_await deliver(
      from.node, dst, &machine_.nic_dma(from.node),
      p.dma_engine_overhead + machine_.serialize_with_header(kAmoBytes),
      p.header_bytes + kAmoBytes);
  if (st != OpStatus::kOk) co_return st;

  auto& dma = machine_.nic_dma(dst);
  co_await dma.acquire();
  const RdmaWindow win =
      target_.rdma_memory(dst, req.raddr, sizeof(std::uint64_t));
  if (!win.ok()) {
    // NAK: window not pinned. Small control frame back; the caller
    // invalidates its cache entry and retries through the AM lowering.
    co_await sim.delay(p.dma_engine_overhead);
    dma.release();
    ++stats_.rdma_naks;
    st = co_await deliver(dst, from.node, &machine_.nic_dma(dst),
                          p.dma_engine_overhead, 0);
    if (st != OpStatus::kOk) co_return st;
    co_await machine_.core(from.node, from.core).use(p.rdma_completion);
    wqe.retire();
    result = AmoResult{win.nak, 0, /*offloaded=*/false};
    co_return OpStatus::kOk;
  }
  std::uint64_t old = 0;
  std::memcpy(&old, win.memory, sizeof(old));
  const std::uint64_t next =
      req.verb == AmoVerb::kFaa ? old + req.operand
                                : (old == req.compare ? req.operand : old);
  std::memcpy(win.memory, &next, sizeof(next));
  ++stats_.nic_atomics;
  co_await sim.delay(p.dma_engine_overhead +
                     machine_.serialize_with_header(sizeof(old)));
  dma.release();
  stats_.wire_bytes += p.header_bytes + sizeof(old);
  st = co_await deliver(
      dst, from.node, &machine_.nic_dma(dst),
      p.dma_engine_overhead + machine_.serialize_with_header(sizeof(old)),
      p.header_bytes + sizeof(old));
  if (st != OpStatus::kOk) co_return st;
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  wqe.retire();
  result = AmoResult{RdmaNak::kNone, old, /*offloaded=*/true};
  co_return OpStatus::kOk;
}

// -------------------------------------------------- aggregated batches ---

Task<RdmaBatchResult> Transport::rdma_batch(Initiator from, NodeId dst,
                                            RdmaBatch batch) {
  ++stats_.batch_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  std::size_t put_bytes = 0, get_bytes = 0;
  Duration unpack = 0;  // per-leg unpack cost at the target
  for (const auto& op : batch.ops) {
    if (op.is_get) {
      ++stats_.batched_gets;
      get_bytes += op.len;
    } else {
      ++stats_.batched_puts;
      put_bytes += op.data.size();
    }
    unpack += p.svd_lookup + p.copy_time(op.len);
  }
  const std::size_t fwd_bytes =
      kBatchMemberBytes * batch.size() + put_bytes;

  // Initiator: pack the member descriptors and PUT payloads into one send
  // bounce buffer (a single send_overhead amortised over every member —
  // the aggregation win), then inject the framed message.
  Duration pack = p.send_overhead;
  if (put_bytes > 0) pack += p.copy_time(put_bytes);
  co_await machine_.core(from.node, from.core).use(pack);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(fwd_bytes));
  stats_.wire_bytes += p.header_bytes + fwd_bytes;
  OpStatus st = co_await deliver(
      from.node, dst, &machine_.nic_tx(from.node),
      p.nic_tx_overhead + machine_.serialize_with_header(fwd_bytes),
      p.header_bytes + fwd_bytes);
  if (st != OpStatus::kOk) co_return RdmaBatchResult{{}, st};

  // Target: one dispatch, then each member is unpacked and applied on the
  // handler CPU in turn (svd_lookup + copy per leg). Because GM's handler
  // CPU is the application core itself, the per-leg cost still steals
  // compute time there — the paper's no-overlap effect is preserved per
  // member, only the per-message envelope is amortised. The batch is
  // applied exactly once, after deliver() has accepted the leg: a
  // retransmitted copy is suppressed by the ProtocolEngine's sequence
  // window before it ever reaches this point, so member ops can never be
  // duplicate-applied.
  auto& hcpu = handler_cpu(dst, batch.ops.empty() ? 0
                                                  : batch.ops.front().target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead));
  co_await sim.delay(scaled(dst, unpack));
  auto serve = target_.serve_batch(dst, std::move(batch));
  hcpu.release();

  // Single reply carrying every GET member's data (ack-only when the
  // batch held no GETs).
  co_await machine_.nic_tx(dst).use(
      p.nic_tx_overhead + machine_.serialize_with_header(get_bytes));
  stats_.wire_bytes += p.header_bytes + get_bytes;
  st = co_await deliver(
      dst, from.node, &machine_.nic_tx(dst),
      p.nic_tx_overhead + machine_.serialize_with_header(get_bytes),
      p.header_bytes + get_bytes);
  if (st != OpStatus::kOk) co_return RdmaBatchResult{{}, st};

  // Initiator: one receive dispatch, then scatter the GET payloads out of
  // the bounce buffer.
  Duration recv_cost = p.recv_overhead;
  if (get_bytes > 0) recv_cost += p.copy_time(get_bytes);
  co_await machine_.core(from.node, from.core).use(recv_cost);

  co_return RdmaBatchResult{std::move(serve.get_data), OpStatus::kOk};
}

}  // namespace xlupc::net
