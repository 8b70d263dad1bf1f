#include "net/ib/ib_transport.h"

#include <cstring>
#include <string>
#include <utility>

#include "net/topology.h"

namespace xlupc::net {

using sim::Duration;
using sim::Task;

IbTransport::IbTransport(Machine& machine, AmTarget& target)
    : Transport(machine, target), cqs_(machine.nodes()) {}

// ------------------------------------------------------- queue pairs ---

ib::QueuePair& IbTransport::qp(NodeId src, NodeId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = qps_.find(key);
  if (it == qps_.end()) {
    it = qps_
             .try_emplace(key, machine_.simulator(),
                          machine_.params().sq_depth)
             .first;
  }
  return it->second;
}

const ib::QueuePair* IbTransport::queue_pair(NodeId src, NodeId dst) const {
  const auto it = qps_.find(std::make_pair(src, dst));
  return it == qps_.end() ? nullptr : &it->second;
}

Task<void> IbTransport::qp_post(NodeId src, NodeId dst) {
  ib::QueuePair& q = qp(src, dst);
  if (q.in_error()) {
    // The connection was error-fenced by a failure event. Posting against
    // a peer the detector still considers dead is pointless — surface the
    // typed error instead of re-establishing a connection that can only
    // fail again.
    if (protocol().peer_declared_dead(dst)) {
      throw PeerDeadError(dst, "ib: connection " + std::to_string(src) +
                                   "->" + std::to_string(dst) +
                                   " is error-fenced and the peer is dead");
    }
    // Tear down and re-establish: one connection-setup round trip, then
    // the QP comes back RTS as a fresh incarnation. Resyncing both
    // directions of the link rebases the sequence stamps onto what the
    // receiver has applied, so replayed traffic stays apply-once.
    co_await machine_.simulator().delay(2 * machine_.latency(src, dst));
    q.reactivate();
    ++stats_.qp_reconnects;
    protocol_mut().resync_link(src, dst);
    protocol_mut().resync_link(dst, src);
  }
  ++stats_.qp_posts;
  if (q.would_stall()) ++stats_.sq_stalls;
  co_await q.post_send();
}

void IbTransport::qp_complete(NodeId src, NodeId dst) {
  qp(src, dst).complete();
  cqs_[src].completed();
}

void IbTransport::on_peer_dead(NodeId node) {
  for (auto& [key, q] : qps_) {
    if ((key.first == node || key.second == node) && !q.in_error()) {
      q.to_error();
      ++stats_.qp_errors;
    }
  }
}

void IbTransport::on_link_down(NodeId a, NodeId b) {
  // With a redundant path the protocol engine reroutes around the dark
  // link and the connection stays up; only a path-less pair fences.
  if (redundant_paths(machine_.params().topology, a, b) > 0) return;
  for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
    auto it = qps_.find(key);
    if (it != qps_.end() && !it->second.in_error()) {
      it->second.to_error();
      ++stats_.qp_errors;
    }
  }
}

// ---------------------------------------------------------------- GET ---

Task<GetReply> IbTransport::get(Initiator from, NodeId dst, GetRequest req) {
  if (req.len <= machine_.params().eager_limit) {
    ++stats_.am_gets;
    return get_eager(from, dst, std::move(req));
  }
  ++stats_.rendezvous_gets;
  return get_rendezvous(from, dst, std::move(req));
}

Task<GetReply> IbTransport::get_eager(Initiator from, NodeId dst,
                                      GetRequest req) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  // Initiator: the request is header-only, so the WQE carries it inline
  // (no send-side copy, ever).
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await qp_post(from.node, dst);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target: the progress engine (comm CPU via handler_cpu) translates the
  // handle and copies the data into the reply bounce buffer; application
  // cores never see the request.
  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
  auto serve = target_.serve_get(dst, req);
  Duration extra = p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                   p.dereg_base * serve.reg_evicted_handles;
  extra += p.copy_time(req.len);  // copy into the send bounce buffer
  co_await sim.delay(scaled(dst, extra));
  hcpu.release();

  // Reply: an RDMA write into the initiator's preposted eager buffer.
  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(req.len));
  stats_.wire_bytes += p.header_bytes + req.len;
  co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                   p.nic_tx_overhead + machine_.serialize_with_header(req.len),
                   p.header_bytes + req.len);

  // Initiator: poll the CQE; small payloads are copied out of the eager
  // buffer, larger ones stay in place until the caller consumes them.
  Duration recv_cost = p.rdma_completion;
  if (req.len <= p.both_copy_limit) recv_cost += p.copy_time(req.len);
  co_await machine_.core(from.node, from.core).use(recv_cost);
  qp_complete(from.node, dst);

  co_return GetReply{std::move(serve.data), serve.base};
}

Task<GetReply> IbTransport::get_rendezvous(Initiator from, NodeId dst,
                                           GetRequest req) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  // Initiator: register the private landing buffer (the reply is an RDMA
  // write straight into it), then post the request.
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  if (req.local_buf != kNullAddr) {
    co_await charge_reg_cache(machine_.core(from.node, from.core), from.node,
                              req.local_buf, req.len);
  }
  co_await qp_post(from.node, dst);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target: the progress engine translates the handle and registers the
  // source region. A transient registration failure is a receiver-not-
  // ready condition: the responder NAKs, the initiator's QP waits out the
  // RNR timer and re-sends, up to the retry budget. The handlers are
  // invoked exactly once, after a round that admits the request — a
  // retried request can never be duplicate-applied.
  AmTarget::GetServe serve;
  std::uint32_t attempt = 0;
  for (;;) {
    auto& hcpu = handler_cpu(dst, req.target_core);
    co_await hcpu.acquire();
    co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
    const bool pin_fail =
        machine_.faults().enabled() && machine_.faults().pin_fails(dst);
    if (pin_fail && attempt < p.rnr_retry_limit) {
      ++stats_.rnr_naks;
      hcpu.release();
      // RNR NAK frame back to the initiator.
      co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                        machine_.serialize_with_header(0));
      stats_.wire_bytes += p.header_bytes;
      co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                       p.nic_tx_overhead + machine_.serialize_with_header(0),
                       p.header_bytes);
      // Initiator: the NAKed WQE completes in error; wait out the RNR
      // timer, then re-post the request.
      co_await machine_.core(from.node, from.core).use(p.rdma_completion);
      qp_complete(from.node, dst);
      co_await sim.delay(p.rnr_backoff);
      ++stats_.rnr_retries;
      ++attempt;
      co_await machine_.core(from.node, from.core).use(p.send_overhead);
      co_await qp_post(from.node, dst);
      co_await machine_.nic_tx(from.node)
          .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
      stats_.wire_bytes += p.header_bytes;
      co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                       p.nic_tx_overhead + machine_.serialize_with_header(0),
                       p.header_bytes);
      continue;
    }
    serve = target_.serve_get(dst, req);
    Duration cost = p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                    p.dereg_base * serve.reg_evicted_handles;
    if (pin_fail) {
      // Retry budget exhausted: degrade to staging through bounce
      // buffers instead of NAKing forever.
      ++stats_.bounce_fallbacks;
      cost += p.copy_time(req.len);
    } else {
      const auto rl = reg_caches_[dst].ensure(serve.src_addr, req.len);
      if (rl.bounced) {
        ++stats_.bounce_fallbacks;
        cost += p.copy_time(req.len);  // stage through bounce buffers
      } else if (!rl.hit) {
        cost += p.reg_time(rl.registered, 1);
      }
      cost += p.dereg_base * rl.evicted_regions;
    }
    co_await sim.delay(scaled(dst, cost));
    hcpu.release();
    break;
  }

  // Zero-copy reply: RDMA write into the registered landing buffer.
  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(req.len));
  stats_.wire_bytes += p.header_bytes + req.len;
  co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                   p.nic_tx_overhead + machine_.serialize_with_header(req.len),
                   p.header_bytes + req.len);

  // Initiator: completion is a CQ poll — the data is already in place.
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  qp_complete(from.node, dst);
  co_return GetReply{std::move(serve.data), serve.base};
}

// ---------------------------------------------------------------- PUT ---

Task<void> IbTransport::put(Initiator from, NodeId dst, PutRequest req,
                            PutAckHook on_ack) {
  const std::size_t len = req.data.size();
  const auto& p = machine_.params();
  if (len <= p.inline_limit) {
    ++stats_.am_puts;
    ++stats_.inline_sends;
    return put_eager(from, dst, std::move(req), std::move(on_ack),
                     /*inline_send=*/true);
  }
  if (len <= p.eager_limit) {
    ++stats_.am_puts;
    return put_eager(from, dst, std::move(req), std::move(on_ack),
                     /*inline_send=*/false);
  }
  ++stats_.rendezvous_puts;
  return put_rendezvous(from, dst, std::move(req), std::move(on_ack));
}

Task<void> IbTransport::put_eager(Initiator from, NodeId dst, PutRequest req,
                                  PutAckHook on_ack, bool inline_send) {
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // Initiator: an inline send carries the payload in the WQE itself — the
  // user buffer is reusable at post time and no bounce copy is charged.
  // Larger eager sends copy into a preregistered bounce buffer first.
  Duration send_cost = p.send_overhead;
  if (!inline_send) send_cost += p.copy_time(len);
  co_await machine_.core(from.node, from.core).use(send_cost);
  co_await qp_post(from.node, dst);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  // The remote half proceeds in the background; PUT is locally complete.
  machine_.simulator().spawn(
      put_remote(from, dst, std::move(req), std::move(on_ack)));
}

Task<void> IbTransport::put_remote(Initiator from, NodeId dst, PutRequest req,
                                   PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  try {
    co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                     p.nic_tx_overhead + machine_.serialize_with_header(len),
                     p.header_bytes + len);
  } catch (const TransportTimeout&) {
    // Detached half: the initiator already completed locally. Retire the
    // WQE and complete the operation so fences cannot deadlock; the loss
    // is visible in stats().timeouts.
    qp_complete(from.node, dst);
    if (on_ack) on_ack(PutAck{});
    co_return;
  }

  // Target: progress-engine dispatch (application cores uninvolved).
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
  try {
    co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                     p.nic_tx_overhead + machine_.serialize_with_header(0),
                     p.header_bytes);
  } catch (const TransportTimeout&) {
    qp_complete(from.node, dst);
    if (on_ack) on_ack(PutAck{});
    co_return;
  }
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  qp_complete(from.node, dst);
  if (on_ack) on_ack(PutAck{serve.base});
}

Task<void> IbTransport::put_rendezvous(Initiator from, NodeId dst,
                                       PutRequest req, PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // RTS (no data).
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await qp_post(from.node, dst);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target: translate + register the destination region, answering a
  // transient registration failure with an RNR NAK (same discipline as
  // the rendezvous GET; handlers run exactly once).
  AmTarget::PutServe serve;
  std::uint32_t attempt = 0;
  for (;;) {
    auto& hcpu = handler_cpu(dst, req.target_core);
    co_await hcpu.acquire();
    co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
    const bool pin_fail =
        machine_.faults().enabled() && machine_.faults().pin_fails(dst);
    if (pin_fail && attempt < p.rnr_retry_limit) {
      ++stats_.rnr_naks;
      hcpu.release();
      co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                        machine_.serialize_with_header(0));
      stats_.wire_bytes += p.header_bytes;
      co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                       p.nic_tx_overhead + machine_.serialize_with_header(0),
                       p.header_bytes);
      co_await machine_.core(from.node, from.core).use(p.rdma_completion);
      qp_complete(from.node, dst);
      co_await sim.delay(p.rnr_backoff);
      ++stats_.rnr_retries;
      ++attempt;
      co_await machine_.core(from.node, from.core).use(p.send_overhead);
      co_await qp_post(from.node, dst);
      co_await machine_.nic_tx(from.node)
          .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
      stats_.wire_bytes += p.header_bytes;
      co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                       p.nic_tx_overhead + machine_.serialize_with_header(0),
                       p.header_bytes);
      continue;
    }
    serve = target_.serve_put_rendezvous(dst, req, len);
    Duration cost = p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                    p.dereg_base * serve.reg_evicted_handles;
    if (pin_fail) {
      ++stats_.bounce_fallbacks;
      cost += p.copy_time(len);  // retry budget exhausted: bounce staging
    } else {
      const auto rl = reg_caches_[dst].ensure(serve.dst_addr, len);
      if (rl.bounced) {
        ++stats_.bounce_fallbacks;
        cost += p.copy_time(len);  // stage through bounce buffers
      } else if (!rl.hit) {
        cost += p.reg_time(rl.registered, 1);
      }
      cost += p.dereg_base * rl.evicted_regions;
    }
    co_await sim.delay(scaled(dst, cost));
    hcpu.release();
    break;
  }

  // CTS back to the initiator; the RTS WQE retires here.
  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  qp_complete(from.node, dst);

  // Payload: zero-copy RDMA write from the registered user buffer; local
  // completion when the NIC has drained it.
  if (req.local_buf != kNullAddr) {
    co_await charge_reg_cache(machine_.core(from.node, from.core), from.node,
                              req.local_buf, len);
  }
  co_await qp_post(from.node, dst);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  PutAck ack{serve.base};
  machine_.simulator().spawn(
      put_payload_remote(from, dst, std::move(req), ack, std::move(on_ack)));
}

Task<void> IbTransport::put_payload_remote(Initiator from, NodeId dst,
                                           PutRequest req, PutAck ack,
                                           PutAckHook on_ack) {
  const auto& p = machine_.params();
  try {
    co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                     p.nic_tx_overhead +
                         machine_.serialize_with_header(req.data.size()),
                     p.header_bytes + req.data.size());
  } catch (const TransportTimeout&) {
    qp_complete(from.node, dst);
    if (on_ack) on_ack(PutAck{});
    co_return;
  }
  // Data lands via DMA into the registered destination — no target CPU.
  target_.deliver_put_payload(dst, req.svd_handle, req.offset,
                              std::move(req.data));
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  qp_complete(from.node, dst);
  if (on_ack) on_ack(ack);
}

// --------------------------------------------------------------- RDMA ---

Task<RdmaGetResult> IbTransport::rdma_get(Initiator from, NodeId dst,
                                          Addr raddr, std::uint32_t len) {
  // The base one-sided read already runs entirely on the NIC DMA engines
  // (zero target-CPU cycles); verbs adds only the QP/CQ bookkeeping.
  co_await qp_post(from.node, dst);
  auto result = co_await Transport::rdma_get(from, dst, raddr, len);
  qp_complete(from.node, dst);
  co_return result;
}

Task<AmoResult> IbTransport::amo(Initiator from, NodeId dst, AmoRequest req) {
  if (req.raddr == kNullAddr) {
    // Cold cache: no remote address to aim the NIC atomic at, so the verb
    // rides the two-sided lowering on the progress engine (still zero
    // application-core cycles at the target, unlike GM).
    co_return co_await Transport::amo(from, dst, std::move(req));
  }

  // NIC-offloaded verbs atomic (fetch-and-add / compare-and-swap WQE):
  // the target's DMA engine performs the fetch-modify-write against
  // pinned memory — no target CPU, neither application core nor progress
  // engine. The DMA engine's mutual exclusion is the HCA's atomicity
  // guarantee; the request leg rides the ProtocolEngine's sequence
  // window, so a retransmitted request can never double-apply.
  ++stats_.amo_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  co_await qp_post(from.node, dst);
  co_await machine_.core(from.node, from.core).use(p.rdma_get_setup);
  co_await machine_.nic_dma(from.node)
      .use(p.dma_engine_overhead + machine_.serialize_with_header(kAmoBytes));
  stats_.wire_bytes += p.header_bytes + kAmoBytes;
  co_await deliver(
      from.node, dst, &machine_.nic_dma(from.node),
      p.dma_engine_overhead + machine_.serialize_with_header(kAmoBytes),
      p.header_bytes + kAmoBytes);

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
    co_await deliver(dst, from.node, &machine_.nic_dma(dst),
                     p.dma_engine_overhead, 0);
    co_await machine_.core(from.node, from.core).use(p.rdma_completion);
    qp_complete(from.node, dst);
    co_return AmoResult{win.nak, 0, /*offloaded=*/false};
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
  co_await deliver(
      dst, from.node, &machine_.nic_dma(dst),
      p.dma_engine_overhead + machine_.serialize_with_header(sizeof(old)),
      p.header_bytes + sizeof(old));
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  qp_complete(from.node, dst);
  co_return AmoResult{RdmaNak::kNone, old, /*offloaded=*/true};
}

Task<RdmaPutResult> IbTransport::rdma_put(Initiator from, NodeId dst,
                                          Addr raddr,
                                          Bytes data,
                                          DoneHook on_done) {
  co_await qp_post(from.node, dst);
  // The base write returns at local completion (source buffer drained);
  // the RDMA-write WQE retires then — the landing half needs no QP slot.
  auto result = co_await Transport::rdma_put(from, dst, raddr,
                                             std::move(data),
                                             std::move(on_done));
  qp_complete(from.node, dst);
  co_return result;
}

}  // namespace xlupc::net
