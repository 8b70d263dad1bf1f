#include "net/transport.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/ib/ib_transport.h"

namespace xlupc::net {

using sim::Duration;
using sim::Task;

Transport::Transport(Machine& machine, AmTarget& target)
    : machine_(machine), target_(target), protocol_(machine) {
  reg_caches_.reserve(machine.nodes());
  for (std::uint32_t n = 0; n < machine.nodes(); ++n) {
    reg_caches_.emplace_back(machine.params().max_dmaable_bytes);
  }
}

void Transport::reset_stats() {
  stats_ = TransportStats{};
  protocol_.reset_stats();
  for (auto& rc : reg_caches_) rc.reset_counters();
}

// ------------------------------------------------- statistics views ---

const TransportStats& Transport::stats() const noexcept {
  // The reliability counters live in the shared ProtocolEngine (one
  // state machine for GM and LAPI alike); merge them into the struct
  // view on every read so the two can never drift.
  merged_stats_ = stats_;
  const ProtocolStats& ps = protocol_.stats();
  merged_stats_.retransmits = ps.retransmits;
  merged_stats_.timeouts = ps.timeouts;
  merged_stats_.dropped_msgs = ps.dropped_msgs;
  merged_stats_.corrupt_msgs = ps.corrupt_msgs;
  merged_stats_.duplicate_msgs = ps.duplicate_msgs;
  merged_stats_.backoff_ns = ps.backoff_ns;
  merged_stats_.nic_stall_waits = ps.nic_stall_waits;
  merged_stats_.wire_bytes += ps.retx_wire_bytes;
  merged_stats_.link_down_drops = ps.link_down_drops;
  merged_stats_.failover_routes = ps.failover_routes;
  merged_stats_.peer_dead_drops = ps.peer_dead_drops;
  merged_stats_.link_resyncs = ps.link_resyncs;
  return merged_stats_;
}

void Transport::on_peer_dead(NodeId /*node*/) {
  // GM/LAPI keep no per-peer connection state: nothing to tear down.
  // In-flight legs to the dead peer fail fast inside the protocol
  // engine's delivery loop instead of burning the retransmit budget.
}

void Transport::on_link_down(NodeId /*a*/, NodeId /*b*/) {}

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

void TransportStats::fold_into(sim::MetricsRegistry& reg, bool faults_enabled,
                               bool coalescing_enabled,
                               bool ib_enabled,
                               bool fabric_enabled,
                               bool amo_enabled) const {
  reg.set("transport.gets.eager", am_gets);
  reg.set("transport.gets.rendezvous", rendezvous_gets);
  reg.set("transport.puts.eager", am_puts);
  reg.set("transport.puts.rendezvous", rendezvous_puts);
  reg.set("transport.rdma.gets", rdma_gets);
  reg.set("transport.rdma.puts", rdma_puts);
  reg.set("transport.rdma.naks", rdma_naks);
  reg.set("transport.control_msgs", control_msgs);
  reg.set("transport.wire_bytes", wire_bytes);
  // Folded only when the CoalescingEngine is enabled, so coalescing-off
  // reports stay byte-identical to builds that predate the batch layer.
  if (coalescing_enabled) {
    reg.set("transport.batch_msgs", batch_msgs);
    reg.set("transport.batched_gets", batched_gets);
    reg.set("transport.batched_puts", batched_puts);
  }
  // Folded only when the run issued atomics, so atomics-free reports
  // stay byte-identical to builds that predate the AMO verbs.
  if (amo_enabled) {
    reg.set("transport.amos", amo_msgs);
    if (ib_enabled) reg.set("transport.ib.nic_atomics", nic_atomics);
  }
  // Folded only for the IB transport, so GM/LAPI reports stay
  // byte-identical to builds that predate the verbs backend.
  if (ib_enabled) {
    reg.set("transport.ib.qp_posts", qp_posts);
    reg.set("transport.ib.sq_stalls", sq_stalls);
    reg.set("transport.ib.inline_sends", inline_sends);
    reg.set("transport.ib.rnr_naks", rnr_naks);
    reg.set("transport.ib.rnr_retries", rnr_retries);
  }
  // Folded only when a FaultPlan is enabled, so fault-free reports stay
  // byte-identical to builds that predate the fault layer.
  if (faults_enabled) {
    reg.set("fault.dropped_msgs", dropped_msgs);
    reg.set("fault.corrupt_msgs", corrupt_msgs);
    reg.set("fault.duplicate_msgs", duplicate_msgs);
    reg.set("fault.nic_stall_waits", nic_stall_waits);
    reg.set("reliability.retransmits", retransmits);
    reg.set("reliability.timeouts", timeouts);
    reg.set("reliability.bounce_fallbacks", bounce_fallbacks);
    reg.set_gauge("reliability.backoff_us", sim::to_us(backoff_ns));
  }
  // Folded only when the plan schedules link-down windows or crashes, so
  // message-fault-only reports stay byte-identical to builds that
  // predate the whole-fabric failure model (docs/FAULTS.md).
  if (fabric_enabled) {
    reg.set("fault.fabric.link_down_drops", link_down_drops);
    reg.set("fault.fabric.failover_routes", failover_routes);
    reg.set("fault.fabric.peer_dead_drops", peer_dead_drops);
    reg.set("fault.fabric.link_resyncs", link_resyncs);
    if (ib_enabled) {
      reg.set("fault.fabric.qp_errors", qp_errors);
      reg.set("fault.fabric.qp_reconnects", qp_reconnects);
    }
  }
}

Task<void> Transport::charge_reg_cache(sim::Resource& cpu, NodeId node,
                                       Addr addr, std::size_t len) {
  const auto& p = machine_.params();
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
  cost += p.dereg_base * rl.evicted_regions;  // lazy deregistration bill
  if (cost != 0) co_await cpu.use(cost);
}

Task<void> Transport::ensure_local_registered(Initiator from, Addr key,
                                              std::size_t len) {
  co_await charge_reg_cache(machine_.core(from.node, from.core), from.node,
                            key, len);
}

// ---------------------------------------------------------------- GET ---

Task<GetReply> Transport::get(Initiator from, NodeId dst, GetRequest req) {
  if (req.len <= machine_.params().eager_limit) {
    ++stats_.am_gets;
    return get_eager(from, dst, std::move(req));
  }
  ++stats_.rendezvous_gets;
  return get_rendezvous(from, dst, std::move(req));
}

Task<GetReply> Transport::get_eager(Initiator from, NodeId dst,
                                    GetRequest req) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  // Initiator: build and post the AM request (Fig. 5: "send Active Msg").
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target: header handler translates the SVD handle, optionally pins the
  // object, and copies the data into a bounce buffer.
  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
  auto serve = target_.serve_get(dst, req);
  Duration extra = p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                   p.dereg_base * serve.reg_evicted_handles;
  extra += p.copy_time(req.len);  // copy into the send bounce buffer
  co_await sim.delay(scaled(dst, extra));
  hcpu.release();

  // Reply carrying the data (plus the piggybacked base address).
  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(req.len));
  stats_.wire_bytes += p.header_bytes + req.len;
  co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                   p.nic_tx_overhead + machine_.serialize_with_header(req.len),
                   p.header_bytes + req.len);

  // Initiator: receive dispatch; small replies land in a preposted bounce
  // buffer and are copied out, larger ones land in place.
  Duration recv_cost = p.recv_overhead;
  if (req.len <= p.both_copy_limit) recv_cost += p.copy_time(req.len);
  co_await machine_.core(from.node, from.core).use(recv_cost);

  co_return GetReply{std::move(serve.data), serve.base};
}

Task<GetReply> Transport::get_rendezvous(Initiator from, NodeId dst,
                                         GetRequest req) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  // Initiator: post the request; pre-register the private receive buffer
  // for zero-copy delivery (registration cache, lazy deregistration).
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  if (req.local_buf != kNullAddr) {
    co_await charge_reg_cache(machine_.core(from.node, from.core), from.node,
                              req.local_buf, req.len);
  }
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target: translate, register the source region, directed zero-copy send.
  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
  auto serve = target_.serve_get(dst, req);
  const Duration pin_cost =
      p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
      p.dereg_base * serve.reg_evicted_handles;
  co_await sim.delay(scaled(dst, pin_cost));
  const auto rl = reg_caches_[dst].ensure(serve.src_addr, req.len);
  Duration reg_cost = 0;
  if (rl.bounced) {
    ++stats_.bounce_fallbacks;
    reg_cost += p.copy_time(req.len);  // stage through bounce buffers
  } else if (!rl.hit) {
    reg_cost += p.reg_time(rl.registered, 1);
  }
  reg_cost += p.dereg_base * rl.evicted_regions;
  co_await sim.delay(scaled(dst, reg_cost));
  hcpu.release();

  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(req.len));
  stats_.wire_bytes += p.header_bytes + req.len;
  co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                   p.nic_tx_overhead + machine_.serialize_with_header(req.len),
                   p.header_bytes + req.len);

  // Zero-copy landing: completion notification only.
  co_await machine_.core(from.node, from.core).use(p.recv_overhead);
  co_return GetReply{std::move(serve.data), serve.base};
}

// ---------------------------------------------------------------- PUT ---

Task<void> Transport::put(Initiator from, NodeId dst, PutRequest req,
                          PutAckHook on_ack) {
  if (req.data.size() <= machine_.params().eager_limit) {
    ++stats_.am_puts;
    return put_eager(from, dst, std::move(req), std::move(on_ack));
  }
  ++stats_.rendezvous_puts;
  return put_rendezvous(from, dst, std::move(req), std::move(on_ack));
}

Task<void> Transport::put_eager(Initiator from, NodeId dst, PutRequest req,
                                PutAckHook on_ack) {
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // Initiator: copy into a send bounce buffer (frees the user buffer —
  // local completion), then inject on the NIC.
  co_await machine_.core(from.node, from.core)
      .use(p.send_overhead + p.copy_time(len));
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  // The remote half proceeds in the background; PUT is locally complete.
  spawn_put_remote(from, dst, std::move(req), std::move(on_ack));
}

void Transport::spawn_put_remote(Initiator from, NodeId dst, PutRequest req,
                                 PutAckHook on_ack) {
  machine_.simulator().spawn(
      put_remote(from, dst, std::move(req), std::move(on_ack)));
}

Task<void> Transport::put_remote(Initiator from, NodeId dst, PutRequest req,
                                 PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  try {
    co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                     p.nic_tx_overhead + machine_.serialize_with_header(len),
                     p.header_bytes + len);
  } catch (const TransportTimeout&) {
    // Detached half: the initiator already completed locally. Complete the
    // operation (without a piggybacked base) so fences cannot deadlock;
    // the loss is visible in stats().timeouts.
    if (on_ack) on_ack(PutAck{});
    co_return;
  }

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
    if (on_ack) on_ack(PutAck{});
    co_return;
  }
  co_await machine_.core(from.node, from.core).use(p.recv_overhead);
  if (on_ack) on_ack(PutAck{serve.base});
}

Task<void> Transport::put_rendezvous(Initiator from, NodeId dst,
                                     PutRequest req, PutAckHook on_ack) {
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();
  const std::size_t len = req.data.size();

  // RTS (no data).
  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target: translate + register the destination region.
  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
  auto serve = target_.serve_put_rendezvous(dst, req, len);
  co_await sim.delay(
      scaled(dst, p.reg_time(serve.reg_new_bytes, serve.reg_new_handles) +
                      p.dereg_base * serve.reg_evicted_handles));
  const auto rl = reg_caches_[dst].ensure(serve.dst_addr, len);
  Duration reg_cost = 0;
  if (rl.bounced) {
    ++stats_.bounce_fallbacks;
    reg_cost += p.copy_time(len);  // stage through bounce buffers
  } else if (!rl.hit) {
    reg_cost += p.reg_time(rl.registered, 1);
  }
  reg_cost += p.dereg_base * rl.evicted_regions;
  co_await sim.delay(scaled(dst, reg_cost));
  hcpu.release();

  // CTS back to the initiator.
  co_await machine_.nic_tx(dst).use(p.nic_tx_overhead +
                                    machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(dst, from.node, &machine_.nic_tx(dst),
                   p.nic_tx_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);
  co_await machine_.core(from.node, from.core).use(p.recv_overhead);

  // Stream the payload zero-copy; local completion when the NIC has
  // drained the user buffer.
  if (req.local_buf != kNullAddr) {
    co_await charge_reg_cache(machine_.core(from.node, from.core), from.node,
                              req.local_buf, len);
  }
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  PutAck ack{serve.base};
  machine_.simulator().spawn(
      put_payload_remote(from, dst, std::move(req), ack, std::move(on_ack)));
}

Task<void> Transport::put_payload_remote(Initiator from, NodeId dst,
                                         PutRequest req, PutAck ack,
                                         PutAckHook on_ack) {
  const auto& p = machine_.params();
  try {
    co_await deliver(from.node, dst, &machine_.nic_tx(from.node),
                     p.nic_tx_overhead +
                         machine_.serialize_with_header(req.data.size()),
                     p.header_bytes + req.data.size());
  } catch (const TransportTimeout&) {
    if (on_ack) on_ack(PutAck{});
    co_return;
  }
  // Data lands via DMA into the registered destination — no target CPU.
  target_.deliver_put_payload(dst, req.svd_handle, req.offset,
                              std::move(req.data));
  co_await machine_.core(from.node, from.core).use(p.recv_overhead);
  if (on_ack) on_ack(ack);
}

// --------------------------------------------------------------- RDMA ---

Task<RdmaGetResult> Transport::rdma_get(Initiator from, NodeId dst, Addr raddr,
                                        std::uint32_t len) {
  ++stats_.rdma_gets;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  // Post the read descriptor; the initiator NIC sends it to the target NIC.
  co_await machine_.core(from.node, from.core).use(p.rdma_get_setup);
  co_await machine_.nic_dma(from.node)
      .use(p.dma_engine_overhead + machine_.serialize_with_header(0));
  stats_.wire_bytes += p.header_bytes;
  co_await deliver(from.node, dst, &machine_.nic_dma(from.node),
                   p.dma_engine_overhead + machine_.serialize_with_header(0),
                   p.header_bytes);

  // Target NIC DMA engine reads pinned memory and streams it back — the
  // remote CPU is not involved at all.
  auto& dma = machine_.nic_dma(dst);
  co_await dma.acquire();
  const RdmaWindow win = target_.rdma_memory(dst, raddr, len);
  if (!win.ok()) {
    // NAK: window not pinned. Small control frame back.
    co_await sim.delay(p.dma_engine_overhead);
    dma.release();
    ++stats_.rdma_naks;
    co_await deliver(dst, from.node, &machine_.nic_dma(dst),
                     p.dma_engine_overhead, 0);
    co_await machine_.core(from.node, from.core).use(p.rdma_completion);
    co_return RdmaGetResult{win.nak, {}};
  }
  Bytes out(win.memory, win.memory + len);
  co_await sim.delay(p.dma_engine_overhead +
                     machine_.serialize_with_header(len));
  dma.release();
  stats_.wire_bytes += p.header_bytes + len;
  co_await deliver(dst, from.node, &machine_.nic_dma(dst),
                   p.dma_engine_overhead + machine_.serialize_with_header(len),
                   p.header_bytes + len);

  // Completion detection at the initiator.
  co_await machine_.core(from.node, from.core).use(p.rdma_completion);
  co_return RdmaGetResult{RdmaNak::kNone, std::move(out)};
}

Task<RdmaPutResult> Transport::rdma_put(Initiator from, NodeId dst, Addr raddr,
                                        Bytes data,
                                        DoneHook on_done) {
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
      co_await deliver(from.node, dst, &machine_.nic_dma(from.node),
                       p.dma_engine_overhead, 0);
      co_await deliver(dst, from.node, &machine_.nic_dma(dst),
                       p.dma_engine_overhead, 0);
    }
    co_await machine_.core(from.node, from.core).use(p.rdma_completion);
    co_return RdmaPutResult{win.nak};
  }

  co_await machine_.core(from.node, from.core).use(p.rdma_put_setup);
  // Local completion when the DMA engine has drained the source buffer.
  co_await machine_.nic_dma(from.node)
      .use(p.dma_engine_overhead + machine_.serialize_with_header(len));
  stats_.wire_bytes += p.header_bytes + len;

  machine_.simulator().spawn(rdma_put_landing(from, dst, win.memory,
                                              std::move(data),
                                              std::move(on_done)));
  co_return RdmaPutResult{};
}

Task<void> Transport::rdma_put_landing(Initiator from, NodeId dst,
                                       std::byte* dst_mem,
                                       Bytes data,
                                       DoneHook on_done) {
  const auto& p = machine_.params();
  try {
    co_await deliver(from.node, dst, &machine_.nic_dma(from.node),
                     p.dma_engine_overhead +
                         machine_.serialize_with_header(data.size()),
                     p.header_bytes + data.size());
  } catch (const TransportTimeout&) {
    // Data never landed; complete locally so fences cannot deadlock. The
    // loss is visible in stats().timeouts.
    if (on_done) on_done();
    co_return;
  }
  std::copy(data.begin(), data.end(), dst_mem);
  if (on_done) on_done();
}

// ------------------------------------------------------------ control ---

Task<void> Transport::control(Initiator from, NodeId dst, ControlMsg msg) {
  ++stats_.control_msgs;
  const auto& p = machine_.params();

  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(kControlBytes));
  stats_.wire_bytes += p.header_bytes + kControlBytes;
  co_await deliver(
      from.node, dst, &machine_.nic_tx(from.node),
      p.nic_tx_overhead + machine_.serialize_with_header(kControlBytes),
      p.header_bytes + kControlBytes);

  auto& hcpu = handler_cpu(dst, 0);
  co_await hcpu.use(scaled(dst, p.recv_overhead));
  target_.serve_control(dst, from.node, msg);
}

// ------------------------------------------------------------ atomics ---

Task<AmoResult> Transport::amo(Initiator from, NodeId dst, AmoRequest req) {
  // AM-handler lowering (GM/LAPI and the IB cold-cache fallback): a
  // small request AM serviced on the handler CPU at the home node. The
  // handler CPU's mutual exclusion is what makes the read-modify-write
  // indivisible, and because the handler only runs after deliver() has
  // accepted the leg — the ProtocolEngine's sequence window suppresses
  // duplicated or retransmitted copies first — a FAA applies exactly
  // once however many times its request crosses the wire.
  ++stats_.amo_msgs;
  auto& sim = machine_.simulator();
  const auto& p = machine_.params();

  co_await machine_.core(from.node, from.core).use(p.send_overhead);
  co_await machine_.nic_tx(from.node)
      .use(p.nic_tx_overhead + machine_.serialize_with_header(kAmoBytes));
  stats_.wire_bytes += p.header_bytes + kAmoBytes;
  co_await deliver(
      from.node, dst, &machine_.nic_tx(from.node),
      p.nic_tx_overhead + machine_.serialize_with_header(kAmoBytes),
      p.header_bytes + kAmoBytes);

  // Home node: translate the handle and apply the verb on the handler
  // CPU — serialized against every other AM, so concurrent atomics from
  // any number of initiators linearize here.
  auto& hcpu = handler_cpu(dst, req.target_core);
  co_await hcpu.acquire();
  co_await sim.delay(scaled(dst, p.recv_overhead + p.svd_lookup));
  const std::uint64_t old = target_.serve_amo(dst, req);
  hcpu.release();

  // Reply carrying the old value.
  co_await machine_.nic_tx(dst).use(
      p.nic_tx_overhead + machine_.serialize_with_header(sizeof(old)));
  stats_.wire_bytes += p.header_bytes + sizeof(old);
  co_await deliver(
      dst, from.node, &machine_.nic_tx(dst),
      p.nic_tx_overhead + machine_.serialize_with_header(sizeof(old)),
      p.header_bytes + sizeof(old));
  co_await machine_.core(from.node, from.core).use(p.recv_overhead);
  co_return AmoResult{RdmaNak::kNone, old, /*offloaded=*/false};
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
  co_await deliver(
      from.node, dst, &machine_.nic_tx(from.node),
      p.nic_tx_overhead + machine_.serialize_with_header(fwd_bytes),
      p.header_bytes + fwd_bytes);

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
  co_await deliver(
      dst, from.node, &machine_.nic_tx(dst),
      p.nic_tx_overhead + machine_.serialize_with_header(get_bytes),
      p.header_bytes + get_bytes);

  // Initiator: one receive dispatch, then scatter the GET payloads out of
  // the bounce buffer.
  Duration recv_cost = p.recv_overhead;
  if (get_bytes > 0) recv_cost += p.copy_time(get_bytes);
  co_await machine_.core(from.node, from.core).use(recv_cost);

  co_return RdmaBatchResult{std::move(serve.get_data)};
}

std::unique_ptr<Transport> make_transport(Machine& machine, AmTarget& target) {
  if (machine.params().kind == TransportKind::kIb) {
    return std::make_unique<IbTransport>(machine, target);
  }
  return std::make_unique<Transport>(machine, target);
}

}  // namespace xlupc::net
