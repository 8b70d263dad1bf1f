#include "core/runtime.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace xlupc::core {

using sim::Duration;
using sim::Task;

namespace {

net::WireLayout to_wire(const LayoutSpec& s) {
  net::WireLayout w;
  w.dims = s.dims;
  w.elem_size = s.elem_size;
  w.extent0 = s.extent[0];
  w.extent1 = s.extent[1];
  w.block0 = s.block[0];
  w.block1 = s.block[1];
  return w;
}

LayoutSpec from_wire(const net::WireLayout& w) {
  LayoutSpec s;
  s.dims = w.dims;
  s.elem_size = w.elem_size;
  s.extent[0] = w.extent0;
  s.extent[1] = w.extent1;
  s.block[0] = w.block0;
  s.block[1] = w.block1;
  return s;
}

}  // namespace

// ===================================================== Runtime basics ===

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(std::move(cfg)),
      machine_(sim_, cfg_.platform,
               net::MachineConfig{cfg_.nodes, cfg_.threads_per_node,
                                  cfg_.faults, cfg_.fabric}) {
  if (cfg_.nodes == 0 || cfg_.threads_per_node == 0) {
    throw std::invalid_argument("Runtime: nodes/threads must be positive");
  }
  if (cfg_.threads_per_node > cfg_.platform.max_cores_per_node) {
    throw std::invalid_argument(
        "Runtime: threads_per_node exceeds the platform's cores per node");
  }
  if (cfg_.cache.full_table &&
      cfg_.pin_strategy != mem::PinStrategy::kGreedy) {
    throw std::invalid_argument(
        "Runtime: full-table resolution requires greedy pinning");
  }

  mem::PinLimits limits;
  limits.max_bytes_per_handle = cfg_.platform.max_bytes_per_handle;
  limits.max_total_bytes = cfg_.platform.max_dmaable_bytes;

  nodes_.reserve(cfg_.nodes);
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    nodes_.push_back(Node{
        mem::AddressSpace(n), svd::Directory(threads()),
        mem::PinnedAddressTable(cfg_.pin_strategy, limits),
        AddressCache(bases_,
                     cfg_.cache.full_table ? 0 : cfg_.cache.max_entries),
        {}, {}});
  }

  threads_.reserve(threads());
  for (ThreadId t = 0; t < threads(); ++t) {
    const NodeId n = t / cfg_.threads_per_node;
    const std::uint32_t c = t % cfg_.threads_per_node;
    threads_.push_back(std::make_unique<UpcThread>(
        *this, t, n, c, cfg_.seed * 0x9e3779b97f4a7c15ull + t + 1));
  }

  user_barrier_ = std::make_unique<sim::CyclicBarrier>(sim_, threads());
  collective_barrier_ = std::make_unique<sim::CyclicBarrier>(sim_, threads());
  tracer_ = Tracer(cfg_.trace);
}

Runtime::~Runtime() {
  // The frames an aborted run leaves suspended point into the threads,
  // nodes, transport and machine, which die before sim_.
  sim_.destroy_processes();
}

sim::Process UpcThread::main(
    const std::function<Task<void>(UpcThread&)>& body) {
  co_await body(*this);
  // End-of-run safety for coalescing: ops still parked in staging
  // buffers are shipped now, so an unwaited nonblocking op is applied by
  // the end of run() exactly as its uncoalesced runner coroutine would
  // have been (sim_.run() drains the spawned batches). No-op by
  // construction when coalescing is off.
  flush_all();
  // Lets the failure detector's tick loop terminate; what is left when
  // the queue drains is the deadlocked threads.
  --rt_->live_threads_;
}

void Runtime::run(ThreadBody body) {
  const std::uint64_t pool_bytes = sim::pool_stats().live_bytes;
  live_threads_ = threads();
  for (auto& th : threads_) th->main(body);
  // The failure detector runs only under fabric fault plans, so every
  // other configuration executes the exact event sequence it always did.
  if (machine_.faults().fabric_enabled()) {
    if (!detector_) detector_ = std::make_unique<FailureDetector>(*this);
    sim_.spawn(detector_->run_loop());
  }
  sim_.run();
  if (live_threads_ != 0) {
    throw std::runtime_error(
        "Runtime::run: deadlock — " + std::to_string(live_threads_) +
        " UPC thread(s) blocked with no pending events");
  }
  check_invariants(pool_bytes);
}

void Runtime::check_invariants(std::uint64_t pool_bytes) const {
  const auto broken = [](const std::string& law) {
    throw std::logic_error("Runtime::run: end-of-run invariant broken: " +
                           law);
  };
  // (a) Every cache entry holds one reference to its remote base, and
  // every value the table holds is named by some entry.
  std::uint64_t entries = 0;
  for (const Node& nd : nodes_) entries += nd.cache.size();
  if (entries != bases_.references()) {
    broken("(a) the address caches hold " + std::to_string(entries) +
           " entries but the remote-base table counts " +
           std::to_string(bases_.references()) + " references");
  }
  if (const RemoteBase* v = bases_.unreferenced()) {
    broken("(a) the remote base of handle " + std::to_string(v->key.handle) +
           " on node " + std::to_string(v->key.node) + " chunk " +
           std::to_string(v->key.chunk) + " is held with no reference");
  }
  // (b) No process holds or waits for a hardware resource.
  machine_.for_each_resource(
      [&](const sim::Resource& r, const net::ResourceId& id) {
        if (r.in_use() != 0 || r.queue_length() != 0) {
          broken("(b) resource " + machine_.resource_name(id) + " has " +
                 std::to_string(r.in_use()) + " unit(s) in use and " +
                 std::to_string(r.queue_length()) + " waiter(s)");
        }
      });
  // (c) Every nonblocking op finished and every PUT's remote completion
  // arrived.
  for (const auto& th : threads_) {
    const CompletionEngine& ce = th->completion_;
    if (ce.outstanding() != 0 || ce.outstanding_puts() != 0) {
      broken("(c) UPC thread " + std::to_string(th->id()) + " has " +
             std::to_string(ce.outstanding()) +
             " nonblocking op(s) in flight and " +
             std::to_string(ce.outstanding_puts()) +
             " PUT remote completion(s) outstanding");
    }
  }
  // (d) The run gave back every pool block it took: no coroutine frame,
  // callback spill or payload outlives it (a process started before run()
  // may end inside it, so the count may also fall). Trivial where the
  // freelists are compiled out (AddressSanitizer builds count nothing).
  const sim::PoolStats& pool = sim::pool_stats();
  if (pool.live_bytes > pool_bytes) {
    broken("(d) the sim pool holds " + std::to_string(pool.live_bytes) +
           " live bytes (" + std::to_string(pool.live_blocks) +
           " blocks), " + std::to_string(pool_bytes) +
           " when run() began");
  }
}

void Runtime::on_peer_dead(NodeId corpse) {
  // Connection layer: fail in-flight legs fast, error-fence IB QPs.
  transport_.peer_dead(corpse);
  // Address caches: every node drops entries pointing at the corpse (an
  // RDMA-tier hit against a dead node's base address must never happen).
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    node(n).cache.invalidate_node(corpse);
  }
  // The corpse's pin-down state died with it.
  transport_.reg_cache_mut(corpse).invalidate_all();
}

Duration Runtime::barrier_cost() const {
  if (cfg_.nodes <= 1) return sim::us(0.3);
  std::uint32_t rounds = 0;
  for (std::uint32_t n = 1; n < cfg_.nodes; n <<= 1) ++rounds;
  const Duration lat = net::wire_latency(cfg_.platform, 0, cfg_.nodes - 1);
  return 2 * lat * rounds;
}

bool Runtime::put_cache_enabled() const {
  return cfg_.cache.enabled &&
         cfg_.cache.put_enabled.value_or(cfg_.platform.put_cache_default);
}

CacheKey Runtime::make_key(const ArrayDesc& a, NodeId remote,
                           std::uint64_t node_offset) const {
  const std::uint32_t chunk =
      cfg_.pin_strategy == mem::PinStrategy::kChunked
          ? static_cast<std::uint32_t>(node_offset / mem::kPinChunkBytes)
          : 0;
  return CacheKey{a.handle.pack(), remote, chunk};
}

void Runtime::note_put_issued(UpcThread& th) {
  th.completion_.note_put_issued();
}

void Runtime::note_put_completed(ThreadId t) {
  threads_.at(t)->completion_.note_put_completed();
}

// ===================================================== allocation ======

Task<ArrayDesc> Runtime::all_alloc_spec(UpcThread& th, LayoutSpec spec) {
  // Collective allocations synchronize; partitioning then guarantees the
  // ALL partition stays consistent with the same index on every replica.
  co_await collective_barrier_->arrive();
  Node& nd = node(th.node());
  if (th.core() == 0) {
    auto layout = std::make_shared<const Layout>(spec, threads(),
                                                 threads_per_node());
    svd::ControlBlock cb;
    cb.kind = svd::ObjectKind::kArray;
    cb.total_bytes = layout->total_bytes();
    cb.local_bytes = layout->node_piece_bytes(th.node());
    cb.local_base = nd.space.allocate(cb.local_bytes);
    const svd::Handle h = nd.dir.add_local(svd::kAllPartition, th.id(), cb);
    nd.pending_alloc = ArrayDesc{h, std::move(layout)};
    if (cfg_.cache.enabled && cfg_.cache.full_table) {
      publish_bases(th.node(), h);
    }
  }
  co_await machine_.core(th.node(), th.core()).use(cfg_.platform.svd_lookup);
  co_await collective_barrier_->arrive();
  ArrayDesc desc = nd.pending_alloc;
  co_await collective_barrier_->arrive();  // slot may be reused after this
  co_return desc;
}

namespace {
Task<void> control_counted(net::Transport* tr, net::Initiator from,
                           NodeId dst, net::ControlMsg msg,
                           sim::CountdownLatch* latch) {
  net::raise_if_failed(co_await tr->control(from, dst, msg));
  latch->count_down();
}
}  // namespace

Task<ArrayDesc> Runtime::global_alloc_spec(UpcThread& th, LayoutSpec spec,
                                           svd::ObjectKind kind) {
  auto layout =
      std::make_shared<const Layout>(spec, threads(), threads_per_node());
  Node& nd = node(th.node());
  svd::ControlBlock cb;
  cb.kind = kind;
  cb.total_bytes = layout->total_bytes();
  cb.local_bytes = layout->node_piece_bytes(th.node());
  cb.local_base = nd.space.allocate(cb.local_bytes);
  const svd::Handle h = nd.dir.add_local(th.id(), th.id(), cb);
  co_await machine_.core(th.node(), th.core()).use(cfg_.platform.svd_lookup);
  if (cfg_.cache.enabled && cfg_.cache.full_table) {
    publish_bases(th.node(), h);
  }

  // Announce to every other node; each allocates its local piece. The
  // paper sends these notifications asynchronously; we gather completion
  // before returning so remote accesses never race the announcement.
  if (cfg_.nodes > 1) {
    sim::CountdownLatch latch(sim_, cfg_.nodes - 1);
    const net::SvdAllocNotice notice{h.pack(), to_wire(spec),
                                     static_cast<std::uint8_t>(kind)};
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
      if (n == th.node()) continue;
      sim_.spawn(control_counted(&transport_,
                                 net::Initiator{th.node(), th.core()}, n,
                                 notice, &latch));
    }
    co_await latch.wait();
  }
  co_return ArrayDesc{h, std::move(layout)};
}

void Runtime::materialize_piece(NodeId n, svd::Handle h, const Layout& layout,
                                svd::ObjectKind kind) {
  Node& nd = node(n);
  nd.dir.add_remote(h, layout.total_bytes(), kind);
  svd::ControlBlock* cb = nd.dir.find(h);
  cb->local_bytes = layout.node_piece_bytes(n);
  cb->local_base = nd.space.allocate(cb->local_bytes);
  if (cfg_.cache.enabled && cfg_.cache.full_table) {
    publish_bases(n, h);
  }
}

void Runtime::publish_bases(NodeId origin, svd::Handle h) {
  Node& nd = node(origin);
  const svd::ControlBlock* cb = nd.dir.find(h);
  if (cb == nullptr || cb->local_base == kNullAddr || cb->local_bytes == 0) {
    return;
  }
  const mem::PinResult pr = nd.pinned.pin(cb->local_base, cb->local_bytes);
  if (!pr.ok) return;
  const net::SvdBasePublish msg{h.pack(), origin, cb->local_base, pr.key};
  for (NodeId n = 0; n < cfg_.nodes; ++n) {
    if (n == origin) continue;
    // O(nodes) messages per node per object: the "extensive
    // communication" cost the SVD design avoids (Sec. 2.1). Delivery is
    // asynchronous; accesses racing it simply miss and take the AM path.
    sim_.spawn(Raising(transport_.control(net::Initiator{origin, 0}, n, msg)));
  }
}

void Runtime::do_free(NodeId n, svd::Handle h) {
  Node& nd = node(n);
  // Eager invalidation of this node's remote-address cache (Sec. 3.1).
  nd.cache.invalidate_handle(h.pack());
  svd::ControlBlock* cb = nd.dir.find(h);
  if (cb == nullptr) return;
  if (cb->local_base != kNullAddr) {
    nd.pinned.unpin(cb->local_base, cb->local_bytes);
    transport_.reg_cache_mut(n).invalidate(cb->local_base, cb->local_bytes);
    nd.space.free(cb->local_base);
  }
  nd.dir.remove(h);
}

// ===================================================== data movement ===

Addr Runtime::local_translate(NodeId n, svd::Handle h,
                              std::uint64_t node_offset, std::size_t len) {
  const svd::ControlBlock* cb = node(n).dir.find(h);
  if (cb == nullptr || cb->local_base == kNullAddr) {
    throw std::logic_error("Runtime: translation failed on node replica");
  }
  if (node_offset + len > cb->local_bytes) {
    throw std::out_of_range("Runtime: access beyond local piece");
  }
  return cb->local_base + node_offset;
}

// ===================================================== AmTarget ========

net::AmTarget::GetServe Runtime::serve_get(NodeId target,
                                           const net::GetRequest& req) {
  const svd::Handle h = svd::Handle::unpack(req.svd_handle);
  const Addr addr = local_translate(target, h, req.offset, req.len);
  Node& nd = node(target);

  GetServe out;
  out.data.resize(req.len);
  nd.space.read(addr, out.data);
  out.src_addr = addr;

  if (req.want_base && machine_.faults().pin_fails(target)) {
    // Injected transient registration failure: serve the data, but skip
    // the pin and the piggyback — the initiator's cache stays cold and
    // later accesses retry via the AM path.
    ++counters_.pin_failures;
  } else if (req.want_base) {
    const svd::ControlBlock* cb = nd.dir.find(h);
    const mem::PinResult pr =
        cfg_.pin_strategy == mem::PinStrategy::kGreedy
            ? nd.pinned.pin(cb->local_base, cb->local_bytes)
            : nd.pinned.pin(addr, req.len);
    if (pr.ok) {
      out.base = net::BaseInfo{cb->local_base, pr.key};
      out.reg_new_bytes = pr.new_bytes;
      out.reg_new_handles = pr.new_handles;
      out.reg_evicted_handles = pr.evicted_handles;
    }
  }
  return out;
}

net::AmTarget::PutServe Runtime::serve_put(NodeId target,
                                           net::PutRequest&& req) {
  const svd::Handle h = svd::Handle::unpack(req.svd_handle);
  const Addr addr = local_translate(target, h, req.offset, req.data.size());
  Node& nd = node(target);
  nd.space.write(addr, req.data);

  PutServe out;
  out.dst_addr = addr;
  if (req.want_base && machine_.faults().pin_fails(target)) {
    ++counters_.pin_failures;  // injected transient registration failure
  } else if (req.want_base) {
    const svd::ControlBlock* cb = nd.dir.find(h);
    const mem::PinResult pr =
        cfg_.pin_strategy == mem::PinStrategy::kGreedy
            ? nd.pinned.pin(cb->local_base, cb->local_bytes)
            : nd.pinned.pin(addr, req.data.size());
    if (pr.ok) {
      out.base = net::BaseInfo{cb->local_base, pr.key};
      out.reg_new_bytes = pr.new_bytes;
      out.reg_new_handles = pr.new_handles;
      out.reg_evicted_handles = pr.evicted_handles;
    }
  }
  return out;
}

net::AmTarget::PutServe Runtime::serve_put_rendezvous(
    NodeId target, const net::PutRequest& req, std::size_t len) {
  const svd::Handle h = svd::Handle::unpack(req.svd_handle);
  const Addr addr = local_translate(target, h, req.offset, len);
  Node& nd = node(target);

  PutServe out;
  out.dst_addr = addr;
  if (req.want_base && machine_.faults().pin_fails(target)) {
    ++counters_.pin_failures;  // injected transient registration failure
  } else if (req.want_base) {
    const svd::ControlBlock* cb = nd.dir.find(h);
    const mem::PinResult pr =
        cfg_.pin_strategy == mem::PinStrategy::kGreedy
            ? nd.pinned.pin(cb->local_base, cb->local_bytes)
            : nd.pinned.pin(addr, len);
    if (pr.ok) {
      out.base = net::BaseInfo{cb->local_base, pr.key};
      out.reg_new_bytes = pr.new_bytes;
      out.reg_new_handles = pr.new_handles;
      out.reg_evicted_handles = pr.evicted_handles;
    }
  }
  return out;
}

void Runtime::deliver_put_payload(NodeId target, std::uint64_t svd_handle,
                                  std::uint64_t offset,
                                  net::Bytes&& data) {
  const svd::Handle h = svd::Handle::unpack(svd_handle);
  const Addr addr = local_translate(target, h, offset, data.size());
  node(target).space.write(addr, data);
}

net::RdmaWindow Runtime::rdma_memory(NodeId target, Addr addr,
                                     std::size_t len) {
  Node& nd = node(target);
  if (!nd.space.contains(addr, len)) {
    throw net::RdmaProtocolError("RDMA to invalid remote address");
  }
  if (!nd.pinned.is_pinned(addr, len)) {
    return net::RdmaWindow{nullptr, net::RdmaNak::kNotPinned};
  }
  return net::RdmaWindow{nd.space.data(addr, len), net::RdmaNak::kNone};
}

void Runtime::serve_control(NodeId target, NodeId source,
                            const net::ControlMsg& msg) {
  (void)source;
  if (const auto* alloc = std::get_if<net::SvdAllocNotice>(&msg)) {
    const Layout layout(from_wire(alloc->layout), threads(),
                        threads_per_node());
    materialize_piece(target, svd::Handle::unpack(alloc->svd_handle), layout,
                      static_cast<svd::ObjectKind>(alloc->kind));
  } else if (const auto* free_n = std::get_if<net::SvdFreeNotice>(&msg)) {
    do_free(target, svd::Handle::unpack(free_n->svd_handle));
  } else if (const auto* pub = std::get_if<net::SvdBasePublish>(&msg)) {
    node(target).cache.insert(
        CacheKey{pub->svd_handle, pub->origin, 0},
        net::BaseInfo{pub->base, pub->key});
  } else if (const auto* lreq = std::get_if<net::LockRequest>(&msg)) {
    lock_request_at_home(target, lreq->svd_handle, lreq->requester);
  } else if (const auto* grant = std::get_if<net::LockGrant>(&msg)) {
    UpcThread& waiter = *threads_.at(grant->requester);
    if (!waiter.lock_wait_) {
      throw std::logic_error("Runtime: lock grant with no waiter");
    }
    waiter.lock_wait_->set(grant->granted);
  } else if (const auto* rel = std::get_if<net::LockRelease>(&msg)) {
    lock_release_at_home(target, rel->svd_handle, rel->holder);
  }
}

// ===================================================== atomics =========

std::uint64_t Runtime::apply_amo(NodeId n, Addr addr, OpKind kind,
                                 std::uint64_t operand,
                                 std::uint64_t compare) {
  // The single read-modify-write both lowerings and the local tier share.
  // Indivisibility comes from the caller: the local tier runs it inline
  // on the DES (no interleaving within a call), the AM lowering under the
  // home's handler-CPU mutual exclusion, the IB offload under the target
  // NIC DMA engine's.
  Node& nd = node(n);
  const auto old = nd.space.load<std::uint64_t>(addr);
  if (kind == OpKind::kFaa) {
    nd.space.store<std::uint64_t>(addr, old + operand);
  } else if (old == compare) {
    nd.space.store<std::uint64_t>(addr, operand);
  }
  return old;
}

std::uint64_t Runtime::serve_amo(NodeId target, const net::AmoRequest& req) {
  const Addr addr =
      local_translate(target, svd::Handle::unpack(req.svd_handle), req.offset,
                      sizeof(std::uint64_t));
  return apply_amo(target, addr,
                   req.verb == net::AmoVerb::kFaa ? OpKind::kFaa : OpKind::kCas,
                   req.operand, req.compare);
}

// ===================================================== locks ===========

void Runtime::grant_lock(NodeId home_node, std::uint64_t handle,
                         ThreadId requester) {
  const NodeId req_node = requester / cfg_.threads_per_node;
  if (req_node == home_node) {
    UpcThread& waiter = *threads_.at(requester);
    if (!waiter.lock_wait_) {
      throw std::logic_error("Runtime: local lock grant with no waiter");
    }
    waiter.lock_wait_->set(true);
    return;
  }
  sim_.spawn(Raising(transport_.control(
      net::Initiator{home_node, 0}, req_node,
      net::LockGrant{handle, requester, true})));
}

void Runtime::lock_request_at_home(NodeId home_node, std::uint64_t handle,
                                   ThreadId requester) {
  LockState& st = node(home_node).locks[handle];
  if (!st.held) {
    st.held = true;
    st.holder = requester;
    grant_lock(home_node, handle, requester);
  } else {
    st.waiters.push_back(requester);
  }
}

void Runtime::lock_release_at_home(NodeId home_node, std::uint64_t handle,
                                   ThreadId holder) {
  LockState& st = node(home_node).locks[handle];
  if (!st.held || st.holder != holder) {
    throw std::logic_error("Runtime: unlock by non-holder");
  }
  if (!st.waiters.empty()) {
    const ThreadId next = st.waiters.front();
    st.waiters.pop_front();
    st.holder = next;
    grant_lock(home_node, handle, next);
  } else {
    st.held = false;
  }
}

// ===================================================== debug access ====

void Runtime::debug_read(const ArrayDesc& a, std::uint64_t elem,
                         std::span<std::byte> out) {
  const auto loc = a.layout->locate(elem);
  const NodeId owner = a.layout->node_of(loc.thread);
  const Addr addr = local_translate(owner, a.handle, a.layout->node_offset(loc),
                                    out.size());
  node(owner).space.read(addr, out);
}

void Runtime::debug_write(const ArrayDesc& a, std::uint64_t elem,
                          std::span<const std::byte> in) {
  const auto loc = a.layout->locate(elem);
  const NodeId owner = a.layout->node_of(loc.thread);
  const Addr addr = local_translate(owner, a.handle, a.layout->node_offset(loc),
                                    in.size());
  node(owner).space.write(addr, in);
}

void Runtime::warm_address_cache(const ArrayDesc& a) {
  if (!cfg_.cache.enabled) return;
  const std::uint64_t handle = a.handle.pack();
  struct Home {
    NodeId node;
    std::uint32_t chunks;
    net::BaseInfo info;
    std::size_t first_key;  ///< its chunk 0's place in `ids`
  };
  std::vector<Home> homes;
  std::size_t keys = 0;
  for (NodeId target = 0; target < cfg_.nodes; ++target) {
    Node& tn = node(target);
    const svd::ControlBlock* cb = tn.dir.find(a.handle);
    if (cb == nullptr || cb->local_base == kNullAddr || cb->local_bytes == 0) {
      continue;
    }
    const mem::PinResult pr = tn.pinned.pin(cb->local_base, cb->local_bytes);
    if (!pr.ok) continue;
    const std::uint32_t chunks =
        cfg_.pin_strategy == mem::PinStrategy::kChunked
            ? static_cast<std::uint32_t>(
                  (cb->local_bytes + mem::kPinChunkBytes - 1) /
                  mem::kPinChunkBytes)
            : 1;
    homes.push_back(
        {target, chunks, net::BaseInfo{cb->local_base, pr.key}, keys});
    keys += chunks;
  }
  // Each (home, chunk) value is interned once, by its first insert, and
  // every later initiator takes a reference to that id; the warm-up
  // holds its own reference until the end, so no eviction frees an id
  // it hands out.
  constexpr RemoteBases::Id kUnset = 0xffffffffu;
  std::vector<RemoteBases::Id> ids(keys, kUnset);
  const auto id_of = [&](const Home& h, std::uint32_t c) {
    RemoteBases::Id& id = ids[h.first_key + c];
    if (id == kUnset) {
      id = bases_.acquire({CacheKey{handle, h.node, c}, h.info});
    }
    return id;
  };
  // Each initiator learns the keys (home, chunk) of every other home in
  // this order. The keys are distinct, so an LRU cache of capacity K ends
  // up holding exactly the last K of them, in order, whatever it held
  // before: insert only that suffix, O(nodes × K) rather than O(nodes²).
  // An unbounded cache (max_entries() == 0) gets every key.
  for (NodeId init = 0; init < cfg_.nodes; ++init) {
    AddressCache& cache = node(init).cache;
    std::uint64_t room = cache.max_entries() == 0
                             ? std::numeric_limits<std::uint64_t>::max()
                             : cache.max_entries();
    std::size_t first = homes.size();
    std::uint32_t skip = 0;  // leading chunks of homes[first] left out
    while (first > 0 && room > 0) {
      const Home& h = homes[--first];
      if (h.node == init) continue;
      const std::uint64_t take = std::min<std::uint64_t>(h.chunks, room);
      skip = static_cast<std::uint32_t>(h.chunks - take);
      room -= take;
    }
    // A suffix that fills the cache replaces everything it held: empty
    // it in one pass instead of evicting entry by entry, whose backward
    // shifts read keys across the fixed index's long probe runs.
    if (room == 0) cache.clear();
    for (std::size_t i = first; i < homes.size(); ++i) {
      const Home& h = homes[i];
      if (h.node == init) continue;
      for (std::uint32_t c = i == first ? skip : 0; c < h.chunks; ++c) {
        cache.insert(id_of(h, c));
      }
    }
  }
  for (const RemoteBases::Id id : ids) {
    if (id != kUnset) bases_.release(id);
  }
  for (NodeId n = 0; n < cfg_.nodes; ++n) node(n).cache.reset_stats();
}

// ===================================================== UpcThread =======

sim::Simulator& UpcThread::simulator() noexcept { return rt_->sim_; }

sim::Time UpcThread::now() const { return rt_->sim_.now(); }

Task<void> UpcThread::compute(Duration d) {
  co_await rt_->machine_.core(node_, core_).use(d);
}

Raising UpcThread::fence() { return Raising(fence_status()); }

Task<void> UpcThread::barrier() {
  const sim::Time t_start = rt_->sim_.now();
  net::raise_if_failed(co_await fence_status());
  co_await rt_->user_barrier_->arrive();
  co_await rt_->sim_.delay(rt_->barrier_cost());
  rt_->tracer_.record(TraceEvent{id_, TraceOp::kBarrier, TracePath::kNone, 0,
                                 0, t_start, rt_->sim_.now()});
}

Task<ArrayDesc> UpcThread::all_alloc(std::uint64_t nelems,
                                     std::uint64_t elem_size,
                                     std::uint64_t block) {
  LayoutSpec spec;
  spec.dims = 1;
  spec.elem_size = elem_size;
  spec.extent[0] = nelems;
  spec.block[0] = block;
  return rt_->all_alloc_spec(*this, spec);
}

Task<ArrayDesc> UpcThread::all_alloc2d(std::uint64_t rows, std::uint64_t cols,
                                       std::uint64_t elem_size,
                                       std::uint64_t block_rows,
                                       std::uint64_t block_cols) {
  LayoutSpec spec;
  spec.dims = 2;
  spec.elem_size = elem_size;
  spec.extent[0] = rows;
  spec.extent[1] = cols;
  spec.block[0] = block_rows;
  spec.block[1] = block_cols;
  return rt_->all_alloc_spec(*this, spec);
}

Task<ArrayDesc> UpcThread::global_alloc(std::uint64_t nelems,
                                        std::uint64_t elem_size,
                                        std::uint64_t block) {
  LayoutSpec spec;
  spec.dims = 1;
  spec.elem_size = elem_size;
  spec.extent[0] = nelems;
  spec.block[0] = block;
  return rt_->global_alloc_spec(*this, spec, svd::ObjectKind::kArray);
}

Task<void> UpcThread::free_array(ArrayDesc desc) {
  rt_->do_free(node_, desc.handle);
  if (rt_->cfg_.nodes > 1) {
    sim::CountdownLatch latch(rt_->sim_, rt_->cfg_.nodes - 1);
    for (NodeId n = 0; n < rt_->cfg_.nodes; ++n) {
      if (n == node_) continue;
      rt_->sim_.spawn(control_counted(
          &rt_->transport_, net::Initiator{node_, core_}, n,
          net::SvdFreeNotice{desc.handle.pack()}, &latch));
    }
    co_await latch.wait();
  }
  co_await rt_->machine_.core(node_, core_).use(rt_->cfg_.platform.svd_lookup);
}

// --- CommOp construction (validation shared by blocking and _nb) -------

CommOp UpcThread::checked_op_1d(OpKind kind, const ArrayDesc& a,
                                std::uint64_t elem, std::byte* dst,
                                const std::byte* src,
                                std::size_t bytes) const {
  const char* name = kind == OpKind::kGet ? "get" : "put";
  const Layout& layout = *a.layout;
  const std::uint64_t n = bytes / layout.elem_size();
  if (n * layout.elem_size() != bytes || n == 0) {
    throw std::invalid_argument(std::string(name) +
                                ": span must hold whole elements");
  }
  if (n > layout.run_length(elem)) {
    throw std::invalid_argument(std::string(name) +
                                ": span crosses ownership boundary");
  }
  CommOp op;
  op.kind = kind;
  op.array = unowned_view(a);
  op.elem = elem;
  op.dst = dst;
  op.src = src;
  op.bytes = bytes;
  return op;
}

CommOp UpcThread::checked_op_multi(OpKind kind, const ArrayDesc& a,
                                   std::uint64_t elem, std::byte* dst,
                                   const std::byte* src,
                                   std::size_t bytes) const {
  const char* name = kind == OpKind::kGet ? "memget" : "memput";
  const Layout& layout = *a.layout;
  const std::uint64_t es = layout.elem_size();
  if ((bytes / es) * es != bytes) {
    throw std::invalid_argument(std::string(name) +
                                ": span must hold whole elements");
  }
  CommOp op;
  op.kind = kind;
  op.array = unowned_view(a);
  op.elem = elem;
  op.multi = true;
  op.dst = dst;
  op.src = src;
  op.bytes = bytes;
  return op;
}

CommOp UpcThread::checked_op_2d(OpKind kind, const ArrayDesc& a,
                                std::uint64_t r, std::uint64_t c,
                                std::byte* dst, const std::byte* src,
                                std::size_t bytes) const {
  const char* name = kind == OpKind::kGet ? "get2d" : "put2d";
  const Layout& layout = *a.layout;
  const std::uint64_t es = layout.elem_size();
  const std::uint64_t n = bytes / es;
  const std::uint64_t bc = layout.spec().block[1];
  if (n == 0 || n * es != bytes || n > bc - (c % bc)) {
    throw std::invalid_argument(std::string(name) +
                                ": span must stay within a tile row");
  }
  CommOp op;
  op.kind = kind;
  op.array = unowned_view(a);
  op.row = r;
  op.col = c;
  op.two_d = true;
  op.dst = dst;
  op.src = src;
  op.bytes = bytes;
  return op;
}

// --- blocking calls: execute inline on the caller's coroutine --------
//
// Plain functions, not coroutines: argument checks and op construction
// have no simulated-time side effects, so each status form forwards the
// execute task directly — no wrapper, wait() or execute() frame — and
// its throwing twin wraps the task in a frameless Raising. All call sites
// co_await immediately, so the issue point is unchanged in simulated
// time, and argument errors still throw at the call.

Raising UpcThread::get(const ArrayDesc& a, std::uint64_t elem,
                       std::span<std::byte> dst) {
  return Raising(get_status(a, elem, dst));
}

Raising UpcThread::put(const ArrayDesc& a, std::uint64_t elem,
                       std::span<const std::byte> src) {
  return Raising(put_status(a, elem, src));
}

Raising UpcThread::memget(const ArrayDesc& a, std::uint64_t elem_start,
                          std::span<std::byte> dst) {
  return Raising(memget_status(a, elem_start, dst));
}

Raising UpcThread::memput(const ArrayDesc& a, std::uint64_t elem_start,
                          std::span<const std::byte> src) {
  return Raising(memput_status(a, elem_start, src));
}

// --- nonblocking surface ----------------------------------------------

OpHandle UpcThread::get_nb(const ArrayDesc& a, std::uint64_t elem,
                           std::span<std::byte> dst) {
  return completion_.issue(
      checked_op_1d(OpKind::kGet, a, elem, dst.data(), nullptr, dst.size()));
}

OpHandle UpcThread::put_nb(const ArrayDesc& a, std::uint64_t elem,
                           std::span<const std::byte> src) {
  return completion_.issue(
      checked_op_1d(OpKind::kPut, a, elem, nullptr, src.data(), src.size()));
}

OpHandle UpcThread::memget_nb(const ArrayDesc& a, std::uint64_t elem_start,
                              std::span<std::byte> dst) {
  return completion_.issue(
      checked_op_multi(OpKind::kGet, a, elem_start, dst.data(), nullptr,
                       dst.size()));
}

OpHandle UpcThread::memput_nb(const ArrayDesc& a, std::uint64_t elem_start,
                              std::span<const std::byte> src) {
  return completion_.issue(
      checked_op_multi(OpKind::kPut, a, elem_start, nullptr, src.data(),
                       src.size()));
}

Raising UpcThread::wait(OpHandle h) { return Raising(wait_status(h)); }

Raising UpcThread::wait_all() { return Raising(completion_.wait_all()); }

Task<OpStatus> UpcThread::wait_status(OpHandle h) {
  return completion_.wait(h);
}

Task<OpStatus> UpcThread::fence_status() {
  // Retire any nonblocking handles still in flight, then wait for the
  // remote completion of every PUT this thread issued (the blocking-only
  // path has no live handles, so the first step is a no-op there).
  const OpStatus st = co_await completion_.wait_all();
  // PUT remote completions always arrive — legs lost to a dead peer
  // complete locally in the detached protocol halves — so the drain
  // cannot hang even when the status above is not kOk.
  co_await completion_.drain_puts();
  co_return st;
}

bool UpcThread::crashed() const {
  return rt_->machine_.faults().node_crashed(node_, rt_->sim_.now());
}

// --- typed-status blocking surface -------------------------------------

Task<OpStatus> UpcThread::get_status(const ArrayDesc& a, std::uint64_t elem,
                                     std::span<std::byte> dst) {
  return completion_.run_blocking(
      checked_op_1d(OpKind::kGet, a, elem, dst.data(), nullptr, dst.size()));
}

Task<OpStatus> UpcThread::put_status(const ArrayDesc& a, std::uint64_t elem,
                                     std::span<const std::byte> src) {
  return completion_.run_blocking(
      checked_op_1d(OpKind::kPut, a, elem, nullptr, src.data(), src.size()));
}

Task<OpStatus> UpcThread::memget_status(const ArrayDesc& a,
                                        std::uint64_t elem_start,
                                        std::span<std::byte> dst) {
  return completion_.run_blocking(checked_op_multi(
      OpKind::kGet, a, elem_start, dst.data(), nullptr, dst.size()));
}

Task<OpStatus> UpcThread::memput_status(const ArrayDesc& a,
                                        std::uint64_t elem_start,
                                        std::span<const std::byte> src) {
  return completion_.run_blocking(checked_op_multi(
      OpKind::kPut, a, elem_start, nullptr, src.data(), src.size()));
}

Task<OpStatus> UpcThread::fetch_add_status(const ArrayDesc& a,
                                           std::uint64_t elem,
                                           std::uint64_t delta,
                                           std::uint64_t* result) {
  return completion_.run_blocking(
      checked_op_amo(OpKind::kFaa, a, elem, delta, 0, result));
}

Task<OpStatus> UpcThread::compare_swap_status(const ArrayDesc& a,
                                              std::uint64_t elem,
                                              std::uint64_t expected,
                                              std::uint64_t desired,
                                              std::uint64_t* result) {
  return completion_.run_blocking(
      checked_op_amo(OpKind::kCas, a, elem, desired, expected, result));
}

Task<void> UpcThread::memcpy_shared(const ArrayDesc& dst,
                                    std::uint64_t dst_elem,
                                    const ArrayDesc& src,
                                    std::uint64_t src_elem,
                                    std::uint64_t count) {
  if (dst.layout->elem_size() != src.layout->elem_size()) {
    throw std::invalid_argument(
        "memcpy_shared: element sizes must match");
  }
  const std::uint64_t es = src.layout->elem_size();
  std::vector<std::byte> staging;
  while (count > 0) {
    // Chunk by the smaller of the two run lengths so each transfer is
    // contiguous on its owner at both ends.
    const std::uint64_t run =
        std::min({count, src.layout->run_length(src_elem),
                  dst.layout->run_length(dst_elem)});
    staging.resize(run * es);
    net::raise_if_failed(co_await get_status(src, src_elem, staging));
    net::raise_if_failed(co_await put_status(dst, dst_elem, staging));
    src_elem += run;
    dst_elem += run;
    count -= run;
  }
}

Raising UpcThread::get2d(const ArrayDesc& a, std::uint64_t r,
                         std::uint64_t c, std::span<std::byte> dst) {
  return Raising(completion_.run_blocking(
      checked_op_2d(OpKind::kGet, a, r, c, dst.data(), nullptr, dst.size())));
}

Raising UpcThread::put2d(const ArrayDesc& a, std::uint64_t r,
                         std::uint64_t c, std::span<const std::byte> src) {
  return Raising(completion_.run_blocking(
      checked_op_2d(OpKind::kPut, a, r, c, nullptr, src.data(), src.size())));
}

// --- atomics: blocking wrappers + nonblocking surface ------------------

CommOp UpcThread::checked_op_amo(OpKind kind, const ArrayDesc& a,
                                 std::uint64_t elem, std::uint64_t operand,
                                 std::uint64_t compare,
                                 std::uint64_t* result) const {
  const char* name = kind == OpKind::kFaa ? "fetch_add" : "compare_swap";
  if (a.layout->elem_size() != sizeof(std::uint64_t)) {
    throw std::invalid_argument(std::string(name) +
                                ": element size must be 8 bytes");
  }
  CommOp op;
  op.kind = kind;
  op.array = unowned_view(a);
  op.elem = elem;
  op.bytes = sizeof(std::uint64_t);
  op.operand = operand;
  op.compare = compare;
  op.result = result;
  return op;
}

Task<std::uint64_t> UpcThread::fetch_add(const ArrayDesc& a,
                                         std::uint64_t elem,
                                         std::uint64_t delta) {
  // The status form runs inline, exactly like get/put; the old value
  // lands in the frame-local slot before it returns.
  std::uint64_t old = 0;
  net::raise_if_failed(co_await fetch_add_status(a, elem, delta, &old));
  co_return old;
}

Task<std::uint64_t> UpcThread::compare_swap(const ArrayDesc& a,
                                            std::uint64_t elem,
                                            std::uint64_t expected,
                                            std::uint64_t desired) {
  std::uint64_t old = 0;
  net::raise_if_failed(
      co_await compare_swap_status(a, elem, expected, desired, &old));
  co_return old;
}

OpHandle UpcThread::faa_nb(const ArrayDesc& a, std::uint64_t elem,
                           std::uint64_t delta, std::uint64_t* result) {
  return completion_.issue(
      checked_op_amo(OpKind::kFaa, a, elem, delta, 0, result));
}

OpHandle UpcThread::cas_nb(const ArrayDesc& a, std::uint64_t elem,
                           std::uint64_t expected, std::uint64_t desired,
                           std::uint64_t* result) {
  return completion_.issue(
      checked_op_amo(OpKind::kCas, a, elem, desired, expected, result));
}

Task<LockDesc> UpcThread::lock_alloc() {
  svd::ControlBlock cb;
  cb.kind = svd::ObjectKind::kLock;
  cb.total_bytes = 0;
  cb.local_base = kNullAddr;
  cb.local_bytes = 0;
  const svd::Handle h = rt_->node(node_).dir.add_local(id_, id_, cb);
  co_await rt_->machine_.core(node_, core_).use(rt_->cfg_.platform.svd_lookup);
  co_return LockDesc{h, id_};
}

Task<void> UpcThread::lock(const LockDesc& lk) {
  const NodeId home_node = lk.home / rt_->cfg_.threads_per_node;
  lock_wait_ = std::make_unique<sim::Future<bool>>(rt_->sim_);
  if (home_node == node_) {
    co_await rt_->machine_.core(node_, core_).use(
        rt_->cfg_.platform.local_access);
    rt_->lock_request_at_home(home_node, lk.handle.pack(), id_);
  } else {
    net::raise_if_failed(co_await rt_->transport_.control(
        net::Initiator{node_, core_}, home_node,
        net::LockRequest{lk.handle.pack(), id_, false}));
  }
  co_await lock_wait_->get();
  lock_wait_.reset();
}

Task<void> UpcThread::unlock(const LockDesc& lk) {
  const NodeId home_node = lk.home / rt_->cfg_.threads_per_node;
  if (home_node == node_) {
    co_await rt_->machine_.core(node_, core_).use(
        rt_->cfg_.platform.local_access);
    rt_->lock_release_at_home(home_node, lk.handle.pack(), id_);
  } else {
    net::raise_if_failed(co_await rt_->transport_.control(
        net::Initiator{node_, core_}, home_node,
        net::LockRelease{lk.handle.pack(), id_}));
  }
}

ThreadId UpcThread::threadof(const ArrayDesc& a, std::uint64_t i) const {
  return a.layout->locate(i).thread;
}

std::uint64_t UpcThread::phaseof(const ArrayDesc& a, std::uint64_t i) const {
  return i % a.layout->block_factor();
}

NodeId UpcThread::nodeof(const ArrayDesc& a, std::uint64_t i) const {
  return a.layout->node_of(a.layout->locate(i).thread);
}

}  // namespace xlupc::core
