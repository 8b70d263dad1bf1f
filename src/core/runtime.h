// The XLUPC-style PGAS runtime (paper Sec. 2) with the remote address
// cache optimization (Sec. 3).
//
// A Runtime owns a simulated cluster (Machine), one SVD replica, address
// space, pinned-address table and remote address cache per node, and the
// messaging transport. UPC threads are coroutines: `Runtime::run` spawns
// THREADS of them and drives the discrete-event simulation to completion.
//
// Every remote access follows the paper's protocol: probe the address
// cache; on a hit compute base+offset locally and issue a native RDMA
// operation (no remote CPU); on a miss use the default Active-Message
// path, which piggybacks the remote base address on the reply/ACK to
// populate the cache for subsequent accesses.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/access_path.h"
#include "core/address_cache.h"
#include "core/api.h"
#include "core/failure_detector.h"
#include "core/run_report.h"
#include "core/trace.h"
#include "mem/address_space.h"
#include "mem/pinned_table.h"
#include "net/machine.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "svd/directory.h"

namespace xlupc::core {

class Runtime;

/// What a throwing blocking op (get, put, memget, fence, wait, ...)
/// returns: its status form's task, which awaiting runs in place before
/// it raises the failure the task ended with (net::raise_if_failed). It
/// is one coroutine handle wide and keeps no frame of its own, so the
/// throwing form costs the caller nothing over the status form. Await
/// it where it is made, as the op's Task would be.
class [[nodiscard]] Raising {
 public:
  explicit Raising(sim::Task<OpStatus> status) noexcept
      : status_(std::move(status)) {}

  bool await_ready() const { return status_.await_ready(); }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> caller) noexcept {
    return status_.await_suspend(caller);
  }
  void await_resume() { net::raise_if_failed(status_.await_resume()); }

 private:
  sim::Task<OpStatus> status_;
};

template <class T>
class Reading;
template <class T>
class Writing;

/// Execution context of one UPC thread. All operations are awaitable and
/// advance simulated time; they must only be called from within the
/// thread's own coroutine body.
/// Each throwing call is its status form (get_status, wait_status, ...)
/// plus net::raise_if_failed (docs/FAULTS.md); the blocking ones return
/// a Raising over the status form's task.
class UpcThread {
 public:
  UpcThread(Runtime& rt, ThreadId id, NodeId node, std::uint32_t core,
            std::uint64_t seed)
      : rt_(&rt), id_(id), node_(node), core_(core), rng_(seed),
        completion_(rt, *this) {}
  UpcThread(const UpcThread&) = delete;
  UpcThread& operator=(const UpcThread&) = delete;

  ThreadId id() const noexcept { return id_; }
  NodeId node() const noexcept { return node_; }
  std::uint32_t core() const noexcept { return core_; }
  sim::Rng& rng() noexcept { return rng_; }
  Runtime& runtime() noexcept { return *rt_; }
  sim::Simulator& simulator() noexcept;
  sim::Time now() const;

  // --- synchronization ---
  sim::Task<void> barrier();  ///< upc_barrier (implies fence)
  Raising fence();  ///< wait for remote completion of my PUTs
  sim::Task<void> compute(sim::Duration d);  ///< occupy my core for `d`

  // --- allocation (upc_all_alloc / upc_global_alloc / upc_free) ---
  sim::Task<ArrayDesc> all_alloc(std::uint64_t nelems, std::uint64_t elem_size,
                                 std::uint64_t block = 0);
  sim::Task<ArrayDesc> all_alloc2d(std::uint64_t rows, std::uint64_t cols,
                                   std::uint64_t elem_size,
                                   std::uint64_t block_rows,
                                   std::uint64_t block_cols);
  sim::Task<ArrayDesc> global_alloc(std::uint64_t nelems,
                                    std::uint64_t elem_size,
                                    std::uint64_t block = 0);
  sim::Task<void> free_array(ArrayDesc desc);

  // --- data movement ---
  /// GET elements starting at `elem` into `dst`; the span must not cross
  /// an ownership boundary (use memget for arbitrary spans).
  Raising get(const ArrayDesc& a, std::uint64_t elem,
              std::span<std::byte> dst);
  /// PUT `src` at `elem`; same contiguity requirement as get().
  Raising put(const ArrayDesc& a, std::uint64_t elem,
              std::span<const std::byte> src);
  /// upc_memget: arbitrary element range, split at ownership boundaries.
  Raising memget(const ArrayDesc& a, std::uint64_t elem_start,
                 std::span<std::byte> dst);
  /// upc_memput.
  Raising memput(const ArrayDesc& a, std::uint64_t elem_start,
                 std::span<const std::byte> src);
  /// upc_memcpy: shared-to-shared copy, split at the ownership
  /// boundaries of both arrays (pulls through a private staging buffer,
  /// as the XLUPC runtime's generic path does).
  sim::Task<void> memcpy_shared(const ArrayDesc& dst, std::uint64_t dst_elem,
                                const ArrayDesc& src, std::uint64_t src_elem,
                                std::uint64_t count);
  /// 2-D element access (multi-blocked arrays).
  Raising get2d(const ArrayDesc& a, std::uint64_t r, std::uint64_t c,
                std::span<std::byte> dst);
  Raising put2d(const ArrayDesc& a, std::uint64_t r, std::uint64_t c,
                std::span<const std::byte> src);

  // --- nonblocking data movement (docs/COMM_ENGINE.md) ---
  // Each *_nb issues the op and returns immediately; the op runs as its
  // own coroutine, overlapping with the caller. The referenced buffer
  // must stay live and untouched until wait()/wait_all() retires the
  // handle. Arguments are validated synchronously (throws at the call).
  OpHandle get_nb(const ArrayDesc& a, std::uint64_t elem,
                  std::span<std::byte> dst);
  OpHandle put_nb(const ArrayDesc& a, std::uint64_t elem,
                  std::span<const std::byte> src);
  OpHandle memget_nb(const ArrayDesc& a, std::uint64_t elem_start,
                     std::span<std::byte> dst);
  OpHandle memput_nb(const ArrayDesc& a, std::uint64_t elem_start,
                     std::span<const std::byte> src);
  /// Suspend until the op behind `h` completes (no-op on a spent
  /// handle); raises the failure the op ended with.
  Raising wait(OpHandle h);
  /// Retire every outstanding handle of this thread, then raise the
  /// worst failure among them.
  Raising wait_all();
  /// wait() with the typed-status contract (docs/FAULTS.md): errors from
  /// a dead peer come back as OpStatus::kPeerFailed, an exhausted
  /// retransmission budget as kTimeout, instead of as exceptions.
  sim::Task<OpStatus> wait_status(OpHandle h);
  /// fence() with the typed-status contract: retires every handle and
  /// drains PUT remote completions, returning the worst status seen.
  sim::Task<OpStatus> fence_status();
  /// True once this thread's node has crash-stopped under the fault
  /// plan. Chaos workloads poll this and retire the thread; a crashed
  /// thread must not issue further operations or enter barriers.
  bool crashed() const;

  // --- typed-status blocking surface (docs/FAULTS.md) ---
  // Blocking issue + inline execute; errors from a dead peer come back
  // as OpStatus::kPeerFailed and an exhausted retransmission budget as
  // kTimeout — the contract serving workloads (dis::KvStore,
  // dis::TicketLock) use to route around failures without an exception
  // handler at every access. get/put/fetch_add/... are these plus the
  // raise.
  sim::Task<OpStatus> get_status(const ArrayDesc& a, std::uint64_t elem,
                                 std::span<std::byte> dst);
  sim::Task<OpStatus> put_status(const ArrayDesc& a, std::uint64_t elem,
                                 std::span<const std::byte> src);
  /// memget/memput with the typed-status contract: the op stops at its
  /// first failed run and returns that run's status.
  sim::Task<OpStatus> memget_status(const ArrayDesc& a,
                                    std::uint64_t elem_start,
                                    std::span<std::byte> dst);
  sim::Task<OpStatus> memput_status(const ArrayDesc& a,
                                    std::uint64_t elem_start,
                                    std::span<const std::byte> src);
  /// fetch_add with the typed-status contract; the old value lands in
  /// `*result` only when the returned status is kOk.
  sim::Task<OpStatus> fetch_add_status(const ArrayDesc& a, std::uint64_t elem,
                                       std::uint64_t delta,
                                       std::uint64_t* result);
  /// compare_swap with the typed-status contract (same result contract).
  sim::Task<OpStatus> compare_swap_status(const ArrayDesc& a,
                                          std::uint64_t elem,
                                          std::uint64_t expected,
                                          std::uint64_t desired,
                                          std::uint64_t* result);
  template <class T>
  sim::Task<OpStatus> read_status(const ArrayDesc& a, std::uint64_t i, T* out);
  template <class T>
  sim::Task<OpStatus> write_status(const ArrayDesc& a, std::uint64_t i, T v);
  /// Async ops currently in flight (issued, not yet done).
  std::uint64_t outstanding() const noexcept {
    return completion_.outstanding();
  }
  const CommStats& comm_stats() const noexcept { return completion_.stats(); }

  // --- small-message coalescing (docs/COALESCING.md) ---
  /// Ship the coalescing buffer bound for `dest` now. No-op when nothing
  /// is staged (and always when coalescing is off).
  void flush(NodeId dest) { completion_.flush(dest); }
  /// Ship every coalescing buffer of this thread.
  void flush_all() { completion_.flush_all(); }
  const CoalesceStats& coalesce_stats() const noexcept {
    return completion_.coalesce_stats();
  }

  /// Typed element access: read_status / put_status plus the raise, as
  /// frameless awaitables that hold the element's value (Reading and
  /// Writing, below).
  template <class T>
  Reading<T> read(const ArrayDesc& a, std::uint64_t i);
  template <class T>
  Writing<T> write(const ArrayDesc& a, std::uint64_t i, T v);
  /// Strict (UPC `strict`) accesses: a strict write completes remotely
  /// before the thread proceeds; a strict read completes all previous
  /// writes of this thread first. Relaxed accesses (`read`/`write`) only
  /// guarantee completion at fences/barriers.
  template <class T>
  sim::Task<void> write_strict(const ArrayDesc& a, std::uint64_t i, T v);
  template <class T>
  sim::Task<T> read_strict(const ArrayDesc& a, std::uint64_t i);
  template <class T>
  sim::Task<T> read2d(const ArrayDesc& a, std::uint64_t r, std::uint64_t c);
  template <class T>
  sim::Task<void> write2d(const ArrayDesc& a, std::uint64_t r,
                          std::uint64_t c, T v);

  // --- atomics (docs/COMM_ENGINE.md verb table) ---
  /// Atomic fetch-and-add of a 64-bit slot, applied indivisibly at the
  /// element's home. Returns the value before the addition. A blocking
  /// issue+wait through the same pipeline as faa_nb (mirroring get/put).
  sim::Task<std::uint64_t> fetch_add(const ArrayDesc& a, std::uint64_t elem,
                                     std::uint64_t delta);
  /// Atomic compare-and-swap of a 64-bit slot: stores `desired` iff the
  /// slot equals `expected`. Returns the value before the operation (the
  /// swap happened iff the return equals `expected`).
  sim::Task<std::uint64_t> compare_swap(const ArrayDesc& a, std::uint64_t elem,
                                        std::uint64_t expected,
                                        std::uint64_t desired);
  /// Nonblocking fetch-and-add: the old value lands in `*result` when
  /// the returned handle is waited. `result` must stay live until then.
  OpHandle faa_nb(const ArrayDesc& a, std::uint64_t elem, std::uint64_t delta,
                  std::uint64_t* result);
  /// Nonblocking compare-and-swap, same result contract as faa_nb.
  OpHandle cas_nb(const ArrayDesc& a, std::uint64_t elem,
                  std::uint64_t expected, std::uint64_t desired,
                  std::uint64_t* result);

  // --- locks (upc_lock) ---
  sim::Task<LockDesc> lock_alloc();
  sim::Task<void> lock(const LockDesc& lk);
  sim::Task<void> unlock(const LockDesc& lk);

  // --- UPC intrinsics (pure, no simulated time) ---
  ThreadId threadof(const ArrayDesc& a, std::uint64_t i) const;
  std::uint64_t phaseof(const ArrayDesc& a, std::uint64_t i) const;
  NodeId nodeof(const ArrayDesc& a, std::uint64_t i) const;

 private:
  friend class Runtime;
  friend class AccessPath;

  /// The thread's whole life as a detached simulated process: `body`,
  /// then the end-of-run flush of its staged ops and its leave from the
  /// runtime's live-thread count. One frame for the run, beside the
  /// body's own.
  sim::Process main(const std::function<sim::Task<void>(UpcThread&)>& body);

  // Build validated CommOp descriptors (shared by the blocking wrappers
  // and the *_nb surface; throws on malformed spans).
  CommOp checked_op_1d(OpKind kind, const ArrayDesc& a, std::uint64_t elem,
                       std::byte* dst, const std::byte* src,
                       std::size_t bytes) const;
  CommOp checked_op_multi(OpKind kind, const ArrayDesc& a, std::uint64_t elem,
                          std::byte* dst, const std::byte* src,
                          std::size_t bytes) const;
  CommOp checked_op_2d(OpKind kind, const ArrayDesc& a, std::uint64_t r,
                       std::uint64_t c, std::byte* dst, const std::byte* src,
                       std::size_t bytes) const;
  CommOp checked_op_amo(OpKind kind, const ArrayDesc& a, std::uint64_t elem,
                        std::uint64_t operand, std::uint64_t compare,
                        std::uint64_t* result) const;

  Runtime* rt_;
  ThreadId id_;
  NodeId node_;
  std::uint32_t core_;
  sim::Rng rng_;

  // Op slots, PUT remote-completion tracking and comm.* statistics.
  CompletionEngine completion_;
  // One outstanding lock wait at a time.
  std::unique_ptr<sim::Future<bool>> lock_wait_;
};

class Runtime final : public net::AmTarget {
 public:
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime() override;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  using ThreadBody = std::function<sim::Task<void>(UpcThread&)>;

  /// Spawn one coroutine per UPC thread and run the simulation until all
  /// complete. Throws on deadlock (threads left suspended with no events),
  /// then checks the end-of-run invariants and throws std::logic_error
  /// naming the first one broken: (a) the address caches' entries equal
  /// the remote-base table's references, and no value is held without
  /// one; (b) every machine resource is idle with no waiter; (c) no UPC
  /// thread has a nonblocking op in flight or a PUT remote completion
  /// outstanding; (d) the sim pool's live bytes are no higher than when
  /// run() began.
  void run(ThreadBody body);

  // --- introspection ---
  const RuntimeConfig& config() const noexcept { return cfg_; }
  std::uint32_t threads() const noexcept { return cfg_.threads(); }
  std::uint32_t nodes() const noexcept { return cfg_.nodes; }
  std::uint32_t threads_per_node() const noexcept {
    return cfg_.threads_per_node;
  }
  sim::Simulator& simulator() noexcept { return sim_; }
  net::Machine& machine() noexcept { return machine_; }
  net::Transport& transport() noexcept { return transport_; }
  sim::Time elapsed() const noexcept { return sim_.now(); }

  AddressCache& cache(NodeId n) { return node(n).cache; }
  /// The values every node's address cache holds, each stored once.
  RemoteBases& remote_bases() noexcept { return bases_; }
  mem::PinnedAddressTable& pinned(NodeId n) { return node(n).pinned; }
  mem::AddressSpace& memory(NodeId n) { return node(n).space; }
  svd::Directory& directory(NodeId n) { return node(n).dir; }
  const OpCounters& counters() const noexcept { return counters_; }
  UpcThread& thread(ThreadId t) { return *threads_.at(t); }
  Tracer& tracer() noexcept { return tracer_; }
  const Tracer& tracer() const noexcept { return tracer_; }

  // --- failure detection and recovery (docs/FAULTS.md) ---
  /// UPC threads whose body has not yet finished in the current run().
  /// The failure detector's tick loop exits when this reaches zero.
  std::uint32_t live_threads() const noexcept { return live_threads_; }
  /// True when the failure detector has declared `node` dead. Always
  /// false without a fabric fault plan (the detector never runs).
  bool peer_failed(NodeId node) const noexcept {
    return detector_ != nullptr && detector_->declared_dead(node);
  }
  /// The detector, or nullptr when the plan schedules no fabric faults.
  const FailureDetector* detector() const noexcept { return detector_.get(); }
  /// Recovery chain, invoked by the detector once per declared death:
  /// the transport error-fences the peer's connections and fails its
  /// in-flight legs fast; every node's address cache drops entries
  /// pointing at the corpse; the corpse's registration cache is cleared.
  void on_peer_dead(NodeId node);

  /// Snapshot every layer's statistics as a RunReport: the MetricsRegistry
  /// counters/gauges (docs/OBSERVABILITY.md taxonomy), per-resource
  /// utilization, and the trace summary when tracing is on. Also folds
  /// the current totals into `simulator().metrics()`.
  RunReport metrics();

  /// Start a fresh metrics window: zero every counter, cache statistic,
  /// resource usage and the registry, and clear recorded trace events.
  /// Simulated time, caches and pinned memory themselves are untouched,
  /// so steady-state windows can be measured after warm-up.
  void reset_metrics();

  /// Zero-time direct access to array storage, for tests and validation.
  void debug_read(const ArrayDesc& a, std::uint64_t elem,
                  std::span<std::byte> out);
  void debug_write(const ArrayDesc& a, std::uint64_t elem,
                   std::span<const std::byte> in);

  /// Bring the address caches and pinned tables to steady state for `a`
  /// in zero simulated time: every node's cache learns every other node's
  /// base address and the pieces are pinned, as they would be after a
  /// long warm-up phase. Used by experiments that (like the paper's)
  /// measure steady-state behaviour, not cold-start population. No-op
  /// when the cache is disabled. Statistics are reset afterwards. Costs
  /// O(nodes × max_entries) host time: each cache receives only the keys
  /// LRU eviction would leave it with.
  void warm_address_cache(const ArrayDesc& a);

  // --- AmTarget (target-side handlers, invoked by the transport) ---
  GetServe serve_get(NodeId target, const net::GetRequest& req) override;
  PutServe serve_put(NodeId target, net::PutRequest&& req) override;
  PutServe serve_put_rendezvous(NodeId target, const net::PutRequest& req,
                                std::size_t len) override;
  void deliver_put_payload(NodeId target, std::uint64_t svd_handle,
                           std::uint64_t offset,
                           net::Bytes&& data) override;
  void serve_control(NodeId target, NodeId source,
                     const net::ControlMsg& msg) override;
  std::uint64_t serve_amo(NodeId target, const net::AmoRequest& req) override;
  net::RdmaWindow rdma_memory(NodeId target, Addr addr,
                              std::size_t len) override;

 private:
  friend class UpcThread;
  friend class AccessPath;
  friend class CompletionEngine;
  friend class CoalescingEngine;

  struct LockState {
    bool held = false;
    ThreadId holder = 0;
    std::deque<ThreadId> waiters;
  };

  struct Node {
    mem::AddressSpace space;
    svd::Directory dir;
    mem::PinnedAddressTable pinned;
    AddressCache cache;
    std::unordered_map<std::uint64_t, LockState> locks;  // homed here
    ArrayDesc pending_alloc;  // collective publication slot
  };

  Node& node(NodeId n) { return nodes_.at(n); }

  // Allocation plumbing.
  sim::Task<ArrayDesc> all_alloc_spec(UpcThread& th, LayoutSpec spec);
  sim::Task<ArrayDesc> global_alloc_spec(UpcThread& th, LayoutSpec spec,
                                         svd::ObjectKind kind);
  void materialize_piece(NodeId n, svd::Handle h, const Layout& layout,
                         svd::ObjectKind kind);
  // Full-table mode: broadcast this node's base address for `h` to every
  // other node's table (charged control messages; pieces pinned first).
  void publish_bases(NodeId origin, svd::Handle h);
  void do_free(NodeId n, svd::Handle h);

  // Data-movement plumbing (tier dispatch lives in AccessPath).
  Addr local_translate(NodeId n, svd::Handle h, std::uint64_t node_offset,
                       std::size_t len);
  bool put_cache_enabled() const;
  CacheKey make_key(const ArrayDesc& a, NodeId remote,
                    std::uint64_t node_offset) const;
  void note_put_issued(UpcThread& th);
  void note_put_completed(ThreadId th);

  // Atomics: apply an atomic verb to the 64-bit word at `addr` in
  // `node`'s address space and return the old value (the single
  // read-modify-write shared by the local tier and serve_amo).
  std::uint64_t apply_amo(NodeId n, Addr addr, OpKind kind,
                          std::uint64_t operand, std::uint64_t compare);

  // Locks.
  void lock_request_at_home(NodeId home_node, std::uint64_t handle,
                            ThreadId requester);
  void lock_release_at_home(NodeId home_node, std::uint64_t handle,
                            ThreadId holder);
  void grant_lock(NodeId home_node, std::uint64_t handle, ThreadId requester);

  // Barrier cost model: a dissemination barrier pays ~log2(nodes)
  // exchange rounds of wire latency.
  sim::Duration barrier_cost() const;

  // The end-of-run invariants run() checks; O(nodes + threads +
  // resources + cached values). `pool_bytes` is the sim pool's live bytes
  // when run() began.
  void check_invariants(std::uint64_t pool_bytes) const;

  RuntimeConfig cfg_;
  sim::Simulator sim_;
  net::Machine machine_;
  net::Transport transport_{machine_, *this};
  AccessPath path_{*this};  ///< the tier dispatch every CommOp runs through
  RemoteBases bases_;  ///< before nodes_: it outlives every address cache
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<UpcThread>> threads_;
  std::unique_ptr<sim::CyclicBarrier> user_barrier_;
  std::unique_ptr<sim::CyclicBarrier> collective_barrier_;
  OpCounters counters_;
  Tracer tracer_;
  sim::Time metrics_epoch_ = 0;
  std::uint64_t events_epoch_ = 0;

  // Whole-fabric failure handling: constructed only when the fault plan
  // schedules link-down windows or crashes, so fault-free and
  // message-fault-only runs carry zero detector state or events.
  std::unique_ptr<FailureDetector> detector_;
  std::uint32_t live_threads_ = 0;
};

/// What UpcThread::read<T> returns: the element's value and the status
/// task of the GET that lands in it. Awaiting it runs the GET in place,
/// raises the failure the GET ended with (net::raise_if_failed) and
/// yields the value. Like Raising it keeps no frame of its own: a thread
/// waiting on a typed read keeps only the op's span frame and its
/// transport leg. The GET writes into it, so it is neither copyable nor
/// movable; await it where it is made.
template <class T>
class [[nodiscard]] Reading {
 public:
  Reading(UpcThread& th, const ArrayDesc& a, std::uint64_t i)
      : status_(th.read_status(a, i, &value_)) {}
  Reading(const Reading&) = delete;
  Reading& operator=(const Reading&) = delete;

  bool await_ready() const { return status_.await_ready(); }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> caller) noexcept {
    return status_.await_suspend(caller);
  }
  T await_resume() {
    net::raise_if_failed(status_.await_resume());
    return value_;
  }

 private:
  T value_{};
  sim::Task<OpStatus> status_;
};

/// What UpcThread::write<T> returns: the value to store and the status
/// task of the PUT that reads it; awaiting runs the PUT to local
/// completion and raises its failure. Frameless and pinned like Reading.
template <class T>
class [[nodiscard]] Writing {
 public:
  Writing(UpcThread& th, const ArrayDesc& a, std::uint64_t i, T v)
      : value_(v),
        status_(th.put_status(a, i, std::as_bytes(std::span(&value_, 1)))) {}
  Writing(const Writing&) = delete;
  Writing& operator=(const Writing&) = delete;

  bool await_ready() const { return status_.await_ready(); }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> caller) noexcept {
    return status_.await_suspend(caller);
  }
  void await_resume() { net::raise_if_failed(status_.await_resume()); }

 private:
  T value_;
  sim::Task<OpStatus> status_;
};

// --- templated helpers -------------------------------------------------

template <class T>
Reading<T> UpcThread::read(const ArrayDesc& a, std::uint64_t i) {
  return Reading<T>(*this, a, i);
}

template <class T>
Writing<T> UpcThread::write(const ArrayDesc& a, std::uint64_t i, T v) {
  return Writing<T>(*this, a, i, v);
}

template <class T>
sim::Task<void> UpcThread::write_strict(const ArrayDesc& a, std::uint64_t i,
                                        T v) {
  co_await write<T>(a, i, v);
  co_await fence();
}

template <class T>
sim::Task<T> UpcThread::read_strict(const ArrayDesc& a, std::uint64_t i) {
  co_await fence();
  co_return co_await read<T>(a, i);
}

template <class T>
sim::Task<OpStatus> UpcThread::read_status(const ArrayDesc& a,
                                           std::uint64_t i, T* out) {
  return get_status(a, i, std::as_writable_bytes(std::span(out, 1)));
}

template <class T>
sim::Task<OpStatus> UpcThread::write_status(const ArrayDesc& a,
                                            std::uint64_t i, T v) {
  co_return co_await put_status(a, i, std::as_bytes(std::span(&v, 1)));
}

template <class T>
sim::Task<T> UpcThread::read2d(const ArrayDesc& a, std::uint64_t r,
                               std::uint64_t c) {
  T v{};
  co_await get2d(a, r, c, std::as_writable_bytes(std::span(&v, 1)));
  co_return v;
}

template <class T>
sim::Task<void> UpcThread::write2d(const ArrayDesc& a, std::uint64_t r,
                                   std::uint64_t c, T v) {
  co_await put2d(a, r, c, std::as_bytes(std::span(&v, 1)));
}

}  // namespace xlupc::core
