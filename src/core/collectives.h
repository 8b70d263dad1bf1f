// UPC-style collective operations (upc_all_broadcast / upc_all_reduce /
// upc_all_gather analogues) built entirely on the public runtime API.
//
// A Collective<T> owns a shared scratch array with one slot per thread
// (block size 1, so slot i is affine to thread i). Data moves through
// binomial trees of PUTs, so every round exercises the same remote-access
// machinery (address cache, RDMA, piggybacking) as application traffic,
// and collectives get faster when the cache is warm — as they did in the
// real XLUPC runtime.
//
// All member operations are collective: every UPC thread must call them
// with compatible arguments, in the same order.
#pragma once

#include <bit>
#include <vector>

#include "core/runtime.h"
#include "core/shared_array.h"

namespace xlupc::core {

template <class T>
class Collective {
 public:
  Collective() = default;

  /// Collective constructor: allocates the scratch array (one T per
  /// thread). Every thread must call it.
  static sim::Task<Collective> create(UpcThread& th) {
    const std::uint32_t threads = th.runtime().threads();
    auto desc = co_await th.all_alloc(threads, sizeof(T), /*block=*/1);
    co_return Collective(std::move(desc));
  }

  /// Broadcast `value` from thread `root` to every thread; returns the
  /// broadcast value on all threads. Binomial tree: ceil(log2 T) rounds.
  sim::Task<T> broadcast(UpcThread& th, T value, ThreadId root) {
    const std::uint32_t threads = th.runtime().threads();
    const std::uint32_t rel =
        (th.id() + threads - root) % threads;  // rank relative to root
    if (rel == 0) co_await write_slot(th, th.id(), value);
    co_await th.barrier();
    for (std::uint32_t step = 1; step < threads; step <<= 1) {
      if (rel < step && rel + step < threads) {
        const ThreadId dst = (root + rel + step) % threads;
        const T mine = co_await read_slot(th, th.id());
        co_await write_slot(th, dst, mine);
      }
      co_await th.barrier();
    }
    co_return co_await read_slot(th, th.id());
  }

  /// All-reduce with a binary combiner (e.g. std::plus<T>{}): reduce to
  /// `root` over a binomial tree, then broadcast the result back.
  template <class BinaryOp>
  sim::Task<T> all_reduce(UpcThread& th, T value, BinaryOp op,
                          ThreadId root = 0) {
    const std::uint32_t threads = th.runtime().threads();
    const std::uint32_t rel = (th.id() + threads - root) % threads;
    co_await write_slot(th, th.id(), value);
    co_await th.barrier();
    // Combine pairs at doubling distances; survivors hold partials.
    for (std::uint32_t step = 1; step < threads; step <<= 1) {
      if (rel % (2 * step) == 0 && rel + step < threads) {
        const ThreadId partner = (root + rel + step) % threads;
        const T mine = co_await read_slot(th, th.id());
        const T theirs = co_await read_slot(th, partner);
        co_await write_slot(th, th.id(), op(mine, theirs));
      }
      co_await th.barrier();
    }
    // Standalone initializer: gcc 12 -O0+ASan miscompiles co_await
    // nested in a wider expression.
    const T total = co_await read_slot(th, root);
    co_return co_await broadcast(th, total, root);
  }

  /// Gather one value per thread; every thread returns the full vector,
  /// ordered by thread id (upc_all_gather_all analogue).
  sim::Task<std::vector<T>> all_gather(UpcThread& th, T value) {
    const std::uint32_t threads = th.runtime().threads();
    co_await write_slot(th, th.id(), value);
    co_await th.barrier();
    std::vector<T> out(threads);
    co_await th.memget(
        scratch_, 0,
        std::as_writable_bytes(std::span(out.data(), out.size())));
    co_await th.barrier();
    co_return out;
  }

  /// Exclusive prefix reduction (upc_all_prefix_reduce analogue):
  /// thread t returns op(v_0, ..., v_{t-1}); thread 0 returns `identity`.
  template <class BinaryOp>
  sim::Task<T> exscan(UpcThread& th, T value, BinaryOp op, T identity) {
    auto all = co_await all_gather(th, value);
    T acc = identity;
    for (ThreadId t = 0; t < th.id(); ++t) acc = op(acc, all[t]);
    co_return acc;
  }

  const ArrayDesc& scratch() const noexcept { return scratch_; }

  /// Collective destructor-equivalent; frees the scratch array.
  sim::Task<void> destroy(UpcThread& th) {
    co_await th.barrier();
    if (th.id() == 0) co_await th.free_array(scratch_);
    co_await th.barrier();
  }

 private:
  explicit Collective(ArrayDesc scratch) : scratch_(std::move(scratch)) {}

  Reading<T> read_slot(UpcThread& th, ThreadId slot) {
    return th.read<T>(scratch_, slot);
  }
  Writing<T> write_slot(UpcThread& th, ThreadId slot, T v) {
    // Remote completion matters for the following barrier; barrier()
    // already fences, so a plain put suffices.
    return th.write<T>(scratch_, slot, v);
  }

  ArrayDesc scratch_;
};

}  // namespace xlupc::core
