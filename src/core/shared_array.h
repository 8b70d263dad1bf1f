// Typed convenience wrapper over ArrayDesc — the ergonomic face of the
// public API used by examples and benchmarks.
#pragma once

#include <span>
#include <vector>

#include "core/runtime.h"

namespace xlupc::core {

template <class T>
class SharedArray {
 public:
  SharedArray() = default;
  explicit SharedArray(ArrayDesc desc) : desc_(std::move(desc)) {}

  /// Collective allocation (upc_all_alloc); every thread must call.
  static sim::Task<SharedArray> all_alloc(UpcThread& th, std::uint64_t nelems,
                                          std::uint64_t block = 0) {
    auto desc = co_await th.all_alloc(nelems, sizeof(T), block);
    co_return SharedArray(std::move(desc));
  }

  /// Single-thread allocation (upc_global_alloc).
  static sim::Task<SharedArray> global_alloc(UpcThread& th,
                                             std::uint64_t nelems,
                                             std::uint64_t block = 0) {
    auto desc = co_await th.global_alloc(nelems, sizeof(T), block);
    co_return SharedArray(std::move(desc));
  }

  const ArrayDesc& desc() const noexcept { return desc_; }
  bool valid() const noexcept { return desc_.valid(); }
  std::uint64_t size() const { return desc_.layout->total_elems(); }

  Reading<T> read(UpcThread& th, std::uint64_t i) const {
    return th.read<T>(desc_, i);
  }
  Writing<T> write(UpcThread& th, std::uint64_t i, T v) const {
    return th.write<T>(desc_, i, v);
  }
  /// Bulk read into a caller-provided vector (upc_memget).
  Raising read_many(UpcThread& th, std::uint64_t start,
                    std::span<T> out) const {
    return th.memget(desc_, start, std::as_writable_bytes(out));
  }
  Raising write_many(UpcThread& th, std::uint64_t start,
                     std::span<const T> in) const {
    return th.memput(desc_, start, std::as_bytes(in));
  }

  ThreadId threadof(UpcThread& th, std::uint64_t i) const {
    return th.threadof(desc_, i);
  }

  sim::Task<void> free(UpcThread& th) { return th.free_array(desc_); }

 private:
  ArrayDesc desc_;
};

/// Typed 2-D (multi-blocked) shared array.
template <class T>
class SharedArray2D {
 public:
  SharedArray2D() = default;
  explicit SharedArray2D(ArrayDesc desc) : desc_(std::move(desc)) {}

  static sim::Task<SharedArray2D> all_alloc(UpcThread& th, std::uint64_t rows,
                                            std::uint64_t cols,
                                            std::uint64_t block_rows,
                                            std::uint64_t block_cols) {
    auto desc =
        co_await th.all_alloc2d(rows, cols, sizeof(T), block_rows, block_cols);
    co_return SharedArray2D(std::move(desc));
  }

  const ArrayDesc& desc() const noexcept { return desc_; }
  bool valid() const noexcept { return desc_.valid(); }
  std::uint64_t rows() const { return desc_.layout->spec().extent[0]; }
  std::uint64_t cols() const { return desc_.layout->spec().extent[1]; }

  sim::Task<T> read(UpcThread& th, std::uint64_t r, std::uint64_t c) const {
    return th.read2d<T>(desc_, r, c);
  }
  sim::Task<void> write(UpcThread& th, std::uint64_t r, std::uint64_t c,
                        T v) const {
    return th.write2d<T>(desc_, r, c, v);
  }

  ThreadId threadof(std::uint64_t r, std::uint64_t c) const {
    return desc_.layout->locate2d(r, c).thread;
  }

  sim::Task<void> free(UpcThread& th) { return th.free_array(desc_); }

 private:
  ArrayDesc desc_;
};

}  // namespace xlupc::core
