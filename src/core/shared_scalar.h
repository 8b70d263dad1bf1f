// Shared scalars — the simplest shared-object kind the SVD tracks
// (paper Sec. 2.1 lists "shared scalars (including structures/unions/
// enumerations)" first). A SharedScalar<T> is a single element affine to
// a chosen home thread; every thread can read/write it, and the remote
// address cache applies exactly as for arrays.
#pragma once

#include "core/runtime.h"

namespace xlupc::core {

template <class T>
class SharedScalar {
 public:
  SharedScalar() = default;

  /// Collective allocation of one T with affinity to `home`.
  static sim::Task<SharedScalar> all_alloc(UpcThread& th, ThreadId home = 0) {
    // One element per thread slot, block 1; only the home slot is used —
    // this mirrors how a scalar with affinity lives in the owner's
    // partition while remaining addressable by everyone.
    auto desc =
        co_await th.all_alloc(th.runtime().threads(), sizeof(T), 1);
    co_return SharedScalar(std::move(desc), home);
  }

  ThreadId home() const noexcept { return home_; }
  const ArrayDesc& desc() const noexcept { return desc_; }
  bool valid() const noexcept { return desc_.valid(); }

  Reading<T> read(UpcThread& th) const {
    return th.read<T>(desc_, home_);
  }
  Writing<T> write(UpcThread& th, T v) const {
    return th.write<T>(desc_, home_, v);
  }
  sim::Task<void> write_strict(UpcThread& th, T v) const {
    return th.write_strict<T>(desc_, home_, v);
  }
  /// Atomic fetch-add (T must be std::uint64_t-sized; see
  /// UpcThread::fetch_add).
  sim::Task<std::uint64_t> fetch_add(UpcThread& th,
                                     std::uint64_t delta) const {
    return th.fetch_add(desc_, home_, delta);
  }

  sim::Task<void> free(UpcThread& th) { return th.free_array(desc_); }

 private:
  SharedScalar(ArrayDesc desc, ThreadId home)
      : desc_(std::move(desc)), home_(home) {}

  ArrayDesc desc_;
  ThreadId home_ = 0;
};

}  // namespace xlupc::core
