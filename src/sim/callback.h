// Small-buffer-optimized callables for the event queue and the transport.
//
// The pre-refactor EventQueue stored `std::function<void()>`, which
// heap-allocates for any capture larger than the libstdc++ 16-byte local
// buffer and drags the full std::function machinery through every heap
// sift. SmallFn keeps 48 bytes of inline storage — enough for every
// callback the runtime schedules (a coroutine handle is 8 bytes; the
// largest transport continuations fit with room to spare) — and spills
// rarities to the pool, not malloc. It is move-only, so callables holding
// move-only state (Task<> chains, unique_ptrs) schedule without the
// copyability tax std::function imposes. The transport's completion
// hooks (PUT acks, RDMA landings) use the same type with other
// signatures.
#pragma once

#include <coroutine>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/pool.h"

namespace xlupc::sim {

/// Move-only callable of signature `Sig`; callables up to `N` bytes (and
/// max_align-compatible, nothrow-movable) live inline, larger ones in the
/// pool.
template <class Sig, std::size_t N = 48>
class SmallFn;

template <class R, class... Args, std::size_t N>
class SmallFn<R(Args...), N> {
 public:
  static constexpr std::size_t kInlineBytes = N;

  SmallFn() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::remove_cvref_t<F>;
    if constexpr (sizeof(D) <= N && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      void* mem = pool_alloc(sizeof(D));
      try {
        ::new (mem) D(std::forward<F>(fn));
      } catch (...) {
        pool_free(mem, sizeof(D));
        throw;
      }
      ::new (static_cast<void*>(buf_)) void*(mem);
      ops_ = &kSpilledOps<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the callable. Precondition: non-empty.
  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True when the callable lives in the inline buffer (tests).
  bool inline_stored() const noexcept {
    return ops_ != nullptr && ops_->relocate != nullptr;
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    /// Move the callable buf -> dst and destroy the source; null for
    /// spilled callables (their buffer holds just a pointer).
    void (*relocate)(void* buf, void* dst);
    void (*destroy)(void* buf);
  };

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return (*std::launder(static_cast<D*>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* buf, void* dst) {
        D* src = std::launder(static_cast<D*>(buf));
        ::new (dst) D(std::move(*src));
        src->~D();
      },
      [](void* buf) { std::launder(static_cast<D*>(buf))->~D(); },
  };

  template <class D>
  static constexpr Ops kSpilledOps = {
      [](void* buf, Args&&... args) -> R {
        return (*static_cast<D*>(*static_cast<void**>(buf)))(
            std::forward<Args>(args)...);
      },
      nullptr,
      [](void* buf) {
        D* p = static_cast<D*>(*static_cast<void**>(buf));
        p->~D();
        pool_free(p, sizeof(D));
      },
  };

  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      ::new (static_cast<void*>(buf_))
          void*(*reinterpret_cast<void**>(other.buf_));
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  const Ops* ops_ = nullptr;
};

/// An event-queue payload.
using Callback = SmallFn<void()>;

/// A callback that resumes `h` — the dominant event payload (delays,
/// resource grants, synchronizer releases): 8 bytes inline, no allocation.
inline Callback resume_callback(std::coroutine_handle<> h) noexcept {
  return [h] { h.resume(); };
}

}  // namespace xlupc::sim
