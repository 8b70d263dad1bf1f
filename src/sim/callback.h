// Small callables for the event queue and the transport.
//
// sim::Callback is what an event runs: a move-only {fn, word} thunk that
// the event queue files as is, next to the event's time. A callable that
// is one trivially copyable word (a coroutine handle, a pointer capture:
// every callback the runtime schedules) lives in the word itself; a
// larger one, which only tests schedule, spills to the pool and the word
// points at it. Running an event is one indirect call, fn(word, true),
// which also releases a spilled callable; fn(word, false) releases it
// without running it.
//
// sim::SmallFn keeps 48 bytes of inline storage and spills larger
// callables to the pool, not malloc. It is move-only, so callables
// holding move-only state (unique_ptrs) need no copyability. The
// transport's completion hooks (PUT acks, RDMA landings) use it.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// An event-queue payload: a move-only {fn, word} thunk (see the top of
/// this file). Construct it from any `void()` callable.
class Callback {
 public:
  /// Runs (`run` true) and then releases, or only releases, the callable
  /// that `word` holds.
  using Fn = void (*)(std::uintptr_t word, bool run);
  /// The filed form of a callback: what the event queue stores. It owns
  /// a spilled callable until fn runs.
  struct Thunk {
    Fn fn;
    std::uintptr_t word;
  };

  /// Callables up to this size live inline, in the word.
  static constexpr std::size_t kInlineBytes = sizeof(std::uintptr_t);

  Callback() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::remove_cvref_t<F>;
    if constexpr (fits_inline<D>()) {
      const D d(std::forward<F>(fn));
      std::memcpy(&thunk_.word, &d, sizeof(D));
      thunk_.fn = &run_inline<D>;
    } else {
      void* mem = pool_alloc(sizeof(D));
      try {
        ::new (mem) D(std::forward<F>(fn));
      } catch (...) {
        pool_free(mem, sizeof(D));
        throw;
      }
      thunk_ = {&run_spilled<D>, reinterpret_cast<std::uintptr_t>(mem)};
      spilled_ = true;
    }
  }

  Callback(Callback&& other) noexcept
      : thunk_(other.release()), spilled_(other.spilled_) {}
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      spilled_ = other.spilled_;
      thunk_ = other.release();
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return thunk_.fn != nullptr; }

  /// Run the callable once and release it. Precondition: non-empty.
  void operator()() && {
    const Thunk t = release();
    t.fn(t.word, true);
  }

  /// Hand the thunk, and with it the callable, to the caller; leaves
  /// this callback empty.
  Thunk release() noexcept { return std::exchange(thunk_, Thunk{}); }

  /// True when the callable lives in the word (tests).
  bool inline_stored() const noexcept {
    return thunk_.fn != nullptr && !spilled_;
  }

 private:
  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::uintptr_t) &&
           std::is_trivially_copyable_v<D>;
  }

  template <class D>
  static void run_inline(std::uintptr_t word, bool run) {
    if (!run) return;
    alignas(D) unsigned char buf[sizeof(D)];
    std::memcpy(buf, &word, sizeof(D));
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }

  template <class D>
  static void run_spilled(std::uintptr_t word, bool run) {
    // Released on every way out, including a throwing call.
    struct Release {
      D* p;
      ~Release() {
        p->~D();
        pool_free(p, sizeof(D));
      }
    } held{reinterpret_cast<D*>(word)};
    if (run) (*held.p)();
  }

  void reset() noexcept {
    const Thunk t = release();
    if (t.fn != nullptr) t.fn(t.word, false);
  }

  Thunk thunk_{};
  bool spilled_ = false;
};

/// A callback that resumes `h` — the dominant event payload (delays,
/// resource grants, synchronizer releases): the handle is the word.
inline Callback resume_callback(std::coroutine_handle<> h) noexcept {
  return [h] { h.resume(); };
}

}  // namespace xlupc::sim
