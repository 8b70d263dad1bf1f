// Lazy coroutine task type used to express simulated processes.
//
// A Task<T> is a coroutine that starts suspended and runs when awaited.
// Completion resumes the awaiting coroutine via symmetric transfer, so long
// await chains (UPC thread -> runtime -> transport) cost no stack depth.
// Tasks are move-only, own their coroutine frame and are their own
// awaiters.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/pool.h"

namespace xlupc::sim {

namespace detail {

// Inheriting PooledFrame routes every Task<> coroutine frame through the
// sim pool's size-class freelists: each co_await chain (thread body ->
// runtime -> transport -> resource) allocates and frees several frames
// per operation, and recycling them is one of the big event-loop wins
// (docs/PERFORMANCE.md).
struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation{};
  std::exception_ptr error;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

/// Where a finished Task<T> keeps its result until the awaiter takes it.
template <class T>
struct ValuePromise : PromiseBase {
  std::optional<T> value;

  void return_value(T v) { value.emplace(std::move(v)); }
  T take() { return std::move(*value); }
};

template <>
struct ValuePromise<void> : PromiseBase {
  void return_void() const noexcept {}
  void take() const noexcept {}
};

}  // namespace detail

/// A lazily-started coroutine returning T. `co_await task` runs it to
/// completion in simulated time and yields its result; a task is awaited
/// at most once.
template <class T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::ValuePromise<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }

  // A Task is its own awaiter: a co_await site keeps the task it awaits
  // and nothing beside it (an operator co_await would add an awaiter
  // copy of the handle to the awaiting frame). Awaiting a moved-from
  // task, or one already awaited to its end, throws std::logic_error.
  bool await_ready() const {
    if (!handle_ || handle_.done()) {
      throw std::logic_error("sim::Task: awaited an empty or finished task");
    }
    return false;
  }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> cont) noexcept {
    handle_.promise().continuation = cont;
    return handle_;  // start (or resume into) the child coroutine
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
    return p.take();
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace xlupc::sim
