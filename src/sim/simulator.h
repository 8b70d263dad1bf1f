// The discrete-event simulator driving all simulated processes.
//
// Simulated processes are Task<> coroutines spawned on the simulator; they
// suspend on `delay()`, resource acquisition, or synchronization primitives,
// and the event loop resumes them at the right simulated instant. The run
// is fully deterministic: equal-time events fire in schedule order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>

#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/pool.h"
#include "sim/task.h"
#include "sim/time.h"

namespace xlupc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Schedule a callback at absolute simulated time `t` (>= now).
  void schedule_at(Time t, Callback fn) {
    if (t < now_) throw_past();
    queue_.schedule(t, std::move(fn));
  }

  /// Schedule a callback `d` nanoseconds from now.
  void schedule_after(Duration d, Callback fn) {
    schedule_at(now_ + d, std::move(fn));
  }

  /// Schedule a callback at the current time (runs after the current event).
  void post(Callback fn) { schedule_at(now_, std::move(fn)); }

  /// Resume a suspended coroutine at the current time — the dominant
  /// event payload, stored inline (one captured handle, no allocation).
  void post_resume(std::coroutine_handle<> h) {
    post(resume_callback(h));
  }

  /// Resume a suspended coroutine `d` nanoseconds from now.
  void schedule_resume_after(Duration d, std::coroutine_handle<> h) {
    schedule_at(now_ + d, resume_callback(h));
  }

  /// Awaitable that suspends the caller for `d` simulated nanoseconds.
  auto delay(Duration d) {
    struct Awaiter {
      Simulator* sim;
      Duration d;
      bool await_ready() const noexcept { return d == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_resume_after(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Start a detached simulated process. Its coroutine frame lives until
  /// completion; the first uncaught exception aborts `run()` and rethrows.
  void spawn(Task<> task);

  /// Run until no events remain (or an exception escapes a process).
  /// Returns the final simulated time.
  Time run();

  /// Run until simulated time would exceed `deadline`; events at exactly
  /// `deadline` still run. Returns the final simulated time.
  Time run_until(Time deadline);

  /// Number of processes spawned and still incomplete.
  std::uint64_t live_processes() const noexcept { return live_; }

  /// Total events executed (determinism / perf diagnostics).
  std::uint64_t events_executed() const noexcept { return queue_.executed(); }

  /// Named counters/gauges of this simulation. Layers fold their local
  /// statistics in at report time; user code may add its own.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// The event queue (peak pending count for tests/benches).
  const EventQueue& queue() const noexcept { return queue_; }

 private:
  struct Detached {
    struct promise_type : PooledFrame {
      // The driver links itself at the tail of its simulator's driver
      // list so frames still suspended when the simulator dies (an
      // aborted run leaves them parked in the queue/synchronizers) can be
      // destroyed, in spawn order, instead of leaked; each frame owns its
      // awaited Task chain. The links live in the frame, so a spawn
      // allocates nothing besides it.
      promise_type(Simulator& sim, Task<>&) noexcept
          : sim_(&sim), prev_(sim.last_driver_) {
        (prev_ != nullptr ? prev_->next_ : sim.first_driver_) = this;
        sim.last_driver_ = this;
      }
      ~promise_type() {
        (prev_ != nullptr ? prev_->next_ : sim_->first_driver_) = next_;
        (next_ != nullptr ? next_->prev_ : sim_->last_driver_) = prev_;
      }
      Detached get_return_object() const noexcept { return {}; }
      std::suspend_never initial_suspend() const noexcept { return {}; }
      std::suspend_never final_suspend() const noexcept { return {}; }
      void return_void() const noexcept {}
      void unhandled_exception() { std::terminate(); }

     private:
      Simulator* sim_;
      promise_type* prev_;
      promise_type* next_ = nullptr;
    };
  };
  Detached drive(Task<> task);

  [[noreturn]] static void throw_past();
  void rethrow_if_failed();

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t live_ = 0;
  std::exception_ptr failure_;
  Detached::promise_type* first_driver_ = nullptr;  ///< oldest unfinished
  Detached::promise_type* last_driver_ = nullptr;
  MetricsRegistry metrics_;
};

}  // namespace xlupc::sim
