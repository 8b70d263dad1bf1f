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

  /// The awaiter of delay(), named so that other awaiters can embed it
  /// (net::ProtocolEngine::Delivery waits one on its fast path) and a
  /// coroutine can keep one and re-arm it.
  struct Delay {
    Simulator* sim = nullptr;
    Duration d = 0;
    bool await_ready() const noexcept { return d == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_resume_after(d, h);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable that suspends the caller for `d` simulated nanoseconds.
  Delay delay(Duration d) { return Delay{this, d}; }

  /// Start a detached simulated process that awaits `task` (a Task<> or
  /// any other awaitable). Its coroutine frame lives until completion;
  /// the first uncaught exception aborts `run()` and rethrows.
  template <class Awaitable>
  void spawn(Awaitable task) {
    // The process starts eagerly and runs the task up to its first
    // suspension within the caller's event (tasks are lazy).
    drive(std::move(task));
  }

  /// Run until no events remain (or an exception escapes a process).
  /// Returns the final simulated time.
  Time run();

  /// Run until simulated time would exceed `deadline`; events at exactly
  /// `deadline` still run. Returns the final simulated time.
  Time run_until(Time deadline);

  /// Number of processes started and still incomplete.
  std::uint64_t live_processes() const noexcept { return live_; }

  /// Destroy every process still suspended, oldest first (an exception
  /// aborted run() before the queue drained). Their frames hold the
  /// addresses of the objects they wait on and of their callers' state,
  /// so an owner destroys them before those objects; the queued events
  /// that would resume them must then never run. The destructor does
  /// the same for what is left.
  void destroy_processes() noexcept;

  /// Total events executed (determinism / perf diagnostics).
  std::uint64_t events_executed() const noexcept { return queue_.executed(); }

  /// Named counters/gauges of this simulation. Layers fold their local
  /// statistics in at report time; user code may add its own.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// The event queue (peak pending count for tests/benches).
  const EventQueue& queue() const noexcept { return queue_; }

 /// The return type of a detached process: a coroutine that starts at
  /// once, runs unawaited and frees its own frame at its end. Its first
  /// parameter names its simulator: the Simulator itself, or an object
  /// whose simulator() returns it (a member coroutine's `*this` counts).
  /// An exception that escapes the body aborts run() and is rethrown
  /// there; a frame still suspended when the simulator destroys its
  /// processes is destroyed, releasing the tasks it awaits. spawn() runs
  /// a task in one; a process that only awaits one task can instead be
  /// written as one and spare the task's frame (Runtime::run's UPC
  /// threads).
  struct Process {
    struct promise_type : PooledFrame {
      // The process links itself at the tail of its simulator's process
      // list, so destroy_processes() finds the frames an aborted run
      // leaves parked in the queue and in synchronizers. The links live
      // in the frame: starting a process allocates nothing besides it.
      explicit promise_type(Simulator& sim) noexcept
          : sim_(&sim), prev_(sim.last_process_) {
        (prev_ != nullptr ? prev_->next_ : sim.first_process_) = this;
        sim.last_process_ = this;
        ++sim.live_;
      }
      template <class Owner, class... Args>
      explicit promise_type(Owner& owner, Args&...) noexcept
          : promise_type(simulator_of(owner)) {}
      ~promise_type() {
        (prev_ != nullptr ? prev_->next_ : sim_->first_process_) = next_;
        (next_ != nullptr ? next_->prev_ : sim_->last_process_) = prev_;
        --sim_->live_;
      }
      Process get_return_object() const noexcept { return {}; }
      std::suspend_never initial_suspend() const noexcept { return {}; }
      std::suspend_never final_suspend() const noexcept { return {}; }
      void return_void() const noexcept {}
      void unhandled_exception() noexcept {
        if (!sim_->failure_) sim_->failure_ = std::current_exception();
      }

     private:
      friend class Simulator;
      static Simulator& simulator_of(Simulator& sim) noexcept { return sim; }
      template <class Owner>
      static Simulator& simulator_of(Owner& owner) noexcept {
        return owner.simulator();
      }

      Simulator* sim_;
      promise_type* prev_;
      promise_type* next_ = nullptr;
    };
  };

 private:
  template <class Awaitable>
  Process drive(Awaitable task) {
    co_await std::move(task);
  }

  [[noreturn]] static void throw_past();
  void rethrow_if_failed();

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t live_ = 0;
  std::exception_ptr failure_;
  Process::promise_type* first_process_ = nullptr;  ///< oldest unfinished
  Process::promise_type* last_process_ = nullptr;
  MetricsRegistry metrics_;
};

using Process = Simulator::Process;

}  // namespace xlupc::sim
