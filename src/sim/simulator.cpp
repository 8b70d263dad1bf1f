#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

namespace xlupc::sim {

Simulator::~Simulator() {
  // Processes still suspended (an exception aborted run() before the
  // queue drained) would otherwise leak their coroutine frames; queued
  // callbacks and synchronizer waiter lists hold the handles non-owning,
  // so destroying each driver frame here releases its whole chain. Each
  // frame unlinks itself, oldest first.
  while (first_driver_ != nullptr) {
    std::coroutine_handle<Detached::promise_type>::from_promise(*first_driver_)
        .destroy();
  }
  pool_trim();
}

void Simulator::throw_past() {
  throw std::logic_error("Simulator::schedule_at: time in the past");
}

Simulator::Detached Simulator::drive(Task<> task) {
  ++live_;
  try {
    co_await std::move(task);
  } catch (...) {
    if (!failure_) failure_ = std::current_exception();
  }
  --live_;
}

void Simulator::spawn(Task<> task) {
  // The detached driver starts eagerly and immediately suspends inside the
  // task's initial_suspend-free first await point (tasks are lazy, so the
  // body runs as soon as the driver awaits it, within the caller's event).
  drive(std::move(task));
}

void Simulator::rethrow_if_failed() {
  if (failure_) {
    auto e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

Time Simulator::run() {
  while (!queue_.empty() && !failure_) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
  // The frames of this run are back on their freelists: size classes the
  // next phase does not use give their chunks to the ones it does.
  pool_trim();
  rethrow_if_failed();
  return now_;
}

Time Simulator::run_until(Time deadline) {
  while (!queue_.empty() && !failure_ && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
  }
  rethrow_if_failed();
  return now_;
}

}  // namespace xlupc::sim
