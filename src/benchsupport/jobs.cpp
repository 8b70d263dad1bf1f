#include "benchsupport/jobs.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/pool.h"

namespace xlupc::bench {

void run_indexed(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& job) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::vector<std::exception_ptr> errors(count);
  const auto run_one = [&](std::size_t i) {
    const std::uint64_t live = sim::pool_stats().live_blocks;
    try {
      job(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    sim::pool_trim();
    const std::uint64_t left = sim::pool_stats().live_blocks;
    if (left > live && !errors[i]) {
      errors[i] = std::make_exception_ptr(std::logic_error(
          "bench job " + std::to_string(i) + " left " +
          std::to_string(left - live) + " sim pool block(s) live"));
    }
  };
  if (threads == 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
  } else {
    // Workers take indices from the last down: benches list their runs
    // smallest first, so the longest runs start first.
    std::atomic<std::size_t> taken{0};
    // jthreads join when the vector dies, so a failed thread start
    // unwinds only after the started ones finish.
    std::vector<std::jthread> workers;
    const std::size_t n = std::min<std::size_t>(threads, count);
    for (std::size_t w = 0; w < n; ++w) {
      workers.emplace_back([&] {
        for (std::size_t t = taken++; t < count; t = taken++) {
          run_one(count - 1 - t);
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace xlupc::bench
