// Independent simulations on parallel host threads (`--jobs N`).
//
// A bench whose table is built from many independent runs hands them to
// run_jobs. Job i builds, runs and destroys its own Runtime on one host
// thread and returns plain data (a StressResult, a RunReport, a number):
// no pool block, net::Bytes or callback crosses threads, because each
// host thread has its own sim::pool. Results come back in index order
// and the bench assembles its tables from them in a fixed order, so its
// output bytes never depend on the thread count. Parallelism stays
// across simulations, never inside one.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace xlupc::bench {

/// Runs job(0) .. job(count - 1) on `threads` host threads (0: one per
/// hardware thread; never more threads than jobs), each thread taking
/// the highest index not yet taken until none is left, so list the
/// longest runs last; one thread runs them inline on the calling thread,
/// in index order. A job may leave no sim::pool block live: after each
/// job the thread trims its pool (pool_trim), which unmaps a worker's
/// slabs, and a job that left blocks behind fails with
/// std::logic_error. Once every job has finished, the first failure in
/// index order is rethrown.
void run_indexed(unsigned threads, std::size_t count,
                 const std::function<void(std::size_t)>& job);

/// run_indexed, collecting job(i)'s result at index i.
template <class Fn>
auto run_jobs(unsigned threads, std::size_t count, Fn&& job) {
  std::vector<std::invoke_result_t<Fn&, std::size_t>> results(count);
  run_indexed(threads, count, [&](std::size_t i) { results[i] = job(i); });
  return results;
}

}  // namespace xlupc::bench
