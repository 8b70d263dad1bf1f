// Independent simulations on parallel host threads (benchsupport/jobs.h):
// the reports of runs spread over threads equal the serial ones, results
// and failures come back in index order, a job may leave no pool block
// behind, and a worker thread leaves none of its pool's slabs mapped.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchsupport/jobs.h"
#include "benchsupport/report.h"
#include "dis/field.h"
#include "dis/pointer.h"
#include "net/machine_registry.h"
#include "sim/pool.h"

namespace xlupc {
namespace {

// Job i: a small Pointer or Field run on GM or LAPI, 2 to 5 nodes,
// cache on or off; its whole report as JSON.
std::string small_run(std::size_t i) {
  core::RuntimeConfig cfg;
  cfg.platform = net::make_machine(i % 2 == 0 ? "gm" : "lapi");
  cfg.nodes = 2 + static_cast<std::uint32_t>(i % 4);
  cfg.threads_per_node = 2;
  cfg.cache.enabled = i % 3 != 0;
  if (i < 4) {
    dis::PointerParams p;
    p.hops = 16;
    return bench::to_json(dis::run_pointer(std::move(cfg), p).report)
        .dump_string();
  }
  dis::FieldParams p;
  p.bytes_per_thread = 1024;
  return bench::to_json(dis::run_field(std::move(cfg), p).report)
      .dump_string();
}

TEST(BenchJobs, ParallelRuntimesMatchSerial) {
  // Eight Runtimes on four host threads report exactly what they report
  // one after another on the calling thread, in the same order; one
  // thread runs them inline, four never on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> serial;
  for (std::size_t i = 0; i < 8; ++i) serial.push_back(small_run(i));
  for (const unsigned threads : {1u, 4u}) {
    const auto runs = bench::run_jobs(threads, 8, [&](std::size_t i) {
      const bool inline_run = std::this_thread::get_id() == caller;
      EXPECT_EQ(inline_run, threads == 1) << "job " << i;
      return small_run(i);
    });
    EXPECT_EQ(runs, serial) << threads << " thread(s)";
  }
}

TEST(BenchJobs, FailuresRethrowInIndexOrderOnceEveryJobHasRun) {
  std::atomic<int> ran{0};
  try {
    bench::run_jobs(3, 6, [&](std::size_t i) {
      ++ran;
      if (i == 4) throw std::runtime_error("job 4");
      if (i == 1) throw std::runtime_error("job 1");
      return i;
    });
    ADD_FAILURE() << "no failure rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 1");
  }
  EXPECT_EQ(ran.load(), 6);
}

TEST(BenchJobs, JobThatLeavesAPoolBlockLiveFails) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // The block stays on its worker thread's pool, which keeps its slab:
  // that is what the check stops from passing unnoticed.
  EXPECT_THROW(bench::run_jobs(2, 2,
                               [](std::size_t i) {
                                 if (i == 1) sim::pool_alloc(64);
                                 return i;
                               }),
               std::logic_error);
}

TEST(BenchJobs, WorkerThreadsLeaveNoSlabMapped) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Two jobs on two worker threads each run a Runtime and note a chunk
  // of their pool while both still map theirs. Once run_jobs returns,
  // neither chunk is mapped (mincore fails with ENOMEM).
  std::latch both_mapped(2);
  const auto chunks = bench::run_jobs(2, 2, [&](std::size_t i) {
    void* const block = sim::pool_alloc(64);
    both_mapped.arrive_and_wait();
    EXPECT_GT(sim::pool_stats().mapped_bytes, 0u);
    small_run(i);
    sim::pool_free(block, 64);
    return reinterpret_cast<std::uintptr_t>(block) & ~std::uintptr_t{0xffff};
  });
  for (const std::uintptr_t chunk : chunks) {
    unsigned char pages[16];
    EXPECT_EQ(::mincore(reinterpret_cast<void*>(chunk), 1 << 16, pages), -1);
    EXPECT_EQ(errno, ENOMEM);
  }
}

}  // namespace
}  // namespace xlupc
