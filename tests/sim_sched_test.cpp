// Event-queue and allocator tests for the fast simulator core
// (docs/PERFORMANCE.md): equal-time FIFO ordering on both insert paths
// of the event queue, the queue against a sorted reference, the timing
// wheel's window edges and far heap, its peak pending count, pool reuse
// under churn, sized frees, chunks that follow the live blocks, slabs
// unmapped by the trim of an empty pool, one pool per host thread, and
// the callback types.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <cerrno>
#include <coroutine>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/pool.h"
#include "sim/rng.h"

namespace xlupc {
namespace {

using sim::Callback;
using sim::EventQueue;
using sim::SmallFn;

// ------------------------------------------------------------------
// Event queue against a sorted reference
// ------------------------------------------------------------------

// The queue files an insert in one of two ways: relative to the last
// popped or peeked time, or, for an insert below that time, by
// re-spreading every pending entry. Ties must stay FIFO on both.
TEST(SchedulerBackends, EqualTimeEventsRunFifoOnBothBackends) {
  for (const bool respread : {false, true}) {
    EventQueue q;
    std::vector<int> order;
    // Interleave two timestamps so FIFO must hold per time, not
    // globally: expected pop order is all of t=5 (0..15), then t=9.
    for (int i = 0; i < 16; ++i) {
      if (respread && i == 8) {
        // Peek at t=5, then insert below it: the 16 pending entries are
        // re-filed relative to t=1 and the rest go in after them.
        ASSERT_EQ(q.next_time(), 5u);
        q.schedule(1, [&order] { order.push_back(-1); });
      }
      q.schedule(5, [&order, i] { order.push_back(i); });
      q.schedule(9, [&order, i] { order.push_back(100 + i); });
    }
    while (!q.empty()) q.pop_and_run();
    const char* path = respread ? "re-spread" : "monotone";
    if (respread) {
      ASSERT_EQ(order.size(), 33u);
      EXPECT_EQ(order.front(), -1);
      order.erase(order.begin());
    }
    ASSERT_EQ(order.size(), 32u) << path;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(order[i], i) << path;
      EXPECT_EQ(order[16 + i], 100 + i) << path;
    }
  }
}

// A second queue with the same interface: pending (time, schedule order,
// callback) triples in a plain vector, popped by linear search.
class ReferenceQueue {
 public:
  void schedule(sim::Time t, Callback fn) {
    pending_.push_back({t, seq_++, std::move(fn)});
  }
  bool empty() const { return pending_.empty(); }
  sim::Time pop_and_run() {
    auto it = std::min_element(
        pending_.begin(), pending_.end(), [](const Item& a, const Item& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    Item item = std::move(*it);
    pending_.erase(it);
    std::move(item.fn)();
    return item.time;
  }

 private:
  struct Item {
    sim::Time time;
    std::uint64_t seq;
    Callback fn;
  };
  std::vector<Item> pending_;
  std::uint64_t seq_ = 0;
};

// Runs one pseudo-random schedule, including re-scheduling from inside
// callbacks, and returns the (time, id) pairs in pop order.
template <class Queue>
std::vector<std::pair<sim::Time, int>> pop_sequence() {
  Queue q;
  std::vector<std::pair<sim::Time, int>> seen;
  std::uint64_t x = 88172645463325252ull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 200; ++i) {
    const sim::Time t = rnd() % 50;
    q.schedule(t, [&seen, &q, t, i] {
      seen.emplace_back(t, i);
      if (seen.size() % 3 == 0) {
        q.schedule(t + 1 + seen.size() % 7,
                   [&seen, t] { seen.emplace_back(t + 1000, -1); });
      }
    });
  }
  while (!q.empty()) q.pop_and_run();
  return seen;
}

TEST(SchedulerBackends, BackendsPopIdenticalSequences) {
  // The (time, schedule order) key is a strict total order, so the pop
  // sequence is unique: the radix queue must match the reference.
  const auto radix = pop_sequence<EventQueue>();
  ASSERT_GT(radix.size(), 200u);
  EXPECT_EQ(radix, pop_sequence<ReferenceQueue>());
}

// Drives an EventQueue and a reference side by side. The reference keeps
// pending (time, schedule order) pairs in a plain vector and pops the
// minimum by linear search; every schedule goes to both.
class Differential {
 public:
  struct Item {
    sim::Time time;
    std::uint64_t id;  // schedule order
  };

  Differential(std::uint64_t seed, std::uint64_t events)
      : rng_(seed), events_(events) {}

  EventQueue& queue() { return q_; }
  sim::Rng& rng() { return rng_; }
  std::size_t pending() const { return ref_.size(); }
  sim::Time now() const { return now_; }
  const std::bitset<65>& widths() const { return widths_; }

  void schedule(sim::Time t) {
    const std::uint64_t id = next_id_++;
    widths_.set(static_cast<std::size_t>(std::bit_width(t ^ now_)));
    ref_.push_back({t, id});
    q_.schedule(t, [this, id, t] { fire(id, t); });
  }

  const Item& reference_min() const {
    return *std::min_element(ref_.begin(), ref_.end(), before);
  }

  // Pops both sides: returns the reference's pick, then the time the
  // queue returned and the id of the callback it ran.
  std::pair<Item, Item> pop() {
    auto it = std::min_element(ref_.begin(), ref_.end(), before);
    const Item want = *it;
    ref_.erase(it);
    const sim::Time t = q_.pop_and_run();
    now_ = want.time;
    return {want, {t, ran_}};
  }

 private:
  static bool before(const Item& a, const Item& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }

  // A callback records itself and schedules 0-2 children while the
  // event budget lasts: a third at zero delay (dense ties, inserted
  // from inside a callback), a third close by, a third with a delay of
  // a random bit width, saturating at the largest time.
  void fire(std::uint64_t id, sim::Time t) {
    ran_ = id;
    if (next_id_ >= events_ || ref_.size() > 256) return;
    for (std::uint64_t n = rng_.below(3); n > 0; --n) {
      sim::Duration d = 0;
      switch (rng_.below(3)) {
        case 0:
          break;
        case 1:
          d = rng_.below(16);
          break;
        default:
          if (const auto bits = rng_.below(65); bits > 0) {
            const std::uint64_t top = std::uint64_t{1} << (bits - 1);
            d = top | (rng_.next_u64() & (top - 1));
          }
      }
      const sim::Time room = std::numeric_limits<sim::Time>::max() - t;
      schedule(t + std::min(d, room));
    }
  }

  EventQueue q_;
  std::vector<Item> ref_;
  sim::Rng rng_;
  std::uint64_t events_;
  std::uint64_t next_id_ = 0;
  std::uint64_t ran_ = 0;
  sim::Time now_ = 0;
  std::bitset<65> widths_;
};

TEST(EventQueue, PopsLikeSortedReference) {
  std::uint64_t pops = 0;
  std::uint64_t below_peek = 0;
  std::bitset<65> widths;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Differential d(seed, 40000);
    // Odd seeds start at 0, even ones just below 2^63, so times cross
    // into the top bucket both by huge delays and by small ones.
    const sim::Time start =
        seed % 2 == 0 ? (std::uint64_t{1} << 63) - 4096 : 0;
    for (int i = 0; i < 64; ++i) d.schedule(start + d.rng().below(8));
    while (d.queue().size() > 0) {
      ASSERT_EQ(d.queue().size(), d.pending());
      if (d.rng().below(16) == 0) {
        // Peek, then insert below the peeked time, as the simulator does
        // after run_until() stops at a deadline. One time in eight, go
        // below the last popped time too, as only direct users can.
        const sim::Time peek = d.queue().next_time();
        ASSERT_EQ(peek, d.reference_min().time) << "seed " << seed;
        const sim::Time from = d.rng().below(8) == 0 ? d.now() / 2 : d.now();
        if (peek > from) {
          d.schedule(from + d.rng().below(peek - from));
          ++below_peek;
        }
      }
      const auto [want, got] = d.pop();
      ASSERT_EQ(got.time, want.time) << "seed " << seed << " pop " << pops;
      ASSERT_EQ(got.id, want.id) << "seed " << seed << " pop " << pops;
      ++pops;
    }
    widths |= d.widths();
  }
  EXPECT_GE(pops, 400000u);
  EXPECT_GT(below_peek, 1000u);
  EXPECT_TRUE(widths.all()) << "bit widths covered: " << widths;
}

TEST(EventQueue, DestroyReleasesPendingSpilledCallbacks) {
  auto token = std::make_shared<int>(0);
  const std::array<char, Callback::kInlineBytes> pad{};
  auto spilled = [token, pad] { (void)pad; };
  ASSERT_FALSE(Callback(spilled).inline_stored());
  {
    EventQueue q;
    for (sim::Time t = 0; t < 12; ++t) q.schedule(t % 5, spilled);
    q.pop_and_run();
    q.pop_and_run();
    q.pop_and_run();
    EXPECT_EQ(token.use_count(), 1 + 1 + 9);  // token, `spilled`, pending
  }
  EXPECT_EQ(token.use_count(), 2);
}

// A spilled callable pending in the far heap is released too.
TEST(EventQueue, DestroyReleasesPendingSpilledCallbacksInTheFarHeap) {
  auto token = std::make_shared<int>(0);
  const std::array<char, Callback::kInlineBytes> pad{};
  auto spilled = [token, pad] { (void)pad; };
  ASSERT_FALSE(Callback(spilled).inline_stored());
  {
    EventQueue q;
    for (sim::Time t = 0; t < 12; ++t) q.schedule(t * 5000, spilled);
    q.pop_and_run();
    EXPECT_EQ(q.far_schedules(), 10u);  // 10,000 ns and later
    EXPECT_EQ(token.use_count(), 1 + 1 + 11);  // token, `spilled`, pending
  }
  EXPECT_EQ(token.use_count(), 2);
}

// ------------------------------------------------------------------
// The timing wheel: window edges, far events, wraps
// ------------------------------------------------------------------

// Runs `fill` on a queue and drains it; returns the (time, id) pairs in
// pop order. `fill` schedules through `add(t, id)`.
template <class Queue, class Fill>
std::vector<std::pair<sim::Time, int>> drain(Fill fill) {
  Queue q;
  std::vector<std::pair<sim::Time, int>> seen;
  auto add = [&q, &seen](sim::Time t, int id) {
    q.schedule(t, [&seen, t, id] { seen.emplace_back(t, id); });
  };
  fill(q, add);
  while (!q.empty()) q.pop_and_run();
  return seen;
}

TEST(EventQueue, WindowEdgeDelaysPopInOrder) {
  // From base 100: 8191 ns is the wheel's last slot, 8192 and 8193 ns
  // and 2^40 ns go to the far heap. Two events at +8192 keep their order.
  constexpr sim::Time kBase = 100;
  constexpr sim::Time kFar = sim::Time{1} << 40;
  EventQueue q;
  std::vector<int> order;
  auto at = [&q, &order](sim::Time t, int id) {
    q.schedule(t, [&order, id] { order.push_back(id); });
  };
  at(kBase, 0);
  ASSERT_EQ(q.pop_and_run(), kBase);
  at(kBase + kFar, 1);
  at(kBase + 8193, 2);
  at(kBase + 8192, 3);
  at(kBase + 8191, 4);
  at(kBase + 8192, 5);
  at(kBase, 6);
  EXPECT_EQ(q.far_schedules(), 4u);
  std::vector<sim::Time> times;
  while (!q.empty()) times.push_back(q.pop_and_run());
  EXPECT_EQ(order, (std::vector<int>{0, 6, 4, 3, 5, 2, 1}));
  EXPECT_EQ(times, (std::vector<sim::Time>{kBase, kBase + 8191, kBase + 8192,
                                           kBase + 8192, kBase + 8193,
                                           kBase + kFar}));
}

TEST(EventQueue, FarEventPopsBeforeLaterNearEventAtItsTime) {
  // A is filed far (10,000 ns ahead of base 0). Once base reaches 5,000,
  // 10,000 is inside the window, and B, scheduled there at that time,
  // lands in the wheel directly: A must already be in its slot, ahead.
  for (const bool from_callback : {true, false}) {
    EventQueue q;
    std::vector<char> order;
    q.schedule(10000, [&order] { order.push_back('A'); });
    ASSERT_EQ(q.far_schedules(), 1u);
    auto schedule_b = [&q, &order] {
      q.schedule(10000, [&order] { order.push_back('B'); });
    };
    if (from_callback) {
      q.schedule(5000, schedule_b);
      EXPECT_EQ(q.pop_and_run(), 5000u);
    } else {
      q.schedule(5000, [] {});
      EXPECT_EQ(q.pop_and_run(), 5000u);
      schedule_b();
    }
    EXPECT_EQ(q.far_schedules(), 1u) << "B went to the far heap";
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}))
        << (from_callback ? "from a callback" : "after the pop");
  }
}

// Each event at t schedules a child a whole wheel later (slot t again,
// through the far heap) and, for some ids, one at t + 8191 (the slot
// before, in the wheel) and one at t + 4096, until t passes eight wraps.
// Returns the (time, id) pairs in pop order.
template <class Queue>
std::vector<std::pair<sim::Time, int>> wrap_sequence(Queue& q) {
  std::vector<std::pair<sim::Time, int>> log;
  std::function<void(sim::Time, int)> step = [&](sim::Time t, int id) {
    log.emplace_back(t, id);
    if (t >= 8 * 8192) return;
    const std::array<std::pair<sim::Duration, bool>, 3> children{{
        {8192, true}, {8191, id % 2 == 0}, {4096, id % 5 == 0}}};
    for (int k = 0; k < 3; ++k) {
      const auto [d, on] = children[k];
      if (!on) continue;
      const int child = id * 3 + k + 1;
      q.schedule(t + d, [&step, t, d, child] { step(t + d, child); });
    }
  };
  for (int i = 0; i < 4; ++i) {
    q.schedule(static_cast<sim::Time>(i), [&step, i] {
      step(static_cast<sim::Time>(i), i);
    });
  }
  while (!q.empty()) q.pop_and_run();
  return log;
}

TEST(EventQueue, SlotsAreReusedAcrossWrapsOfTheWheel) {
  EventQueue wheel;
  ReferenceQueue reference;
  const auto got = wrap_sequence(wheel);
  ASSERT_GT(got.size(), 100u);
  EXPECT_GE(got.back().first, 8u * 8192);
  EXPECT_EQ(got, wrap_sequence(reference));
  EXPECT_GT(wheel.far_schedules(), 50u);
}

TEST(EventQueue, InsertBelowPeekWithFarEventsPending) {
  // Two far events are pending when the wheel drains; peeking moves the
  // base up to the first of them and pulls both into the wheel. Inserts
  // below the peeked time then re-file everything, including a far
  // event and an equal-time event that must queue behind the old ones.
  const auto got = drain<EventQueue>([](EventQueue& q, auto add) {
    add(1, 0);
    add(50000, 1);
    add(50000, 2);
    add(90000, 3);
    ASSERT_EQ(q.pop_and_run(), 1u);
    ASSERT_EQ(q.next_time(), 50000u);
    add(20000, 4);
    add(50000, 5);
    add(20000 + 8192, 6);
    add(30000, 7);
  });
  const auto want = drain<ReferenceQueue>([](ReferenceQueue& q, auto add) {
    add(1, 0);
    add(50000, 1);
    add(50000, 2);
    add(90000, 3);
    ASSERT_EQ(q.pop_and_run(), 1u);
    add(20000, 4);
    add(50000, 5);
    add(20000 + 8192, 6);
    add(30000, 7);
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, (std::vector<std::pair<sim::Time, int>>{
                     {1, 0}, {20000, 4}, {28192, 6}, {30000, 7},
                     {50000, 1}, {50000, 2}, {50000, 5}, {90000, 3}}));
}

// ------------------------------------------------------------------
// Peak pending count; pool reuse under churn
// ------------------------------------------------------------------

TEST(EventQueue, ArenaCapacityIsPeakPendingCount) {
  EventQueue q;
  EXPECT_EQ(q.arena_capacity(), 0u);
  // One full round reaches 64 pending events; churning more rounds of
  // the same size, draining each, must not raise the peak.
  auto round = [&q](sim::Time base) {
    for (int i = 0; i < 64; ++i) q.schedule(base + i % 8, [] {});
    while (!q.empty()) q.pop_and_run();
  };
  round(0);
  EXPECT_EQ(q.arena_capacity(), 64u);
  for (int r = 1; r < 50; ++r) round(r * 100);
  EXPECT_EQ(q.arena_capacity(), 64u);

  // An event scheduled from inside a running callback counts too: the
  // running event has left the queue, so refilling to 64 from inside it
  // keeps the peak, and one more raises it to 65.
  for (int extra : {0, 1}) {
    for (int i = 0; i < 63; ++i) q.schedule(10000, [] {});
    q.schedule(9999, [&q, extra] {
      for (int i = 0; i < 1 + extra; ++i) q.schedule(10001, [] {});
    });
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(q.arena_capacity(), 64u + extra) << "extra " << extra;
  }
}

TEST(PoolAllocator, ReusesFreedBlocksWithoutNewChunks) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Prime the size class, then churn it: every allocation must be served
  // from the freelist (no new chunks carved).
  sim::pool_free(sim::pool_alloc(128), 128);
  const sim::PoolStats before = sim::pool_stats();
  for (int i = 0; i < 1000; ++i) {
    void* p = sim::pool_alloc(128);
    sim::pool_free(p, 128);
  }
  const sim::PoolStats after = sim::pool_stats();
  EXPECT_EQ(after.chunks, before.chunks);
  EXPECT_EQ(after.chunk_bytes, before.chunk_bytes);
  EXPECT_EQ(after.reuses, before.reuses + 1000);
}

TEST(PoolAllocator, SizedFreeReturnsBlockToItsClass) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Blocks carry no header, so the size passed to pool_free alone picks
  // the freelist: a block freed with size n is the next one pool_alloc(n)
  // returns, LIFO within the class. 1 and 32 share the first class, 33
  // opens the second, 2048 is the last and 2049 falls through.
  for (const std::size_t n : {1, 32, 33, 2048, 2049}) {
    const std::uint64_t oversize = sim::pool_stats().oversize;
    void* a = sim::pool_alloc(n);
    void* b = sim::pool_alloc(n);
    sim::pool_free(a, n);
    sim::pool_free(b, n);
    void* c = sim::pool_alloc(n);
    void* d = sim::pool_alloc(n);
    if (n <= 2048) {
      EXPECT_EQ(c, b) << "size " << n;
      EXPECT_EQ(d, a) << "size " << n;
    }
    EXPECT_EQ(sim::pool_stats().oversize - oversize, n > 2048 ? 4u : 0u)
        << "size " << n;
    sim::pool_free(c, n);
    sim::pool_free(d, n);
  }
  // `keep` holds the first class's chunk: an empty current chunk would
  // go to the 33-byte class if that class needed a fresh chunk.
  void* keep = sim::pool_alloc(32);
  void* small = sim::pool_alloc(32);
  sim::pool_free(small, 32);
  void* next_class = sim::pool_alloc(33);
  EXPECT_NE(next_class, small);
  void* same_class = sim::pool_alloc(1);
  EXPECT_EQ(same_class, small);
  sim::pool_free(same_class, 1);
  sim::pool_free(next_class, 33);
  sim::pool_free(keep, 32);
}

TEST(PoolAllocator, LiveBytesCountHandedOutBlocksByClassSize) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // 100 bytes take a 128-byte block; the peak keeps the high-water mark
  // after the blocks come back.
  const sim::PoolStats before = sim::pool_stats();
  void* a = sim::pool_alloc(100);
  void* b = sim::pool_alloc(100);
  EXPECT_EQ(sim::pool_stats().live_bytes, before.live_bytes + 256);
  EXPECT_GE(sim::pool_stats().peak_live_bytes, before.live_bytes + 256);
  sim::pool_free(a, 100);
  sim::pool_free(b, 100);
  EXPECT_EQ(sim::pool_stats().live_bytes, before.live_bytes);
  EXPECT_GE(sim::pool_stats().peak_live_bytes, before.live_bytes + 256);
}

// Hold blocks of `bytes` until the pool has to take a chunk from
// operator new: the spare list is empty afterwards.
std::vector<void*> exhaust_spare_chunks(std::size_t bytes) {
  std::vector<void*> held;
  const std::uint64_t chunks = sim::pool_stats().chunks;
  while (sim::pool_stats().chunks == chunks) {
    held.push_back(sim::pool_alloc(bytes));
  }
  return held;
}

TEST(PoolAllocator, TrimGivesDrainedClassChunksToOtherClasses) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // With no spare chunk left, the 2 KiB class takes fresh chunks for 128
  // blocks and gets them all back. After the trim the 1 KiB class fills
  // the same 256 KiB from those chunks, without operator new.
  const std::vector<void*> held = exhaust_spare_chunks(1024);
  std::vector<void*> big;
  for (int i = 0; i < 128; ++i) big.push_back(sim::pool_alloc(2048));
  for (void* p : big) sim::pool_free(p, 2048);
  sim::pool_trim();
  const sim::PoolStats before = sim::pool_stats();
  std::vector<void*> small;
  for (int i = 0; i < 256; ++i) small.push_back(sim::pool_alloc(1024));
  EXPECT_EQ(sim::pool_stats().chunks, before.chunks);
  EXPECT_EQ(sim::pool_stats().chunk_bytes, before.chunk_bytes);
  for (void* p : small) sim::pool_free(p, 1024);
  for (void* p : held) sim::pool_free(p, 1024);
}

TEST(PoolAllocator, TrimKeepsClassesWithLiveBlocks) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // One live block keeps its class's chunks and freelist: after the
  // trim the freed blocks are reused in place, and no other class is
  // handed memory under the live block.
  constexpr std::size_t kSize = 1984;
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(sim::pool_alloc(kSize));
  auto* const keeper = static_cast<unsigned char*>(blocks.back());
  blocks.pop_back();
  std::fill(keeper, keeper + kSize, static_cast<unsigned char>(0x5a));
  for (void* p : blocks) sim::pool_free(p, kSize);
  sim::pool_trim();

  const sim::PoolStats before = sim::pool_stats();
  for (void*& p : blocks) p = sim::pool_alloc(kSize);
  EXPECT_EQ(sim::pool_stats().chunks, before.chunks);
  EXPECT_EQ(sim::pool_stats().reuses, before.reuses + blocks.size());

  std::vector<void*> other;
  for (int i = 0; i < 512; ++i) {
    auto* p = static_cast<unsigned char*>(sim::pool_alloc(512));
    EXPECT_FALSE(p + 512 > keeper && p < keeper + kSize)
        << "a 512-byte block overlaps the live " << kSize << "-byte block";
    std::fill(p, p + 512, static_cast<unsigned char>(0));
    other.push_back(p);
  }
  EXPECT_EQ(std::count(keeper, keeper + kSize, 0x5a),
            static_cast<std::ptrdiff_t>(kSize));
  for (void* p : other) sim::pool_free(p, 512);
  for (void* p : blocks) sim::pool_free(p, kSize);
  sim::pool_free(keeper, kSize);
}

constexpr std::uintptr_t kChunkBytes = 64 * 1024;

std::uintptr_t chunk_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~(kChunkBytes - 1);
}

// Allocates `per_chunk` * 3 blocks of `bytes` and returns them with a
// chunk that holds `per_chunk` of them and is not the class's current
// one (that of the last block), so it is full of blocks held here.
std::pair<std::vector<void*>, std::uintptr_t> fill_a_chunk(
    std::size_t bytes, std::size_t per_chunk) {
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < 3 * per_chunk; ++i) {
    blocks.push_back(sim::pool_alloc(bytes));
  }
  for (void* p : blocks) {
    const std::uintptr_t c = chunk_of(p);
    const auto in_c = std::count_if(blocks.begin(), blocks.end(),
                                    [c](void* q) { return chunk_of(q) == c; });
    if (static_cast<std::size_t>(in_c) == per_chunk &&
        c != chunk_of(blocks.back())) {
      return {blocks, c};
    }
  }
  ADD_FAILURE() << "no chunk of " << bytes << "-byte blocks filled";
  return {blocks, 0};
}

TEST(PoolAllocator, EmptiedChunkServesAnotherClassWithoutTrim) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Free every block of a full 2 KiB chunk in mid-run: the chunk goes to
  // the spare list at once, so the 1 KiB class reaches it before it
  // takes a fresh chunk, with no pool_trim() in between.
  const std::vector<void*> held = exhaust_spare_chunks(1024);
  auto [big, drained] = fill_a_chunk(2048, 31);
  ASSERT_NE(drained, 0u);
  std::erase_if(big, [drained](void* p) {
    if (chunk_of(p) != drained) return false;
    sim::pool_free(p, 2048);
    return true;
  });
  const std::uint64_t chunks = sim::pool_stats().chunks;
  std::vector<void*> small;
  while (small.empty() || chunk_of(small.back()) != drained) {
    small.push_back(sim::pool_alloc(1024));
    ASSERT_EQ(sim::pool_stats().chunks, chunks)
        << "took a fresh chunk after " << small.size() << " blocks";
  }
  for (void* p : small) sim::pool_free(p, 1024);
  for (void* p : big) sim::pool_free(p, 2048);
  for (void* p : held) sim::pool_free(p, 1024);
}

TEST(PoolAllocator, ChunkWithOneLiveBlockKeepsItsOtherBlocks) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // A full chunk of 1984-byte blocks gets all but one back. Until the
  // 1 KiB class has taken a fresh chunk, none of its blocks may come
  // from that chunk; the 1984-byte class then reuses the chunk's free
  // blocks before any fresh chunk, and the live block is untouched.
  constexpr std::size_t kSize = 1984;
  const std::vector<void*> held = exhaust_spare_chunks(1024);
  auto [blocks, kept] = fill_a_chunk(kSize, 33);
  ASSERT_NE(kept, 0u);
  unsigned char* keeper = nullptr;
  std::erase_if(blocks, [kept, &keeper](void* p) {
    if (chunk_of(p) != kept) return false;
    if (keeper == nullptr) {
      keeper = static_cast<unsigned char*>(p);
      return false;
    }
    sim::pool_free(p, kSize);
    return true;
  });
  std::fill(keeper, keeper + kSize, static_cast<unsigned char>(0x5a));

  const std::uint64_t chunks = sim::pool_stats().chunks;
  std::vector<void*> small;
  while (sim::pool_stats().chunks == chunks) {
    small.push_back(sim::pool_alloc(1024));
    ASSERT_NE(chunk_of(small.back()), kept)
        << "a 1 KiB block came from a chunk with a live " << kSize
        << "-byte block";
  }
  const std::uint64_t before = sim::pool_stats().chunks;
  std::vector<void*> more;
  while (more.empty() || chunk_of(more.back()) != kept) {
    more.push_back(sim::pool_alloc(kSize));
    ASSERT_EQ(sim::pool_stats().chunks, before)
        << "took a fresh chunk after " << more.size() << " blocks";
  }
  EXPECT_EQ(std::count(keeper, keeper + kSize, 0x5a),
            static_cast<std::ptrdiff_t>(kSize));
  for (void* p : more) sim::pool_free(p, kSize);
  for (void* p : blocks) sim::pool_free(p, kSize);
  for (void* p : small) sim::pool_free(p, 1024);
  for (void* p : held) sim::pool_free(p, 1024);
}

TEST(PoolAllocator, RefillTakesTheLowestPartialChunkSoHigherOnesDrain) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // A burst of 1952-byte blocks fills several chunks, then frees down to
  // one straggler per chunk, lowest chunk first, so the highest chunk is
  // the last one a block came back to. Refills fill the lowest partial
  // chunk, then the next; once the stragglers of the chunks no refill
  // reached are freed, those chunks go to the spare list, where the
  // 1 KiB class finds them before it takes a fresh chunk.
  constexpr std::size_t kSize = 1952;
  constexpr std::size_t kPerChunk = (kChunkBytes - 32) / kSize;
  const std::vector<void*> held = exhaust_spare_chunks(1024);
  std::vector<void*> burst;
  for (std::size_t i = 0; i < 8 * kPerChunk; ++i) {
    burst.push_back(sim::pool_alloc(kSize));
  }
  std::map<std::uintptr_t, std::vector<void*>> by_chunk;
  for (void* p : burst) by_chunk[chunk_of(p)].push_back(p);
  const std::uintptr_t current = chunk_of(burst.back());
  std::vector<std::uintptr_t> full;  // ascending addresses
  std::vector<void*> kept;           // every burst block not freed
  for (const auto& [c, blocks] : by_chunk) {
    if (blocks.size() != kPerChunk || c == current) {
      kept.insert(kept.end(), blocks.begin(), blocks.end());
      continue;
    }
    full.push_back(c);
    kept.push_back(blocks.front());  // the straggler
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      sim::pool_free(blocks[i], kSize);
    }
  }
  ASSERT_GE(full.size(), 4u);

  std::vector<void*> refill;
  std::vector<std::uintptr_t> got;  // chunks of the refills past `current`
  while (got.size() < 2 * (kPerChunk - 1)) {
    refill.push_back(sim::pool_alloc(kSize));
    const std::uintptr_t c = chunk_of(refill.back());
    if (c != current || !got.empty()) got.push_back(c);
  }
  std::vector<std::uintptr_t> want(kPerChunk - 1, full[0]);
  want.insert(want.end(), kPerChunk - 1, full[1]);
  EXPECT_EQ(got, want);

  std::set<std::uintptr_t> drained(full.begin() + 2, full.end());
  std::erase_if(kept, [&drained](void* p) {
    if (drained.count(chunk_of(p)) == 0) return false;
    sim::pool_free(p, kSize);
    return true;
  });
  const std::uint64_t chunks = sim::pool_stats().chunks;
  std::vector<void*> small;
  std::set<std::uintptr_t> reached;
  while (sim::pool_stats().chunks == chunks) {
    small.push_back(sim::pool_alloc(1024));
    reached.insert(chunk_of(small.back()));
  }
  for (std::uintptr_t c : drained) {
    EXPECT_EQ(reached.count(c), 1u) << "a drained chunk stayed with its class";
  }
  for (void* p : small) sim::pool_free(p, 1024);
  for (void* p : refill) sim::pool_free(p, kSize);
  for (void* p : kept) sim::pool_free(p, kSize);
  for (void* p : held) sim::pool_free(p, 1024);
}

TEST(PoolAllocator, BlocksFreedInRandomOrderAllReturn) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Blocks of four classes over several chunks each: every block sits at
  // a block boundary of its class inside a 64 KiB-aligned chunk of that
  // class, past the header, and no two overlap. Freed in a seeded random
  // order, they all come back: the live bytes return to where they were,
  // and the same blocks again take no fresh chunk.
  constexpr std::array<std::size_t, 4> kSizes{40, 200, 600, 2000};
  const sim::PoolStats before = sim::pool_stats();
  std::uint64_t first_round_chunks = 0;
  for (int round = 0; round < 2; ++round) {
    sim::Rng rng(7);
    std::vector<std::pair<void*, std::size_t>> blocks;
    for (int i = 0; i < 2000; ++i) {
      const std::size_t bytes = kSizes[rng.below(kSizes.size())];
      blocks.emplace_back(sim::pool_alloc(bytes), bytes);
    }
    if (round == 1) {
      EXPECT_EQ(sim::pool_stats().chunks, first_round_chunks)
          << "the same blocks again took a fresh chunk";
    }
    std::vector<std::pair<std::uintptr_t, std::size_t>> spans;
    std::map<std::uintptr_t, std::size_t> chunk_class;
    for (const auto& [p, bytes] : blocks) {
      const std::size_t block = (bytes + 31) / 32 * 32;
      EXPECT_EQ(chunk_class.try_emplace(chunk_of(p), block).first->second,
                block)
          << "one chunk holds blocks of two classes";
      const std::uintptr_t off =
          reinterpret_cast<std::uintptr_t>(p) - chunk_of(p);
      ASSERT_GE(off, 32u) << bytes << "-byte block in the chunk header";
      EXPECT_EQ((off - 32) % block, 0u) << bytes << "-byte block at " << off;
      EXPECT_LE(off + block, kChunkBytes) << bytes << "-byte block";
      spans.emplace_back(reinterpret_cast<std::uintptr_t>(p), block);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      ASSERT_LE(spans[i - 1].first + spans[i - 1].second, spans[i].first);
    }
    for (std::size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[rng.below(i)]);
    }
    for (const auto& [p, bytes] : blocks) sim::pool_free(p, bytes);
    EXPECT_EQ(sim::pool_stats().live_bytes, before.live_bytes);
    first_round_chunks = sim::pool_stats().chunks;
  }
}

TEST(PoolAllocator, CountsChunkSwitchesAndPartialListSteps) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Once the class has taken a fresh chunk, its partial list and the
  // spare list are empty. Filling that chunk and four more switches
  // chunks four times. One block back in each of the four full,
  // non-current chunks puts each on the partial list, in address order:
  // an insert steps over the partial chunks below it. The five free
  // blocks then go out lowest chunk first, one switch per chunk.
  constexpr std::size_t kSize = 1920;
  constexpr std::size_t kPerChunk = (kChunkBytes - 32) / kSize;
  std::vector<void*> held = exhaust_spare_chunks(kSize);
  std::vector<void*> script{held.back()};
  held.pop_back();
  const sim::PoolStats before = sim::pool_stats();
  while (script.size() < 5 * kPerChunk) {
    script.push_back(sim::pool_alloc(kSize));
  }
  EXPECT_EQ(sim::pool_stats().chunk_switches - before.chunk_switches, 4u);
  EXPECT_EQ(sim::pool_stats().chunks - before.chunks, 4u);

  std::vector<std::uintptr_t> chunks;  // in the order they were filled
  for (std::size_t i = 0; i < 5; ++i) {
    chunks.push_back(chunk_of(script[i * kPerChunk]));
    for (std::size_t j = 1; j < kPerChunk; ++j) {
      ASSERT_EQ(chunk_of(script[i * kPerChunk + j]), chunks.back());
    }
  }
  std::uint64_t steps = 0;
  std::vector<std::uintptr_t> partial;
  for (const std::size_t i : {2u, 0u, 3u, 1u}) {
    steps += static_cast<std::uint64_t>(
        std::count_if(partial.begin(), partial.end(),
                      [&](std::uintptr_t c) { return c < chunks[i]; }));
    partial.push_back(chunks[i]);
    sim::pool_free(script[i * kPerChunk], kSize);
    script[i * kPerChunk] = nullptr;
  }
  // A block back in a chunk that is already partial moves no chunk.
  sim::pool_free(script[kPerChunk + 1], kSize);
  script[kPerChunk + 1] = nullptr;
  EXPECT_EQ(sim::pool_stats().partial_steps - before.partial_steps, steps);

  std::sort(partial.begin(), partial.end());
  std::vector<std::uintptr_t> want;
  for (const std::uintptr_t c : partial) {
    want.insert(want.end(), c == chunks[1] ? 2 : 1, c);
  }
  std::vector<std::uintptr_t> got;
  for (std::size_t k = 0; k < want.size(); ++k) {
    script.push_back(sim::pool_alloc(kSize));
    got.push_back(chunk_of(script.back()));
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(sim::pool_stats().chunk_switches - before.chunk_switches, 8u);
  EXPECT_EQ(sim::pool_stats().chunks - before.chunks, 4u);
  for (void* p : script) sim::pool_free(p, kSize);
  for (void* p : held) sim::pool_free(p, kSize);
}

TEST(PoolAllocator, CensusFollowsTheLivePeakInSixtyFourKiBSteps) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Live blocks are counted in total and per class. Pushing the live
  // bytes 128 KiB past the old peak with 96-byte blocks passes at least
  // one 64 KiB mark, so a census is taken within the last 64 KiB of the
  // growth, and it holds the class's live count as it stood then.
  const sim::PoolStats& st = sim::pool_stats();
  constexpr std::size_t kCls = 96 / sim::kPoolGranularity - 1;
  constexpr std::uint64_t kStep = 64 * 1024;
  const std::uint64_t blocks = st.live_blocks;
  const std::uint64_t in_class = st.classes[kCls].live_blocks;
  const std::uint64_t target = st.peak_live_bytes + 2 * kStep;
  std::vector<void*> held;
  while (st.live_bytes < target) held.push_back(sim::pool_alloc(96));
  EXPECT_EQ(st.live_blocks, blocks + held.size());
  EXPECT_EQ(st.classes[kCls].live_blocks, in_class + held.size());
  // 682 blocks of 96 bytes fit in a 64 KiB chunk after its header.
  EXPECT_GE(st.classes[kCls].chunks, held.size() / 682);
  EXPECT_GT(st.census_live_bytes + kStep, st.live_bytes);
  EXPECT_LE(st.census_live_bytes, st.live_bytes);
  EXPECT_LE(st.census[kCls].live_blocks, in_class + held.size());
  EXPECT_GE(st.census[kCls].live_blocks + kStep / 96 + 1,
            in_class + held.size());
  const sim::PoolClassCount census = st.census[kCls];
  for (void* p : held) sim::pool_free(p, 96);
  EXPECT_EQ(st.live_blocks, blocks);
  EXPECT_EQ(st.classes[kCls].live_blocks, in_class);
  // Frees take no census.
  EXPECT_EQ(st.census[kCls].live_blocks, census.live_blocks);
}

TEST(PoolAllocator, EmptyCurrentChunkOfAnotherClassServesBeforeAFreshChunk) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // The 1952-byte class gets its only block back into its current
  // chunk, which stays its current chunk. When the 2016-byte class then
  // runs dry with no partial and no spare chunk, it takes that empty
  // chunk instead of carving a fresh one.
  constexpr std::size_t kIdle = 1952;
  constexpr std::size_t kBusy = 2016;
  std::vector<void*> busy = exhaust_spare_chunks(kBusy);
  void* idle = sim::pool_alloc(kIdle);
  sim::pool_free(idle, kIdle);
  const sim::PoolStats& st = sim::pool_stats();
  const std::uint64_t chunks = st.chunks;
  const std::uint64_t switches = st.chunk_switches;
  while (st.chunk_switches == switches) busy.push_back(sim::pool_alloc(kBusy));
  EXPECT_EQ(st.chunks, chunks);
  EXPECT_EQ(chunk_of(busy.back()), chunk_of(idle));
  for (void* p : busy) sim::pool_free(p, kBusy);
}

TEST(PoolAllocator, FreshCensusIsTakenWhenAFreshChunkIsCarved) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // The block that needs a fresh chunk takes the census: its class with
  // the fresh chunk counted and the block not yet out. Blocks reused
  // afterwards take none.
  constexpr std::size_t kSize = 1888;
  constexpr std::size_t kCls = kSize / sim::kPoolGranularity - 1;
  std::vector<void*> held = exhaust_spare_chunks(kSize);
  const sim::PoolStats& st = sim::pool_stats();
  EXPECT_EQ(st.fresh_census[kCls].chunks, st.classes[kCls].chunks);
  EXPECT_EQ(st.fresh_census[kCls].live_blocks + 1,
            st.classes[kCls].live_blocks);
  EXPECT_EQ(st.fresh_census_live_bytes + kSize, st.live_bytes);
  const sim::PoolClassCount census = st.fresh_census[kCls];
  sim::pool_free(held.back(), kSize);
  held.back() = sim::pool_alloc(kSize);
  held.push_back(sim::pool_alloc(kSize));
  EXPECT_EQ(st.fresh_census[kCls].live_blocks, census.live_blocks);
  EXPECT_EQ(st.fresh_census[kCls].chunks, census.chunks);
  for (void* p : held) sim::pool_free(p, kSize);
}

// Whether the 64 KiB chunk at `chunk` is mapped: mincore fails with
// ENOMEM when a page of the range is not.
bool chunk_mapped(std::uintptr_t chunk) {
  unsigned char pages[kChunkBytes / 4096];
  return ::mincore(reinterpret_cast<void*>(chunk), kChunkBytes, pages) == 0 ||
         errno != ENOMEM;
}

TEST(PoolAllocator, TrimOfAnEmptyPoolUnmapsEverySlab) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // On a fresh host thread, whose pool maps nothing yet, blocks of two
  // classes fill 41 chunks over two 2 MiB slabs. While one block is
  // live, a trim keeps every slab; once it is freed, the trim unmaps
  // them all and the pages of every chunk are gone. The next block
  // carves a fresh chunk from a new slab.
  std::thread([] {
    const sim::PoolStats& st = sim::pool_stats();
    EXPECT_EQ(st.mapped_bytes, 0u);
    std::vector<void*> big;
    for (int i = 0; i < 40 * 31; ++i) big.push_back(sim::pool_alloc(2048));
    void* const keep = sim::pool_alloc(64);
    std::set<std::uintptr_t> chunks{chunk_of(keep)};
    for (void* p : big) chunks.insert(chunk_of(p));
    EXPECT_EQ(chunks.size(), 41u);
    EXPECT_EQ(st.mapped_bytes, 2u << 21);
    for (void* p : big) sim::pool_free(p, 2048);
    sim::pool_trim();
    EXPECT_EQ(st.mapped_bytes, 2u << 21);
    EXPECT_EQ(st.releases, 0u);
    for (std::uintptr_t c : chunks) EXPECT_TRUE(chunk_mapped(c));

    sim::pool_free(keep, 64);
    sim::pool_trim();
    EXPECT_EQ(st.mapped_bytes, 0u);
    EXPECT_EQ(st.releases, 1u);
    for (std::uintptr_t c : chunks) {
      EXPECT_FALSE(chunk_mapped(c)) << "a chunk's pages stayed mapped";
    }
    for (const sim::PoolClassCount& c : st.classes) EXPECT_EQ(c.chunks, 0u);

    const std::uint64_t carved = st.chunks;
    void* const again = sim::pool_alloc(64);
    EXPECT_EQ(st.chunks, carved + 1);
    EXPECT_EQ(st.mapped_bytes, 1u << 21);
    sim::pool_free(again, 64);
    sim::pool_trim();
    EXPECT_EQ(st.mapped_bytes, 0u);
    EXPECT_EQ(st.releases, 2u);
  }).join();
}

TEST(PoolAllocator, EachHostThreadHasItsOwnPool) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer builds compile the freelists out";
#endif
  // Two host threads churn blocks of different classes at the same
  // time. Each counts only its own blocks, leaves its pool empty and
  // unmapped, and the calling thread's pool does not move.
  const sim::PoolStats before = sim::pool_stats();
  std::latch holding(2);
  const auto churn = [&holding](std::size_t bytes, std::uint64_t count) {
    const sim::PoolStats& st = sim::pool_stats();
    const std::size_t cls = (bytes - 1) / sim::kPoolGranularity;
    std::vector<void*> held;
    for (int round = 0; round < 50; ++round) {
      for (std::uint64_t i = 0; i < count; ++i) {
        held.push_back(sim::pool_alloc(bytes));
      }
      if (round == 0) holding.arrive_and_wait();
      EXPECT_EQ(st.live_blocks, count);
      EXPECT_EQ(st.classes[cls].live_blocks, count);
      EXPECT_EQ(st.live_bytes, count * (cls + 1) * sim::kPoolGranularity);
      for (void* p : held) sim::pool_free(p, bytes);
      held.clear();
    }
    EXPECT_EQ(st.live_blocks, 0u);
    sim::pool_trim();
    EXPECT_EQ(st.mapped_bytes, 0u);
  };
  std::thread a(churn, 96, 1000);
  std::thread b(churn, 1000, 300);
  a.join();
  b.join();
  const sim::PoolStats& after = sim::pool_stats();
  EXPECT_EQ(after.live_blocks, before.live_blocks);
  EXPECT_EQ(after.reuses, before.reuses);
  EXPECT_EQ(after.chunks, before.chunks);
  EXPECT_EQ(after.mapped_bytes, before.mapped_bytes);
}

TEST(PoolAllocator, OversizeBlocksFallThrough) {
  const sim::PoolStats before = sim::pool_stats();
  void* big = sim::pool_alloc(1 << 20);
  sim::pool_free(big, 1 << 20);
  EXPECT_EQ(sim::pool_stats().oversize, before.oversize + 1);
}

// ------------------------------------------------------------------
// Small-buffer-optimized callable types
// ------------------------------------------------------------------

TEST(CallbackType, InlineCaptureSurvivesMove) {
  int hits = 0;
  Callback a([p = &hits] { *p += 7; });  // one pointer: the word itself
  ASSERT_TRUE(a.inline_stored());
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  std::move(b)();
  EXPECT_EQ(hits, 7);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
}

TEST(CallbackType, SpilledCaptureSurvivesMove) {
  std::array<char, 200> payload{};  // larger than the inline word
  payload[0] = 3;
  int hits = 0;
  Callback a([payload, &hits] { hits += payload[0]; });
  ASSERT_FALSE(a.inline_stored());
  Callback b(std::move(a));
  Callback c(std::move(b));
  std::move(c)();
  EXPECT_EQ(hits, 3);
}

// What the runtime schedules fits in the word; a two-word capture spills.
TEST(CallbackType, InlineStoredOnlyForOneWordCallables) {
  EXPECT_TRUE(sim::resume_callback(std::noop_coroutine()).inline_stored());
  int x = 0;
  int* p = &x;
  EXPECT_TRUE(Callback([p] { ++*p; }).inline_stored());
  const std::uint64_t a = 1;
  EXPECT_FALSE(Callback([a, p] { *p += static_cast<int>(a); }).inline_stored());
  EXPECT_FALSE(Callback().inline_stored());
}

// A spilled callable is destroyed and its block freed when its call
// throws, both run through the queue and directly; the sanitizer build's
// leak check catches a leak here.
TEST(CallbackType, ThrowingSpilledCallbackIsStillReleased) {
  auto token = std::make_shared<int>(0);
  auto thrower = [token] { throw std::runtime_error("boom"); };
  ASSERT_FALSE(Callback(thrower).inline_stored());
  {
    EventQueue q;
    q.schedule(1, thrower);
    q.schedule(2, thrower);
    EXPECT_EQ(token.use_count(), 1 + 1 + 2);  // token, `thrower`, pending
    EXPECT_THROW(q.pop_and_run(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1 + 1 + 1);
    EXPECT_EQ(q.size(), 1u);
  }
  EXPECT_EQ(token.use_count(), 2);
  Callback c(thrower);
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_THROW(std::move(c)(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_FALSE(static_cast<bool>(c));  // NOLINT(bugprone-use-after-move)
}

TEST(SmallFnType, InvokesWithArgumentsAndResult) {
  SmallFn<int(int, int)> f([](int a, int b) { return a * 10 + b; });
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(3, 4), 34);
  SmallFn<int(int, int)> g(std::move(f));
  EXPECT_EQ(g(1, 2), 12);
}

TEST(SmallFnType, SpilledStateSurvivesMoveChain) {
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  SmallFn<std::uint64_t()> f([big] { return big[15]; });
  SmallFn<std::uint64_t()> g(std::move(f));
  SmallFn<std::uint64_t()> h(std::move(g));
  EXPECT_EQ(h(), 42u);
}

TEST(SmallFnType, DefaultConstructedIsEmpty) {
  SmallFn<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = SmallFn<void()>([] {});
  EXPECT_TRUE(static_cast<bool>(f));
}

}  // namespace
}  // namespace xlupc
