// Event-queue and allocator tests for the fast simulator core
// (docs/PERFORMANCE.md): equal-time FIFO ordering on both insert paths
// of the radix event queue, the queue against a sorted reference, its
// peak pending count, pool reuse under churn, sized frees, and the
// callback types.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <coroutine>
#include <limits>
#include <memory>
#include <stdexcept>
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
  void* small = sim::pool_alloc(32);
  sim::pool_free(small, 32);
  void* next_class = sim::pool_alloc(33);
  EXPECT_NE(next_class, small);
  void* same_class = sim::pool_alloc(1);
  EXPECT_EQ(same_class, small);
  sim::pool_free(same_class, 1);
  sim::pool_free(next_class, 33);
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
