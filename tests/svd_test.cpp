// Tests for the Shared Variable Directory: handles, partitioning, the
// single-writer rule, home-only translation and replica consistency.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "sim/rng.h"
#include "svd/directory.h"
#include "svd/handle.h"

namespace xlupc::svd {
namespace {

TEST(Handle, PackUnpackRoundTrips) {
  for (std::uint32_t part : {0u, 1u, 17u, kAllPartition}) {
    for (std::uint32_t idx : {0u, 5u, 0xffffffffu}) {
      const Handle h{part, idx};
      EXPECT_EQ(Handle::unpack(h.pack()), h);
    }
  }
}

TEST(Handle, AllPartitionIsRecognized) {
  EXPECT_TRUE((Handle{kAllPartition, 0}).is_all());
  EXPECT_FALSE((Handle{0, 0}).is_all());
}

TEST(Directory, HasNPlusOnePartitions) {
  Directory dir(4);
  // Partitions 0..3 are writable by their threads; ALL by anyone.
  for (ThreadId t = 0; t < 4; ++t) {
    EXPECT_NO_THROW(dir.add_local(t, t, ControlBlock{}));
  }
  EXPECT_NO_THROW(dir.add_local(kAllPartition, 2, ControlBlock{}));
  EXPECT_EQ(dir.size(), 5u);
  EXPECT_THROW(dir.add_local(4, 4, ControlBlock{}), std::out_of_range);
}

TEST(Directory, EveryAccessorRejectsPartitionsBeyondThreads) {
  Directory dir(4);
  for (std::uint32_t part : {4u, 5u, 1000u, kAllPartition - 1}) {
    const Handle h{part, 0};
    EXPECT_THROW(dir.find(h), std::out_of_range) << part;
    EXPECT_THROW(std::as_const(dir).find(h), std::out_of_range) << part;
    EXPECT_THROW(dir.remove(h), std::out_of_range) << part;
    EXPECT_THROW(dir.add_remote(h, 64, ObjectKind::kArray), std::out_of_range)
        << part;
    EXPECT_THROW(dir.partition_size(part), std::out_of_range) << part;
  }
  EXPECT_EQ(dir.size(), 0u);
  EXPECT_EQ(dir.adds(), 0u);
}

TEST(Directory, UntouchedPartitionsReadAsEmpty) {
  Directory dir(8);
  dir.add_local(3, 3, ControlBlock{});
  EXPECT_EQ(dir.partition_size(kAllPartition), 0u);
  EXPECT_EQ(dir.find(Handle{kAllPartition, 0}), nullptr);
  EXPECT_FALSE(dir.remove(Handle{kAllPartition, 0}));
  for (std::uint32_t part = 0; part < 8; ++part) {
    if (part == 3) continue;
    EXPECT_EQ(dir.partition_size(part), 0u) << part;
    EXPECT_EQ(dir.find(Handle{part, 0}), nullptr) << part;
    EXPECT_FALSE(dir.remove(Handle{part, 0})) << part;
  }
  EXPECT_EQ(dir.partition_size(3), 1u);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.removes(), 0u);
}

TEST(Directory, SingleWriterRuleIsEnforced) {
  Directory dir(4);
  // Thread 1 may not append to thread 0's partition (Sec. 2.1: each
  // thread updates its own partition; no locks needed).
  EXPECT_THROW(dir.add_local(0, 1, ControlBlock{}), std::logic_error);
  // But any thread may append to ALL (collectives are synchronized).
  EXPECT_NO_THROW(dir.add_local(kAllPartition, 1, ControlBlock{}));
}

TEST(Directory, HandlesAreSequentialPerPartition) {
  Directory dir(2);
  const Handle a = dir.add_local(0, 0, ControlBlock{});
  const Handle b = dir.add_local(0, 0, ControlBlock{});
  const Handle c = dir.add_local(1, 1, ControlBlock{});
  EXPECT_EQ(a.index + 1, b.index);
  EXPECT_EQ(c.index, 0u);
  EXPECT_EQ(a.partition, 0u);
  EXPECT_EQ(c.partition, 1u);
}

TEST(Directory, TranslateOnHomeNode) {
  Directory dir(2);
  ControlBlock cb;
  cb.local_base = 0x1000;
  cb.local_bytes = 256;
  const Handle h = dir.add_local(0, 0, cb);
  EXPECT_EQ(dir.translate(h, 0), 0x1000u);
  EXPECT_EQ(dir.translate(h, 255), 0x10ffu);
  EXPECT_THROW(dir.translate(h, 256), std::out_of_range);
}

TEST(Directory, TranslateOffHomeThrows) {
  // A replica that learned about the object via notification has no local
  // address: translation must only happen on the home node.
  Directory replica(2);
  replica.add_remote(Handle{0, 0}, 256, ObjectKind::kArray);
  EXPECT_THROW(replica.translate(Handle{0, 0}, 0), std::logic_error);
}

TEST(Directory, TranslateUnknownHandleThrows) {
  Directory dir(2);
  EXPECT_THROW(dir.translate(Handle{0, 9}, 0), std::logic_error);
}

TEST(Directory, RemoveFreesTheSlot) {
  Directory dir(2);
  const Handle h = dir.add_local(0, 0, ControlBlock{});
  EXPECT_TRUE(dir.remove(h));
  EXPECT_EQ(dir.find(h), nullptr);
  EXPECT_FALSE(dir.remove(h));
  EXPECT_EQ(dir.adds(), 1u);
  EXPECT_EQ(dir.removes(), 1u);
}

TEST(Directory, RemoteAnnouncementKeepsIndexAllocationAhead) {
  Directory replica(2);
  replica.add_remote(Handle{0, 5}, 64, ObjectKind::kArray);
  // A later local allocation on that partition must not collide.
  const Handle h = replica.add_local(0, 0, ControlBlock{});
  EXPECT_EQ(h.index, 6u);
}

TEST(Directory, ReplicasStayConsistentUnderCollectiveOrder) {
  // Simulate 3 replicas performing the same collective allocations: the
  // resulting handles must be identical everywhere.
  std::vector<Directory> replicas;
  replicas.reserve(3);
  for (int i = 0; i < 3; ++i) replicas.emplace_back(4);
  for (int alloc = 0; alloc < 5; ++alloc) {
    Handle expect{};
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const Handle h =
          replicas[r].add_local(kAllPartition, 0, ControlBlock{});
      if (r == 0) {
        expect = h;
      } else {
        EXPECT_EQ(h, expect);
      }
    }
  }
}

TEST(Directory, PartitionSizesTrackLiveEntries) {
  Directory dir(3);
  dir.add_local(1, 1, ControlBlock{});
  dir.add_local(1, 1, ControlBlock{});
  const Handle h = dir.add_local(kAllPartition, 0, ControlBlock{});
  EXPECT_EQ(dir.partition_size(1), 2u);
  EXPECT_EQ(dir.partition_size(kAllPartition), 1u);
  dir.remove(h);
  EXPECT_EQ(dir.partition_size(kAllPartition), 0u);
}

TEST(Directory, ZeroThreadsRejected) {
  EXPECT_THROW(Directory dir(0), std::invalid_argument);
}

class DirectoryChurnProperty : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryChurnProperty, AllocFreeChurnKeepsCountsConsistent) {
  const int rounds = GetParam();
  Directory dir(8);
  std::vector<Handle> live;
  for (int r = 0; r < rounds; ++r) {
    const ThreadId t = static_cast<ThreadId>(r % 8);
    live.push_back(dir.add_local(t, t, ControlBlock{}));
    if (r % 3 == 2) {
      dir.remove(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(dir.size(), live.size());
  EXPECT_EQ(dir.adds() - dir.removes(), live.size());
  for (const Handle& h : live) EXPECT_NE(dir.find(h), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DirectoryChurnProperty,
                         ::testing::Values(1, 8, 27, 64, 200));

// --- the flat table under the directory, against std::unordered_map -------

// Sends 8 consecutive keys to one home slot: probe runs are long, wrap
// around the end of the table, and most erases land inside a run, so the
// backward shift has members to move.
struct ClusteredHash {
  std::size_t operator()(std::uint64_t k) const noexcept {
    return static_cast<std::size_t>((k / 8) * 0x9e3779b97f4a7c15ull);
  }
};

TEST(FlatMap, MatchesUnorderedMapAcrossGrowths) {
  FlatMap<std::uint64_t, std::uint64_t, ClusteredHash> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  sim::Rng rng(7);
  const auto check_all = [&](const std::string& at) {
    ASSERT_EQ(flat.size(), ref.size()) << at;
    std::size_t seen = 0;
    flat.for_each([&](std::uint64_t k, std::uint64_t v) {
      ++seen;
      const auto it = ref.find(k);
      ASSERT_NE(it, ref.end()) << at << ": stray key " << k;
      EXPECT_EQ(v, it->second) << at << ": key " << k;
    });
    EXPECT_EQ(seen, ref.size()) << at;
    for (const auto& [k, v] : ref) {
      const std::uint64_t* got = flat.find(k);
      ASSERT_NE(got, nullptr) << at << ": lost key " << k;
      EXPECT_EQ(*got, v) << at << ": key " << k;
    }
  };
  // Grow to ~1500 keys (slot array 8 -> 4096) with erases mixed in, then
  // erase most of them again.
  for (int i = 0; i < 24000; ++i) {
    const std::string at = "op " + std::to_string(i);
    const std::uint64_t key = rng.below(3000);
    const std::uint64_t op = rng.below(100);
    const int insert_pct = i < 12000 ? 60 : 25;
    if (op < static_cast<std::uint64_t>(insert_pct)) {
      const std::uint64_t value = rng.next_u64();
      const auto [v, inserted] = flat.try_emplace(key, value);
      const auto [it, ref_inserted] = ref.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted) << at;
      EXPECT_EQ(*v, it->second) << at;  // a present key keeps its value
    } else if (op < 85) {
      ASSERT_EQ(flat.erase(key), ref.erase(key) == 1) << at;
    } else {
      const std::uint64_t* got = flat.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << at;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second) << at;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << at;
    if (i % 1000 == 999) check_all(at);
    if (HasFailure()) return;
  }
  check_all("end");
}

// The directory over std::unordered_map (control blocks, and next indices
// per partition) with the same add/remove rules: the reference below.
class ReferenceDirectory {
 public:
  Handle add_local(std::uint32_t partition, ControlBlock cb) {
    const Handle h{partition, next_index_[partition]++};
    entries_.emplace(h.pack(), cb);
    return h;
  }
  void add_remote(Handle h, std::uint64_t total_bytes, ObjectKind kind) {
    ControlBlock cb;
    cb.kind = kind;
    cb.total_bytes = total_bytes;
    entries_.emplace(h.pack(), cb);
    std::uint32_t& next = next_index_[h.partition];
    if (h.index >= next) next = h.index + 1;
  }
  ControlBlock* find(Handle h) {
    auto it = entries_.find(h.pack());
    return it == entries_.end() ? nullptr : &it->second;
  }
  bool remove(Handle h) { return entries_.erase(h.pack()) > 0; }
  std::size_t size() const { return entries_.size(); }
  std::size_t partition_size(std::uint32_t partition) const {
    std::size_t n = 0;
    for (const auto& [bits, cb] : entries_) {
      n += Handle::unpack(bits).partition == partition;
    }
    return n;
  }

 private:
  std::unordered_map<std::uint64_t, ControlBlock> entries_;
  std::unordered_map<std::uint32_t, std::uint32_t> next_index_;
};

TEST(Directory, MatchesUnorderedMapReference) {
  constexpr std::uint32_t kThreads = 6;
  const std::vector<std::uint32_t> partitions{0, 1, 2, 3, 4, 5, kAllPartition};
  Directory dir(kThreads);
  ReferenceDirectory ref;
  sim::Rng rng(11);
  const auto random_handle = [&] {
    return Handle{partitions[rng.below(partitions.size())],
                  static_cast<std::uint32_t>(rng.below(160))};
  };
  for (int i = 0; i < 12000; ++i) {
    const std::string at = "op " + std::to_string(i);
    const std::uint64_t op = rng.below(100);
    const int add_pct = i < 6000 ? 50 : 20;  // grow, then mostly remove
    if (op < static_cast<std::uint64_t>(add_pct) / 2) {
      const std::uint32_t p = partitions[rng.below(partitions.size())];
      ControlBlock cb;
      cb.total_bytes = rng.below(1u << 16);
      cb.local_base = 0x1000 + rng.below(1u << 20);
      cb.local_bytes = rng.below(4096);
      const ThreadId writer =
          p == kAllPartition ? static_cast<ThreadId>(rng.below(kThreads)) : p;
      ASSERT_EQ(dir.add_local(p, writer, cb), ref.add_local(p, cb)) << at;
    } else if (op < static_cast<std::uint64_t>(add_pct)) {
      const Handle h = random_handle();
      const auto kind = static_cast<ObjectKind>(rng.below(4));
      const std::uint64_t total = rng.below(1u << 16);
      dir.add_remote(h, total, kind);  // keeps an existing entry as is
      ref.add_remote(h, total, kind);
    } else if (op < 80) {
      const Handle h = random_handle();
      ASSERT_EQ(dir.remove(h), ref.remove(h)) << at;
    } else {
      // Find, and write through the pointer as materialize_piece does.
      const Handle h = random_handle();
      ControlBlock* got = dir.find(h);
      ControlBlock* want = ref.find(h);
      ASSERT_EQ(got != nullptr, want != nullptr) << at;
      if (got != nullptr) {
        EXPECT_EQ(got->kind, want->kind) << at;
        EXPECT_EQ(got->total_bytes, want->total_bytes) << at;
        EXPECT_EQ(got->local_base, want->local_base) << at;
        EXPECT_EQ(got->local_bytes, want->local_bytes) << at;
        got->local_bytes = want->local_bytes = rng.below(4096);
      }
    }
    ASSERT_EQ(dir.size(), ref.size()) << at;
    if (i % 500 == 499) {
      for (const std::uint32_t p : partitions) {
        ASSERT_EQ(dir.partition_size(p), ref.partition_size(p))
            << at << " partition " << p;
      }
    }
  }
  // Every handle either side could hold, with its full contents.
  for (const std::uint32_t p : partitions) {
    EXPECT_EQ(dir.partition_size(p), ref.partition_size(p)) << p;
    for (std::uint32_t idx = 0; idx < 6200; ++idx) {
      const ControlBlock* got = dir.find(Handle{p, idx});
      const ControlBlock* want = ref.find(Handle{p, idx});
      ASSERT_EQ(got != nullptr, want != nullptr) << p << "/" << idx;
      if (got != nullptr) {
        EXPECT_EQ(got->total_bytes, want->total_bytes) << p << "/" << idx;
        EXPECT_EQ(got->local_base, want->local_base) << p << "/" << idx;
        EXPECT_EQ(got->local_bytes, want->local_bytes) << p << "/" << idx;
      }
    }
  }
}

}  // namespace
}  // namespace xlupc::svd
