// Tests for the Shared Variable Directory: handles, partitioning, the
// single-writer rule, home-only translation and replica consistency.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

}  // namespace
}  // namespace xlupc::svd
