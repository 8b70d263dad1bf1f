// The Shared Variable Directory (paper Sec. 2.1).
//
// One Directory replica exists per node. On a system with n UPC threads it
// has n + 1 partitions: partition k lists the shared variables affine to
// thread k; the ALL partition holds variables allocated statically or
// through collective operations. Each partition has a single writer (the
// owning thread), so allocation requires no locks; remote replicas learn
// of allocations through notification messages and hold control blocks
// WITHOUT local addresses — translation from handle to memory address
// happens only on the home node, which is exactly the scalability property
// (and the performance compromise) the paper describes.
#pragma once

#include <cstdint>

#include "common/flat_map.h"
#include "common/types.h"
#include "svd/handle.h"

namespace xlupc::svd {

enum class ObjectKind : std::uint8_t {
  kScalar,
  kArray,
  kLock,
  kPointer,
};

/// Control structure associated with a shared object in a replica.
/// `local_base`/`local_bytes` describe this node's portion and are only
/// meaningful on nodes that own part of the object.
struct ControlBlock {
  ObjectKind kind = ObjectKind::kArray;
  std::uint64_t total_bytes = 0;  ///< whole-object size across all threads
  Addr local_base = kNullAddr;    ///< base of this node's combined piece
  std::uint64_t local_bytes = 0;  ///< size of this node's piece
};

/// One node's replica of the distributed symbol table.
class Directory {
 public:
  /// `threads` = total number of UPC threads (partitions 0..threads-1
  /// plus the ALL partition).
  explicit Directory(std::uint32_t threads);

  std::uint32_t threads() const noexcept { return threads_; }

  /// Append a locally-known object to `partition`, enforcing the
  /// single-writer rule: only thread `writer` may append to its own
  /// partition; any thread may append to ALL (collective allocations are
  /// already synchronized). Returns the new handle.
  Handle add_local(std::uint32_t partition, ThreadId writer, ControlBlock cb);

  /// Record a remotely-allocated object announced by a notification.
  /// The control block has no local address on this replica.
  void add_remote(Handle h, std::uint64_t total_bytes, ObjectKind kind);

  /// Find the control block, or nullptr if unknown/freed. The pointer is
  /// valid only until the next add_local, add_remote or remove: the
  /// entries live in one flat table that moves them when it grows or
  /// closes a gap.
  ControlBlock* find(Handle h);
  const ControlBlock* find(Handle h) const;

  /// Home-node translation: address of byte `offset` within this node's
  /// piece. Throws std::logic_error when this replica holds no local
  /// address for the object (i.e. translation attempted off-home).
  Addr translate(Handle h, std::uint64_t offset) const;

  /// Remove the object from this replica (allocation freed).
  /// Returns true if it was present.
  bool remove(Handle h);

  /// Number of live entries in a partition (a scan of the replica; for
  /// diagnostics).
  std::size_t partition_size(std::uint32_t partition) const;

  /// Total live entries across all partitions.
  std::size_t size() const noexcept { return entries_.size(); }

  /// Lifetime counters (consistency diagnostics).
  std::uint64_t adds() const noexcept { return adds_; }
  std::uint64_t removes() const noexcept { return removes_; }

 private:
  /// Throws std::out_of_range unless `partition` is a thread's partition
  /// or ALL.
  void check_partition(std::uint32_t partition) const;

  std::uint32_t threads_;
  // Sparse: a replica stores only the objects it knows and the partitions
  // that have been written, so memory is O(objects), not O(threads).
  FlatMap<Handle, ControlBlock, HandleHash> entries_;
  FlatMap<std::uint32_t, std::uint32_t> next_index_;
  std::uint64_t adds_ = 0;
  std::uint64_t removes_ = 0;
};

}  // namespace xlupc::svd
