// Per-node virtual address space with real backing storage.
//
// Each node allocates from its own disjoint address range, so the same
// shared object deliberately gets a *different* local address on every
// node — the exact property that makes remote addresses unknown a priori
// and motivates the SVD + remote address cache design.
//
// Allocations carry actual bytes: GET/PUT in the runtime move real data,
// letting tests assert end-to-end integrity rather than just timing.
//
// The blocks sit in one vector in address order: allocation addresses
// only grow, so a new block is appended, and a lookup is a binary search
// over adjacent records instead of a walk down tree nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace xlupc::mem {

class AddressSpace {
 public:
  /// Creates the address space of node `node`; bases are spaced 2^40 apart.
  explicit AddressSpace(NodeId node);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  AddressSpace(AddressSpace&&) = default;
  AddressSpace& operator=(AddressSpace&&) = default;

  /// Allocate `size` bytes (16-byte aligned), zero-initialized.
  /// size == 0 is allowed and returns a distinct non-null address.
  Addr allocate(std::size_t size);

  /// Free a previous allocation. Throws std::invalid_argument if `addr`
  /// is not an allocation start address.
  void free(Addr addr);

  /// True when [addr, addr+len) lies within a single live allocation.
  bool contains(Addr addr, std::size_t len) const;

  /// Copy out of simulated memory. Throws std::out_of_range on bad range.
  void read(Addr addr, std::span<std::byte> out) const;

  /// Copy into simulated memory. Throws std::out_of_range on bad range.
  void write(Addr addr, std::span<const std::byte> in);

  /// Direct pointer into backing storage for [addr, addr+len).
  std::byte* data(Addr addr, std::size_t len);
  const std::byte* data(Addr addr, std::size_t len) const;

  /// Typed accessors for test/benchmark convenience.
  template <class T>
  T load(Addr addr) const {
    T v;
    read(addr, std::as_writable_bytes(std::span(&v, 1)));
    return v;
  }
  template <class T>
  void store(Addr addr, const T& v) {
    write(addr, std::as_bytes(std::span(&v, 1)));
  }

  NodeId node() const noexcept { return node_; }
  std::size_t live_allocations() const noexcept { return blocks_.size(); }
  std::size_t bytes_allocated() const noexcept { return bytes_allocated_; }

  /// Size of the allocation starting at the given block base.
  std::size_t allocation_size(Addr addr) const;

  /// Base address of the live allocation containing `addr`, or kNullAddr.
  Addr owning_block(Addr addr) const;

 private:
  struct Block {
    Addr base;
    std::vector<std::byte> bytes;  ///< the allocation's size and contents
  };

  /// The block starting at `addr`, or nullptr.
  const Block* find(Addr addr) const noexcept;
  /// The last block starting at or below `addr`, or nullptr.
  const Block* at_or_below(Addr addr) const noexcept;
  // Returns the block containing [addr, addr+len) or throws.
  const Block& locate(Addr addr, std::size_t len) const;

  NodeId node_;
  Addr next_;
  std::vector<Block> blocks_;  ///< ascending base addresses
  std::size_t bytes_allocated_ = 0;
};

/// Base of a node's address range (useful in tests).
constexpr Addr node_base(NodeId node) {
  return (static_cast<Addr>(node) + 1) << 40;
}

}  // namespace xlupc::mem
