#include "mem/address_space.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace xlupc::mem {

namespace {
constexpr std::size_t kAlign = 16;

std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

AddressSpace::AddressSpace(NodeId node) : node_(node), next_(node_base(node)) {}

Addr AddressSpace::allocate(std::size_t size) {
  const Addr addr = next_;
  blocks_.push_back(Block{addr, std::vector<std::byte>(size)});
  // Reserve at least one alignment unit so even empty allocations get
  // distinct addresses.
  next_ += round_up(std::max<std::size_t>(size, 1), kAlign);
  bytes_allocated_ += size;
  return addr;
}

const AddressSpace::Block* AddressSpace::at_or_below(Addr addr) const noexcept {
  const auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), addr,
      [](Addr a, const Block& b) { return a < b.base; });
  return it == blocks_.begin() ? nullptr : &*std::prev(it);
}

const AddressSpace::Block* AddressSpace::find(Addr addr) const noexcept {
  const Block* b = at_or_below(addr);
  return b != nullptr && b->base == addr ? b : nullptr;
}

void AddressSpace::free(Addr addr) {
  const Block* b = find(addr);
  if (b == nullptr) {
    throw std::invalid_argument("AddressSpace::free: not an allocation base");
  }
  bytes_allocated_ -= b->bytes.size();
  blocks_.erase(blocks_.begin() + (b - blocks_.data()));
}

const AddressSpace::Block& AddressSpace::locate(Addr addr,
                                                std::size_t len) const {
  const Block* b = at_or_below(addr);
  if (b == nullptr) {
    throw std::out_of_range("AddressSpace: address below all allocations");
  }
  const std::size_t size = b->bytes.size();
  if (addr - b->base > size || len > size - (addr - b->base)) {
    throw std::out_of_range("AddressSpace: range not inside an allocation");
  }
  return *b;
}

bool AddressSpace::contains(Addr addr, std::size_t len) const {
  try {
    locate(addr, len);
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

void AddressSpace::read(Addr addr, std::span<std::byte> out) const {
  std::memcpy(out.data(), data(addr, out.size()), out.size());
}

void AddressSpace::write(Addr addr, std::span<const std::byte> in) {
  std::memcpy(data(addr, in.size()), in.data(), in.size());
}

std::byte* AddressSpace::data(Addr addr, std::size_t len) {
  const Block& block = locate(addr, len);
  // locate() is const; the block's byte storage is logically mutable here.
  return const_cast<std::byte*>(block.bytes.data()) + (addr - block.base);
}

const std::byte* AddressSpace::data(Addr addr, std::size_t len) const {
  const Block& block = locate(addr, len);
  return block.bytes.data() + (addr - block.base);
}

std::size_t AddressSpace::allocation_size(Addr addr) const {
  const Block* b = find(addr);
  if (b == nullptr) {
    throw std::invalid_argument("AddressSpace::allocation_size: unknown base");
  }
  return b->bytes.size();
}

Addr AddressSpace::owning_block(Addr addr) const {
  const Block* b = at_or_below(addr);
  if (b == nullptr ||
      addr - b->base >= std::max<std::size_t>(b->bytes.size(), 1)) {
    return kNullAddr;
  }
  return b->base;
}

}  // namespace xlupc::mem
