#include "mem/pinned_table.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace xlupc::mem {

namespace {
constexpr std::size_t kChunk = kPinChunkBytes;  // chunked granularity
}  // namespace

PinnedAddressTable::Regions::const_iterator PinnedAddressTable::at_or_below(
    Addr addr) const {
  const auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](Addr a, const Region& r) { return a < r.base; });
  return it == regions_.begin() ? regions_.end() : std::prev(it);
}

PinnedAddressTable::Regions::iterator PinnedAddressTable::at_or_below(
    Addr addr) {
  const auto it = std::as_const(*this).at_or_below(addr);
  return regions_.begin() + (it - regions_.cbegin());
}

bool PinnedAddressTable::covered(Addr addr, std::size_t len) const {
  Addr cursor = addr;
  const Addr end = addr + len;
  while (cursor < end) {
    const auto it = at_or_below(cursor);
    if (it == regions_.end() || cursor >= it->end()) return false;
    cursor = it->end();
  }
  return true;
}

bool PinnedAddressTable::is_pinned(Addr addr, std::size_t len) const {
  return covered(addr, std::max<std::size_t>(len, 1));
}

std::optional<RdmaKey> PinnedAddressTable::key_for(Addr addr) const {
  const auto it = at_or_below(addr);
  if (it != regions_.end() && addr < it->end()) return it->key;
  return std::nullopt;
}

void PinnedAddressTable::insert_region(Addr addr, std::size_t len,
                                       PinResult& result) {
  const auto at = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](Addr a, const Region& r) { return a < r.base; });
  regions_.insert(at, Region{addr, len, next_key_++, ++use_clock_});
  pinned_bytes_ += len;
  ++registrations_;
  ++result.new_handles;
  result.new_bytes += len;
}

bool PinnedAddressTable::make_room(std::size_t need, PinResult& result) {
  if (limits_.max_total_bytes == 0) return true;
  if (need > limits_.max_total_bytes) return false;
  while (pinned_bytes_ + need > limits_.max_total_bytes) {
    if (regions_.empty()) return false;
    const auto victim = std::min_element(
        regions_.begin(), regions_.end(),
        [](const Region& a, const Region& b) {
          return a.last_use < b.last_use;
        });
    pinned_bytes_ -= victim->len;
    ++deregistrations_;
    ++cap_evictions_;
    ++result.evicted_handles;
    result.evicted_bytes += victim->len;
    regions_.erase(victim);
  }
  return true;
}

PinResult PinnedAddressTable::pin_greedy(Addr addr, std::size_t len) {
  PinResult result;
  len = std::max<std::size_t>(len, 1);
  if (covered(addr, len)) {
    result.ok = true;
    result.already_pinned = true;
    result.key = *key_for(addr);
    return result;
  }
  // "Pin everything": one registration covering the whole extent; limits
  // are deliberately ignored, matching the paper's simplified strategy.
  // Any partially-overlapping earlier registration is merged into the new
  // one so regions in the table never overlap.
  Addr lo = addr;
  Addr hi = addr + len;
  std::erase_if(regions_, [&](const Region& r) {
    if (r.base >= addr + len || r.end() <= addr) return false;
    lo = std::min(lo, r.base);
    hi = std::max(hi, r.end());
    pinned_bytes_ -= r.len;
    return true;
  });
  insert_region(lo, static_cast<std::size_t>(hi - lo), result);
  result.ok = true;
  result.key = *key_for(addr);
  return result;
}

PinResult PinnedAddressTable::pin_chunked(Addr addr, std::size_t len) {
  PinResult result;
  len = std::max<std::size_t>(len, 1);
  std::size_t handle_cap = limits_.max_bytes_per_handle;
  if (handle_cap == 0) handle_cap = static_cast<std::size_t>(-1);
  const std::size_t piece = std::min(kChunk, handle_cap);

  const Addr start = addr / piece * piece;
  const Addr end = addr + len;
  bool all_ok = true;
  for (Addr cursor = start; cursor < end; cursor += piece) {
    if (covered(cursor, piece)) {
      at_or_below(cursor)->last_use = ++use_clock_;  // refresh LRU on reuse
      continue;
    }
    if (!make_room(piece, result)) {
      all_ok = false;
      break;
    }
    insert_region(cursor, piece, result);
  }
  result.ok = all_ok && covered(addr, len);
  if (result.ok) result.key = *key_for(addr);
  result.already_pinned = result.ok && result.new_handles == 0;
  return result;
}

PinResult PinnedAddressTable::pin(Addr addr, std::size_t len) {
  ++pin_calls_;
  return strategy_ == PinStrategy::kGreedy ? pin_greedy(addr, len)
                                           : pin_chunked(addr, len);
}

std::size_t PinnedAddressTable::unpin(Addr addr, std::size_t len) {
  len = std::max<std::size_t>(len, 1);
  const Addr end = addr + len;
  std::size_t removed = 0;
  std::erase_if(regions_, [&](const Region& r) {
    if (r.base >= end || r.end() <= addr) return false;  // no overlap
    pinned_bytes_ -= r.len;
    ++deregistrations_;
    ++removed;
    return true;
  });
  return removed;
}

}  // namespace xlupc::mem
