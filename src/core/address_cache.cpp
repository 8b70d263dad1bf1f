#include "core/address_cache.h"

#include <algorithm>

namespace xlupc::core {

void AddressCache::unlink(std::uint32_t e) noexcept {
  Entry& en = entries_[e];
  if (en.newer == kNil) {
    mru_ = en.older;
  } else {
    entries_[en.newer].older = en.older;
  }
  if (en.older == kNil) {
    lru_ = en.newer;
  } else {
    entries_[en.older].newer = en.newer;
  }
}

void AddressCache::push_front(std::uint32_t e) noexcept {
  Entry& en = entries_[e];
  en.newer = kNil;
  en.older = mru_;
  if (mru_ == kNil) {
    lru_ = e;
  } else {
    entries_[mru_].newer = e;
  }
  mru_ = e;
}

void AddressCache::touch(std::uint32_t e) noexcept {
  if (e != mru_) {
    unlink(e);
    push_front(e);
  }
}

std::optional<net::BaseInfo> AddressCache::lookup(const CacheKey& key) {
  const std::uint32_t e = index_.find(key, key_of());
  if (e == Index::npos) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  touch(e);
  return entries_[e].info;
}

std::uint32_t AddressCache::take_entry() {
  if (max_entries_ != 0 && index_.size() >= max_entries_) {
    const std::uint32_t victim = lru_;
    unlink(victim);
    index_.erase(victim, key_of());
    ++stats_.evictions;
    return victim;
  }
  if (free_ != kNil) {
    const std::uint32_t e = free_;
    free_ = entries_[e].older;
    return e;
  }
  if (entries_.size() == entries_.capacity() && max_entries_ != 0) {
    // Double as usual, but never past the limit.
    entries_.reserve(std::min(max_entries_,
                              std::max<std::size_t>(4, 2 * entries_.size())));
  }
  entries_.emplace_back();
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

void AddressCache::insert(const CacheKey& key, net::BaseInfo info) {
  if (const std::uint32_t e = index_.find(key, key_of()); e != Index::npos) {
    entries_[e].info = info;
    touch(e);
    return;
  }
  const std::uint32_t e = take_entry();
  entries_[e].key = key;
  entries_[e].info = info;
  push_front(e);
  // Sized for the whole limit at the first insert, then never again.
  if (max_entries_ != 0) index_.reserve(max_entries_, key_of());
  index_.insert(e, key_of());
  ++stats_.insertions;
}

void AddressCache::drop(std::uint32_t e) {
  unlink(e);
  index_.erase(e, key_of());
  entries_[e].older = free_;
  free_ = e;
  ++stats_.invalidations;
}

template <class Pred>
void AddressCache::drop_if(Pred pred) {
  for (std::uint32_t e = mru_; e != kNil;) {
    const std::uint32_t older = entries_[e].older;
    if (pred(entries_[e].key)) drop(e);
    e = older;
  }
}

void AddressCache::invalidate_handle(std::uint64_t handle) {
  drop_if([handle](const CacheKey& k) { return k.handle == handle; });
}

void AddressCache::invalidate_node(NodeId node) {
  drop_if([node](const CacheKey& k) { return k.node == node; });
}

void AddressCache::invalidate(const CacheKey& key) {
  if (const std::uint32_t e = index_.find(key, key_of()); e != Index::npos) {
    drop(e);
  }
}

}  // namespace xlupc::core
