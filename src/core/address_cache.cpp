#include "core/address_cache.h"

#include <algorithm>
#include <utility>

namespace xlupc::core {

// ------------------------------------------------------ RemoteBases ---

RemoteBases::Id RemoteBases::acquire(RemoteBase value) {
  Id id = index_.find(value, key_of());
  if (id == Index::npos) {
    if (free_ != kNil) {
      id = free_;
      free_ = items_[id].next_free;
    } else {
      id = static_cast<Id>(items_.size());
      items_.emplace_back();
    }
    items_[id].value = value;
    index_.insert(id, key_of());
  }
  retain(id);
  return id;
}

void RemoteBases::release(Id id) noexcept {
  --references_;
  if (--items_[id].refs != 0) return;
  index_.erase(id, key_of());
  items_[id].next_free = free_;
  free_ = id;
}

const RemoteBase* RemoteBases::unreferenced() const noexcept {
  for (Id id = 0; id < items_.size(); ++id) {
    // A freed item keeps its old value but is no longer indexed.
    const Item& item = items_[id];
    if (item.refs == 0 && index_.find(item.value, key_of()) == id) {
      return &item.value;
    }
  }
  return nullptr;
}

// ----------------------------------------------------- AddressCache ---

AddressCache::~AddressCache() { release_all(); }

void AddressCache::release_all() noexcept {
  for (std::uint32_t e = mru_; e != kNil; e = entries_[e].older) {
    bases_->release(entries_[e].value);
  }
}

void AddressCache::clear() noexcept {
  release_all();
  index_.clear();
  entries_.clear();
  mru_ = lru_ = free_ = kNil;
}

AddressCache::AddressCache(AddressCache&& other) noexcept
    : max_entries_(other.max_entries_),
      bases_(other.bases_),
      index_(std::exchange(other.index_, {})),
      entries_(std::exchange(other.entries_, {})),
      mru_(std::exchange(other.mru_, kNil)),
      lru_(std::exchange(other.lru_, kNil)),
      free_(std::exchange(other.free_, kNil)),
      stats_(other.stats_) {}

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
  return value_of(e).info;
}

std::uint32_t AddressCache::take_entry() {
  if (max_entries_ != 0 && index_.size() >= max_entries_) {
    const std::uint32_t victim = lru_;
    unlink(victim);
    index_.erase(victim, key_of());
    bases_->release(entries_[victim].value);
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
  const RemoteBase value{key, info};
  const std::uint32_t e = index_.find(key, key_of());
  if (e != Index::npos && value_of(e) == value) {
    touch(e);
    return;
  }
  place(e, bases_->acquire(value));
}

void AddressCache::insert(RemoteBases::Id id) {
  const std::uint32_t e = index_.find(bases_->value(id).key, key_of());
  if (e != Index::npos && entries_[e].value == id) {
    touch(e);
    return;
  }
  bases_->retain(id);
  place(e, id);
}

void AddressCache::place(std::uint32_t e, RemoteBases::Id id) {
  if (e != Index::npos) {
    // Same key, new base: this cache moves to the new value.
    bases_->release(entries_[e].value);
    entries_[e].value = id;
    touch(e);
    return;
  }
  e = take_entry();
  entries_[e].value = id;
  push_front(e);
  // Sized for the whole limit at the first insert, then never again.
  if (max_entries_ != 0 && index_.size() == 0) {
    index_.reserve_bounded(max_entries_, key_of());
  }
  index_.insert(e, key_of());
  ++stats_.insertions;
}

void AddressCache::drop(std::uint32_t e) {
  unlink(e);
  index_.erase(e, key_of());
  bases_->release(entries_[e].value);
  entries_[e].older = free_;
  free_ = e;
  ++stats_.invalidations;
}

template <class Pred>
void AddressCache::drop_if(Pred pred) {
  for (std::uint32_t e = mru_; e != kNil;) {
    const std::uint32_t older = entries_[e].older;
    if (pred(value_of(e).key)) drop(e);
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
