// Open-addressing hash map for small, trivially copyable keys and values.
//
// One power-of-two slot array with linear probing, kept at most half
// full, and backward-shift deletion, so no tombstones accumulate and a
// probe touches a few adjacent slots instead of chasing heap nodes. The
// slot array is allocated on the first insert and doubles when an insert
// would pass half full; it never shrinks.
//
// Pointers returned by find() and try_emplace() stay valid only until the
// next insert or erase: growth rehashes every slot, and an erase shifts
// later members of its probe run back by one or more slots.
//
// StableMap, at the bottom, is the variant for values that must not move
// and tables that must be visited in key order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <tuple>
#include <utility>
#include <vector>

namespace xlupc {

/// MurmurHash3's 64-bit finalizer: every input bit reaches the low bits
/// that pick a slot.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Default hash for integer keys.
template <class K>
struct FlatHash {
  std::size_t operator()(K k) const noexcept {
    return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(k)));
  }
};

template <class K, class V, class Hash = FlatHash<K>>
class FlatMap {
 public:
  std::size_t size() const noexcept { return size_; }

  V* find(const K& key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const V* find(const K& key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Insert `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> try_emplace(const K& key, const V& value = V{}) {
    std::size_t i = 0;
    if (!slots_.empty()) {
      for (i = home(key); slots_[i].used; i = (i + 1) & mask_) {
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      grow();
      i = free_slot(key);
    }
    Slot& s = slots_[i];
    s = Slot{key, value, true};
    ++size_;
    return {&s.value, true};
  }

  /// Remove `key`; returns true if it was present.
  bool erase(const K& key) noexcept {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (!slots_[i].used) return false;
      if (slots_[i].key == key) break;
    }
    // Backward shift: walk the rest of the probe run and pull back every
    // member whose probe from its home slot passes the hole at `i`.
    for (std::size_t j = (i + 1) & mask_; slots_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask_;
      if (from_home >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].used = false;
    --size_;
    return true;
  }

  /// Visit every (key, value) pair, in slot order.
  template <class F>
  void for_each(F&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };
  static constexpr std::size_t kMinSlots = 8;

  std::size_t home(const K& key) const noexcept {
    return Hash{}(key) & mask_;
  }
  /// First empty slot of `key`'s probe run (the key must be absent).
  std::size_t free_slot(const K& key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    return i;
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.used) slots_[free_slot(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Insert-only map whose values never move: they are constructed in place
/// in a deque, in insertion order, and a FlatMap indexes them by key. A
/// pointer or reference to a value stays valid for the map's lifetime, so
/// a coroutine may hold one across a suspension while other flows insert.
/// for_each visits keys in ascending order, as std::map iteration does.
template <class K, class V, class Hash = FlatHash<K>>
class StableMap {
 public:
  StableMap() = default;
  // The index points into values_, so a copy would point into the source.
  StableMap(const StableMap&) = delete;
  StableMap& operator=(const StableMap&) = delete;

  std::size_t size() const noexcept { return values_.size(); }

  /// The value under `key`, or nullptr; never inserts.
  V* find(const K& key) noexcept {
    Item* const* item = index_.find(key);
    return item == nullptr ? nullptr : &(*item)->second;
  }
  const V* find(const K& key) const noexcept {
    return const_cast<StableMap*>(this)->find(key);
  }

  /// The value under `key`, constructed from `args` if the key is absent.
  template <class... Args>
  V& try_emplace(const K& key, Args&&... args) {
    if (V* value = find(key)) return *value;
    Item& item = values_.emplace_back(
        std::piecewise_construct, std::forward_as_tuple(key),
        std::forward_as_tuple(std::forward<Args>(args)...));
    index_.try_emplace(key, &item);
    return item.second;
  }

  /// Visit every (key, value) pair in ascending key order.
  template <class F>
  void for_each(F&& fn) {
    for (Item* item : by_key(values_)) fn(item->first, item->second);
  }
  template <class F>
  void for_each(F&& fn) const {
    for (const Item* item : by_key(values_)) fn(item->first, item->second);
  }

 private:
  using Item = std::pair<const K, V>;

  /// Pointers to the items of `values` (const or not), sorted by key.
  template <class Values>
  static auto by_key(Values& values) {
    std::vector<decltype(&values.front())> order;
    order.reserve(values.size());
    for (auto& item : values) order.push_back(&item);
    std::sort(order.begin(), order.end(), [](const Item* a, const Item* b) {
      return a->first < b->first;
    });
    return order;
  }

  std::deque<Item> values_;
  FlatMap<K, Item*, Hash> index_;
};

}  // namespace xlupc
