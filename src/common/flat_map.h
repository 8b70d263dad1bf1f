// Open-addressing hash tables for small, trivially copyable keys.
//
// FlatMap and FlatIndex share one slot discipline (flat_detail::Table): a
// power-of-two slot array with linear probing, kept at most half full,
// and backward-shift deletion, so no tombstones accumulate and a probe
// touches a few adjacent slots instead of chasing heap nodes. The slot
// array is allocated on the first insert and doubles when an insert
// would pass half full; it never shrinks. A FlatIndex whose owner bounds
// its members may instead be sized once, fuller, and never grow.
//
// FlatMap keeps each key and value in its slot. FlatIndex keeps only a
// 4-byte slot of hash tag and entry number and reads keys from the
// owner's entries, for owners that hold every key in an entry array
// anyway.
//
// Pointers returned by find() and try_emplace() stay valid only until the
// next insert or erase: growth rehashes every slot, and an erase shifts
// later members of its probe run back by one or more slots.
//
// StableMap, at the bottom, is the variant for values that must not move
// and tables that must be visited in key order.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
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

namespace flat_detail {

/// The slot array and the loops FlatMap and FlatIndex share. A `Slot` is
/// empty when value-initialized and answers `used()`; the loops that move
/// members take `hash_of(slot)`, the full hash of a used slot's key.
template <class Slot>
struct Table {
  static constexpr std::size_t kMinSlots = 8;

  std::vector<Slot> slots;
  std::size_t mask = 0;
  std::size_t size = 0;
  bool fixed = false;  ///< sized once for a bound on the members

  /// The first slot of the probe run from `hash` that is empty or for
  /// which `hit(slot)` holds. The table must have slots.
  template <class Hit>
  std::size_t probe(std::size_t hash, const Hit& hit) const noexcept {
    std::size_t i = hash & mask;
    while (slots[i].used() && !hit(slots[i])) i = (i + 1) & mask;
    return i;
  }

  /// The first empty slot of the probe run from `hash`.
  std::size_t free_slot(std::size_t hash) const noexcept {
    return probe(hash, [](const Slot&) { return false; });
  }

  /// Make room for one more member: allocate the first slots, or double
  /// when the insert would pass half full (never once fixed). True if the
  /// members moved.
  template <class HashOf>
  bool grow_for_one(const HashOf& hash_of) {
    if (fixed || (size + 1) * 2 <= slots.size()) return false;
    resize(slots.empty() ? kMinSlots : slots.size() * 2, hash_of);
    return true;
  }

  /// Reallocate as `n` slots (a power of two) and re-insert every member.
  template <class HashOf>
  void resize(std::size_t n, const HashOf& hash_of) {
    std::vector<Slot> old = std::move(slots);
    slots.assign(n, Slot{});
    mask = n - 1;
    for (const Slot& s : old) {
      if (s.used()) slots[free_slot(hash_of(s))] = s;
    }
  }

  /// Empty the used slot `i` by backward shift: walk the rest of its
  /// probe run and pull back every member whose probe from its home slot
  /// passes the hole.
  template <class HashOf>
  void erase_at(std::size_t i, const HashOf& hash_of) noexcept {
    for (std::size_t j = (i + 1) & mask; slots[j].used(); j = (j + 1) & mask) {
      const std::size_t from_home = (j - hash_of(slots[j])) & mask;
      if (from_home >= ((j - i) & mask)) {
        slots[i] = slots[j];
        i = j;
      }
    }
    slots[i] = Slot{};
    --size;
  }
};

}  // namespace flat_detail

template <class K, class V, class Hash = FlatHash<K>>
class FlatMap {
 public:
  std::size_t size() const noexcept { return t_.size; }

  V* find(const K& key) noexcept {
    if (t_.size == 0) return nullptr;
    Slot& s = t_.slots[slot_of(key, Hash{}(key))];
    return s.used() ? &s.value : nullptr;
  }
  const V* find(const K& key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Insert `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> try_emplace(const K& key, const V& value = V{}) {
    const std::size_t hash = Hash{}(key);
    std::size_t i = 0;
    if (!t_.slots.empty()) {
      i = slot_of(key, hash);
      if (t_.slots[i].used()) return {&t_.slots[i].value, false};
    }
    if (t_.grow_for_one(hash_of)) i = t_.free_slot(hash);
    Slot& s = t_.slots[i];
    s = Slot{key, value, true};
    ++t_.size;
    return {&s.value, true};
  }

  /// Remove `key`; returns true if it was present.
  bool erase(const K& key) noexcept {
    if (t_.size == 0) return false;
    const std::size_t i = slot_of(key, Hash{}(key));
    if (!t_.slots[i].used()) return false;
    t_.erase_at(i, hash_of);
    return true;
  }

  /// Visit every (key, value) pair, in slot order.
  template <class F>
  void for_each(F&& fn) const {
    for (const Slot& s : t_.slots) {
      if (s.used()) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool filled = false;

    bool used() const noexcept { return filled; }
  };

  static std::size_t hash_of(const Slot& s) noexcept { return Hash{}(s.key); }
  /// The slot holding `key`, else the empty slot that ends its run.
  std::size_t slot_of(const K& key, std::size_t hash) const noexcept {
    return t_.probe(hash, [&key](const Slot& x) { return x.key == key; });
  }

  flat_detail::Table<Slot> t_;
};

/// Index of entries that live in the owner's own array, numbered from 0.
/// Each 4-byte slot holds an 8-bit tag, the top byte of the key's hash,
/// above a 24-bit entry number plus one (0 = empty). A probe reads a
/// slot's key, through the owner's `key_of(n)`, only when the tags
/// match; a rehash and an erase's backward shift read the keys they
/// move. So a key is stored once, in its entry. An owner with a fixed
/// entry limit sizes the index for it once (reserve_bounded) and never
/// rehashes after.
template <class K, class Hash = FlatHash<K>>
class FlatIndex {
 public:
  /// What find() returns for an absent key.
  static constexpr std::uint32_t npos = 0xffffffffu;
  /// Entry numbers run from 0 to kMaxEntries - 1 (2^24 - 2).
  static constexpr std::uint32_t kMaxEntries = (1u << 24) - 1;

  std::size_t size() const noexcept { return t_.size; }
  /// Bytes of the slot array.
  std::size_t slot_bytes() const noexcept {
    return t_.slots.size() * sizeof(Slot);
  }

  /// Size the slots once for at most `n` members at a load of at most
  /// 0.8: the smallest power of two of at least 1.25n slots (128 for
  /// 100). The index never grows after, so its owner must keep at most
  /// `n` members; the tags keep the longer probe runs of the fuller table
  /// from reading keys.
  template <class KeyOf>
  void reserve_bounded(std::size_t n, const KeyOf& key_of) {
    const std::size_t want = std::bit_ceil(
        std::max((n * 5 + 3) / 4, flat_detail::Table<Slot>::kMinSlots));
    if (want > t_.slots.size()) t_.resize(want, hash_of(key_of));
    t_.fixed = true;
  }

  /// Remove every member; the slots stay allocated (and fixed, if so).
  void clear() noexcept {
    std::fill(t_.slots.begin(), t_.slots.end(), Slot{});
    t_.size = 0;
  }

  /// The number of the entry whose key is `key`, or npos.
  template <class KeyOf>
  std::uint32_t find(const K& key, const KeyOf& key_of) const noexcept {
    if (t_.size == 0) return npos;
    const std::size_t hash = Hash{}(key);
    const std::uint32_t tag = tag_of(hash);
    const Slot& s = t_.slots[t_.probe(hash, [&](const Slot& x) {
      return x.tag() == tag && key_of(x.entry()) == key;
    })];
    return s.entry();  // an empty slot's 0 wraps to npos
  }

  /// Index entry `n`, whose key must not be indexed yet. Throws
  /// std::length_error when `n` is kMaxEntries or more.
  template <class KeyOf>
  void insert(std::uint32_t n, const KeyOf& key_of) {
    if (n >= kMaxEntries) {
      throw std::length_error("FlatIndex: entry number past 2^24 - 2");
    }
    t_.grow_for_one(hash_of(key_of));
    const std::size_t hash = Hash{}(key_of(n));
    t_.slots[t_.free_slot(hash)] = Slot{tag_of(hash) << 24 | (n + 1)};
    ++t_.size;
  }

  /// Remove entry `n`, which must be indexed under its current key
  /// `key_of(n)`. The probe matches entry numbers, not keys.
  template <class KeyOf>
  void erase(std::uint32_t n, const KeyOf& key_of) noexcept {
    const std::size_t i = t_.probe(
        Hash{}(key_of(n)), [n](const Slot& x) { return x.entry() == n; });
    t_.erase_at(i, hash_of(key_of));
  }

 private:
  struct Slot {
    std::uint32_t bits = 0;  ///< tag << 24 | (entry number + 1); 0 = empty

    bool used() const noexcept { return (bits & 0xffffffu) != 0; }
    std::uint32_t entry() const noexcept { return (bits & 0xffffffu) - 1; }
    std::uint32_t tag() const noexcept { return bits >> 24; }
  };

  static std::uint32_t tag_of(std::size_t hash) noexcept {
    return static_cast<std::uint32_t>(
        hash >> (std::numeric_limits<std::size_t>::digits - 8));
  }

  template <class KeyOf>
  static auto hash_of(const KeyOf& key_of) noexcept {
    return [f = &key_of](const Slot& s) { return Hash{}((*f)(s.entry())); };
  }

  flat_detail::Table<Slot> t_;
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
