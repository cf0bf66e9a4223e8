// The two caching mechanisms of the Monte-Carlo stack, each written once:
// SlotStore (build-once shared values, under both fabric caches) and
// LruMemo (bounded report memo, under both EvaluationEngine memos).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace autohet::reram {

/// Keyed build-once slots. A lookup finds or inserts the key's slot under
/// the store lock, then builds outside it under the slot's own lock:
/// concurrent requests for one key build once and share the value, distinct
/// keys build concurrently, and a build that throws leaves the slot empty
/// for the next request to retry. Keys compare with ==; a store holds a few
/// dozen slots, so lookup is a linear scan. Thread-safe.
template <class Key, class Value>
class SlotStore {
 public:
  explicit SlotStore(std::size_t capacity) : capacity_(capacity) {}

  /// The value for `key`, built by `build()` on first use. Before a new slot
  /// is added, resident slots whose keys satisfy `stale` are dropped, then
  /// every slot once the store is at capacity.
  template <class Build>
  std::shared_ptr<const Value> get(
      const Key& key, const Build& build,
      const std::function<bool(const Key&)>& stale = nullptr) {
    std::shared_ptr<Slot> slot;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot = find_or_insert(key, stale);
    }
    const std::lock_guard<std::mutex> fill(slot->mutex);
    const bool hit = slot->value != nullptr;
    if (!hit) slot->value = std::make_shared<const Value>(build());
    const std::lock_guard<std::mutex> lock(mutex_);
    ++(hit ? counts_.hits : counts_.builds);
    return slot->value;
  }

  /// get() over several keys at once: the values of `keys`, with every
  /// missing one built by a single `build(missing)` call that receives the
  /// indices of the missing keys and returns their values in that order.
  /// The call holds all of its slots while it builds, locked in address
  /// order, so overlapping calls never deadlock and still build each key
  /// once; counts are per key.
  template <class BuildMissing>
  std::vector<std::shared_ptr<const Value>> get_many(
      std::span<const Key> keys, const BuildMissing& build,
      const std::function<bool(const Key&)>& stale = nullptr) {
    std::vector<std::shared_ptr<Slot>> slots;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const Key& key : keys) slots.push_back(find_or_insert(key, stale));
    }
    std::vector<Slot*> order;
    for (const auto& slot : slots) order.push_back(slot.get());
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    std::vector<std::unique_lock<std::mutex>> fills;
    for (Slot* slot : order) fills.emplace_back(slot->mutex);
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const bool repeat = std::any_of(
          slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(i),
          [&](const auto& s) { return s == slots[i]; });
      if (!slots[i]->value && !repeat) missing.push_back(i);
    }
    if (!missing.empty()) {
      std::vector<Value> built = build(std::span<const std::size_t>(missing));
      for (std::size_t j = 0; j < missing.size(); ++j) {
        slots[missing[j]]->value =
            std::make_shared<const Value>(std::move(built[j]));
      }
    }
    std::vector<std::shared_ptr<const Value>> values;
    for (const auto& slot : slots) values.push_back(slot->value);
    const std::lock_guard<std::mutex> lock(mutex_);
    counts_.builds += missing.size();
    counts_.hits += keys.size() - missing.size();
    return values;
  }

  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
  };
  Counts counts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }
  /// Drops every slot; the counters keep running.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<const Value> value;
  };

  /// The slot of `key`, inserted (after the stale and capacity evictions)
  /// when absent. The caller holds mutex_.
  std::shared_ptr<Slot> find_or_insert(
      const Key& key, const std::function<bool(const Key&)>& stale) {
    for (const auto& [k, s] : slots_) {
      if (k == key) return s;
    }
    if (stale) {
      std::erase_if(slots_, [&](const auto& e) { return stale(e.first); });
    }
    if (slots_.size() >= capacity_) slots_.clear();
    return slots_.emplace_back(key, std::make_shared<Slot>()).second;
  }

  std::size_t capacity_;
  mutable std::mutex mutex_;  ///< guards the slot list and counters
  std::vector<std::pair<Key, std::shared_ptr<Slot>>> slots_;
  Counts counts_;
};

/// Bounded least-recently-used map. Not thread-safe: the owner serializes
/// every call under its own lock.
template <class Key, class Value, class Hash>
class LruMemo {
 public:
  explicit LruMemo(std::size_t capacity) : capacity_(capacity) {}

  /// The memoized value, now most recently used; nullptr on a miss.
  const Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Memoizes `value` unless `key` is already present (a raced insert keeps
  /// the first value); returns how many cold entries were evicted.
  std::size_t insert(const Key& key, const Value& value) {
    if (index_.contains(key)) return 0;
    order_.emplace_front(key, value);
    index_.emplace(key, order_.begin());
    std::size_t evicted = 0;
    for (; index_.size() > capacity_; ++evicted) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    return evicted;
  }

  void clear() {
    index_.clear();
    order_.clear();
  }

 private:
  using Order = std::list<std::pair<Key, Value>>;
  std::size_t capacity_;
  Order order_;  ///< front = most recently used
  std::unordered_map<Key, typename Order::iterator, Hash> index_;
};

}  // namespace autohet::reram
