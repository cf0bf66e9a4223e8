// The two caching mechanisms of the Monte-Carlo stack, each written once:
// SlotStore (build-once shared values, under TrialFabricCache's ideal
// references) and LruMemo (bounded report memo, under both EvaluationEngine
// memos).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace autohet::reram {

/// Keyed build-once slots. A lookup finds or inserts the key's slot under
/// the store lock, then builds outside it under the slot's own lock:
/// concurrent requests for one key build once and share the value, distinct
/// keys build concurrently, and a build that throws leaves the slot empty
/// for the next request to retry. Keys compare with ==; a store holds a few
/// slots, so lookup is a linear scan. Thread-safe.
template <class Key, class Value>
class SlotStore {
 public:
  explicit SlotStore(std::size_t capacity) : capacity_(capacity) {}

  /// The value for `key`, built by `build()` on first use. Every slot is
  /// dropped before a new one is added to a store at capacity.
  template <class Build>
  std::shared_ptr<const Value> get(const Key& key, const Build& build) {
    std::shared_ptr<Slot> slot;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slot = find_or_insert(key);
    }
    const std::lock_guard<std::mutex> fill(slot->mutex);
    const bool hit = slot->value != nullptr;
    if (!hit) slot->value = std::make_shared<const Value>(build());
    const std::lock_guard<std::mutex> lock(mutex_);
    ++(hit ? counts_.hits : counts_.builds);
    return slot->value;
  }

  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t builds = 0;
  };
  Counts counts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<const Value> value;
  };

  /// The slot of `key`, inserted (after the capacity eviction) when absent.
  /// The caller holds mutex_.
  std::shared_ptr<Slot> find_or_insert(const Key& key) {
    for (const auto& [k, s] : slots_) {
      if (k == key) return s;
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
