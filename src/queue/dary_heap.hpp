// A d-ary (default 4-ary) array-backed min-heap.
//
// Each visitor-queue worker owns one of these as its prioritized queue
// (paper §III-A). A 4-ary heap trades slightly more comparisons per
// sift-down for half the tree depth of a binary heap, which wins on the
// push-heavy workloads here (every edge relaxation is a push). The heap is
// ordered by a caller-supplied strict-weak-order `Less`; the minimum element
// (highest priority) is at top().
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace asyncgt {

template <typename T, typename Less, std::size_t Arity = 4>
class dary_heap {
  static_assert(Arity >= 2, "heap arity must be at least 2");

 public:
  // std::forward keeps this working when Less is an lvalue-reference type
  // (the visitor queue shares one mutable comparator per worker that way).
  explicit dary_heap(Less less = Less{}) : less_(std::forward<Less>(less)) {}

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }
  void clear() noexcept { items_.clear(); }

  const T& top() const noexcept { return items_.front(); }

  void push(T item) {
    items_.push_back(std::move(item));
    sift_up(items_.size() - 1);
  }

  T pop() {
    T out = std::move(items_.front());
    items_.front() = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) sift_down(0);
    return out;
  }

  /// Bulk insertion followed by O(n) heapify — used when seeding one visitor
  /// per vertex for Connected Components (Algorithm 3).
  template <typename It>
  void assign(It first, It last) {
    items_.assign(first, last);
    if (items_.size() < 2) return;
    for (std::size_t i = parent(items_.size() - 1) + 1; i-- > 0;) {
      sift_down(i);
    }
  }

  /// Validates the heap property; used by tests and debug assertions.
  bool is_valid_heap() const {
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (less_(items_[i], items_[parent(i)])) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t parent(std::size_t i) noexcept {
    return (i - 1) / Arity;
  }
  static constexpr std::size_t first_child(std::size_t i) noexcept {
    return i * Arity + 1;
  }

  void sift_up(std::size_t i) {
    T item = std::move(items_[i]);
    while (i > 0) {
      const std::size_t p = parent(i);
      if (!less_(item, items_[p])) break;
      items_[i] = std::move(items_[p]);
      i = p;
    }
    items_[i] = std::move(item);
  }

  void sift_down(std::size_t i) {
    T item = std::move(items_[i]);
    const std::size_t n = items_.size();
    for (;;) {
      const std::size_t c0 = first_child(i);
      if (c0 >= n) break;
      std::size_t best = c0;
      const std::size_t c_end = std::min(c0 + Arity, n);
      for (std::size_t c = c0 + 1; c < c_end; ++c) {
        if (less_(items_[c], items_[best])) best = c;
      }
      if (!less_(items_[best], item)) break;
      items_[i] = std::move(items_[best]);
      i = best;
    }
    items_[i] = std::move(item);
  }

  std::vector<T> items_;
  Less less_;
};

}  // namespace asyncgt
