// Ordering layer of the traversal engine: the per-worker pop discipline.
//
// Each worker owns one private ordering structure; only the owning thread
// ever touches it (arrivals land in the worker's locked mailbox slab and are
// drained into the private structure by the owner — see mailbox.hpp), so
// none of these policies carry a lock.
//
// The policy is selected *once* at queue construction: the engine is
// templated on the ordering type and the facade (visitor_queue.hpp) holds a
// variant of the three instantiations, so the hot pop loop is monomorphic —
// no per-pop `switch (cfg.order)` as in the seed implementation — while the
// runtime-selected ablation path (bench/ablation_priority) keeps working.
//
// Policies:
//   priority_order — 4-ary min-heap on Visitor::priority(), optional
//                    secondary sort by vertex id (paper §IV-C semi-sort).
//                    The paper's design.
//   fifo_order     — arrival order; the "what does prioritization buy"
//                    ablation baseline.
//   lifo_order     — reverse arrival order; degrades multiplicatively on
//                    label-correcting traversals (ablation worst case).
//
// All policies move visitors in on push and move them out on try_pop, are
// default-constructible (the engine value-initializes its worker array in
// place, mutexes and all), and are configured once before the first push.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "queue/dary_heap.hpp"
#include "queue/queue_config.hpp"

namespace asyncgt {

/// Min-order on priority(), optionally tie-broken by vertex id.
template <typename Visitor>
struct visitor_priority_less {
  bool secondary = false;
  bool operator()(const Visitor& a, const Visitor& b) const {
    if (a.priority() != b.priority()) return a.priority() < b.priority();
    if (secondary) return a.vertex() < b.vertex();
    return false;
  }
};

template <typename Visitor>
class priority_order {
 public:
  priority_order() = default;
  priority_order(const priority_order&) = delete;
  priority_order& operator=(const priority_order&) = delete;

  /// One-time setup before the first push (the engine calls this right
  /// after value-initializing its worker array).
  void configure(const visitor_queue_config& cfg) {
    less_.secondary = cfg.secondary_vertex_sort;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  void push(Visitor&& v) { heap_.push(std::move(v)); }
  void push(const Visitor& v) { heap_.push(v); }

  /// Moves the best (smallest priority) visitor into `out`.
  bool try_pop(Visitor& out) {
    if (heap_.empty()) return false;
    out = heap_.pop();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset).
  void clear() noexcept { heap_.clear(); }

 private:
  visitor_priority_less<Visitor> less_;
  // Holds a reference to less_, so the policy is pinned in place (the
  // engine's worker array never relocates).
  dary_heap<Visitor, visitor_priority_less<Visitor>&> heap_{less_};
};

template <typename Visitor>
class fifo_order {
 public:
  fifo_order() = default;
  fifo_order(const fifo_order&) = delete;
  fifo_order& operator=(const fifo_order&) = delete;

  void configure(const visitor_queue_config&) {}

  bool empty() const noexcept { return q_.empty(); }
  std::size_t size() const noexcept { return q_.size(); }

  void push(Visitor&& v) { q_.push_back(std::move(v)); }
  void push(const Visitor& v) { q_.push_back(v); }

  /// Moves the oldest visitor into `out` (the seed copied then popped).
  bool try_pop(Visitor& out) {
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset).
  void clear() noexcept { q_.clear(); }

 private:
  std::deque<Visitor> q_;
};

template <typename Visitor>
class lifo_order {
 public:
  lifo_order() = default;
  lifo_order(const lifo_order&) = delete;
  lifo_order& operator=(const lifo_order&) = delete;

  void configure(const visitor_queue_config&) {}

  bool empty() const noexcept { return q_.empty(); }
  std::size_t size() const noexcept { return q_.size(); }

  void push(Visitor&& v) { q_.push_back(std::move(v)); }
  void push(const Visitor& v) { q_.push_back(v); }

  /// Moves the newest visitor into `out`.
  bool try_pop(Visitor& out) {
    if (q_.empty()) return false;
    out = std::move(q_.back());
    q_.pop_back();
    return true;
  }

  /// Discards all queued visitors (post-abort engine reset).
  void clear() noexcept { q_.clear(); }

 private:
  std::vector<Visitor> q_;
};

}  // namespace asyncgt
