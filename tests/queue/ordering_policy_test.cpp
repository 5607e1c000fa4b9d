// Ordering-layer tests: the per-worker pop disciplines behind the engine's
// monomorphic hot loop. Exercised directly (no threads) — priority order with
// and without the secondary vertex sort, FIFO / LIFO ablation orders, and
// the move-only discipline: rvalue pushes and try_pop never copy visitors.
#include "queue/ordering_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace asyncgt {
namespace {

struct probe_visitor {
  std::uint32_t vtx{};
  std::uint32_t prio{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return prio; }
};

// Counts copies so tests can assert the move-only push/pop discipline.
struct copy_counting_visitor {
  static int copies;
  std::uint32_t vtx{};
  std::uint32_t prio{};

  copy_counting_visitor() = default;
  copy_counting_visitor(std::uint32_t v, std::uint32_t p) : vtx(v), prio(p) {}
  copy_counting_visitor(const copy_counting_visitor& o)
      : vtx(o.vtx), prio(o.prio) {
    ++copies;
  }
  copy_counting_visitor& operator=(const copy_counting_visitor& o) {
    vtx = o.vtx;
    prio = o.prio;
    ++copies;
    return *this;
  }
  copy_counting_visitor(copy_counting_visitor&&) = default;
  copy_counting_visitor& operator=(copy_counting_visitor&&) = default;

  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return prio; }
};
int copy_counting_visitor::copies = 0;

template <typename Order>
std::vector<std::uint32_t> drain_priorities(Order& order) {
  std::vector<std::uint32_t> out;
  probe_visitor v;
  while (order.try_pop(v)) out.push_back(v.prio);
  return out;
}

TEST(OrderingPolicy, PriorityPopsSmallestFirst) {
  priority_order<probe_visitor> order;
  order.configure(visitor_queue_config{});
  for (const std::uint32_t p : {5u, 1u, 4u, 2u, 3u}) {
    order.push(probe_visitor{p, p});
  }
  EXPECT_EQ(order.size(), 5u);
  const std::vector<std::uint32_t> expect{1, 2, 3, 4, 5};
  EXPECT_EQ(drain_priorities(order), expect);
  EXPECT_TRUE(order.empty());
}

TEST(OrderingPolicy, PrioritySecondaryVertexSortBreaksTies) {
  visitor_queue_config cfg;
  cfg.secondary_vertex_sort = true;
  priority_order<probe_visitor> order;
  order.configure(cfg);
  order.push(probe_visitor{30, 7});
  order.push(probe_visitor{10, 7});
  order.push(probe_visitor{20, 7});
  std::vector<std::uint32_t> vertices;
  probe_visitor v;
  while (order.try_pop(v)) vertices.push_back(v.vtx);
  const std::vector<std::uint32_t> expect{10, 20, 30};
  EXPECT_EQ(vertices, expect);
}

TEST(OrderingPolicy, FifoPopsInArrivalOrder) {
  fifo_order<probe_visitor> order;
  order.configure(visitor_queue_config{});
  for (const std::uint32_t p : {5u, 1u, 4u}) order.push(probe_visitor{p, p});
  const std::vector<std::uint32_t> expect{5, 1, 4};
  EXPECT_EQ(drain_priorities(order), expect);
}

TEST(OrderingPolicy, LifoPopsInReverseArrivalOrder) {
  lifo_order<probe_visitor> order;
  order.configure(visitor_queue_config{});
  for (const std::uint32_t p : {5u, 1u, 4u}) order.push(probe_visitor{p, p});
  const std::vector<std::uint32_t> expect{4, 1, 5};
  EXPECT_EQ(drain_priorities(order), expect);
}

TEST(OrderingPolicy, TryPopOnEmptyReturnsFalse) {
  priority_order<probe_visitor> prio;
  fifo_order<probe_visitor> fifo;
  lifo_order<probe_visitor> lifo;
  prio.configure(visitor_queue_config{});
  probe_visitor v{99, 99};
  EXPECT_FALSE(prio.try_pop(v));
  EXPECT_FALSE(fifo.try_pop(v));
  EXPECT_FALSE(lifo.try_pop(v));
  EXPECT_EQ(v.vtx, 99u);  // untouched on failure
}

template <typename Order>
void expect_no_copies(Order& order) {
  copy_counting_visitor::copies = 0;
  for (std::uint32_t i = 0; i < 32; ++i) {
    order.push(copy_counting_visitor(32 - i, 32 - i));
  }
  copy_counting_visitor out;
  std::uint64_t popped = 0;
  while (order.try_pop(out)) ++popped;
  EXPECT_EQ(popped, 32u);
  EXPECT_EQ(copy_counting_visitor::copies, 0);
}

TEST(OrderingPolicy, RvaluePushAndPopNeverCopy) {
  priority_order<copy_counting_visitor> prio;
  fifo_order<copy_counting_visitor> fifo;
  lifo_order<copy_counting_visitor> lifo;
  prio.configure(visitor_queue_config{});
  fifo.configure(visitor_queue_config{});
  lifo.configure(visitor_queue_config{});
  expect_no_copies(prio);
  expect_no_copies(fifo);
  expect_no_copies(lifo);
}

}  // namespace
}  // namespace asyncgt
