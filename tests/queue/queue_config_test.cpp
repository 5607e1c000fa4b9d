// Configuration-surface tests for the visitor queue: 64-bit vertex
// routing, config validation, and stats shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "queue/visitor_queue.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {
namespace {

struct wide_state {
  std::vector<padded<std::uint64_t>> visits;
  explicit wide_state(std::size_t threads) : visits(threads) {}
};

struct wide_visitor {
  std::uint64_t vtx{};
  std::uint64_t vertex() const noexcept { return vtx; }
  std::uint64_t priority() const noexcept { return vtx; }
  template <typename State, typename Queue>
  void visit(State& s, Queue&, std::size_t tid) const {
    ++s.visits[tid].value;
  }
};

TEST(VisitorQueueConfig, SixtyFourBitVertexRouting) {
  visitor_queue_config cfg;
  cfg.num_threads = 8;
  wide_state state(8);
  visitor_queue<wide_visitor, wide_state> q(cfg);
  // Ids far beyond 32 bits must route and complete.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.push(wide_visitor{(1ULL << 40) + i * 12345});
  }
  const auto stats = q.run(state);
  EXPECT_EQ(stats.visits, 1000u);
}

TEST(VisitorQueueConfig, ValidateRejectsZeroThreads) {
  visitor_queue_config cfg;
  cfg.num_threads = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(VisitorQueueConfig, SingleQueueIsLegal) {
  // One thread = one queue = fully serialized execution; must still work
  // with every ordering mode.
  for (const auto order :
       {queue_order::priority, queue_order::fifo, queue_order::lifo}) {
    visitor_queue_config cfg;
    cfg.num_threads = 1;
    cfg.order = order;
    wide_state state(1);
    visitor_queue<wide_visitor, wide_state> q(cfg);
    for (std::uint64_t i = 0; i < 64; ++i) q.push(wide_visitor{i});
    EXPECT_EQ(q.run(state).visits, 64u);
  }
}

TEST(QueueRunStats, VisitsPerQueueSizedToThreads) {
  visitor_queue_config cfg;
  cfg.num_threads = 6;
  wide_state state(6);
  visitor_queue<wide_visitor, wide_state> q(cfg);
  q.push(wide_visitor{1});
  const auto stats = q.run(state);
  EXPECT_EQ(stats.visits_per_queue.size(), 6u);
}

}  // namespace
}  // namespace asyncgt
