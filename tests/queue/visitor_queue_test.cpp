#include "queue/visitor_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/cache_line.hpp"

namespace asyncgt {
namespace {

// A counting visitor: visiting vertex v spawns visitors for v's "children"
// in an implicit binary tree over [0, n), counting every visit. This drives
// the queue without any graph dependency.
struct tree_state {
  std::uint64_t n = 0;
  std::vector<padded<std::uint64_t>> visits_per_thread;
  explicit tree_state(std::uint64_t size, std::size_t threads)
      : n(size), visits_per_thread(threads) {}
};

struct tree_visitor {
  std::uint32_t vtx{};
  std::uint32_t depth{};

  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return depth; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    ++s.visits_per_thread[tid].value;
    const std::uint64_t left = 2ULL * vtx + 1;
    const std::uint64_t right = 2ULL * vtx + 2;
    if (left < s.n) {
      q.push(tree_visitor{static_cast<std::uint32_t>(left), depth + 1});
    }
    if (right < s.n) {
      q.push(tree_visitor{static_cast<std::uint32_t>(right), depth + 1});
    }
  }
};

// Visitor that records per-thread visit counts and spawns nothing.
struct leaf_state {
  std::vector<padded<std::uint64_t>> visits;
  explicit leaf_state(std::size_t threads) : visits(threads) {}
};

struct leaf_visitor {
  std::uint32_t vtx{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return 0; }
  template <typename State, typename Queue>
  void visit(State& s, Queue&, std::size_t tid) const {
    ++s.visits[tid].value;
  }
};

// Visitor that records the order of observed priorities / vertices.
struct order_state {
  std::vector<std::uint32_t> order;
};

struct order_visitor {
  std::uint32_t vtx{};
  std::uint32_t prio{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return prio; }
  template <typename State, typename Queue>
  void visit(State& s, Queue&, std::size_t) const {
    s.order.push_back(prio);
  }
};

struct vertex_order_visitor {
  std::uint32_t vtx{};
  std::uint32_t prio{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return prio; }
  template <typename State, typename Queue>
  void visit(State& s, Queue&, std::size_t) const {
    s.order.push_back(vtx);
  }
};

// Visitor with an arrival gate: pre_visit runs on the owner when it drains
// the visitor from its mailbox and rejects every vertex v with v % 5 == 4.
// A rejected visitor must never reach visit(), so its subtree of the
// implicit binary tree is never pushed. The per-vertex tallies are written
// only on the owner's thread, like an algorithm's labels.
struct gate_state {
  std::uint64_t n = 0;
  std::vector<std::uint32_t> arrivals;  // pre_visit calls per vertex
  std::vector<std::uint32_t> visits;    // visit calls per vertex
  explicit gate_state(std::uint64_t size)
      : n(size), arrivals(size, 0), visits(size, 0) {}
};

struct gate_visitor {
  std::uint32_t vtx{};
  std::uint32_t depth{};

  static bool admits(std::uint64_t v) { return v % 5 != 4; }

  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return depth; }

  template <typename State>
  bool pre_visit(State& s) const {
    ++s.arrivals[vtx];
    return admits(vtx);
  }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t) const {
    ++s.visits[vtx];
    for (const std::uint64_t child : {2ULL * vtx + 1, 2ULL * vtx + 2}) {
      if (child < s.n) {
        q.push(gate_visitor{static_cast<std::uint32_t>(child), depth + 1});
      }
    }
  }
};

std::uint64_t total_visits(const tree_state& s) {
  std::uint64_t sum = 0;
  for (const auto& v : s.visits_per_thread) sum += v.value;
  return sum;
}

visitor_queue_config cfg_with(std::size_t threads,
                              queue_order order = queue_order::priority) {
  visitor_queue_config cfg;
  cfg.num_threads = threads;
  cfg.order = order;
  return cfg;
}

TEST(VisitorQueue, VisitsEveryTreeNodeOnce) {
  constexpr std::uint64_t kN = 4096;
  for (const std::size_t threads : {1u, 2u, 8u, 64u}) {
    tree_state state(kN, threads);
    visitor_queue<tree_visitor, tree_state> q(cfg_with(threads));
    q.push(tree_visitor{0, 0});
    const auto stats = q.run(state);
    EXPECT_EQ(total_visits(state), kN) << "threads=" << threads;
    EXPECT_EQ(stats.visits, kN);
    EXPECT_EQ(stats.pushes, kN);  // every node pushed exactly once
  }
}

TEST(VisitorQueue, EmptyRunReturnsImmediately) {
  tree_state state(0, 4);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(4));
  const auto stats = q.run(state);
  EXPECT_EQ(stats.visits, 0u);
}

TEST(VisitorQueue, ReusableAcrossRuns) {
  constexpr std::uint64_t kN = 256;
  tree_state state(kN, 4);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(4));
  q.push(tree_visitor{0, 0});
  EXPECT_EQ(q.run(state).visits, kN);
  q.push(tree_visitor{0, 0});
  EXPECT_EQ(q.run(state).visits, kN);  // stats reset between runs
  EXPECT_EQ(total_visits(state), 2 * kN);
}

TEST(VisitorQueue, ZeroThreadsRejected) {
  EXPECT_THROW((visitor_queue<tree_visitor, tree_state>(cfg_with(0))),
               std::invalid_argument);
}

TEST(VisitorQueue, OversubscriptionManyMoreThreadsThanCores) {
  constexpr std::uint64_t kN = 2048;
  tree_state state(kN, 256);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(256));
  q.push(tree_visitor{0, 0});
  EXPECT_EQ(q.run(state).visits, kN);
}

TEST(VisitorQueue, FifoAndLifoOrdersAlsoComplete) {
  constexpr std::uint64_t kN = 1024;
  for (const queue_order ord : {queue_order::fifo, queue_order::lifo}) {
    tree_state state(kN, 8);
    visitor_queue<tree_visitor, tree_state> q(cfg_with(8, ord));
    q.push(tree_visitor{0, 0});
    EXPECT_EQ(q.run(state).visits, kN);
  }
}

TEST(VisitorQueue, RunSeededVisitsAllSeeds) {
  constexpr std::uint64_t kN = 10000;
  for (const std::size_t threads : {1u, 3u, 16u}) {
    leaf_state state(threads);
    visitor_queue<leaf_visitor, leaf_state> q(cfg_with(threads));
    const auto stats = q.run_seeded(state, kN, [](std::uint32_t v) {
      return leaf_visitor{v};
    });
    std::uint64_t sum = 0;
    for (const auto& v : state.visits) sum += v.value;
    EXPECT_EQ(sum, kN) << "threads=" << threads;
    EXPECT_EQ(stats.visits, kN);
  }
}

TEST(VisitorQueue, RunSeededEmptyRange) {
  tree_state state(0, 4);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(4));
  const auto stats = q.run_seeded(state, 0, [](std::uint32_t v) {
    return tree_visitor{v, 0};
  });
  EXPECT_EQ(stats.visits, 0u);
}

TEST(VisitorQueue, SingleThreadPopsInPriorityOrder) {
  order_state state;
  visitor_queue<order_visitor, order_state> q(cfg_with(1));
  for (const std::uint32_t p : {5u, 1u, 4u, 2u, 3u}) {
    q.push(order_visitor{p, p});
  }
  q.run(state);
  const std::vector<std::uint32_t> expect{1, 2, 3, 4, 5};
  EXPECT_EQ(state.order, expect);
}

TEST(VisitorQueue, FifoPopsInPushOrder) {
  order_state state;
  visitor_queue<order_visitor, order_state> q(cfg_with(1, queue_order::fifo));
  for (const std::uint32_t p : {5u, 1u, 4u}) q.push(order_visitor{p, p});
  q.run(state);
  const std::vector<std::uint32_t> expect{5, 1, 4};
  EXPECT_EQ(state.order, expect);
}

TEST(VisitorQueue, LifoPopsInReversePushOrder) {
  order_state state;
  visitor_queue<order_visitor, order_state> q(cfg_with(1, queue_order::lifo));
  for (const std::uint32_t p : {5u, 1u, 4u}) q.push(order_visitor{p, p});
  q.run(state);
  const std::vector<std::uint32_t> expect{4, 1, 5};
  EXPECT_EQ(state.order, expect);
}

TEST(VisitorQueue, SecondarySortBreaksTiesByVertex) {
  visitor_queue_config cfg = cfg_with(1);
  cfg.secondary_vertex_sort = true;
  order_state vs;
  visitor_queue<vertex_order_visitor, order_state> q(cfg);
  q.push(vertex_order_visitor{30, 7});
  q.push(vertex_order_visitor{10, 7});
  q.push(vertex_order_visitor{20, 7});
  q.run(vs);
  const std::vector<std::uint32_t> expect{10, 20, 30};
  EXPECT_EQ(vs.order, expect);
}

TEST(VisitorQueue, PrimaryPriorityStillWinsWithSecondarySort) {
  visitor_queue_config cfg = cfg_with(1);
  cfg.secondary_vertex_sort = true;
  order_state vs;
  visitor_queue<vertex_order_visitor, order_state> q(cfg);
  q.push(vertex_order_visitor{10, 9});  // high vertex priority loses to prio
  q.push(vertex_order_visitor{99, 1});
  q.run(vs);
  const std::vector<std::uint32_t> expect{99, 10};
  EXPECT_EQ(vs.order, expect);
}

TEST(VisitorQueue, LoadBalanceAcrossQueues) {
  // With the avalanche hash, seeded uniform vertices spread evenly.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kN = 80000;
  leaf_state state(kThreads);
  visitor_queue<leaf_visitor, leaf_state> q(cfg_with(kThreads));
  const auto stats = q.run_seeded(state, kN, [](std::uint32_t v) {
    return leaf_visitor{v};
  });
  EXPECT_LT(stats.load_imbalance_cv(), 0.05);
}

TEST(VisitorQueue, IdentityHashRouting) {
  // Identity routing assigns v % threads; a stream of ids all congruent to
  // 0 mod threads must land on a single queue (the load-imbalance hazard
  // the avalanche hash avoids).
  visitor_queue_config cfg = cfg_with(4);
  cfg.identity_hash = true;
  leaf_state state(4);
  visitor_queue<leaf_visitor, leaf_state> q(cfg);
  for (std::uint32_t v = 0; v < 400; v += 4) {
    q.push(leaf_visitor{v});
  }
  const auto stats = q.run(state);
  EXPECT_EQ(stats.visits, 100u);
  EXPECT_GT(stats.load_imbalance_cv(), 1.5);  // all work on one queue
}

TEST(VisitorQueue, StatsTrackMaxQueueLength) {
  tree_state state(512, 1);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(1));
  q.push(tree_visitor{0, 0});
  const auto stats = q.run(state);
  EXPECT_GE(stats.max_queue_length, 2u);  // tree fan-out must queue up
  EXPECT_LE(stats.max_queue_length, 512u);
}

TEST(VisitorQueue, StressManyRunsNoDeadlock) {
  // Repeated small runs shake out termination races.
  for (int round = 0; round < 50; ++round) {
    tree_state state(64, 16);
    visitor_queue<tree_visitor, tree_state> q(cfg_with(16));
    q.push(tree_visitor{0, 0});
    EXPECT_EQ(q.run(state).visits, 64u);
  }
}

TEST(VisitorQueue, ShutdownWakeNotCountedAsWakeup) {
  // A single-visitor run on many threads: the lone worker pops its visitor
  // without ever sleeping, and the other workers go idle exactly once.
  // Shutdown then wakes all of them — those final wakes are part of
  // termination, not idle/work transitions, and must not count.
  for (int round = 0; round < 20; ++round) {
    leaf_state state(16);
    visitor_queue<leaf_visitor, leaf_state> q(cfg_with(16));
    q.push(leaf_visitor{0});
    const auto stats = q.run(state);
    EXPECT_EQ(stats.visits, 1u);
    EXPECT_EQ(stats.wakeups, 0u) << "round=" << round;
  }
}

TEST(VisitorQueue, PendingIsZeroAfterRunAndObservableDuring) {
  tree_state state(1024, 4);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(4));
  EXPECT_EQ(q.pending(), 0);
  q.push(tree_visitor{0, 0});
  EXPECT_EQ(q.pending(), 1);  // seeded but not yet run
  q.run(state);
  EXPECT_EQ(q.pending(), 0);  // termination means the counter drained
}

TEST(VisitorQueue, StatsToStringIncludesElapsedAndSpread) {
  tree_state state(256, 2);
  visitor_queue<tree_visitor, tree_state> q(cfg_with(2));
  q.push(tree_visitor{0, 0});
  const auto stats = q.run(state);
  const std::string s = stats.to_string();
  EXPECT_NE(s.find("elapsed_s="), std::string::npos) << s;
  EXPECT_NE(s.find("queue_visits_min="), std::string::npos) << s;
  EXPECT_NE(s.find("queue_visits_max="), std::string::npos) << s;
  EXPECT_GE(stats.max_queue_visits(), stats.min_queue_visits());
  EXPECT_GE(stats.elapsed_seconds, 0.0);
}

TEST(VisitorQueue, LoadImbalanceCvDegenerateCases) {
  queue_run_stats empty;
  EXPECT_EQ(empty.load_imbalance_cv(), 0.0);
  EXPECT_EQ(empty.min_queue_visits(), 0u);
  EXPECT_EQ(empty.max_queue_visits(), 0u);

  queue_run_stats single;
  single.visits_per_queue = {42};
  EXPECT_EQ(single.load_imbalance_cv(), 0.0);
  EXPECT_EQ(single.min_queue_visits(), 42u);
  EXPECT_EQ(single.max_queue_visits(), 42u);

  queue_run_stats all_zero;
  all_zero.visits_per_queue = {0, 0, 0};
  EXPECT_EQ(all_zero.load_imbalance_cv(), 0.0);
}

TEST(VisitorQueue, PreVisitRejectsArrivalsUnderEveryOrder) {
  constexpr std::uint64_t kN = 4096;
  // Serial model: a vertex arrives iff its parent was visited, and is
  // visited iff it arrived and the gate admits it.
  std::vector<std::uint32_t> arrived(kN, 0);
  std::vector<std::uint32_t> visited(kN, 0);
  arrived[0] = 1;
  std::uint64_t arrivals = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t v = 0; v < kN; ++v) {
    if (arrived[v] == 0) continue;
    ++arrivals;
    if (!gate_visitor::admits(v)) {
      ++rejected;
      continue;
    }
    visited[v] = 1;
    if (2 * v + 1 < kN) arrived[2 * v + 1] = 1;
    if (2 * v + 2 < kN) arrived[2 * v + 2] = 1;
  }
  ASSERT_GT(rejected, 0u);
  for (const queue_order ord :
       {queue_order::priority, queue_order::fifo, queue_order::lifo}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("order=" + std::to_string(static_cast<int>(ord)) +
                   " threads=" + std::to_string(threads));
      gate_state state(kN);
      visitor_queue<gate_visitor, gate_state> q(cfg_with(threads, ord));
      q.push(gate_visitor{0, 0});
      const auto stats = q.run(state);
      EXPECT_EQ(state.arrivals, arrived);
      EXPECT_EQ(state.visits, visited);  // rejected never reach visit()
      // A rejected arrival still counts as a visit and a completion.
      EXPECT_EQ(stats.visits, stats.pushes);
      EXPECT_EQ(stats.pushes, arrivals);
      EXPECT_EQ(q.pending(), 0);
    }
  }
}

TEST(VisitorQueue, PreVisitGatesSeededVisitors) {
  constexpr std::uint64_t kN = 10000;
  for (const std::size_t threads : {1u, 4u}) {
    // n = 0 keeps visit() from pushing children: only the seeds run.
    gate_state state(kN);
    state.n = 0;
    visitor_queue<gate_visitor, gate_state> q(cfg_with(threads));
    const auto stats = q.run_seeded(state, kN, [](std::uint32_t v) {
      return gate_visitor{v, 0};
    });
    EXPECT_EQ(stats.visits, kN);
    for (std::uint64_t v = 0; v < kN; ++v) {
      ASSERT_EQ(state.arrivals[v], 1u) << v;
      ASSERT_EQ(state.visits[v], gate_visitor::admits(v) ? 1u : 0u) << v;
    }
  }
}

}  // namespace
}  // namespace asyncgt
