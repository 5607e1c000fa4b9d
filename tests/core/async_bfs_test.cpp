#include "core/async_bfs.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/serial_bfs.hpp"
#include "core/validate.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

visitor_queue_config threads(std::size_t n) {
  visitor_queue_config cfg;
  cfg.num_threads = n;
  return cfg;
}

TEST(AsyncBfs, TinyGraphLevels) {
  // 0 -> 1 -> 2, 0 -> 2: levels 0, 1, 1.
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}});
  const auto r = async_bfs(g, vertex32{0}, threads(2));
  EXPECT_EQ(r.level[0], 0u);
  EXPECT_EQ(r.level[1], 1u);
  EXPECT_EQ(r.level[2], 1u);
  EXPECT_EQ(r.parent[0], 0u);
  EXPECT_EQ(r.parent[1], 0u);
  EXPECT_EQ(r.parent[2], 0u);
  EXPECT_EQ(r.max_level(), 1u);
  EXPECT_EQ(r.visited_count(), 3u);
}

TEST(AsyncBfs, UnreachableVerticesStayInfinite) {
  const csr32 g = build_csr<vertex32>(4, {{0, 1, 1}, {2, 3, 1}});
  const auto r = async_bfs(g, vertex32{0}, threads(4));
  EXPECT_EQ(r.level[2], infinite_distance<dist_t>);
  EXPECT_EQ(r.level[3], infinite_distance<dist_t>);
  EXPECT_EQ(r.parent[2], invalid_vertex<vertex32>);
  EXPECT_EQ(r.visited_count(), 2u);
}

TEST(AsyncBfs, OutOfRangeStartThrows) {
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  EXPECT_THROW(async_bfs(g, vertex32{5}, threads(1)), std::out_of_range);
}

TEST(AsyncBfs, SingleVertexGraph) {
  const csr32 g = build_csr<vertex32>(1, {});
  const auto r = async_bfs(g, vertex32{0}, threads(2));
  EXPECT_EQ(r.level[0], 0u);
  EXPECT_EQ(r.visited_count(), 1u);
  EXPECT_EQ(r.max_level(), 0u);
}

TEST(AsyncBfs, ChainSerializesButCompletes) {
  // Paper Fig. 2: the worst-case graph for traversal parallelism.
  const csr32 g = chain_graph<vertex32>(2000);
  const auto r = async_bfs(g, vertex32{0}, threads(8));
  for (vertex32 v = 0; v < 2000; ++v) EXPECT_EQ(r.level[v], v);
  EXPECT_EQ(r.max_level(), 1999u);
}

TEST(AsyncBfs, GridMatchesManhattanDistance) {
  const csr32 g = grid_graph<vertex32>(17, 13);
  const auto r = async_bfs(g, vertex32{0}, threads(4));
  for (vertex32 y = 0; y < 13; ++y) {
    for (vertex32 x = 0; x < 17; ++x) {
      EXPECT_EQ(r.level[y * 17 + x], x + y);
    }
  }
}

TEST(AsyncBfs, WeightedGraphIgnoresWeights) {
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 100}, {1, 2, 100}});
  const auto r = async_bfs(g, vertex32{0}, threads(2));
  EXPECT_EQ(r.level[2], 2u);  // hops, not weight sums
}

struct BfsSweepParam {
  unsigned scale;
  bool rmat_b_preset;
  std::size_t threads;
};

/// Case name such as `scale8_b_t4`: scale, RMAT preset, threads.
std::string to_string(const BfsSweepParam& p) {
  return "scale" + std::to_string(p.scale) +
         (p.rmat_b_preset ? "_b_t" : "_a_t") + std::to_string(p.threads);
}
std::string sweep_name(const ::testing::TestParamInfo<BfsSweepParam>& info) {
  return to_string(info.param);
}
// gtest appends the printed parameter to each ctest name; without this it
// would print the struct's raw bytes, padding included.
void PrintTo(const BfsSweepParam& p, std::ostream* os) { *os << to_string(p); }

class AsyncBfsSweep : public ::testing::TestWithParam<BfsSweepParam> {};

TEST_P(AsyncBfsSweep, MatchesSerialBfsLevels) {
  const BfsSweepParam& param = GetParam();
  const rmat_params p =
      param.rmat_b_preset ? rmat_b(param.scale) : rmat_a(param.scale);
  const csr32 g = rmat_graph<vertex32>(p);
  const auto ref = serial_bfs(g, vertex32{0});
  const auto r = async_bfs(g, vertex32{0}, threads(param.threads));
  ASSERT_EQ(r.level.size(), ref.level.size());
  for (std::size_t v = 0; v < r.level.size(); ++v) {
    ASSERT_EQ(r.level[v], ref.level[v]) << "vertex " << v;
  }
  // Parent array must be a valid tight tree even though the exact parents
  // may differ from the serial run.
  EXPECT_TRUE(validate_parents(g, vertex32{0}, r.level, r.parent, true).ok);
  EXPECT_TRUE(validate_distances(g, vertex32{0}, r.level, true).ok);
}

INSTANTIATE_TEST_SUITE_P(
    RmatVariants, AsyncBfsSweep,
    ::testing::Values(BfsSweepParam{8, false, 1}, BfsSweepParam{8, false, 4},
                      BfsSweepParam{8, false, 32}, BfsSweepParam{8, true, 4},
                      BfsSweepParam{10, false, 8}, BfsSweepParam{10, true, 8},
                      BfsSweepParam{10, true, 64},
                      BfsSweepParam{12, false, 16},
                      BfsSweepParam{12, true, 16}),
    sweep_name);

TEST(AsyncBfs, DeterministicLevelsAcrossRuns) {
  // Visit order is nondeterministic; final labels must not be.
  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  const auto first = async_bfs(g, vertex32{0}, threads(16));
  for (int i = 0; i < 5; ++i) {
    const auto again = async_bfs(g, vertex32{0}, threads(16));
    EXPECT_EQ(again.level, first.level);
  }
}

TEST(AsyncBfs, UpdatesAtLeastReachedCount) {
  // Label correction may update a vertex more than once, never less than
  // once per reached vertex.
  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  const auto r = async_bfs(g, vertex32{0}, threads(16));
  EXPECT_GE(r.updates, r.visited_count());
  EXPECT_GE(r.stats.visits, r.updates);
}

TEST(AsyncBfs, WorksWith64BitIds) {
  const csr64 g = build_csr<vertex64>(3, {{0, 1, 1}, {1, 2, 1}});
  const auto r = async_bfs(g, vertex64{0}, threads(2));
  EXPECT_EQ(r.level[2], 2u);
}

}  // namespace
}  // namespace asyncgt
