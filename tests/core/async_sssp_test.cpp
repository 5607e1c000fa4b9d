#include "core/async_sssp.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_sssp.hpp"
#include "core/validate.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

visitor_queue_config threads(std::size_t n) {
  visitor_queue_config cfg;
  cfg.num_threads = n;
  return cfg;
}

TEST(AsyncSssp, TinyWeightedGraph) {
  // 0 -(5)-> 1, 0 -(2)-> 2, 2 -(2)-> 1: shortest to 1 is 4 via 2.
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 5}, {0, 2, 2}, {2, 1, 2}});
  const auto r = async_sssp(g, vertex32{0}, threads(2));
  EXPECT_EQ(r.dist[0], 0u);
  EXPECT_EQ(r.dist[1], 4u);
  EXPECT_EQ(r.dist[2], 2u);
  EXPECT_EQ(r.parent[1], 2u);
}

TEST(AsyncSssp, PaperFigure3Example) {
  // The worked example of §III-B2 / Figure 3: a 5-vertex weighted digraph
  // whose weights force multiple visits per vertex.
  //   0 -(2)-> 1, 0 -(5)-> 2, 1 -(4)-> 2, 1 -(7)-> 3, 2 -(1)-> 3,
  //   3 -(1)-> 0, 3 -(2)-> 4, 4 -(3)-> 0
  const csr32 g = build_csr<vertex32>(5, {{0, 1, 2},
                                          {0, 2, 5},
                                          {1, 2, 4},
                                          {1, 3, 7},
                                          {2, 3, 1},
                                          {3, 0, 1},
                                          {3, 4, 2},
                                          {4, 0, 3}});
  for (const std::size_t t : {1u, 2u, 4u, 16u}) {
    const auto r = async_sssp(g, vertex32{0}, threads(t));
    // Final distances from the paper's walkthrough (panel f):
    //   d(0)=0, d(1)=2, d(2)=5, d(3)=6, d(4)=8.
    EXPECT_EQ(r.dist[0], 0u);
    EXPECT_EQ(r.dist[1], 2u);
    EXPECT_EQ(r.dist[2], 5u);
    EXPECT_EQ(r.dist[3], 6u);
    EXPECT_EQ(r.dist[4], 8u);
  }
}

TEST(AsyncSssp, MultipleVisitsPerVertexHappen) {
  // On the Figure 3 graph with FIFO ordering and one thread, vertex 3 is
  // reached first via the longer path (through 1) and corrected later —
  // total visits must exceed vertex count, demonstrating label correction.
  const csr32 g = build_csr<vertex32>(5, {{0, 1, 2},
                                          {0, 2, 5},
                                          {1, 2, 4},
                                          {1, 3, 7},
                                          {2, 3, 1},
                                          {3, 0, 1},
                                          {3, 4, 2},
                                          {4, 0, 3}});
  visitor_queue_config cfg = threads(1);
  cfg.order = queue_order::fifo;
  const auto r = async_sssp(g, vertex32{0}, cfg);
  EXPECT_EQ(r.dist[3], 6u);  // still correct
  EXPECT_GT(r.stats.visits, 5u);
}

TEST(AsyncSssp, UnreachableStaysInfinite) {
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 3}});
  const auto r = async_sssp(g, vertex32{0}, threads(2));
  EXPECT_EQ(r.dist[2], infinite_distance<dist_t>);
}

TEST(AsyncSssp, OutOfRangeStartThrows) {
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  EXPECT_THROW(async_sssp(g, vertex32{2}, threads(1)), std::out_of_range);
}

TEST(AsyncSssp, UnweightedGraphBehavesLikeBfs) {
  // Paper §II-A: "BFS can be also computed using a SSSP algorithm with all
  // edge weights equal to 1". Unweighted CSR reports weight 1 per edge.
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const auto sssp = async_sssp(g, vertex32{0}, threads(4));
  const auto bfs = serial_bfs(g, vertex32{0});
  EXPECT_EQ(sssp.dist, bfs.level);
}

struct SsspSweepParam {
  unsigned scale;
  bool rmat_b_preset;
  weight_scheme scheme;
  std::size_t threads;
};

/// Case name such as `scale8_b_luw_t8`: scale, RMAT preset, weight scheme
/// (the paper's UW / LUW), threads.
std::string to_string(const SsspSweepParam& p) {
  return "scale" + std::to_string(p.scale) + (p.rmat_b_preset ? "_b" : "_a") +
         (p.scheme == weight_scheme::uniform ? "_uw_t" : "_luw_t") +
         std::to_string(p.threads);
}
std::string sweep_name(const ::testing::TestParamInfo<SsspSweepParam>& info) {
  return to_string(info.param);
}
// gtest appends the printed parameter to each ctest name; without this it
// would print the struct's raw bytes, padding included.
void PrintTo(const SsspSweepParam& p, std::ostream* os) {
  *os << to_string(p);
}

class AsyncSsspSweep : public ::testing::TestWithParam<SsspSweepParam> {};

TEST_P(AsyncSsspSweep, MatchesDijkstra) {
  const SsspSweepParam& param = GetParam();
  const rmat_params p =
      param.rmat_b_preset ? rmat_b(param.scale) : rmat_a(param.scale);
  const csr32 g = add_weights(rmat_graph<vertex32>(p), param.scheme, 99);
  const auto ref = dijkstra_sssp(g, vertex32{0});
  const auto r = async_sssp(g, vertex32{0}, threads(param.threads));
  ASSERT_EQ(r.dist.size(), ref.dist.size());
  for (std::size_t v = 0; v < r.dist.size(); ++v) {
    ASSERT_EQ(r.dist[v], ref.dist[v]) << "vertex " << v;
  }
  EXPECT_TRUE(validate_distances(g, vertex32{0}, r.dist).ok);
  EXPECT_TRUE(validate_parents(g, vertex32{0}, r.dist, r.parent).ok);
}

INSTANTIATE_TEST_SUITE_P(
    RmatWeightVariants, AsyncSsspSweep,
    ::testing::Values(
        SsspSweepParam{8, false, weight_scheme::uniform, 1},
        SsspSweepParam{8, false, weight_scheme::uniform, 8},
        SsspSweepParam{8, false, weight_scheme::log_uniform, 8},
        SsspSweepParam{8, true, weight_scheme::uniform, 8},
        SsspSweepParam{8, true, weight_scheme::log_uniform, 8},
        SsspSweepParam{10, false, weight_scheme::uniform, 16},
        SsspSweepParam{10, false, weight_scheme::log_uniform, 16},
        SsspSweepParam{10, true, weight_scheme::uniform, 64},
        SsspSweepParam{10, true, weight_scheme::log_uniform, 64},
        SsspSweepParam{12, false, weight_scheme::uniform, 16},
        SsspSweepParam{12, true, weight_scheme::log_uniform, 16}),
    sweep_name);

TEST(AsyncSssp, DeterministicDistancesAcrossRuns) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(10)), weight_scheme::uniform, 3);
  const auto first = async_sssp(g, vertex32{0}, threads(16));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(async_sssp(g, vertex32{0}, threads(16)).dist, first.dist);
  }
}

TEST(AsyncSssp, PriorityOrderDoesFewerRevisitsThanLifo) {
  // The prioritized queue is the paper's mechanism for keeping wasted
  // relaxations low; LIFO ordering must do at least as many visits.
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(10)), weight_scheme::uniform, 3);
  visitor_queue_config prio = threads(1);
  visitor_queue_config lifo = threads(1);
  lifo.order = queue_order::lifo;
  const auto a = async_sssp(g, vertex32{0}, prio);
  const auto b = async_sssp(g, vertex32{0}, lifo);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_LE(a.stats.visits, b.stats.visits);
}

}  // namespace
}  // namespace asyncgt
