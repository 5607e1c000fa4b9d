#include "core/async_cc.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/serial_cc.hpp"
#include "core/validate.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/webgen.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

visitor_queue_config threads(std::size_t n) {
  visitor_queue_config cfg;
  cfg.num_threads = n;
  return cfg;
}

csr32 two_triangles() {
  build_options opt;
  opt.symmetrize = true;
  return build_csr<vertex32>(
      6, {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1}, {4, 5, 1}, {5, 3, 1}},
      opt);
}

TEST(AsyncCc, TwoComponentsLabelled) {
  const auto r = async_cc(two_triangles(), threads(2));
  EXPECT_EQ(r.num_components(), 2u);
  for (vertex32 v = 0; v < 3; ++v) EXPECT_EQ(r.component[v], 0u);
  for (vertex32 v = 3; v < 6; ++v) EXPECT_EQ(r.component[v], 3u);
}

TEST(AsyncCc, IsolatedVerticesAreOwnComponents) {
  const csr32 g = build_csr<vertex32>(4, {});
  const auto r = async_cc(g, threads(4));
  EXPECT_EQ(r.num_components(), 4u);
  for (vertex32 v = 0; v < 4; ++v) EXPECT_EQ(r.component[v], v);
}

TEST(AsyncCc, EmptyGraph) {
  const csr32 g = build_csr<vertex32>(0, {});
  const auto r = async_cc(g, threads(2));
  EXPECT_EQ(r.num_components(), 0u);
}

TEST(AsyncCc, SingleGiantComponent) {
  const csr32 g = grid_graph<vertex32>(20, 20);
  const auto r = async_cc(g, threads(8));
  EXPECT_EQ(r.num_components(), 1u);
  EXPECT_EQ(r.largest_component_size(), 400u);
  for (const vertex32 c : r.component) EXPECT_EQ(c, 0u);
}

struct CcSweepParam {
  unsigned scale;
  bool rmat_b_preset;
  std::size_t threads;
};

/// Case name such as `scale8_b_t8`: scale, RMAT preset, threads.
std::string to_string(const CcSweepParam& p) {
  return "scale" + std::to_string(p.scale) +
         (p.rmat_b_preset ? "_b_t" : "_a_t") + std::to_string(p.threads);
}
std::string sweep_name(const ::testing::TestParamInfo<CcSweepParam>& info) {
  return to_string(info.param);
}
// gtest appends the printed parameter to each ctest name; without this it
// would print the struct's raw bytes, padding included.
void PrintTo(const CcSweepParam& p, std::ostream* os) { *os << to_string(p); }

class AsyncCcSweep : public ::testing::TestWithParam<CcSweepParam> {};

TEST_P(AsyncCcSweep, MatchesSerialCc) {
  const CcSweepParam& param = GetParam();
  const rmat_params p =
      param.rmat_b_preset ? rmat_b(param.scale) : rmat_a(param.scale);
  const csr32 g = rmat_graph_undirected<vertex32>(p);
  const auto ref = serial_cc(g);
  const auto r = async_cc(g, threads(param.threads));
  EXPECT_EQ(r.component, ref.component);
  EXPECT_EQ(r.num_components(), ref.num_components());
  EXPECT_TRUE(validate_components(g, r.component).ok);
}

INSTANTIATE_TEST_SUITE_P(
    RmatVariants, AsyncCcSweep,
    ::testing::Values(CcSweepParam{8, false, 1}, CcSweepParam{8, false, 8},
                      CcSweepParam{8, true, 8}, CcSweepParam{10, false, 16},
                      CcSweepParam{10, true, 16}, CcSweepParam{10, true, 64},
                      CcSweepParam{12, false, 16},
                      CcSweepParam{12, true, 16}),
    sweep_name);

TEST(AsyncCc, WebGraphMatchesSerial) {
  webgen_params p;
  p.num_hosts = 120;
  p.max_host_size = 128;
  const csr32 g = webgen_graph<vertex32>(p);
  const auto ref = serial_cc(g);
  const auto r = async_cc(g, threads(16));
  EXPECT_EQ(r.component, ref.component);
}

TEST(AsyncCc, DeterministicAcrossRuns) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_b(10));
  const auto first = async_cc(g, threads(16));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(async_cc(g, threads(16)).component, first.component);
  }
}

TEST(AsyncCc, VisitsAtLeastOnePerVertex) {
  // Every vertex is seeded, so visits >= n even if most relax to no-ops.
  const csr32 g = two_triangles();
  const auto r = async_cc(g, threads(4));
  EXPECT_GE(r.stats.visits, g.num_vertices());
}

TEST(AsyncCc, LargestComponentSizeOnMixedGraph) {
  // Triangle + edge + isolated vertex.
  build_options opt;
  opt.symmetrize = true;
  const csr32 g =
      build_csr<vertex32>(6, {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1}},
                          opt);
  const auto r = async_cc(g, threads(2));
  EXPECT_EQ(r.num_components(), 3u);
  EXPECT_EQ(r.largest_component_size(), 3u);
}

}  // namespace
}  // namespace asyncgt
