// Cross-module integration tests: the full pipeline the examples and
// benches exercise — generate, persist, reload (in-memory and semi-external,
// with device model and page cache attached), traverse with every algorithm
// variant, and cross-validate all results against each other and against
// the first-principles validators.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "asyncgt.hpp"
#include "baselines/bsp_bfs.hpp"
#include "baselines/bsp_cc.hpp"
#include "baselines/delta_stepping.hpp"
#include "baselines/levelsync_bfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "baselines/syncprop_cc.hpp"
#include "sem/block_cache.hpp"

namespace asyncgt {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

visitor_queue_config threads(std::size_t n, bool semisort = false) {
  visitor_queue_config cfg;
  cfg.num_threads = n;
  cfg.secondary_vertex_sort = semisort;
  return cfg;
}

TEST_F(EndToEndTest, GenerateSaveReloadTraverseEverywhere) {
  // The full lifecycle on a weighted RMAT-B graph.
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_b(9)), weight_scheme::uniform, 3);
  const std::string path = (dir_ / "g.agt").string();
  write_graph(path, g);

  // In-memory reload.
  const csr32 loaded = read_graph32(path);
  ASSERT_EQ(loaded.num_edges(), g.num_edges());

  // Semi-external with device + cache.
  sem::ssd_model dev(sem::fusionio_params(/*time_scale=*/0.02));
  sem::block_cache cache(256);
  sem::sem_csr32 sg(path, &dev, &cache);

  const vertex32 start = 0;
  const auto ref = dijkstra_sssp(g, start);
  const auto im = async_sssp(loaded, start, threads(8));
  const auto sem_r = async_sssp(sg, start, threads(32, true));

  EXPECT_EQ(im.dist, ref.dist);
  EXPECT_EQ(sem_r.dist, ref.dist);
  EXPECT_GT(dev.counters().reads, 0u);
  EXPECT_GT(cache.counters().hits + cache.counters().misses, 0u);
}

// Property sweep: every BFS implementation agrees on every graph family.
struct FamilyParam {
  std::string name;
  csr32 graph;
  vertex32 start;
};

class BfsFamilySweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<FamilyParam> families() {
    std::vector<FamilyParam> out;
    out.push_back({"rmat_a", rmat_graph<vertex32>(rmat_a(9)), 0});
    out.push_back({"rmat_b", rmat_graph<vertex32>(rmat_b(9)), 0});
    out.push_back({"chain", chain_graph<vertex32>(500), 0});
    out.push_back({"grid", grid_graph<vertex32>(30, 30), 17});
    out.push_back({"star", star_graph<vertex32>(2000), 1});
    webgen_params wp;
    wp.num_hosts = 40;
    out.push_back({"web", webgen_graph<vertex32>(wp), 3});
    return out;
  }
};

TEST_P(BfsFamilySweep, AllBfsVariantsAgree) {
  const auto fam = families()[static_cast<std::size_t>(GetParam())];
  const auto ref = serial_bfs(fam.graph, fam.start);
  EXPECT_EQ(async_bfs(fam.graph, fam.start, threads(8)).level, ref.level)
      << fam.name;
  EXPECT_EQ(levelsync_bfs(fam.graph, fam.start, 4).level, ref.level)
      << fam.name;
  EXPECT_EQ(bsp_bfs(fam.graph, fam.start, 4).level, ref.level) << fam.name;
  EXPECT_TRUE(
      validate_distances(fam.graph, fam.start, ref.level, true).ok)
      << fam.name;
}

INSTANTIATE_TEST_SUITE_P(Families, BfsFamilySweep,
                         ::testing::Range(0, 6));

class CcFamilySweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<FamilyParam> families() {
    std::vector<FamilyParam> out;
    out.push_back(
        {"rmat_a_und", rmat_graph_undirected<vertex32>(rmat_a(9)), 0});
    out.push_back(
        {"rmat_b_und", rmat_graph_undirected<vertex32>(rmat_b(9)), 0});
    out.push_back({"chain_und", chain_graph<vertex32>(400, true), 0});
    out.push_back({"grid", grid_graph<vertex32>(25, 25), 0});
    out.push_back({"star", star_graph<vertex32>(1500), 0});
    webgen_params wp;
    wp.num_hosts = 50;
    wp.isolated_host_fraction = 0.3;
    out.push_back({"web_fragmented", webgen_graph<vertex32>(wp), 0});
    return out;
  }
};

TEST_P(CcFamilySweep, AllCcVariantsAgree) {
  const auto fam = families()[static_cast<std::size_t>(GetParam())];
  const auto ref = serial_cc(fam.graph);
  EXPECT_EQ(async_cc(fam.graph, threads(8)).component, ref.component)
      << fam.name;
  EXPECT_EQ(syncprop_cc(fam.graph, 4).component, ref.component) << fam.name;
  EXPECT_EQ(bsp_cc(fam.graph, 4).component, ref.component) << fam.name;
  EXPECT_TRUE(validate_components(fam.graph, ref.component).ok) << fam.name;
}

INSTANTIATE_TEST_SUITE_P(Families, CcFamilySweep, ::testing::Range(0, 6));

TEST_F(EndToEndTest, SsspVariantsAgreeOnAllWeightSchemes) {
  for (const auto scheme :
       {weight_scheme::uniform, weight_scheme::log_uniform}) {
    const csr32 g =
        add_weights(rmat_graph<vertex32>(rmat_a(9)), scheme, 17);
    const auto ref = dijkstra_sssp(g, vertex32{0});
    EXPECT_EQ(async_sssp(g, vertex32{0}, threads(8)).dist, ref.dist);
    EXPECT_EQ(delta_stepping_sssp(g, vertex32{0}, 64).dist, ref.dist);
  }
}

TEST_F(EndToEndTest, SemWithTinyCacheStillCorrect) {
  // A pathologically small cache must only cost performance, never
  // correctness.
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const std::string path = (dir_ / "tiny.agt").string();
  write_graph(path, g);
  sem::ssd_model dev(sem::corsair_params(/*time_scale=*/0.01));
  sem::block_cache cache(1);
  sem::sem_csr32 sg(path, &dev, &cache);
  EXPECT_EQ(async_bfs(sg, vertex32{0}, threads(64, true)).level,
            serial_bfs(g, vertex32{0}).level);
}

TEST_F(EndToEndTest, SixtyFourBitIdsEndToEnd) {
  const csr64 g = build_csr<vertex64>(
      6, {{0, 1, 2}, {1, 2, 2}, {2, 3, 2}, {0, 3, 9}, {4, 5, 1}});
  const std::string path = (dir_ / "wide.agt").string();
  write_graph(path, g);
  sem::sem_csr64 sg(path);
  const auto im = async_sssp(g, vertex64{0}, threads(4));
  const auto sem_r = async_sssp(sg, vertex64{0}, threads(4));
  EXPECT_EQ(im.dist, sem_r.dist);
  EXPECT_EQ(im.dist[3], 6u);
  EXPECT_EQ(im.dist[5], infinite_distance<dist_t>);
}

TEST_F(EndToEndTest, RepeatedSemRunsShareDeviceAndCache) {
  // Benches reuse one device across runs; counters must accumulate and the
  // cache must warm up (second run does fewer device reads). The file spans
  // ~70 blocks, so the cold run makes dozens of reads: on a few-block file
  // it could make <= 3, and reads_first / 4 truncated to 0.
  const csr32 g = rmat_graph<vertex32>(rmat_a(12));
  const std::string path = (dir_ / "warm.agt").string();
  write_graph(path, g);
  sem::ssd_model dev(sem::fusionio_params(/*time_scale=*/0.02));
  const std::uint64_t blocks =
      std::filesystem::file_size(path) / 4096 + 1;
  sem::block_cache cache(blocks);  // cache fits whole file
  sem::sem_csr32 sg(path, &dev, &cache);
  const auto first = async_bfs(sg, vertex32{0}, threads(32, true));
  const std::uint64_t reads_first = dev.counters().reads;
  const auto second = async_bfs(sg, vertex32{0}, threads(32, true));
  const std::uint64_t reads_second = dev.counters().reads - reads_first;
  EXPECT_EQ(first.level, second.level);
  EXPECT_LT(reads_second, reads_first / 4);  // warm cache absorbs reads
}

}  // namespace
}  // namespace asyncgt
