// sem_config — the one-declaration SEM construction surface. Covered here:
//
//   * the default open(): a bare graph, no cache/heat, and wire_queue
//     leaving the queue config untouched;
//   * seed-compatible cache sizing (fraction of file_bytes/block + 1, floor
//     of one block) and the explicit with_cache_blocks override;
//   * with_reverse materializing a separate reverse cache/heat pair, and
//     the reverse file obeying the same retry budget as the forward one;
//   * from_options mapping (duck-typed traversal_options shape), including
//     the negative-cache_fraction "caller decides" convention;
//   * missing files throwing at open().
#include "sem/sem_config.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/graph_io.hpp"
#include "sem/fault_injector.hpp"

namespace asyncgt::sem {
namespace {

class SemConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_semcfg_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    g_ = rmat_graph<vertex32>(rmat_a(8));
    path_ = (dir_ / "g.agt").string();
    write_graph(path_, g_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  csr32 g_;
  std::string path_;
  std::filesystem::path dir_;
};

TEST_F(SemConfigTest, DefaultOpenIsBareGraph) {
  const auto bundle = sem_config(path_).open<vertex32>();
  ASSERT_NE(bundle.graph, nullptr);
  EXPECT_EQ(bundle.graph->num_vertices(), g_.num_vertices());
  EXPECT_EQ(bundle.cache, nullptr);
  EXPECT_EQ(bundle.heat, nullptr);
  EXPECT_EQ(bundle.reverse_cache, nullptr);

  visitor_queue_config q;
  const queue_order before = q.order;
  bundle.wire_queue(q);
  EXPECT_EQ(q.order, before);
}

TEST_F(SemConfigTest, CacheFractionSizesSeedCompatibly) {
  ssd_model dev{ssd_params{}};
  const std::uint64_t bs = dev.params().block_bytes;
  const std::uint64_t file_blocks = std::filesystem::file_size(path_) / bs + 1;

  const auto half = sem_config(path_)
                        .with_device(&dev)
                        .with_cache_fraction(0.5)
                        .open<vertex32>();
  ASSERT_NE(half.cache, nullptr);
  EXPECT_EQ(half.cache->capacity(),
            static_cast<std::uint64_t>(0.5 * static_cast<double>(file_blocks)));

  // A tiny positive fraction floors to one block, never zero.
  const auto tiny = sem_config(path_)
                        .with_device(&dev)
                        .with_cache_fraction(1e-9)
                        .open<vertex32>();
  ASSERT_NE(tiny.cache, nullptr);
  EXPECT_EQ(tiny.cache->capacity(), 1u);

  // An explicit block count overrides the fraction.
  const auto fixed = sem_config(path_)
                         .with_device(&dev)
                         .with_cache_fraction(0.5)
                         .with_cache_blocks(3)
                         .open<vertex32>();
  ASSERT_NE(fixed.cache, nullptr);
  EXPECT_EQ(fixed.cache->capacity(), 3u);
}

TEST_F(SemConfigTest, ReverseViewGetsItsOwnCacheAndHeat) {
  const std::string p = (dir_ / "rev.agt").string();
  csr32 g = rmat_graph<vertex32>(rmat_a(7));
  write_graph_with_reverse(p, g);
  const auto bundle = sem_config(p)
                          .with_cache_fraction(0.5)
                          .with_heat()
                          .with_reverse()
                          .open<vertex32>();
  ASSERT_TRUE(bundle.graph->has_reverse());
  EXPECT_NE(bundle.reverse_cache, nullptr);
  EXPECT_NE(bundle.reverse_heat, nullptr);
  EXPECT_NE(bundle.reverse_cache.get(), bundle.cache.get());
}

TEST_F(SemConfigTest, ReverseViewInheritsTheRetryPolicy) {
  const std::string p = (dir_ / "rev.agt").string();
  csr32 g = rmat_graph<vertex32>(rmat_a(7));
  write_graph_with_reverse(p, g);
  g.ensure_reverse();
  vertex32 v = 0;
  while (g.out_degree(v) == 0 || g.in_degree(v) == 0) ++v;
  // Every read fails once: any retry budget recovers, a zero budget fails.
  fault_injector inj(parse_fault_config("eio=1,attempts=1"));
  const auto bundle = sem_config(p)
                          .with_retries(0, 1)
                          .with_reverse()
                          .with_fault_injector(&inj)
                          .open<vertex32>();
  const auto expect_fails_without_retry = [&](auto&& read) {
    try {
      read();
      ADD_FAILURE() << "expected io_error";
    } catch (const io_error& e) {
      EXPECT_EQ(e.retries(), 0u);
    }
  };
  expect_fails_without_retry([&] {
    bundle.graph->for_each_out_edge(v, [](vertex32, weight_t) {});
  });
  expect_fails_without_retry([&] {
    bundle.graph->for_each_in_edge(v, [](vertex32, weight_t) {});
  });
}

TEST_F(SemConfigTest, FromOptionsMapsTheTraversalOptionsShape) {
  // Duck-typed stand-in for service-layer traversal_options (sem_config
  // deliberately never includes the service layer).
  struct options_shape {
    std::uint32_t io_retries = 7;
    std::uint32_t io_backoff_us = 10;
    double cache_fraction = -1.0;
  } t;

  sem_config c = sem_config::from_options(t, path_);
  EXPECT_EQ(c.path(), path_);
  // Negative cache_fraction means "caller decides": the builder default (0,
  // no cache) survives until the call site resolves its own default.
  EXPECT_EQ(c.cache_fraction(), 0.0);

  t.cache_fraction = 0.3;
  sem_config c2 = sem_config::from_options(t, path_);
  EXPECT_EQ(c2.cache_fraction(), 0.3);
}

TEST_F(SemConfigTest, UnknownNamesThrowAtOpen) {
  EXPECT_THROW(sem_config((dir_ / "missing.agt").string()).open<vertex32>(),
               std::filesystem::filesystem_error);
}

}  // namespace
}  // namespace asyncgt::sem
