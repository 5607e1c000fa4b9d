// Read-path identity properties (`ctest -L backend`): the block windows
// change how many preads a traversal makes, never what it computes. SEM
// BFS, weighted SSSP (two streams per adjacency: targets and weights) and
// CC labels must equal the serial baselines, also under injected transient
// faults, and a permanently bad range must abort the traversal with the
// failing request's own byte range in the message.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "asyncgt.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"

namespace asyncgt {
namespace {

class BackendIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_bid_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_tmp(const csr32& g, const std::string& tag) {
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph(p, g);
    return p;
  }

  static visitor_queue_config cfg(std::size_t threads = 8) {
    visitor_queue_config c;
    c.num_threads = threads;
    c.flush_batch = 1;
    c.secondary_vertex_sort = true;
    return c;
  }

  static sem::io_retry_policy fast_retry(std::uint32_t max_retries) {
    sem::io_retry_policy p;
    p.max_retries = max_retries;
    p.backoff_initial_us = 1;
    p.backoff_max_us = 10;
    return p;
  }

  std::filesystem::path dir_;
};

TEST_F(BackendIdentity, BfsLabelsAndVisitCountsMatchSerial) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "bfs");
  const auto ref = serial_bfs(g, vertex32{0});
  for (const std::size_t threads : {1u, 3u, 8u}) {
    sem::sem_csr32 sg(path);
    const auto got = async_bfs(sg, vertex32{0}, cfg(threads));
    EXPECT_EQ(got.level, ref.level) << "threads=" << threads;
    EXPECT_EQ(got.visited_count(), ref.visited_count())
        << "threads=" << threads;
    // The semi-sorted visit order lands consecutive reads in one window.
    const auto c = sg.backend().counters();
    EXPECT_GT(c.window_hits, 0u) << "threads=" << threads;
    EXPECT_EQ(c.window_hits + c.batches, c.requests)
        << "threads=" << threads;
  }
}

TEST_F(BackendIdentity, WeightedDualStreamSsspMatchesDijkstra) {
  // SSSP reads two byte streams per vertex (targets + weights), each
  // through its own window.
  const csr32 g = add_weights(rmat_graph<vertex32>(rmat_a(8, 5)),
                              weight_scheme::log_uniform, 5);
  const std::string path = write_tmp(g, "sssp");
  const auto ref = dijkstra_sssp(g, vertex32{0});
  for (const std::size_t threads : {1u, 8u}) {
    sem::sem_csr32 sg(path);
    EXPECT_EQ(async_sssp(sg, vertex32{0}, cfg(threads)).dist, ref.dist)
        << "threads=" << threads;
    EXPECT_GT(sg.backend().counters().window_hits, 0u)
        << "threads=" << threads;
  }
}

TEST_F(BackendIdentity, CcMatchesSerial) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(8, 9));
  const std::string path = write_tmp(g, "cc");
  sem::sem_csr32 sg(path);
  EXPECT_EQ(async_cc(sg, cfg()).component, serial_cc(g).component);
}

TEST_F(BackendIdentity, TransientFaultsAreInvisible) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "faulted");
  const auto ref = serial_bfs(g, vertex32{0});
  sem::fault_config fc;
  // About one pread per two or three requests: a fault on one pread in
  // four keeps the injected count near one per ten requests.
  fc.p_eio = 0.25;
  fc.fail_attempts = 1;
  fc.seed = 13;
  sem::fault_injector inj(fc);
  sem::sem_csr32 sg(path);
  sg.set_retry_policy(fast_retry(4));
  sg.set_fault_injector(&inj);
  const auto got = async_bfs(sg, vertex32{0}, cfg());
  EXPECT_EQ(got.level, ref.level);
  EXPECT_EQ(got.visited_count(), ref.visited_count());
  const auto c = sg.backend().counters();
  // One fault plan per pread, a fault on about a quarter of them, and every
  // fault retried to success.
  EXPECT_EQ(inj.counters().ops, c.batches);
  EXPECT_GE(inj.counters().errors * 8, c.batches);
  EXPECT_EQ(c.fallbacks, 0u);
}

TEST_F(BackendIdentity, TornBatchAbortsWithTheFailingByteRange) {
  // A permanently bad sector range under the windows: each request falls
  // back to its exact bytes, exhausts the budget there, and the traversal
  // aborts carrying that request's own [offset, length), so the operator
  // can map the abort to a disk region.
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "torn");
  sem::fault_config fc;
  fc.bad_begin = 0;  // every adjacency read sits on the bad range
  fc.bad_end = std::filesystem::file_size(path);
  sem::fault_injector inj(fc);
  sem::sem_csr32 sg(path);
  sg.set_retry_policy(fast_retry(4));
  sg.set_fault_injector(&inj);
  try {
    async_bfs(sg, vertex32{0}, cfg());
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    ASSERT_NE(e.cause(), nullptr);
    try {
      std::rethrow_exception(e.cause());
    } catch (const sem::io_error& io) {
      EXPECT_GT(io.bytes(), 0u);
      EXPECT_LT(io.offset(), fc.bad_end);
      // The abort message embeds the failing request geometry end-to-end.
      const std::string what = e.what();
      EXPECT_NE(what.find("offset " + std::to_string(io.offset())),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("+" + std::to_string(io.bytes()) + ")"),
                std::string::npos)
          << what;
    }
  }
  EXPECT_GE(sg.backend().counters().fallbacks, 1u);
}

TEST_F(BackendIdentity, MoveRebindsTheBackendToTheMovedFile) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 5));
  const std::string path = write_tmp(g, "moved");
  sem::sem_csr32 a(path);
  (void)async_bfs(a, vertex32{0}, cfg());  // fill a's windows
  sem::sem_csr32 b(std::move(a));
  EXPECT_EQ(b.backend().counters().requests, 0u);
  EXPECT_EQ(async_bfs(b, vertex32{0}, cfg()).level,
            serial_bfs(g, vertex32{0}).level);
  EXPECT_GT(b.backend().counters().requests, 0u);
}

}  // namespace
}  // namespace asyncgt
