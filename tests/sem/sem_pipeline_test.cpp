// Reads ahead (docs/visitor_queue.md, docs/io_backends.md): a traversal
// lane books the device reads of several popped visitors before it sleeps
// on the earliest one, so each lane keeps up to ceil(2 x channels / lanes)
// reads in flight and the lanes together about two per channel. These
// tests hold the pipelined path to the blocking one:
//   * ssd_model::begin_read/end_read overlap from one thread and book the
//     same counters as read();
//   * BFS, SSSP (weighted: two ranges per read) and CC labels equal the
//     serial baselines across lanes x cache x heat x backend, with
//     visits == pushes;
//   * every expanded adjacency is charged exactly once;
//   * a single lane keeps more reads in flight than the device has
//     channels, and several lanes stay within their shared bound;
//   * an abort with reads pending (an injected media error, a deadline, a
//     cancel) leaves the device queue empty and the engine reusable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "sem/block_heat.hpp"
#include "sem/io_backend.hpp"
#include "util/timer.hpp"

namespace asyncgt {
namespace {

/// A small fast device: 8 channels, 20 us reads.
sem::ssd_params test_device(std::uint32_t channels = 8,
                            double latency_us = 20.0) {
  sem::ssd_params p;
  p.name = "test";
  p.read_latency_us = latency_us;
  p.write_latency_us = latency_us * 3;
  p.channels = channels;
  return p;
}

TEST(SemPipeline, BeginReadsFromOneThreadOverlap) {
  constexpr double kLatencyUs = 20000.0;
  constexpr int kReads = 6;
  sem::ssd_model dev(test_device(8, kLatencyUs));
  wall_timer t;
  std::vector<sem::ssd_model::clock::time_point> deadlines;
  for (int i = 0; i < kReads; ++i) deadlines.push_back(dev.begin_read(5000));
  EXPECT_EQ(dev.inflight(), static_cast<std::uint64_t>(kReads));
  for (const auto d : deadlines) {
    std::this_thread::sleep_until(d);
    dev.end_read();
  }
  const double elapsed_us = t.elapsed_seconds() * 1e6;
  EXPECT_GE(elapsed_us, kLatencyUs * 0.95);
  // K reads on K free channels finish together: about one latency, far
  // from the K latencies of K blocking reads.
  EXPECT_LT(elapsed_us, kLatencyUs * 3);
  EXPECT_EQ(dev.inflight(), 0u);

  sem::ssd_model blocking(test_device(8, 1.0));
  for (int i = 0; i < kReads; ++i) blocking.read(5000);
  const sem::ssd_counters a = dev.counters();
  const sem::ssd_counters b = blocking.counters();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.read_bytes, b.read_bytes);
  EXPECT_EQ(a.read_blocks, b.read_blocks);
  EXPECT_EQ(a.max_inflight, static_cast<std::uint64_t>(kReads));
  EXPECT_EQ(b.max_inflight, 1u);
}

class SemPipelineGraphs : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_pipe_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_tmp(const csr32& g, const std::string& tag) {
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph(p, g);
    return p;
  }

  static visitor_queue_config cfg(std::size_t threads) {
    visitor_queue_config c;
    c.num_threads = threads;
    c.flush_batch = 1;
    c.secondary_vertex_sort = true;
    return c;
  }

  /// A SEM graph over `path` with its own cache and heat recorder, wired
  /// per the sweep coordinates.
  struct wired {
    std::optional<sem::block_cache> cache;
    std::optional<sem::block_heat> heat;
    std::optional<sem::sem_csr32> g;
  };

  enum class cache_size { none, tenth, whole };

  static void wire(wired& w, const std::string& path, sem::ssd_model& dev,
                   cache_size cs, bool heat, sem::io_backend_kind kind) {
    const std::uint64_t blocks =
        std::filesystem::file_size(path) / dev.params().block_bytes + 1;
    if (cs != cache_size::none) {
      w.cache.emplace(cs == cache_size::whole ? blocks : blocks / 10 + 1);
    }
    w.g.emplace(path, &dev, w.cache ? &*w.cache : nullptr);
    if (heat) {
      w.heat.emplace(w.g->heat_blocks_for(), dev.params().block_bytes);
      w.g->set_block_heat(&*w.heat);
    }
    sem::io_backend_config bcfg;
    bcfg.kind = kind;
    bcfg.batch = 8;
    w.g->set_io_backend(bcfg);
  }

  std::filesystem::path dir_;
};

TEST_F(SemPipelineGraphs, LabelsMatchSerialAcrossLanesCacheHeatBackends) {
  const csr32 directed = rmat_graph<vertex32>(rmat_a(10, 3));
  const csr32 weighted =
      add_weights(directed, weight_scheme::log_uniform, 3);
  const csr32 undirected = rmat_graph_undirected<vertex32>(rmat_a(10, 4));
  const std::string dpath = write_tmp(directed, "d");
  const std::string wpath = write_tmp(weighted, "w");
  const std::string upath = write_tmp(undirected, "u");
  const auto bfs_ref = serial_bfs(directed, vertex32{0});
  const auto sssp_ref = dijkstra_sssp(weighted, vertex32{0});
  const auto cc_ref = serial_cc(undirected);
  sem::ssd_model dev(test_device());

  for (const std::size_t threads : {1u, 3u, 8u}) {
    for (const cache_size cs :
         {cache_size::none, cache_size::tenth, cache_size::whole}) {
      for (const bool heat : {false, true}) {
        for (const auto kind : {sem::io_backend_kind::sync,
                                sem::io_backend_kind::coalescing}) {
          const std::string where =
              "threads=" + std::to_string(threads) +
              " cache=" + std::to_string(static_cast<int>(cs)) +
              " heat=" + std::to_string(heat) + " backend=" +
              sem::to_string(kind);
          wired d, w, u;
          wire(d, dpath, dev, cs, heat, kind);
          wire(w, wpath, dev, cs, heat, kind);
          wire(u, upath, dev, cs, heat, kind);
          const auto bfs = async_bfs(*d.g, vertex32{0}, cfg(threads));
          EXPECT_EQ(bfs.level, bfs_ref.level) << where;
          EXPECT_EQ(bfs.stats.visits, bfs.stats.pushes) << where;
          const auto sssp = async_sssp(*w.g, vertex32{0}, cfg(threads));
          EXPECT_EQ(sssp.dist, sssp_ref.dist) << where;
          EXPECT_EQ(sssp.stats.visits, sssp.stats.pushes) << where;
          const auto cc = async_cc(*u.g, cfg(threads));
          EXPECT_EQ(cc.component, cc_ref.component) << where;
          EXPECT_EQ(cc.stats.visits, cc.stats.pushes) << where;
          EXPECT_EQ(dev.inflight(), 0u) << where;
        }
      }
    }
  }
}

TEST_F(SemPipelineGraphs, EveryExpansionIsChargedOnce) {
  // Without a cache every expansion of a non-empty list charges one device
  // read per range, and the sync backend takes one request per range: the
  // two counts agree exactly when no booking is charged twice or dropped.
  const csr32 directed = rmat_graph<vertex32>(rmat_a(10, 3));
  const csr32 weighted =
      add_weights(directed, weight_scheme::uniform, 3);
  for (const bool is_weighted : {false, true}) {
    const std::string path =
        write_tmp(is_weighted ? weighted : directed,
                  is_weighted ? "once_w" : "once_d");
    for (const std::size_t threads : {1u, 3u}) {
      sem::ssd_model dev(test_device());
      sem::sem_csr32 sg(path, &dev);
      if (is_weighted) {
        (void)async_sssp(sg, vertex32{0}, cfg(threads));
      } else {
        (void)async_bfs(sg, vertex32{0}, cfg(threads));
      }
      const std::uint64_t requests = sg.backend().counters().requests;
      EXPECT_GT(requests, 0u);
      EXPECT_EQ(dev.counters().reads, requests)
          << "weighted=" << is_weighted << " threads=" << threads;
    }
  }
}

TEST_F(SemPipelineGraphs, OneLaneKeepsSeveralReadsInFlight) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10, 3));
  const std::string path = write_tmp(g, "one_lane");
  sem::ssd_model dev(test_device(8, 200.0));
  sem::sem_csr32 sg(path, &dev);
  const auto r = async_bfs(sg, vertex32{0}, cfg(1));
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
  // Depth ceil(2 x 8 / 1): a queued read behind every channel's read.
  EXPECT_GT(dev.counters().max_inflight, 8u);
  EXPECT_LE(dev.counters().max_inflight, 16u);
  EXPECT_EQ(dev.inflight(), 0u);
}

TEST_F(SemPipelineGraphs, ThreeLanesKeepAboutTwoReadsPerChannel) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10, 3));
  const std::string path = write_tmp(g, "three_lanes");
  sem::ssd_model dev(test_device(8, 200.0));
  sem::sem_csr32 sg(path, &dev);
  const auto r = async_bfs(sg, vertex32{0}, cfg(3));
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
  // Each lane holds at most ceil(2 x 8 / 3) = 6 reads, one per visitor on
  // an unweighted graph: the total exceeds one read per channel (at most
  // 3 x ceil(8 / 3) = 9) and stays near two per channel.
  EXPECT_GT(dev.counters().max_inflight, 9u);
  EXPECT_LE(dev.counters().max_inflight, 3u * 6u);
  EXPECT_EQ(dev.inflight(), 0u);
}

TEST_F(SemPipelineGraphs, MediaErrorWithReadsPendingAbortsCleanly) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10, 3));
  const std::string path = write_tmp(g, "bad");
  const auto ref = serial_bfs(g, vertex32{0});
  sem::ssd_model dev(test_device(8, 200.0));
  sem::sem_csr32 sg(path, &dev);
  // A persistent bad range in the second half of the targets section: the
  // root's neighbourhood reads fine, so the lane holds other visitors'
  // reads when a host read finally hits the bad range.
  const std::uint64_t targets =
      agt_targets_pos<vertex32>(g.num_vertices());
  sem::fault_config fc;
  fc.bad_begin = targets + g.num_edges() * sizeof(vertex32) / 2;
  fc.bad_end = fc.bad_begin + 64;
  sem::fault_injector inj(fc);
  sem::io_retry_policy retry;
  retry.max_retries = 1;
  retry.backoff_initial_us = 1;
  retry.backoff_max_us = 2;
  sg.set_retry_policy(retry);
  sg.set_fault_injector(&inj);

  engine eng({.pool_threads = 1});
  const auto opts = traversal_options{cfg(1)};
  try {
    (void)eng.submit_bfs(sg, vertex32{0}, opts).get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_TRUE(e.has_vertex()) << e.what();
    EXPECT_NE(std::string(e.what()).find("at vertex"), std::string::npos)
        << e.what();
    ASSERT_NE(e.cause(), nullptr);
    EXPECT_THROW(std::rethrow_exception(e.cause()), sem::io_error);
  }
  EXPECT_GT(dev.counters().max_inflight, 1u);
  EXPECT_EQ(dev.inflight(), 0u);

  inj.disarm();
  const auto again = eng.submit_bfs(sg, vertex32{0}, opts).get();
  EXPECT_EQ(again.level, ref.level);
  EXPECT_EQ(again.stats.visits, again.stats.pushes);
  EXPECT_EQ(dev.inflight(), 0u);
}

TEST_F(SemPipelineGraphs, DeadlineAndCancelWithReadsPendingLeaveNoReads) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10, 3));
  const std::string path = write_tmp(g, "slow");
  const auto ref = serial_bfs(g, vertex32{0});
  // 2 ms reads on 4 channels: a full BFS takes hundreds of milliseconds,
  // far past the 20 ms deadline.
  sem::ssd_model dev(test_device(4, 2000.0));
  sem::sem_csr32 sg(path, &dev);
  engine eng({.pool_threads = 2});
  const traversal_options opts{cfg(2)};

  try {
    (void)eng.submit_bfs(sg, vertex32{0},
                         traversal_options{opts}.with_deadline_ms(20))
        .get();
    FAIL() << "expected a deadline abort";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::deadline_exceeded) << e.what();
  }
  EXPECT_EQ(dev.inflight(), 0u);

  auto j = eng.submit_bfs(sg, vertex32{0}, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  j.cancel();
  try {
    (void)j.get();
    // A cancel that lands after completion is allowed to lose the race.
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::cancelled) << e.what();
  }
  EXPECT_EQ(dev.inflight(), 0u);

  const auto done = eng.submit_bfs(sg, vertex32{0}, opts).get();
  EXPECT_EQ(done.level, ref.level);
  EXPECT_EQ(dev.inflight(), 0u);
}

}  // namespace
}  // namespace asyncgt
