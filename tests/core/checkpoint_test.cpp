#include "core/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_sssp.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_kcore.hpp"
#include "core/async_pagerank.hpp"
#include "core/async_sssp.hpp"
#include "core/multi_source_bfs.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "util/crc32.hpp"

namespace asyncgt {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

visitor_queue_config threads(std::size_t n) {
  visitor_queue_config cfg;
  cfg.num_threads = n;
  return cfg;
}

/// Options of a job that checkpoints on error to `path`.
traversal_options checkpointing(std::size_t n, const std::string& path) {
  traversal_options o(threads(n));
  o.checkpoint_path = path;
  return o;
}

/// csr32 whose adjacency scans fail after `budget` of them — an in-memory
/// stand-in for a fatal storage error partway through a run. It records
/// which vertices were expanded, so a test can find the labels the run
/// claimed on arrival but never expanded. Each vertex is expanded only on
/// its owner's thread, so the flags need no synchronization.
class failing_graph {
 public:
  using vertex_id = vertex32;

  failing_graph(const csr32& g, std::uint64_t budget)
      : g_(&g), budget_(budget), expanded_(g.num_vertices(), 0) {}

  std::uint64_t num_vertices() const noexcept { return g_->num_vertices(); }
  std::uint64_t num_edges() const noexcept { return g_->num_edges(); }
  std::uint64_t out_degree(vertex32 v) const noexcept {
    return g_->out_degree(v);
  }

  template <typename F>
  void for_each_out_edge(vertex32 v, F&& f) const {
    if (scans_.fetch_add(1, std::memory_order_relaxed) >= budget_) {
      throw std::runtime_error("injected storage failure");
    }
    expanded_[v] = 1;
    g_->for_each_out_edge(v, std::forward<F>(f));
  }

  /// Labelled in `label` but never expanded by the aborted run.
  std::uint64_t claimed_unexpanded(const std::vector<dist_t>& label) const {
    std::uint64_t n = 0;
    for (std::size_t v = 0; v < label.size(); ++v) {
      n += label[v] != infinite_distance<dist_t> && expanded_[v] == 0;
    }
    return n;
  }

 private:
  const csr32* g_;
  std::uint64_t budget_;
  mutable std::atomic<std::uint64_t> scans_{0};
  mutable std::vector<std::uint8_t> expanded_;
};

/// csr32 whose adjacency scans block after `budget` of them until
/// release(): a run that cannot finish before the test cancels it.
class gated_graph {
 public:
  using vertex_id = vertex32;

  gated_graph(const csr32& g, std::uint64_t budget) : g_(&g), budget_(budget) {}

  std::uint64_t num_vertices() const noexcept { return g_->num_vertices(); }
  std::uint64_t num_edges() const noexcept { return g_->num_edges(); }
  std::uint64_t out_degree(vertex32 v) const noexcept {
    return g_->out_degree(v);
  }

  template <typename F>
  void for_each_out_edge(vertex32 v, F&& f) const {
    if (scans_.fetch_add(1, std::memory_order_relaxed) >= budget_) {
      blocked_.store(true, std::memory_order_relaxed);
      while (!released_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    g_->for_each_out_edge(v, std::forward<F>(f));
  }

  bool blocked() const { return blocked_.load(std::memory_order_relaxed); }
  void release() { released_.store(true, std::memory_order_relaxed); }

 private:
  const csr32* g_;
  std::uint64_t budget_;
  mutable std::atomic<std::uint64_t> scans_{0};
  mutable std::atomic<bool> blocked_{false};
  std::atomic<bool> released_{false};
};

/// Submits through `submit` over a gated copy of `g`, cancels the job while
/// a scan is blocked, and returns the snapshot the cancelled job wrote.
template <typename Submit>
traversal_checkpoint<vertex32> cancel_mid_run(const csr32& g,
                                              const std::string& ckpt,
                                              checkpoint_kind kind,
                                              Submit submit) {
  gated_graph gg(g, 50);
  auto j = submit(gg);
  while (!gg.blocked()) std::this_thread::yield();
  j.cancel();
  gg.release();
  try {
    j.get();
    ADD_FAILURE() << "a cancelled job delivered a result";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::cancelled);
  }
  EXPECT_EQ(j.stats().outcome, "cancelled");
  return load_checkpoint<vertex32>(ckpt, kind);
}

/// Holds the only pooled worker of `eng` with a BFS blocked on a gated
/// graph, submits a checkpointing job through `submit` (it waits for that
/// worker), lets `abort` end it while it waits, then frees the worker. The
/// job aborts before any worker visits its seeds; returns its snapshot.
template <typename Submit, typename Abort>
traversal_checkpoint<vertex32> abort_before_first_visit(
    engine& eng, const csr32& g, const std::string& ckpt,
    checkpoint_kind kind, abort_reason reason, Submit submit, Abort abort) {
  gated_graph held(g, 0);
  auto blocker = eng.submit_bfs(held, vertex32{0}, threads(1));
  while (!held.blocked()) std::this_thread::yield();
  auto j = submit();
  abort(j);
  held.release();
  blocker.get();
  try {
    j.get();
    ADD_FAILURE() << "an aborted job delivered a result";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), reason);
  }
  return load_checkpoint<vertex32>(ckpt, kind);
}

std::uint64_t labelled(const traversal_checkpoint<vertex32>& cp) {
  std::uint64_t n = 0;
  for (const dist_t l : cp.label) n += l != infinite_distance<dist_t>;
  return n;
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  EXPECT_EQ(crc32::of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32::of("", 0), 0x00000000u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  crc32 inc;
  inc.update(data, 10);
  inc.update(data + 10, sizeof(data) - 1 - 10);
  EXPECT_EQ(inc.value(), crc32::of(data, sizeof(data) - 1));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> buf(1024, 0xAB);
  const std::uint32_t clean = crc32::of(buf.data(), buf.size());
  buf[512] ^= 0x01;
  EXPECT_NE(crc32::of(buf.data(), buf.size()), clean);
}

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::sssp;
  cp.label = {0, 5, infinite_distance<dist_t>, 9};
  cp.parent = {0, 0, invalid_vertex<vertex32>, 1};
  save_checkpoint(path("s.ckpt"), cp);
  const auto loaded =
      load_checkpoint<vertex32>(path("s.ckpt"), checkpoint_kind::sssp);
  EXPECT_EQ(loaded.label, cp.label);
  EXPECT_EQ(loaded.parent, cp.parent);
}

TEST_F(CheckpointTest, KindMismatchRejected) {
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::bfs;
  cp.label = {0};
  cp.parent = {0};
  save_checkpoint(path("k.ckpt"), cp);
  EXPECT_THROW(
      load_checkpoint<vertex32>(path("k.ckpt"), checkpoint_kind::sssp),
      std::runtime_error);
  // Resuming refuses a snapshot of the other algorithm as well.
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  cp.label.assign(g.num_vertices(), infinite_distance<dist_t>);
  cp.parent.assign(g.num_vertices(), invalid_vertex<vertex32>);
  cp.label[0] = 0;
  cp.parent[0] = 0;
  EXPECT_THROW(resume_sssp(g, cp, threads(1)), std::invalid_argument);
}

TEST_F(CheckpointTest, WidthMismatchRejected) {
  traversal_checkpoint<vertex32> cp;
  cp.label = {0};
  cp.parent = {0};
  save_checkpoint(path("w.ckpt"), cp);
  EXPECT_THROW(
      load_checkpoint<vertex64>(path("w.ckpt"), checkpoint_kind::bfs),
      std::runtime_error);
}

TEST_F(CheckpointTest, TornFileFailsCrc) {
  traversal_checkpoint<vertex32> cp;
  cp.label.assign(1000, 3);
  cp.parent.assign(1000, 1);
  save_checkpoint(path("t.ckpt"), cp);
  std::filesystem::resize_file(path("t.ckpt"),
                               std::filesystem::file_size(path("t.ckpt")) -
                                   64);
  EXPECT_THROW(
      load_checkpoint<vertex32>(path("t.ckpt"), checkpoint_kind::bfs),
      std::runtime_error);
}

TEST_F(CheckpointTest, CorruptedByteFailsCrc) {
  traversal_checkpoint<vertex32> cp;
  cp.label.assign(100, 7);
  cp.parent.assign(100, 2);
  save_checkpoint(path("c.ckpt"), cp);
  // Flip one byte in the middle of the payload.
  std::FILE* f = std::fopen(path("c.ckpt").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 200, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);
  EXPECT_THROW(
      load_checkpoint<vertex32>(path("c.ckpt"), checkpoint_kind::bfs),
      std::runtime_error);
}

// Simulates a crash: take a completed run, erase the labels of a random
// subset of vertices back to "unvisited" (a conservative stand-in for any
// intermediate state — labels present are exact, labels missing are lost),
// checkpoint, resume, and require the exact full-run fixed point.
TEST_F(CheckpointTest, ResumeBfsFromPartialState) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const auto full = serial_bfs(g, vertex32{0});
  std::mt19937 rng(5);
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::bfs;
  cp.label = full.level;
  cp.parent = full.parent;
  for (std::size_t v = 1; v < cp.label.size(); ++v) {
    if (rng() % 2 == 0) {
      cp.label[v] = infinite_distance<dist_t>;
      cp.parent[v] = invalid_vertex<vertex32>;
    }
  }
  save_checkpoint(path("b.ckpt"), cp);
  const auto loaded =
      load_checkpoint<vertex32>(path("b.ckpt"), checkpoint_kind::bfs);
  const auto resumed = resume_bfs(g, loaded, threads(8));
  EXPECT_EQ(resumed.level, full.level);
}

TEST_F(CheckpointTest, ResumeSsspFromPartialState) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(9)), weight_scheme::uniform, 2);
  const auto full = dijkstra_sssp(g, vertex32{0});
  std::mt19937 rng(11);
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::sssp;
  cp.label = full.dist;
  cp.parent = full.parent;
  for (std::size_t v = 1; v < cp.label.size(); ++v) {
    if (rng() % 3 == 0) {
      cp.label[v] = infinite_distance<dist_t>;
      cp.parent[v] = invalid_vertex<vertex32>;
    }
  }
  save_checkpoint(path("s2.ckpt"), cp);
  const auto loaded =
      load_checkpoint<vertex32>(path("s2.ckpt"), checkpoint_kind::sssp);
  const auto resumed = resume_sssp(g, loaded, threads(8));
  EXPECT_EQ(resumed.dist, full.dist);
}

TEST_F(CheckpointTest, ResumeWithStaleTooHighLabelsStillConverges) {
  // Labels in a checkpoint might be non-final (too high) if the snapshot
  // was taken mid-run; label correction must push them down to the fixed
  // point. Simulate by inflating a subset of finite labels.
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_b(9)), weight_scheme::uniform, 4);
  const auto full = dijkstra_sssp(g, vertex32{0});
  std::mt19937 rng(13);
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::sssp;
  cp.label = full.dist;
  cp.parent = full.parent;
  // NOTE: inflating a label invalidates its parent edge tightness; resume
  // fixes labels, and parents follow the corrected labels.
  std::size_t inflated = 0;
  for (std::size_t v = 1; v < cp.label.size(); ++v) {
    if (cp.label[v] != infinite_distance<dist_t> && rng() % 4 == 0) {
      cp.label[v] += 1 + rng() % 1000;
      ++inflated;
    }
  }
  ASSERT_GT(inflated, 0u);
  const auto resumed = resume_sssp(g, cp, threads(8));
  EXPECT_EQ(resumed.dist, full.dist);
}

// A real abort, not a simulated one: the visitors claim labels when their
// owner drains them, so the emergency checkpoint of a run that fails
// mid-way holds labels whose out-edges were never relaxed. Resume must
// still land on the serial labels.
TEST_F(CheckpointTest, EmergencyBfsCheckpointWithClaimedLabelsResumes) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(11));
  const auto full = serial_bfs(g, vertex32{0});
  failing_graph fg(g, 100);
  EXPECT_THROW(async_bfs(fg, vertex32{0}, checkpointing(4, path("e.ckpt"))),
               traversal_aborted);
  const auto cp =
      load_checkpoint<vertex32>(path("e.ckpt"), checkpoint_kind::bfs);
  ASSERT_GT(fg.claimed_unexpanded(cp.label), 0u);
  const auto resumed = resume_bfs(g, cp, threads(4));
  EXPECT_EQ(resumed.level, full.level);
}

TEST_F(CheckpointTest, EmergencySsspCheckpointWithClaimedLabelsResumes) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(11)), weight_scheme::uniform, 6);
  const auto full = dijkstra_sssp(g, vertex32{0});
  failing_graph fg(g, 100);
  EXPECT_THROW(async_sssp(fg, vertex32{0}, checkpointing(4, path("es.ckpt"))),
               traversal_aborted);
  const auto cp =
      load_checkpoint<vertex32>(path("es.ckpt"), checkpoint_kind::sssp);
  ASSERT_GT(fg.claimed_unexpanded(cp.label), 0u);
  const auto resumed = resume_sssp(g, cp, threads(4));
  EXPECT_EQ(resumed.dist, full.dist);
}

TEST_F(CheckpointTest, CancelledBfsJobWritesACheckpointThatResumes) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(11));
  const auto full = serial_bfs(g, vertex32{0});
  engine eng({.pool_threads = 4});
  const auto cp = cancel_mid_run(
      g, path("cb.ckpt"), checkpoint_kind::bfs, [&](const gated_graph& gg) {
        return eng.submit_bfs(gg, vertex32{0}, checkpointing(4, path("cb.ckpt")));
      });
  ASSERT_GT(labelled(cp), 0u);
  ASSERT_LT(labelled(cp), full.visited_count());
  const auto resumed =
      eng.submit_bfs(g, resume_run<bfs_result<vertex32>>(g, cp), threads(4))
          .get();
  EXPECT_EQ(resumed.level, full.level);
}

TEST_F(CheckpointTest, CancelledSsspJobWritesACheckpointThatResumes) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(11)), weight_scheme::uniform, 8);
  const auto full = dijkstra_sssp(g, vertex32{0});
  engine eng({.pool_threads = 4});
  const auto cp = cancel_mid_run(
      g, path("cs.ckpt"), checkpoint_kind::sssp, [&](const gated_graph& gg) {
        return eng.submit_sssp(gg, vertex32{0},
                               checkpointing(4, path("cs.ckpt")));
      });
  const auto resumed =
      eng.submit_sssp(g, resume_run<sssp_result<vertex32>>(g, cp), threads(4))
          .get();
  EXPECT_EQ(resumed.dist, full.dist);
}

// A seed is labelled only when a worker claims it. A job that times out
// while the pool is busy with another job has claimed nothing, so its
// snapshot must carry the seed itself, or the resume has nothing to seed
// and "succeeds" with every vertex unreached.
TEST_F(CheckpointTest, BfsJobPastItsDeadlineBeforeAnyVisitCheckpointsItsSeed) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  const auto full = serial_bfs(g, vertex32{0});
  engine eng({.pool_threads = 1});
  auto opts = checkpointing(1, path("db.ckpt"));
  opts.deadline_ms = 20;
  const auto cp = abort_before_first_visit(
      eng, g, path("db.ckpt"), checkpoint_kind::bfs,
      abort_reason::deadline_exceeded,
      [&] { return eng.submit_bfs(g, vertex32{0}, opts); },
      [&](auto&) {
        while (eng.watchdog_deadline_fires() == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  EXPECT_EQ(labelled(cp), 1u);
  EXPECT_EQ(cp.label[0], 0u);
  const auto resumed =
      eng.submit_bfs(g, resume_run<bfs_result<vertex32>>(g, cp), threads(1))
          .get();
  EXPECT_EQ(resumed.level, full.level);
}

TEST_F(CheckpointTest, SsspJobCancelledBeforeAnyVisitCheckpointsItsSeed) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(10)), weight_scheme::uniform, 9);
  const auto full = dijkstra_sssp(g, vertex32{3});
  engine eng({.pool_threads = 1});
  const auto cp = abort_before_first_visit(
      eng, g, path("ds.ckpt"), checkpoint_kind::sssp, abort_reason::cancelled,
      [&] {
        return eng.submit_sssp(g, vertex32{3},
                               checkpointing(1, path("ds.ckpt")));
      },
      [](auto& j) { j.cancel(); });
  EXPECT_EQ(labelled(cp), 1u);
  EXPECT_EQ(cp.label[3], 0u);
  const auto resumed =
      eng.submit_sssp(g, resume_run<sssp_result<vertex32>>(g, cp), threads(1))
          .get();
  EXPECT_EQ(resumed.dist, full.dist);
}

// A multi-source BFS is a BFS run: its snapshot resumes like any other,
// to the nearest-source levels.
TEST_F(CheckpointTest, MultiSourceBfsJobCheckpointsLikeAnyBfs) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  const std::vector<vertex32> sources{0, 7, 100};
  engine eng({.pool_threads = 1});
  const auto want = eng.submit_multi_source_bfs(g, sources, threads(1)).get();
  const auto cp = abort_before_first_visit(
      eng, g, path("ms.ckpt"), checkpoint_kind::bfs, abort_reason::cancelled,
      [&] {
        return eng.submit_multi_source_bfs(g, sources,
                                           checkpointing(1, path("ms.ckpt")));
      },
      [](auto& j) { j.cancel(); });
  EXPECT_EQ(labelled(cp), sources.size());
  const auto resumed =
      eng.submit_bfs(g, resume_run<bfs_result<vertex32>>(g, cp), threads(1))
          .get();
  EXPECT_EQ(resumed.level, want.level);
}

// Only BFS and SSSP jobs can snapshot their labels. Every other submit
// refuses a checkpoint path before the job is admitted, instead of
// silently ignoring it.
TEST_F(CheckpointTest, OnlyBfsAndSsspJobsAcceptACheckpointPath) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(8));
  engine eng({.pool_threads = 2});
  const auto opts = checkpointing(2, path("x.ckpt"));
  EXPECT_THROW(eng.submit_cc(g, opts), std::invalid_argument);
  EXPECT_THROW(eng.submit_pagerank(g, pagerank_options{}, opts),
               std::invalid_argument);
  EXPECT_THROW(eng.submit_kcore(g, opts), std::invalid_argument);
  EXPECT_EQ(eng.counters().submitted, 0u);
  // A BFS job that completes writes nothing.
  EXPECT_EQ(eng.submit_bfs(g, vertex32{0}, opts).get().level,
            serial_bfs(g, vertex32{0}).level);
  EXPECT_FALSE(std::filesystem::exists(path("x.ckpt")));
}

TEST_F(CheckpointTest, ResumeSizeMismatchRejected) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(6));
  traversal_checkpoint<vertex32> cp;
  cp.label = {0};
  cp.parent = {0};
  EXPECT_THROW(resume_bfs(g, cp, threads(1)), std::invalid_argument);
}

}  // namespace
}  // namespace asyncgt
