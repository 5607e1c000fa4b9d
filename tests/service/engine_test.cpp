// asyncgt::engine — the session API of the traversal service
// (docs/service_api.md). Covered here:
//
//   * the PR acceptance criterion: a warm engine running 8 back-to-back
//     BFS jobs spawns threads exactly once, visible both on the pool's
//     lifetime counter and the service.pool.spawned_threads gauge;
//   * option resolution (submit opts win, engine defaults fill sinks);
//   * every named submit_* agrees with the serial baselines;
//   * cooperative cancellation through the job handle (surfaces as
//     traversal_aborted, engine stays reusable);
//   * per-job failure containment: a worker fault or a fatal SEM I/O error
//     kills only its own job, concurrent jobs and later jobs are untouched.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {
namespace {

traversal_options threads(std::size_t n) {
  return traversal_options{}.with_threads(n);
}

// ---- acceptance: zero spawns after warm-up ------------------------------

TEST(Engine, WarmPoolSpawnsThreadsExactlyOnceAcrossEightJobs) {
  telemetry::metrics_registry reg(8);
  engine::config c;
  c.pool_threads = 8;
  c.defaults = threads(8).with_metrics(&reg);
  engine eng(std::move(c));
  EXPECT_EQ(eng.pool().threads_spawned(), 8u);

  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  const auto expected = serial_bfs(g, vertex32{0});
  for (int i = 0; i < 8; ++i) {
    const auto r = eng.submit_bfs(g, vertex32{0}).get();
    EXPECT_EQ(r.level, expected.level);
  }

  // The pool never re-spawned: lifetime counter frozen at the pool width,
  // and the service gauge the engine stamps into the job registry agrees.
  EXPECT_EQ(eng.pool().threads_spawned(), 8u);
  EXPECT_EQ(reg.get_gauge("service.pool.spawned_threads").get(), 8);
  EXPECT_EQ(reg.get_counter("service.jobs").total(), 8u);
  EXPECT_EQ(eng.jobs_submitted(), 8u);
  // get() returns as the result is set, a beat before the job's accounting
  // retires it — quiesce before reading the active counter.
  eng.wait_idle();
  EXPECT_EQ(eng.active_jobs(), 0u);
}

TEST(Engine, PoolGrowsToWidestJobThenStaysWarm) {
  engine eng;  // no pre-warm: grows on demand
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  eng.submit_bfs(g, vertex32{0}, threads(4)).get();
  EXPECT_EQ(eng.pool().threads_spawned(), 4u);
  eng.submit_bfs(g, vertex32{0}, threads(8)).get();
  EXPECT_EQ(eng.pool().threads_spawned(), 8u);
  // Narrower and equal jobs afterwards reuse the warm threads.
  eng.submit_bfs(g, vertex32{0}, threads(2)).get();
  eng.submit_bfs(g, vertex32{0}, threads(8)).get();
  EXPECT_EQ(eng.pool().threads_spawned(), 8u);
}

TEST(Engine, SubmitOptionsWinAndDefaultSinksFillGaps) {
  telemetry::metrics_registry reg(8);
  engine::config c;
  c.defaults = threads(2).with_metrics(&reg);
  engine eng(std::move(c));

  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  // Per-submit options carry no metrics sink: the engine must fill it from
  // its defaults, so the job still lands in `reg`.
  eng.submit_bfs(g, vertex32{0}, threads(4)).get();
  EXPECT_EQ(reg.get_counter("service.jobs").total(), 1u);
  // ...and the submit's thread count (not the default 2) sized the job.
  EXPECT_EQ(eng.pool().threads_spawned(), 4u);
}

// ---- the named submits agree with the serial baselines ------------------

TEST(Engine, NamedSubmitsMatchSerialBaselines) {
  engine eng({.pool_threads = 8, .defaults = threads(8)});
  const csr32 g = add_weights(rmat_graph_undirected<vertex32>(rmat_a(10)),
                              weight_scheme::uniform, 3);

  const auto bfs = eng.submit_bfs(g, vertex32{0}).get();
  EXPECT_EQ(bfs.level, serial_bfs(g, vertex32{0}).level);

  const auto sssp = eng.submit_sssp(g, vertex32{0}).get();
  EXPECT_EQ(sssp.dist, dijkstra_sssp(g, vertex32{0}).dist);

  const auto cc = eng.submit_cc(g).get();
  EXPECT_EQ(cc.num_components(), serial_cc(g).num_components());

  const std::vector<vertex32> sources{0, 1, 2};
  const auto ms = eng.submit_multi_source_bfs(g, sources).get();
  EXPECT_EQ(ms.level[0], 0u);
  EXPECT_EQ(ms.level[1], 0u);
  EXPECT_EQ(ms.level[2], 0u);

  const auto pr = eng.submit_pagerank(g, pagerank_options{}).get();
  EXPECT_EQ(pr.rank.size(), g.num_vertices());

  const auto kc = eng.submit_kcore(g).get();
  EXPECT_EQ(kc.core.size(), g.num_vertices());

  // Per-job stats ride in every result.
  EXPECT_GT(bfs.stats.visits, 0u);
  EXPECT_GT(cc.stats.visits, 0u);
}

// ---- cancellation -------------------------------------------------------

// Self-sustaining ring: every visit pushes its successor, so the traversal
// never terminates on its own — the only way out is the abort broadcast.
struct ring_state {
  std::uint64_t n = 0;
  std::vector<padded<std::uint64_t>> visits_per_thread;
  ring_state(std::uint64_t size, std::size_t nthreads)
      : n(size), visits_per_thread(nthreads) {}
};

struct ring_visitor {
  std::uint32_t vtx{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return 0; }
  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    ++s.visits_per_thread[tid].value;
    q.push(ring_visitor{static_cast<std::uint32_t>((vtx + 1) % s.n)});
  }
};

TEST(Engine, CancelUnwindsANeverTerminatingJob) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  auto j = eng.submit_traversal<ring_visitor>(
      threads(4), ring_state(1 << 10, 4),
      [](auto& q, auto&) { q.push(ring_visitor{0}); },
      [](ring_state& s, queue_run_stats) {
        std::uint64_t total = 0;
        for (const auto& v : s.visits_per_thread) total += v.value;
        return total;
      });

  // Let it spin for a moment, then pull the plug through the handle.
  while (j.pending() == 0) {
  }
  EXPECT_FALSE(j.done());
  j.cancel();
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
  }

  // The engine (and its pool) survive: a fresh job on the same engine runs
  // to the correct fixed point with no new threads.
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const auto r = eng.submit_bfs(g, vertex32{0}).get();
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
  EXPECT_EQ(eng.pool().threads_spawned(), 4u);
}

TEST(Engine, CancelAfterCompletionIsANoOp) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  auto j = eng.submit_bfs(g, vertex32{0});
  j.wait();
  EXPECT_TRUE(j.done());
  j.cancel();  // idempotent, must not poison the delivered result
  EXPECT_EQ(j.get().level, serial_bfs(g, vertex32{0}).level);
}

// ---- failure containment ------------------------------------------------

// Implicit-binary-tree visitor with one bomb vertex (the traversal_abort
// test's idiom): detonation aborts the traversal mid-flight.
struct bomb_state {
  std::uint64_t n = 0;
  std::uint32_t bomb = ~std::uint32_t{0};
  bomb_state(std::uint64_t size, std::uint32_t b) : n(size), bomb(b) {}
};

struct bomb_visitor {
  std::uint32_t vtx{};
  std::uint32_t depth{};
  std::uint32_t vertex() const noexcept { return vtx; }
  std::uint32_t priority() const noexcept { return depth; }
  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t) const {
    if (vtx == s.bomb) throw std::runtime_error("bomb vertex visited");
    const std::uint64_t left = 2ULL * vtx + 1;
    const std::uint64_t right = 2ULL * vtx + 2;
    if (left < s.n) {
      q.push(bomb_visitor{static_cast<std::uint32_t>(left), depth + 1});
    }
    if (right < s.n) {
      q.push(bomb_visitor{static_cast<std::uint32_t>(right), depth + 1});
    }
  }
};

TEST(Engine, WorkerFaultKillsOnlyItsOwnJob) {
  engine eng({.pool_threads = 8, .defaults = threads(4)});
  const csr32 g = rmat_graph<vertex32>(rmat_a(11));
  const auto expected = serial_bfs(g, vertex32{0});

  // A healthy BFS and a doomed job in flight together on one pool.
  auto good = eng.submit_bfs(g, vertex32{0});
  auto doomed = eng.submit_traversal<bomb_visitor>(
      threads(4), bomb_state(1 << 14, 7777),
      [](auto& q, auto&) { q.push(bomb_visitor{0, 0}); },
      [](bomb_state&, queue_run_stats stats) { return stats.visits; });

  try {
    doomed.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    ASSERT_TRUE(e.cause());
    EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
  }
  // The concurrent job never noticed.
  EXPECT_EQ(good.get().level, expected.level);

  // And the engine serves the next query cleanly.
  EXPECT_EQ(eng.submit_bfs(g, vertex32{0}).get().level, expected.level);
}

TEST(Engine, FatalSemFaultSurfacesThroughJobHandle) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("agt_engine_fatal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const std::string path = (dir / "g.agt").string();
  write_graph(path, g);

  sem::fault_config fc;
  fc.seed = 7;
  fc.p_eio = 0.5;
  fc.fatal = true;  // non-retryable: the job must abort, not absorb
  sem::fault_injector inj(fc);
  sem::sem_csr32 faulty(path);
  faulty.set_fault_injector(&inj);

  engine eng({.pool_threads = 8, .defaults = threads(8)});
  auto j = eng.submit_bfs(faulty, vertex32{0});
  EXPECT_THROW(j.get(), traversal_aborted);

  // Same engine, healthy storage: service unaffected by the dead job.
  sem::sem_csr32 clean(path);
  const auto r = eng.submit_bfs(clean, vertex32{0}).get();
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
  std::filesystem::remove_all(dir);
}

// ---- free functions ride the process-default engine ---------------------

TEST(Engine, FreeFunctionsReuseTheProcessDefaultPool) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  async_bfs(g, vertex32{0}, threads(4));  // warm-up at width 4
  const std::uint64_t warm =
      engine::process_default().pool().threads_spawned();
  for (int i = 0; i < 4; ++i) async_bfs(g, vertex32{0}, threads(4));
  EXPECT_EQ(engine::process_default().pool().threads_spawned(), warm);
}


// ---- submit-time option checks -----------------------------------------

TEST(Engine, SubmitRejectsACacheFractionAboveOne) {
  engine eng(engine::config{.pool_threads = 2, .defaults = threads(2)});
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  for (const double bad : {1.5, 1e9, std::numeric_limits<double>::quiet_NaN()}) {
    traversal_options o = threads(2);
    o.cache_fraction = bad;
    SCOPED_TRACE("cache_fraction=" + std::to_string(bad));
    EXPECT_THROW((void)eng.submit_bfs(g, vertex32{0}, o),
                 std::invalid_argument);
    EXPECT_THROW((void)eng.submit_cc(g, o), std::invalid_argument);
  }
  // 1 (the whole file) and a negative "caller decides" are fine.
  for (const double ok : {1.0, 0.0, -1.0}) {
    traversal_options o = threads(2);
    o.cache_fraction = ok;
    EXPECT_NO_THROW(eng.submit_bfs(g, vertex32{0}, o).get());
  }
}

TEST(Engine, SubmitRejectsNonPositiveHybridThresholds) {
  engine eng(engine::config{.pool_threads = 2, .defaults = threads(2)});
  csr32 g = rmat_graph_undirected<vertex32>(rmat_a(8));
  g.ensure_reverse();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [alpha, beta] : {std::pair{0.0, 24.0}, {-1.0, 24.0},
                                    {14.0, 0.0}, {14.0, -3.0}, {nan, 24.0},
                                    {14.0, nan}}) {
    traversal_options o = threads(2);
    o.hybrid_alpha = alpha;
    o.hybrid_beta = beta;
    SCOPED_TRACE("alpha=" + std::to_string(alpha) +
                 " beta=" + std::to_string(beta));
    EXPECT_THROW((void)eng.submit_hybrid_bfs(g, vertex32{0}, o),
                 std::invalid_argument);
    EXPECT_THROW((void)eng.submit_hybrid_cc(g, o), std::invalid_argument);
    EXPECT_THROW((void)eng.submit_bfs(g, vertex32{0}, o),
                 std::invalid_argument);
  }
  EXPECT_EQ(eng.jobs_submitted(), 0u);
  traversal_options o = threads(2);
  o.hybrid_alpha = 1e-9;
  o.hybrid_beta = 1e-9;
  EXPECT_NO_THROW(eng.submit_hybrid_cc(g, o).get());
}

}  // namespace
}  // namespace asyncgt
