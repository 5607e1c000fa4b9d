// Job-scoped telemetry through the service layer (ISSUE 6 tentpole).
// Covered here:
//
//   * the conservation invariant at engine level: J concurrent mixed jobs'
//     per-job visit/push counters sum EXACTLY to the shared registry's
//     deltas (the same records are mirrored into both sinks — no sampling,
//     no drift). Runs under tsan via the tsan preset;
//   * job handles expose stats(): id, label, terminal flags, counters, and
//     lifecycle latencies that are consistent (total >= wait, total >= run);
//   * a handle's stats() observed right after get() returns already shows
//     the terminal snapshot (completion accounting strictly precedes
//     promise fulfillment);
//   * the completed-job ring (engine::recent_jobs) retains the last N
//     summaries and evicts the oldest;
//   * engine-lifetime lifecycle histograms sample once per completed job;
//   * cancelled and failed jobs latch the matching flags (cancelled wins
//     over failed for a cancellation abort);
//   * completed jobs land lifecycle spans (submit->admit->gang-run) on
//     their own Chrome-trace track.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
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

// ---- conservation -------------------------------------------------------

TEST(JobStats, ConcurrentJobsConserveAgainstTheSharedRegistry) {
  telemetry::metrics_registry reg(8);
  engine eng({.pool_threads = 8, .defaults = threads(2).with_metrics(&reg)});
  const csr32 g = add_weights(rmat_graph_undirected<vertex32>(rmat_a(10)),
                              weight_scheme::uniform, 3);

  const std::uint64_t visits_before = reg.get_counter("queue.visits").total();
  const std::uint64_t pushes_before = reg.get_counter("queue.pushes").total();

  // Four genuinely-overlapping mixed jobs on one pool (2 lanes each, 8
  // slots): the per-job attribution must tell their counters apart even
  // though every lane writes the same shared registry.
  auto b0 = eng.submit_bfs(g, vertex32{0});
  auto s1 = eng.submit_sssp(g, vertex32{1});
  auto c2 = eng.submit_cc(g);
  auto b3 = eng.submit_bfs(g, vertex32{2});

  EXPECT_EQ(b0.get().level, serial_bfs(g, vertex32{0}).level);
  EXPECT_EQ(s1.get().dist, dijkstra_sssp(g, vertex32{1}).dist);
  EXPECT_EQ(c2.get().num_components(), serial_cc(g).num_components());
  EXPECT_EQ(b3.get().level, serial_bfs(g, vertex32{2}).level);
  eng.wait_idle();

  const std::vector<service::job_stats> all{b0.stats(), s1.stats(),
                                            c2.stats(), b3.stats()};
  std::uint64_t sum_visits = 0;
  std::uint64_t sum_pushes = 0;
  std::set<std::uint64_t> ids;
  for (const auto& js : all) {
    EXPECT_TRUE(js.completed);
    EXPECT_FALSE(js.failed);
    EXPECT_FALSE(js.cancelled);
    EXPECT_GT(js.visits, 0u);
    sum_visits += js.visits;
    sum_pushes += js.pushes;
    ids.insert(js.job_id);
    // Lifecycle consistency: both phases fit inside the total.
    EXPECT_GE(js.total_seconds + 1e-9, js.queue_wait_seconds);
    EXPECT_GE(js.total_seconds + 1e-9, js.run_seconds);
    // In-memory jobs never touch the SEM charge path.
    EXPECT_EQ(js.io_ops, 0u);
    EXPECT_EQ(js.io_bytes, 0u);
  }
  EXPECT_EQ(ids.size(), 4u) << "job ids must be distinct";
  EXPECT_EQ(all[0].label, "bfs");
  EXPECT_EQ(all[1].label, "sssp");
  EXPECT_EQ(all[2].label, "cc");

  // The invariant is exact equality, not approximation: every visit/push
  // was recorded into its job's scope AND the shared registry.
  EXPECT_EQ(sum_visits,
            reg.get_counter("queue.visits").total() - visits_before);
  EXPECT_EQ(sum_pushes,
            reg.get_counter("queue.pushes").total() - pushes_before);
  EXPECT_EQ(reg.get_counter("service.jobs.completed").total(), 4u);
}

TEST(JobStats, StatsAfterGetShowsTheTerminalSnapshot) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  // get() must not return before the job's accounting retired it: a caller
  // that asks for stats() immediately afterwards sees the final state, on
  // every iteration, not just when the completing thread wins a race.
  for (int i = 0; i < 16; ++i) {
    auto j = eng.submit_bfs(g, vertex32{0});
    (void)j.get();
    const auto js = j.stats();
    EXPECT_TRUE(js.completed) << "iteration " << i;
    EXPECT_GT(js.visits, 0u);
    EXPECT_GT(js.total_seconds, 0.0);
  }
}

// ---- the completed-job ring ---------------------------------------------

TEST(JobStats, RecentJobsRingRetainsTheLastNAndEvictsTheOldest) {
  engine::config c;
  c.pool_threads = 4;
  c.defaults = threads(4);
  c.completed_ring = 2;
  engine eng(std::move(c));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));

  std::vector<std::uint64_t> submitted;
  for (int i = 0; i < 3; ++i) {
    auto j = eng.submit_bfs(g, vertex32{0});
    (void)j.get();
    submitted.push_back(j.stats().job_id);
  }
  eng.wait_idle();

  const auto recent = eng.recent_jobs();
  ASSERT_EQ(recent.size(), 2u);
  // Sequential jobs retire in submission order: the first was evicted.
  EXPECT_EQ(recent[0].job_id, submitted[1]);
  EXPECT_EQ(recent[1].job_id, submitted[2]);
  for (const auto& js : recent) {
    EXPECT_TRUE(js.completed);
    EXPECT_EQ(js.label, "bfs");
    EXPECT_GT(js.visits, 0u);
  }
}

// Resumed and incremental jobs are seeded runs through the same engine
// path as fresh ones: each lands in the completed-job ring under its
// label, an incremental repair with the overlay epoch it ran against, and
// each records its work counters under its label.
TEST(JobStats, ResumedAndIncrementalJobsShowInRecentJobs) {
  telemetry::metrics_registry reg(8);
  engine eng({.pool_threads = 4, .defaults = threads(2).with_metrics(&reg)});
  csr32 g = add_weights(rmat_graph_undirected<vertex32>(rmat_a(8, 3)),
                        weight_scheme::uniform, 3);
  g.ensure_reverse();

  // Resume from a snapshot that kept every other label.
  const auto full = serial_bfs(g, vertex32{0});
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::bfs;
  cp.label = full.level;
  cp.parent = full.parent;
  for (std::size_t v = 1; v < cp.label.size(); v += 2) {
    cp.label[v] = infinite_distance<dist_t>;
    cp.parent[v] = invalid_vertex<vertex32>;
  }
  EXPECT_EQ(
      eng.submit_bfs(g, resume_run<bfs_result<vertex32>>(g, cp)).get().level,
      full.level);

  // Repair SSSP and CC over one applied batch.
  delta_overlay<csr32> ov(g);
  auto sssp = eng.submit_sssp(ov.snapshot(), vertex32{0}).get();
  auto cc = eng.submit_cc(ov.snapshot()).get();
  delta_batch<vertex32> d;
  d.insert_undirected(1, 2, 1).erase_undirected(0, g.neighbors(0)[0]);
  ov.apply(d);
  const auto view = ov.snapshot();
  EXPECT_EQ(eng.submit_incremental_sssp(view, d, std::move(sssp)).get().dist,
            dijkstra_sssp(view, vertex32{0}).dist);
  EXPECT_EQ(eng.submit_incremental_cc(view, d, std::move(cc)).get().component,
            serial_cc(view).component);

  const auto recent = eng.recent_jobs();
  ASSERT_EQ(recent.size(), 5u);
  EXPECT_EQ(recent[0].label, "resume_bfs");
  EXPECT_EQ(recent[0].outcome, "completed");
  EXPECT_EQ(recent[0].delta_epoch, 0u);
  EXPECT_EQ(recent[3].label, "incremental_sssp");
  EXPECT_EQ(recent[3].delta_epoch, 1u);
  EXPECT_EQ(recent[4].label, "incremental_cc");
  EXPECT_EQ(recent[4].delta_epoch, 1u);
  EXPECT_EQ(reg.get_counter("resume_bfs.visits").total(), recent[0].visits);
  EXPECT_GT(recent[0].visits, 0u);
  EXPECT_EQ(reg.get_counter("incremental_cc.visits").total(),
            recent[4].visits);
}

TEST(JobStats, ZeroRingDisablesRetention) {
  engine::config c;
  c.pool_threads = 4;
  c.defaults = threads(4);
  c.completed_ring = 0;
  engine eng(std::move(c));
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  (void)eng.submit_bfs(g, vertex32{0}).get();
  eng.wait_idle();
  EXPECT_TRUE(eng.recent_jobs().empty());
}

TEST(JobStats, LifecycleHistogramsSampleOncePerCompletedJob) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  for (int i = 0; i < 5; ++i) (void)eng.submit_bfs(g, vertex32{0}).get();
  eng.wait_idle();

  const auto life = eng.lifecycle();
  EXPECT_EQ(life.total_us.total(), 5u);
  EXPECT_EQ(life.queue_wait_us.total(), 5u);
  EXPECT_EQ(life.run_us.total(), 5u);
  EXPECT_EQ(eng.jobs_completed(), 5u);
}

// ---- terminal flags -----------------------------------------------------

// Self-sustaining ring (the cancellation idiom from engine_test): only the
// abort broadcast ends it.
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

TEST(JobStats, CancelledJobLatchesTheCancelledFlagNotFailed) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  auto j = eng.submit_traversal<ring_visitor>(
      threads(4), ring_state(1 << 10, 4),
      [](auto& q, auto&) { q.push(ring_visitor{0}); },
      [](ring_state&, queue_run_stats stats) { return stats.visits; });
  while (j.pending() == 0) {
  }
  j.cancel();
  EXPECT_THROW(j.get(), traversal_aborted);

  const auto js = j.stats();
  EXPECT_TRUE(js.cancelled);
  EXPECT_FALSE(js.failed) << "a cancellation is not a failure";
  EXPECT_FALSE(js.completed);
  EXPECT_EQ(js.outcome, "cancelled");
  eng.wait_idle();
  // The terminal snapshot also landed in the ring with the same flags.
  const auto recent = eng.recent_jobs();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].cancelled);
  EXPECT_FALSE(recent[0].failed);
}

// Implicit-binary-tree visitor with one bomb vertex (engine_test's
// failure-containment idiom).
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

// Regression: the terminal flags are latched once from what the job
// delivered, not derived from whether cancel() was ever requested — so a
// cancel() landing after the job already completed must not flip a
// successful job's snapshot to cancelled.
TEST(JobStats, LateCancelAfterCompletionStaysCompleted) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  auto j = eng.submit_bfs(g, vertex32{0});
  (void)j.get();
  j.cancel();  // too late: the outcome is already latched

  const auto js = j.stats();
  EXPECT_TRUE(js.completed);
  EXPECT_FALSE(js.cancelled);
  EXPECT_FALSE(js.failed);
  EXPECT_EQ(js.outcome, "completed")
      << "a late cancel must not relabel a completed job";
}

TEST(JobStats, FailedJobLatchesTheFailedFlagNotCancelled) {
  engine eng({.pool_threads = 4, .defaults = threads(4)});
  auto j = eng.submit_traversal<bomb_visitor>(
      threads(4), bomb_state(1 << 14, 7777),
      [](auto& q, auto&) { q.push(bomb_visitor{0, 0}); },
      [](bomb_state&, queue_run_stats stats) { return stats.visits; });
  EXPECT_THROW(j.get(), traversal_aborted);

  const auto js = j.stats();
  EXPECT_TRUE(js.failed);
  EXPECT_FALSE(js.cancelled);
  EXPECT_FALSE(js.completed);
  EXPECT_EQ(js.outcome, "failed");
}

// ---- lifecycle spans ----------------------------------------------------

TEST(JobStats, CompletedJobsLandLifecycleSpansOnTheirOwnTrack) {
  telemetry::trace_writer tw("job-spans-test");
  traversal_options defaults = threads(4);
  defaults.queue.trace = &tw;
  engine eng({.pool_threads = 4, .defaults = defaults});
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));

  auto j = eng.submit_bfs(g, vertex32{0});
  (void)j.get();
  eng.wait_idle();
  const std::uint64_t id = j.stats().job_id;

  const telemetry::json_value doc = tw.to_json();
  bool lifecycle = false;
  bool admit = false;
  for (const auto& ev : doc.find("traceEvents")->as_array()) {
    const telemetry::json_value* n = ev.find("name");
    if (n == nullptr || !n->is_string()) continue;
    if (n->as_string() == "bfs #" + std::to_string(id)) lifecycle = true;
    if (n->as_string() == "admit") admit = true;
  }
  EXPECT_TRUE(lifecycle) << "parent lifecycle span missing from the trace";
  EXPECT_TRUE(admit) << "admit child span missing from the trace";
}

}  // namespace
}  // namespace asyncgt
