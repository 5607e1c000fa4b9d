// Unit tests for the frontier-adaptive hybrid traversal layer
// (`ctest -L hybrid`; docs/hybrid_traversal.md): the frontier_estimator's
// alpha/beta decision tests, the hybrid_bfs / hybrid_cc drivers against
// serial and pure-async baselines, the reverse-view precondition, the
// per-phase accounting in hybrid_extra, the option plumbing through
// traversal_options::from_flags, the metrics the drivers record, and the
// job surface a hybrid run shares with every engine job: deadline, cancel,
// admission, failure containment and per-job stats.
//
// Label equality with the async engine across storage modes lives in the
// differential suite (tests/diff); this file owns the hybrid-specific
// behaviour on graphs small enough to reason about by hand.
#include "core/hybrid_traversal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/graph_io.hpp"
#include "queue/frontier_estimator.hpp"
#include "sem/fault_injector.hpp"
#include "sem/sem_csr.hpp"
#include "service/traversal_options.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/options.hpp"

namespace asyncgt {
namespace {

visitor_queue_config small_cfg() {
  visitor_queue_config c;
  c.num_threads = 4;
  return c;
}

traversal_options hybrid_opts(double alpha, double beta) {
  traversal_options o(small_cfg());
  o.hybrid_alpha = alpha;
  o.hybrid_beta = beta;
  return o;
}

csr32 reversed(csr32 g) {
  g.ensure_reverse();
  return g;
}

// ---- frontier_estimator ----

TEST(FrontierEstimator, AlphaTestIsStrict) {
  frontier_estimator est(2.0, 24.0);
  // m_f * alpha > m_u: 10 * 2 = 20 is not > 20, but is > 19.
  EXPECT_FALSE(est.go_bottom_up(10, 20));
  EXPECT_TRUE(est.go_bottom_up(10, 19));
  EXPECT_FALSE(est.go_bottom_up(0, 0));
}

TEST(FrontierEstimator, BetaTestIsStrict) {
  frontier_estimator est(14.0, 4.0);
  // n_f * beta > n: 25 * 4 = 100 is not > 100, but is > 99.
  EXPECT_FALSE(est.stay_bottom_up(25, 100));
  EXPECT_TRUE(est.stay_bottom_up(25, 99));
  EXPECT_FALSE(est.stay_bottom_up(0, 100));
}

TEST(FrontierEstimator, DefaultsMatchLiterature) {
  frontier_estimator est;
  EXPECT_DOUBLE_EQ(est.alpha(), 14.0);
  EXPECT_DOUBLE_EQ(est.beta(), 24.0);
}

// ---- preconditions ----

TEST(HybridBfs, ThrowsWithoutReverseView) {
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 1}, {1, 2, 1}});
  EXPECT_THROW(hybrid_bfs(g, vertex32{0}, hybrid_opts(14, 24)),
               std::invalid_argument);
}

TEST(HybridBfs, ThrowsOnStartOutOfRange) {
  const csr32 g = reversed(build_csr<vertex32>(3, {{0, 1, 1}}));
  EXPECT_THROW(hybrid_bfs(g, vertex32{9}, hybrid_opts(14, 24)),
               std::out_of_range);
}

TEST(HybridCc, ThrowsWithoutReverseView) {
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 1}, {1, 0, 1}});
  EXPECT_THROW(hybrid_cc(g, hybrid_opts(14, 24)), std::invalid_argument);
}

// ---- hand-checkable graphs ----

TEST(HybridBfs, DirectedChainExactLevels) {
  // 0 -> 1 -> 2 -> 3: one vertex per level. A near-zero alpha keeps the
  // run pure top-down — vertex 4's unreachable out-edge pins the
  // unexplored-edge count above zero, so the alpha test (which any
  // frontier wins once m_u hits 0) never fires and the capped-level
  // driver is exercised alone.
  const csr32 g = reversed(build_csr<vertex32>(
      5, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {4, 0, 1}}));
  hybrid_extra extra;
  const auto r = hybrid_bfs(g, vertex32{0}, hybrid_opts(0.01, 24), &extra);
  for (vertex32 v = 0; v < 4; ++v) EXPECT_EQ(r.level[v], v);
  EXPECT_EQ(r.level[4], infinite_distance<dist_t>);
  EXPECT_EQ(r.visited_count(), 4u);
  EXPECT_EQ(extra.direction_switches, 0u);
  ASSERT_FALSE(extra.phases.empty());
  for (const auto& p : extra.phases) EXPECT_NE(p.direction, "bottom-up");
}

TEST(HybridBfs, StarForcedBottomUp) {
  // Undirected star: an enormous alpha flips to bottom-up at the first
  // decision point; beta=1e9 keeps it there until the frontier empties.
  std::vector<edge<vertex32>> edges;
  for (vertex32 leaf = 1; leaf < 32; ++leaf) {
    edges.push_back({0, leaf, 1});
    edges.push_back({leaf, 0, 1});
  }
  const csr32 g = reversed(build_csr<vertex32>(32, edges));
  hybrid_extra extra;
  const auto r = hybrid_bfs(g, vertex32{0}, hybrid_opts(1e9, 1e9), &extra);
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
  EXPECT_GE(extra.direction_switches, 1u);
  bool saw_bottom_up = false;
  for (const auto& p : extra.phases) {
    saw_bottom_up |= p.direction == "bottom-up";
  }
  EXPECT_TRUE(saw_bottom_up);
}

TEST(HybridBfs, UnreachableVerticesStayInfinite) {
  // 0 -> 1; 2 and 3 unreachable (3 has an edge INTO the component, which
  // the bottom-up sweeps must not mistake for reachability).
  const csr32 g = reversed(build_csr<vertex32>(4, {{0, 1, 1}, {3, 0, 1}}));
  const auto r = hybrid_bfs(g, vertex32{0}, hybrid_opts(1e9, 1e9));
  EXPECT_EQ(r.level[0], 0u);
  EXPECT_EQ(r.level[1], 1u);
  EXPECT_EQ(r.level[2], infinite_distance<dist_t>);
  EXPECT_EQ(r.level[3], infinite_distance<dist_t>);
}

TEST(HybridBfs, SelfLoopsAndDuplicateEdgesHarmless) {
  const csr32 g = reversed(build_csr<vertex32>(
      3, {{0, 0, 1}, {0, 1, 1}, {0, 1, 1}, {1, 2, 1}, {2, 2, 1}}));
  const auto r = hybrid_bfs(g, vertex32{0}, hybrid_opts(1e9, 1e9));
  EXPECT_EQ(r.level, serial_bfs(g, vertex32{0}).level);
}

TEST(HybridCc, SingletonsAndTwoComponents) {
  // {0,1,2} a path, {4,5} an edge, 3 isolated. Min-id labels.
  const csr32 g = reversed(build_csr<vertex32>(
      6, {{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1},
          {4, 5, 1}, {5, 4, 1}}));
  hybrid_extra extra;
  const auto r = hybrid_cc(g, hybrid_opts(14.0, 1.0), &extra);
  const std::vector<vertex32> want = {0, 0, 0, 3, 4, 4};
  EXPECT_EQ(r.component, want);
  EXPECT_EQ(r.num_components(), 3u);
  // Singletons never relabel, but the init relaxations keep the work
  // accounting non-negative: updates covers at least every vertex.
  EXPECT_GE(r.updates, g.num_vertices());
  const auto w = r.work();
  EXPECT_EQ(w.label_corrections, r.updates - g.num_vertices());
}

TEST(HybridCc, EmptyAndSingleVertexGraphs) {
  {
    const csr32 g = reversed(build_csr<vertex32>(1, {}));
    const auto r = hybrid_cc(g, hybrid_opts(14, 24));
    EXPECT_EQ(r.num_components(), 1u);
  }
  {
    const csr32 g = reversed(build_csr<vertex32>(5, {}));
    const auto r = hybrid_cc(g, hybrid_opts(1.0, 1e9));
    EXPECT_EQ(r.num_components(), 5u);
    for (vertex32 v = 0; v < 5; ++v) EXPECT_EQ(r.component[v], v);
  }
}

// ---- against the async engine on generated graphs ----

TEST(HybridBfs, MatchesAsyncOnRmat) {
  const csr32 g = reversed(rmat_graph_undirected<vertex32>(rmat_a(10, 5)));
  const auto plain = async_bfs(g, vertex32{0}, small_cfg());
  hybrid_extra extra;
  const auto hyb = hybrid_bfs(g, vertex32{0}, hybrid_opts(14.0, 24.0),
                              &extra);
  EXPECT_EQ(hyb.level, plain.level);
  EXPECT_GE(extra.direction_switches, 1u);
  // The forced bottom-up middle must beat pushing every edge.
  EXPECT_LT(extra.edge_inspections, plain.stats.pushes);
}

TEST(HybridCc, ElapsedCoversEverySweep) {
  // beta = 1e9 keeps CC sweeping bottom-up until no label changes, so the
  // run ends without any queue run: its time is the sweeps' time.
  const csr32 g = reversed(rmat_graph_undirected<vertex32>(rmat_a(10, 5)));
  hybrid_extra extra;
  const auto r = hybrid_cc(g, hybrid_opts(14.0, 1e9), &extra);
  EXPECT_EQ(r.component, serial_cc(g).component);
  ASSERT_FALSE(extra.phases.empty());
  EXPECT_EQ(extra.phases.back().direction, "bottom-up");
  EXPECT_GT(r.stats.elapsed_seconds, 0.0);
}

TEST(HybridCc, MatchesAsyncOnRmat) {
  const csr32 g = reversed(rmat_graph_undirected<vertex32>(rmat_a(9, 11)));
  const auto plain = async_cc(g, small_cfg());
  hybrid_extra extra;
  const auto hyb = hybrid_cc(g, hybrid_opts(14.0, 2.0), &extra);
  EXPECT_EQ(hyb.component, plain.component);
  ASSERT_FALSE(extra.phases.empty());
  EXPECT_EQ(extra.phases.front().direction, "bottom-up");
}

// ---- option plumbing and telemetry ----

TEST(HybridOptions, FromFlagsParsesKnobs) {
  const char* argv[] = {"prog", "--hybrid", "--hybrid-alpha=3.5",
                        "--hybrid-beta=9"};
  const options opt(4, argv);
  const auto o = traversal_options::from_flags(opt);
  EXPECT_DOUBLE_EQ(o.hybrid_alpha, 3.5);
  EXPECT_DOUBLE_EQ(o.hybrid_beta, 9.0);
}

TEST(HybridOptions, FromFlagsDefaultsOff) {
  const char* argv[] = {"prog"};
  const options opt(1, argv);
  const auto o = traversal_options::from_flags(opt);
  EXPECT_DOUBLE_EQ(o.hybrid_alpha, 14.0);
  EXPECT_DOUBLE_EQ(o.hybrid_beta, 24.0);
}

TEST(HybridMetrics, RecordsSwitchesAndInspections) {
  telemetry::metrics_registry reg(8);
  const csr32 g = reversed(rmat_graph_undirected<vertex32>(rmat_a(9, 3)));
  traversal_options topt = hybrid_opts(1.0, 64.0).with_metrics(&reg);
  hybrid_extra extra;
  const auto r = hybrid_bfs(g, vertex32{0}, topt, &extra);
  ASSERT_GT(r.visited_count(), 0u);
  const auto snap = reg.scrape();
  EXPECT_EQ(snap.value_of("engine.direction_switches"),
            extra.direction_switches);
  EXPECT_EQ(snap.value_of("hybrid_bfs.edge_inspections"),
            extra.edge_inspections);
}

// ---- hybrid runs are engine jobs ----

/// An undirected RMAT graph on disk with its .rev companion, opened
/// semi-externally with `inj` on both edge files.
class HybridJob : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_hybrid_job_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "g.agt").string();
    write_graph_with_reverse(path_, graph_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<sem::sem_csr32> open_sem(sem::fault_injector* inj) {
    auto g = std::make_unique<sem::sem_csr32>(path_);
    g->open_reverse();
    g->set_fault_injector(inj);
    return g;
  }

  static std::uint64_t terminal_sum(const engine::service_counters& c) {
    return c.rejected + c.active + c.completed + c.failed + c.cancelled +
           c.deadline_exceeded + c.stalled + c.shed;
  }

  const csr32 graph_ = rmat_graph_undirected<vertex32>(rmat_a(10, 3));
  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(HybridJob, StalledSemCcEndsAtItsDeadline) {
  sem::fault_config fc;
  fc.p_stall = 1.0;
  sem::fault_injector inj(fc);
  const auto g = open_sem(&inj);
  engine eng({.pool_threads = 4, .watchdog_sample_interval_ms = 5});
  auto j = eng.submit_hybrid_cc(
      *g, hybrid_opts(14.0, 24.0).with_deadline_ms(50));
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::deadline_exceeded);
  }
  EXPECT_GT(inj.counters().stalls, 0u);
  EXPECT_EQ(j.stats().outcome, "deadline_exceeded");
  eng.wait_idle();
  const auto c = eng.counters();
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_EQ(c.submitted, terminal_sum(c));
}

TEST_F(HybridJob, ReverseReadErrorAbortsTheJobOnly) {
  // Every read of the middle of the reverse file fails for good; an
  // enormous alpha sends BFS bottom-up right after level 0, so a sweep
  // reads it first.
  const std::uint64_t rev_bytes =
      std::filesystem::file_size(reverse_path_for(path_));
  sem::fault_config fc;
  fc.bad_begin = rev_bytes / 2;
  fc.bad_end = rev_bytes / 2 + 64;
  sem::fault_injector inj(fc);
  const auto g = open_sem(&inj);
  engine eng({.pool_threads = 4});
  auto j = eng.submit_hybrid_bfs(*g, vertex32{0}, hybrid_opts(1e9, 1e9));
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::none);
    EXPECT_NE(std::string(e.what()).find("failed"), std::string::npos);
  }
  EXPECT_EQ(j.stats().outcome, "failed");
  EXPECT_GT(inj.counters().range_hits, 0u);

  // The engine and the graph stay usable.
  inj.disarm();
  const auto r = eng.submit_bfs(*g, vertex32{0}, small_cfg()).get();
  EXPECT_EQ(r.level, serial_bfs(graph_, vertex32{0}).level);
  eng.wait_idle();
  const auto c = eng.counters();
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.submitted, terminal_sum(c));
}

TEST_F(HybridJob, StalledJobHoldsItsAdmissionSlotUntilCancelled) {
  sem::fault_config fc;
  fc.p_stall = 1.0;
  sem::fault_injector inj(fc);
  const auto g = open_sem(&inj);
  engine eng({.pool_threads = 8,
              .max_pending_jobs = 1,
              .admission = service::admission_policy::reject});
  auto stuck = eng.submit_hybrid_bfs(*g, vertex32{0}, hybrid_opts(14.0, 24.0));
  try {
    (void)eng.submit_hybrid_cc(*g, hybrid_opts(14.0, 24.0));
    FAIL() << "expected admission_rejected";
  } catch (const service::admission_rejected& e) {
    EXPECT_EQ(e.why(), service::admission_rejected::kind::queue_full);
  }
  stuck.cancel();
  try {
    stuck.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::cancelled);
  }
  EXPECT_EQ(stuck.stats().outcome, "cancelled");
  eng.wait_idle();
  const auto c = eng.counters();
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.submitted, terminal_sum(c));
}

TEST_F(HybridJob, StatsCountEveryPhaseAndRecentJobsNameTheDriver) {
  const csr32 g = reversed(graph_);
  engine eng({.pool_threads = 4});
  hybrid_extra bx;
  auto bj = eng.submit_hybrid_bfs(g, vertex32{0}, hybrid_opts(1.0, 64.0), &bx);
  const auto b = bj.get();
  EXPECT_EQ(b.level, serial_bfs(g, vertex32{0}).level);
  EXPECT_GE(bx.direction_switches, 1u);
  EXPECT_EQ(bj.stats().edge_inspections, bx.edge_inspections);
  EXPECT_GT(b.stats.elapsed_seconds, 0.0);

  hybrid_extra cx;
  auto cj = eng.submit_hybrid_cc(g, hybrid_opts(14.0, 2.0), &cx);
  const auto c = cj.get();
  EXPECT_EQ(c.component, serial_cc(g).component);
  EXPECT_EQ(cj.stats().edge_inspections, cx.edge_inspections);

  eng.wait_idle();
  const auto recent = eng.recent_jobs();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].label, "hybrid_bfs");
  EXPECT_EQ(recent[1].label, "hybrid_cc");
  EXPECT_EQ(recent[0].outcome, "completed");
  EXPECT_EQ(recent[1].outcome, "completed");
}

}  // namespace
}  // namespace asyncgt
