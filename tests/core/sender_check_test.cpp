// The label discipline of the BFS/SSSP/CC visitors. The owner claims a
// visitor's label when it drains the visitor from its mailbox (pre_visit)
// and expands only claims still current at pop; before each push the
// sender reads the target's label and skips the push when the stored label
// already dominates the candidate. Across thread counts, delivery batch
// sizes and pop orders the labels must equal the serial baselines, every
// pushed visitor must still be visited, and pushes must fall below the
// edges the relaxations inspected (each non-seed push follows one inspected
// edge, so equality would mean nothing was skipped).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

csr32 complete_graph(vertex32 n) {
  std::vector<edge<vertex32>> edges;
  for (vertex32 u = 0; u < n; ++u) {
    for (vertex32 v = u + 1; v < n; ++v) edges.push_back({u, v, 1});
  }
  build_options opt;
  opt.symmetrize = true;
  return build_csr<vertex32>(n, std::move(edges), opt);
}

/// RMAT scale 10 and K64, both symmetric (CC needs it) and weighted (SSSP).
std::vector<std::pair<std::string, csr32>> inputs() {
  std::vector<std::pair<std::string, csr32>> out;
  out.emplace_back("rmat10", add_weights(rmat_graph_undirected<vertex32>(
                                             rmat_a(10)),
                                         weight_scheme::uniform, 3));
  out.emplace_back("k64",
                   add_weights(complete_graph(64), weight_scheme::uniform, 3));
  return out;
}

/// Runs `check(opts)` for threads {1, 4, 8} x flush_batch {1, 64} x pop
/// order {priority, fifo, lifo}.
template <typename Check>
void for_each_config(const std::string& graph, Check check) {
  for (const std::size_t t : {1, 4, 8}) {
    for (const std::size_t fb : {1, 64}) {
      for (const queue_order order :
           {queue_order::priority, queue_order::fifo, queue_order::lifo}) {
        SCOPED_TRACE(graph + " threads=" + std::to_string(t) +
                     " flush_batch=" + std::to_string(fb) +
                     " order=" + std::to_string(static_cast<int>(order)));
        auto opts = traversal_options{}.with_threads(t).with_flush_batch(fb);
        opts.queue.order = order;
        check(opts);
      }
    }
  }
}

/// Claim-on-arrival bookkeeping every completed run must satisfy: each
/// pushed visitor is either dropped on arrival or popped (visits ==
/// pushes); an expansion needs a popped, still-current claim, so no more
/// expansions than visits; and each vertex's final claim is expanded, so at
/// least one expansion per labelled vertex.
template <typename Result>
void expect_claim_ledger(const Result& r) {
  EXPECT_EQ(r.stats.visits, r.stats.pushes);
  const traversal_work w = r.work();
  EXPECT_LE(w.updates, w.visits);
  EXPECT_GE(w.updates, w.relaxed_vertices);
  EXPECT_EQ(w.label_corrections, w.updates - w.relaxed_vertices);
}

TEST(AsyncBfs, SenderCheckSkipsDominatedPushes) {
  for (const auto& [name, g] : inputs()) {
    const auto expected = serial_bfs(g, vertex32{0});
    for_each_config(name, [&](const traversal_options& opts) {
      auto j = engine::process_default().submit_bfs(g, vertex32{0}, opts);
      const auto r = j.get();
      EXPECT_EQ(r.level, expected.level);
      expect_claim_ledger(r);
      EXPECT_LT(r.stats.pushes, j.stats().edge_inspections);
    });
  }
}

TEST(AsyncSssp, SenderCheckSkipsDominatedPushes) {
  for (const auto& [name, g] : inputs()) {
    const auto expected = dijkstra_sssp(g, vertex32{0});
    for_each_config(name, [&](const traversal_options& opts) {
      auto j = engine::process_default().submit_sssp(g, vertex32{0}, opts);
      const auto r = j.get();
      EXPECT_EQ(r.dist, expected.dist);
      expect_claim_ledger(r);
      EXPECT_LT(r.stats.pushes, j.stats().edge_inspections);
    });
  }
}

TEST(AsyncCc, SenderCheckSkipsDominatedPushes) {
  for (const auto& [name, g] : inputs()) {
    const auto expected = serial_cc(g);
    for_each_config(name, [&](const traversal_options& opts) {
      auto j = engine::process_default().submit_cc(g, opts);
      const auto r = j.get();
      EXPECT_EQ(r.component, expected.component);
      expect_claim_ledger(r);
      // One unfiltered seed per vertex, then at most one push per edge.
      EXPECT_LT(r.stats.pushes,
                g.num_vertices() + j.stats().edge_inspections);
    });
  }
}

}  // namespace
}  // namespace asyncgt
