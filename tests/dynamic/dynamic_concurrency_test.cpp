// Concurrency battery for the delta overlay (wired into the tsan preset —
// tools/tsan_check.sh): one shared overlay takes delta batches from a
// writer thread while reader threads pin views and iterate / run full
// traversals over them. The contract under test: a view pinned at epoch e
// serves exactly epoch e's edge set no matter how many batches land after
// the pin — readers take no lock, and never see a half-applied batch (each
// reader cross-checks its iterated edge count against the count its view
// pinned at creation), nor a retired patch record read wrongly while apply()
// republishes the vertices they walk.
#include "graph/delta_overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "queue/visitor_queue.hpp"
#include "service/engine.hpp"

namespace asyncgt {
namespace {

traversal_options small_cfg() {
  visitor_queue_config q;
  q.num_threads = 2;
  return traversal_options(q);
}

TEST(DynamicConcurrency, ConcurrentApplyAndPinnedIterationAreConsistent) {
  auto base = rmat_graph<vertex32>(rmat_a(7, 5));
  base.ensure_reverse();
  delta_overlay<csr_graph<vertex32>> ov(base);
  const auto n = static_cast<vertex32>(base.num_vertices());

  const auto stream = generate_update_stream(
      base, {.seed = 7, .num_batches = 24, .batch_size = 32,
             .delete_fraction = 0.4});

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> views_checked{0};

  std::thread writer([&] {
    for (const auto& b : stream) ov.apply(b);
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(100 + r);
      do {
        auto view = ov.snapshot();
        // Full forward sweep: the iterated edge count must equal the count
        // pinned at view creation — a torn batch or a patch from a later
        // epoch would break the equality.
        std::uint64_t count = 0;
        std::uint64_t degree_sum = 0;
        for (vertex32 v = 0; v < n; ++v) {
          degree_sum += view.out_degree(v);
          view.for_each_out_edge(v, [&](vertex32, weight_t) { ++count; });
        }
        EXPECT_EQ(count, view.num_edges());
        EXPECT_EQ(degree_sum, view.num_edges());
        // Reverse spot-checks on random vertices (the in-record path).
        for (int i = 0; i < 32; ++i) {
          const auto v = static_cast<vertex32>(rng() % n);
          std::uint64_t in = 0;
          view.for_each_in_edge(v, [&](vertex32, weight_t) { ++in; });
          EXPECT_EQ(in, view.in_degree(v));
        }
        views_checked.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(views_checked.load(), 0u);

  // Sequential replay over a fresh overlay must agree with the final state
  // reached under concurrency.
  delta_overlay<csr_graph<vertex32>> replay(base);
  for (const auto& b : stream) replay.apply(b);
  EXPECT_EQ(replay.epoch(), ov.epoch());
  EXPECT_EQ(replay.num_edges(), ov.num_edges());
  auto a = ov.snapshot();
  auto b = replay.snapshot();
  for (vertex32 v = 0; v < n; ++v) {
    ASSERT_EQ(a.out_degree(v), b.out_degree(v)) << "vertex " << v;
  }
}

// Every batch rewrites the hubs' records in both directions while readers
// walk the hubs through views pinned at the head, at random older epochs
// and at epoch 0. Each read must equal what a sequential replay read at
// that view's epoch, in order and weight.
TEST(DynamicConcurrency, PinnedHubReadsAcrossRepublishedRecords) {
  auto base = rmat_graph<vertex32>(rmat_a(8, 13));
  base.ensure_reverse();
  const auto n = static_cast<vertex32>(base.num_vertices());
  std::vector<vertex32> hubs(n);
  std::iota(hubs.begin(), hubs.end(), vertex32{0});
  std::partial_sort(hubs.begin(), hubs.begin() + 4, hubs.end(),
                    [&](vertex32 a, vertex32 b) {
                      return base.out_degree(a) > base.out_degree(b);
                    });
  hubs.resize(4);

  std::mt19937_64 rng(13);
  std::vector<delta_batch<vertex32>> stream(48);
  for (auto& b : stream) {
    for (const vertex32 h : hubs) {
      const auto adj = base.neighbors(h);
      b.erase(h, adj[rng() % adj.size()]);
      b.erase(h, static_cast<vertex32>(rng() % n));
      b.erase(static_cast<vertex32>(rng() % n), h);
      b.insert(h, static_cast<vertex32>(rng() % n), 2);
      b.insert(static_cast<vertex32>(rng() % n), h, 3);
    }
  }

  using reads = std::vector<std::vector<std::pair<vertex32, weight_t>>>;
  const auto read_hubs = [&](const overlay_view<csr_graph<vertex32>>& view) {
    reads r;
    for (const vertex32 h : hubs) {
      r.emplace_back();
      view.for_each_out_edge(
          h, [&](vertex32 t, weight_t w) { r.back().emplace_back(t, w); });
      r.emplace_back();
      view.for_each_in_edge(
          h, [&](vertex32 t, weight_t w) { r.back().emplace_back(t, w); });
    }
    return r;
  };
  std::vector<reads> want;
  {
    delta_overlay<csr_graph<vertex32>> replay(base);
    want.push_back(read_hubs(replay.snapshot()));
    for (const auto& b : stream) {
      replay.apply(b);
      want.push_back(read_hubs(replay.snapshot()));
    }
  }

  delta_overlay<csr_graph<vertex32>> ov(base);
  const auto first = ov.snapshot();
  std::atomic<bool> done{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> reads_checked{0};
  std::thread writer([&] {
    // Start once every reader is walking, so the applies overlap reads.
    while (ready.load(std::memory_order_acquire) < 3) {
      std::this_thread::yield();
    }
    for (const auto& b : stream) ov.apply(b);
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 pick(200 + r);
      ready.fetch_add(1, std::memory_order_acq_rel);
      do {
        const auto head = ov.snapshot();
        const auto old = ov.snapshot_at(pick() % (head.epoch() + 1));
        EXPECT_EQ(read_hubs(head), want[head.epoch()]);
        EXPECT_EQ(read_hubs(old), want[old.epoch()]);
        EXPECT_EQ(read_hubs(first), want[0]);
        reads_checked.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(reads_checked.load(), 0u);
  EXPECT_EQ(read_hubs(ov.snapshot()), want.back());
}

TEST(DynamicConcurrency, InFlightQueriesAcrossConcurrentDeltas) {
  auto base = rmat_graph_undirected<vertex32>(rmat_a(7, 9));
  base.ensure_reverse();
  delta_overlay<csr_graph<vertex32>> ov(base);

  const auto stream = generate_update_stream(
      base, {.seed = 9, .num_batches = 12, .batch_size = 24,
             .delete_fraction = 0.3, .symmetric = true});

  engine eng;
  // Interleave: submit a full traversal over the current pin, apply the
  // next batch while it runs, then repair the delivered labels and check
  // them against a recompute over the new pin. The async jobs run over
  // views whose overlay is mutating underneath — the jobs must neither
  // race (tsan) nor observe the new epochs (labels match their own pin).
  auto prior = eng.submit_cc(ov.snapshot(), small_cfg()).get();
  for (const auto& batch : stream) {
    auto old_view = ov.snapshot();
    auto in_flight = eng.submit_cc(old_view, small_cfg());
    ov.apply(batch);  // lands while in_flight runs over the old pin
    auto old_result = in_flight.get();
    EXPECT_EQ(old_result.component.size(), base.num_vertices());

    auto new_view = ov.snapshot();
    incremental_extra ex;
    auto repaired = eng.submit_incremental_cc(new_view, batch,
                                              std::move(prior), &ex,
                                              small_cfg())
                        .get();
    auto full = eng.submit_cc(new_view, small_cfg()).get();
    ASSERT_EQ(repaired.component, full.component);
    EXPECT_LE(ex.reseeded_vertices, ex.affected);
    prior = std::move(repaired);
  }
}

}  // namespace
}  // namespace asyncgt
