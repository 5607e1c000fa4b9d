// Property tests for the delta overlay itself: epoch-versioned iteration
// checked against a std::multiset reference model across randomized op
// streams (never yields a deleted edge, never misses an inserted one, at
// EVERY pinned epoch — including epochs pinned before later batches
// landed), set-semantics idempotence, degree/edge count consistency,
// compaction byte-identity between the in-memory path (write_graph of the
// materialized graph) and the SEM ooc_builder path (including the .agt.rev
// companion), and rebase. An order model checks every read path of pinned
// views (iteration order, degrees, has_edge) over sorted and unsorted
// bases, and overlay_bytes() is checked against record growth and rebase.
//
// Every randomized case prints its seed in the failure message so a red
// run reproduces with one constant, diff-harness style.
#include "graph/delta_overlay.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "graph/builder.hpp"
#include "graph/graph_io.hpp"
#include "sem/sem_compaction.hpp"

namespace asyncgt {
namespace {

using edge_multiset = std::multiset<std::tuple<vertex32, vertex32, weight_t>>;

/// Reference model with the overlay's set-on-pairs semantics over a
/// multiset of (src, dst, weight) copies.
struct model {
  edge_multiset edges;

  bool present(vertex32 u, vertex32 v) const {
    auto it = edges.lower_bound({u, v, 0});
    return it != edges.end() && std::get<0>(*it) == u && std::get<1>(*it) == v;
  }
  // insert is a no-op when the pair is present; delete removes ALL copies.
  void insert(vertex32 u, vertex32 v, weight_t w) {
    if (!present(u, v)) edges.insert({u, v, w});
  }
  void erase(vertex32 u, vertex32 v) {
    auto it = edges.lower_bound({u, v, 0});
    while (it != edges.end() && std::get<0>(*it) == u &&
           std::get<1>(*it) == v) {
      it = edges.erase(it);
    }
  }
};

/// Builds a base with self-loops AND parallel copies retained, so the
/// overlay's all-copies delete semantics actually gets exercised.
/// sort_adjacency=false keeps each out-adjacency in generation order.
csr_graph<vertex32> messy_base(std::uint64_t seed,
                               bool sort_adjacency = true) {
  const rmat_params p = rmat_a(7, static_cast<std::uint32_t>(seed));
  auto edges = rmat_edges<vertex32>(p);
  // Duplicate a slice with different weights and add a few self-loops.
  const std::size_t dup = edges.size() / 8;
  for (std::size_t i = 0; i < dup; ++i) {
    edges.push_back({edges[i].src, edges[i].dst,
                     static_cast<weight_t>(2 + i % 3)});
  }
  for (vertex32 v = 0; v < 5; ++v) edges.push_back({v, v, 1});
  build_options opt;
  opt.remove_self_loops = false;
  opt.remove_duplicates = false;
  opt.sort_adjacency = sort_adjacency;
  opt.build_reverse = true;
  return build_csr<vertex32>(p.num_vertices(), edges, opt);
}

model model_of(const csr_graph<vertex32>& g) {
  model m;
  for (vertex32 u = 0; u < g.num_vertices(); ++u) {
    g.for_each_out_edge(u, [&](vertex32 v, weight_t w) {
      m.edges.insert({u, v, w});
    });
  }
  return m;
}

edge_multiset collect_out(const overlay_view<csr_graph<vertex32>>& view) {
  edge_multiset got;
  for (vertex32 u = 0; u < view.num_vertices(); ++u) {
    view.for_each_out_edge(u, [&](vertex32 v, weight_t w) {
      got.insert({u, v, w});
    });
  }
  return got;
}

edge_multiset collect_in(const overlay_view<csr_graph<vertex32>>& view) {
  edge_multiset got;
  for (vertex32 v = 0; v < view.num_vertices(); ++v) {
    view.for_each_in_edge(v, [&](vertex32 u, weight_t w) {
      got.insert({u, v, w});
    });
  }
  return got;
}

TEST(OverlayProperty, IterationMatchesMultisetModelAtEveryEpoch) {
  for (const std::uint64_t seed : {3u, 17u, 40u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const csr_graph<vertex32> base = messy_base(seed);
    const auto n = static_cast<vertex32>(base.num_vertices());
    delta_overlay<csr_graph<vertex32>> ov(base);

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<vertex32> vd(0, n - 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);

    model m = model_of(base);
    std::vector<model> at_epoch = {m};  // [e] -> model after epoch e
    std::vector<overlay_view<csr_graph<vertex32>>> views = {ov.snapshot()};

    constexpr int kEpochs = 8;
    constexpr int kOpsPerBatch = 48;
    for (int e = 1; e <= kEpochs; ++e) {
      delta_batch<vertex32> batch;
      for (int i = 0; i < kOpsPerBatch; ++i) {
        const vertex32 u = vd(rng);
        const vertex32 v = vd(rng);
        // Ops are drawn blind: duplicates, self-loops, deletes of absent
        // pairs, re-inserts of deleted pairs all occur and must no-op or
        // round-trip exactly like the model.
        if (coin(rng) < 0.45) {
          batch.erase(u, v);
        } else {
          const auto w = static_cast<weight_t>(1 + (u + v + e) % 5);
          batch.insert(u, v, w);
        }
      }
      // Replay onto the model in apply() order: a batch's deletes land
      // before its inserts, so a delete+insert of one pair nets to the
      // insert regardless of draw order.
      for (const auto& [du, dv] : batch.deletes) m.erase(du, dv);
      for (const auto& ins : batch.inserts) m.insert(ins.src, ins.dst,
                                                     ins.weight);
      ov.apply(batch);
      at_epoch.push_back(m);
      views.push_back(ov.snapshot());
    }

    // Every pinned view — including ones created epochs ago — serves
    // exactly its epoch's edge set, forward and reverse, with matching
    // degree and edge-count accounting.
    for (int e = 0; e <= kEpochs; ++e) {
      SCOPED_TRACE("epoch=" + std::to_string(e));
      const auto& view = views[static_cast<std::size_t>(e)];
      const auto& want = at_epoch[static_cast<std::size_t>(e)].edges;
      EXPECT_EQ(collect_out(view), want);
      EXPECT_EQ(collect_in(view), want);
      EXPECT_EQ(view.num_edges(), want.size());
      std::uint64_t degree_sum = 0;
      for (vertex32 v = 0; v < n; ++v) degree_sum += view.out_degree(v);
      EXPECT_EQ(degree_sum, want.size());
      // snapshot_at reconstructs the same historical pin.
      EXPECT_EQ(collect_out(ov.snapshot_at(static_cast<std::uint64_t>(e))),
                want);
    }
  }
}

TEST(OverlayProperty, DeleteHidesEveryParallelCopyAndInsertRestoresOne) {
  const csr_graph<vertex32> base = messy_base(5);
  delta_overlay<csr_graph<vertex32>> ov(base);

  // Find a pair with parallel copies (messy_base guarantees some).
  vertex32 du = invalid_vertex<vertex32>, dv = 0;
  for (vertex32 u = 0; u < base.num_vertices() && du == invalid_vertex<vertex32>;
       ++u) {
    std::map<vertex32, int> seen;
    base.for_each_out_edge(u, [&](vertex32 v, weight_t) { seen[v]++; });
    for (const auto& [v, c] : seen) {
      if (c > 1) {
        du = u;
        dv = v;
        break;
      }
    }
  }
  ASSERT_NE(du, invalid_vertex<vertex32>);

  ov.apply(delta_batch<vertex32>{}.erase(du, dv));
  auto after_del = ov.snapshot();
  EXPECT_FALSE(after_del.has_edge(du, dv));
  std::uint64_t copies = 0;
  after_del.for_each_out_edge(du, [&](vertex32 v, weight_t) {
    if (v == dv) ++copies;
  });
  EXPECT_EQ(copies, 0u) << "deleted pair still iterated";

  ov.apply(delta_batch<vertex32>{}.insert(du, dv, 7));
  auto after_ins = ov.snapshot();
  EXPECT_TRUE(after_ins.has_edge(du, dv));
  copies = 0;
  weight_t got_w = 0;
  after_ins.for_each_out_edge(du, [&](vertex32 v, weight_t w) {
    if (v == dv) {
      ++copies;
      got_w = w;
    }
  });
  EXPECT_EQ(copies, 1u) << "re-insert must restore exactly one copy";
  EXPECT_EQ(got_w, 7u);
  // The older pin still sees the deletion.
  EXPECT_FALSE(after_del.has_edge(du, dv));
}

TEST(OverlayProperty, SetSemanticsIdempotence) {
  const csr_graph<vertex32> base = messy_base(9);
  delta_overlay<csr_graph<vertex32>> ov(base);
  const std::uint64_t base_edges = base.num_edges();

  // Insert of an existing base edge: no-op.
  vertex32 eu = 0, ev = 0;
  bool found = false;
  for (vertex32 u = 0; u < base.num_vertices() && !found; ++u) {
    base.for_each_out_edge(u, [&](vertex32 v, weight_t) {
      if (!found) {
        eu = u;
        ev = v;
        found = true;
      }
    });
  }
  ASSERT_TRUE(found);
  auto c = ov.apply(delta_batch<vertex32>{}.insert(eu, ev, 9));
  EXPECT_EQ(c.noop_inserts, 1u);
  EXPECT_EQ(c.applied_inserts, 0u);
  EXPECT_EQ(ov.num_edges(), base_edges);

  // Double delete: second is a no-op; double insert of the overlay copy
  // likewise.
  c = ov.apply(delta_batch<vertex32>{}.erase(eu, ev).erase(eu, ev));
  EXPECT_EQ(c.applied_deletes, 1u);
  EXPECT_EQ(c.noop_deletes, 1u);
  c = ov.apply(delta_batch<vertex32>{}.insert(eu, ev, 2).insert(eu, ev, 3));
  EXPECT_EQ(c.applied_inserts, 1u);
  EXPECT_EQ(c.noop_inserts, 1u);
  EXPECT_TRUE(ov.snapshot().has_edge(eu, ev));

  // A batch's deletes run before its inserts: delete + re-insert nets to
  // the re-insert.
  c = ov.apply(delta_batch<vertex32>{}.erase(eu, ev).insert(eu, ev, 4));
  EXPECT_EQ(c.applied_deletes, 1u);
  EXPECT_EQ(c.applied_inserts, 1u);
  EXPECT_TRUE(ov.snapshot().has_edge(eu, ev));
}

TEST(OverlayProperty, OutOfRangeEndpointThrows) {
  const csr_graph<vertex32> base = messy_base(2);
  delta_overlay<csr_graph<vertex32>> ov(base);
  const auto n = static_cast<vertex32>(base.num_vertices());
  EXPECT_THROW(ov.apply(delta_batch<vertex32>{}.insert(n, 0)),
               std::out_of_range);
  EXPECT_THROW(ov.apply(delta_batch<vertex32>{}.erase(0, n)),
               std::out_of_range);
  EXPECT_EQ(ov.epoch(), 0u) << "failed batch must not advance the epoch";
}

/// The read contract as a model. `touched` holds every pair with history:
/// whether it is present, and its live copy's weight. A vertex iterates its
/// base adjacency in base order minus every touched pair, then the touched
/// pairs' live copies sorted by the other endpoint.
struct order_model {
  using seq = std::vector<std::pair<vertex32, weight_t>>;
  std::map<std::pair<vertex32, vertex32>, std::pair<bool, weight_t>> touched;

  bool present(const csr_graph<vertex32>& base, vertex32 u, vertex32 v) const {
    const auto it = touched.find({u, v});
    if (it != touched.end()) return it->second.first;
    bool found = false;
    base.for_each_out_edge(u, [&](vertex32 t, weight_t) { found |= t == v; });
    return found;
  }

  void apply(const csr_graph<vertex32>& base, const delta_batch<vertex32>& b) {
    for (const auto& [u, v] : b.deletes) {
      if (present(base, u, v)) touched[{u, v}] = {false, 0};
    }
    for (const auto& e : b.inserts) {
      if (!present(base, e.src, e.dst)) {
        touched[{e.src, e.dst}] = {true, e.weight};
      }
    }
  }

  seq out(const csr_graph<vertex32>& base, vertex32 u) const {
    seq s;
    base.for_each_out_edge(u, [&](vertex32 t, weight_t w) {
      if (touched.count({u, t}) == 0) s.emplace_back(t, w);
    });
    for (auto it = touched.lower_bound({u, 0});
         it != touched.end() && it->first.first == u; ++it) {
      if (it->second.first) s.emplace_back(it->first.second, it->second.second);
    }
    return s;
  }

  seq in(const csr_graph<vertex32>& base, vertex32 v) const {
    seq s;
    base.for_each_in_edge(v, [&](vertex32 t, weight_t w) {
      if (touched.count({t, v}) == 0) s.emplace_back(t, w);
    });
    // The map is ordered by (src, dst), so sources come out ascending.
    for (const auto& [pair, state] : touched) {
      if (pair.second == v && state.first) {
        s.emplace_back(pair.first, state.second);
      }
    }
    return s;
  }
};

// Every read path of a view — out- and in-iteration in contract order,
// both degrees, has_edge — against the model at every epoch, through the
// view pinned when the epoch was the head and through snapshot_at after
// later batches republished the records. The unsorted base runs the
// binary-search fall-back of the merged iteration.
TEST(OverlayProperty, PinnedViewsMatchTheOrderModelOnEveryReadPath) {
  for (const bool sorted : {true, false}) {
    for (const std::uint64_t seed : {6u, 29u}) {
      SCOPED_TRACE(std::string(sorted ? "sorted" : "unsorted") +
                   " seed=" + std::to_string(seed));
      const csr_graph<vertex32> base = messy_base(seed, sorted);
      const auto n = static_cast<vertex32>(base.num_vertices());
      bool any_unsorted = false;
      for (vertex32 v = 0; v < n; ++v) {
        const auto adj = base.neighbors(v);
        any_unsorted |= !std::is_sorted(adj.begin(), adj.end());
      }
      ASSERT_EQ(any_unsorted, !sorted);

      delta_overlay<csr_graph<vertex32>> ov(base);
      std::mt19937_64 rng(seed);
      std::uniform_int_distribution<vertex32> vd(0, n - 1);
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      // A few hot sources collect long histories across many records.
      std::vector<vertex32> hot;
      for (int i = 0; i < 6; ++i) hot.push_back(vd(rng));

      order_model m;
      std::vector<order_model> at_epoch = {m};
      std::vector<overlay_view<csr_graph<vertex32>>> views = {ov.snapshot()};
      constexpr int kEpochs = 10;
      for (int e = 1; e <= kEpochs; ++e) {
        delta_batch<vertex32> batch;
        for (int i = 0; i < 40; ++i) {
          const vertex32 u = coin(rng) < 0.5 ? hot[rng() % hot.size()]
                                             : vd(rng);
          const auto adj = base.neighbors(u);
          const vertex32 v = coin(rng) < 0.4 && !adj.empty()
                                 ? adj[rng() % adj.size()]
                                 : vd(rng);
          if (coin(rng) < 0.45) {
            batch.erase(u, v);
          } else {
            batch.insert(u, v, static_cast<weight_t>(1 + (u + v + e) % 5));
          }
        }
        m.apply(base, batch);
        ov.apply(batch);
        at_epoch.push_back(m);
        views.push_back(ov.snapshot());
      }

      for (int e = 0; e <= kEpochs; ++e) {
        SCOPED_TRACE("epoch=" + std::to_string(e));
        const order_model& want = at_epoch[static_cast<std::size_t>(e)];
        for (const auto& view :
             {views[static_cast<std::size_t>(e)],
              ov.snapshot_at(static_cast<std::uint64_t>(e))}) {
          std::uint64_t edges = 0;
          for (vertex32 v = 0; v < n; ++v) {
            order_model::seq got;
            view.for_each_out_edge(
                v, [&](vertex32 t, weight_t w) { got.emplace_back(t, w); });
            ASSERT_EQ(got, want.out(base, v)) << "out of " << v;
            ASSERT_EQ(view.out_degree(v), got.size()) << v;
            edges += got.size();
            got.clear();
            view.for_each_in_edge(
                v, [&](vertex32 t, weight_t w) { got.emplace_back(t, w); });
            ASSERT_EQ(got, want.in(base, v)) << "in of " << v;
            ASSERT_EQ(view.in_degree(v), got.size()) << v;
            for (vertex32 t = 0; t < n; ++t) {
              ASSERT_EQ(view.has_edge(v, t), want.present(base, v, t))
                  << v << "->" << t;
            }
          }
          EXPECT_EQ(edges, view.num_edges());
        }
      }
    }
  }
}

// overlay_bytes() is the size of every record built: toggling one pair
// keeps one patched pair but lengthens its history, so each batch
// republishes larger records than the last. rebase() frees them all.
TEST(OverlayProperty, OverlayBytesCountEveryRecordAndClearOnRebase) {
  const csr_graph<vertex32> base = messy_base(12);
  delta_overlay<csr_graph<vertex32>> ov(base);
  EXPECT_EQ(ov.overlay_bytes(), 0u);
  vertex32 u = 0, v = 1;
  while (ov.snapshot().has_edge(u, v)) ++v;  // an absent pair, u != v
  std::uint64_t bytes = 0, added = 0;
  for (int i = 0; i < 6; ++i) {
    delta_batch<vertex32> b;
    if (i % 2 == 0) {
      b.insert(u, v, 3);
    } else {
      b.erase(u, v);
    }
    ov.apply(b);
    EXPECT_EQ(ov.counters().patched_pairs, 1u);
    const std::uint64_t now = ov.overlay_bytes();
    EXPECT_GT(now - bytes, added) << "batch " << i;
    added = now - bytes;
    bytes = now;
  }
  EXPECT_EQ(ov.snapshot().resident_bytes(), base.resident_bytes() + bytes);

  const csr_graph<vertex32> clean = ov.compact(/*build_reverse=*/true);
  ov.rebase(clean);
  EXPECT_EQ(ov.overlay_bytes(), 0u);
  EXPECT_EQ(ov.snapshot().resident_bytes(), clean.resident_bytes());
}

class OverlayCompaction : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_dyn_compact_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string out(const std::string& name) const {
    return (dir_ / name).string();
  }

  static bool files_identical(const std::string& a, const std::string& b) {
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    const std::string ca((std::istreambuf_iterator<char>(fa)),
                         std::istreambuf_iterator<char>());
    const std::string cb((std::istreambuf_iterator<char>(fb)),
                         std::istreambuf_iterator<char>());
    return !ca.empty() && ca == cb;
  }

  std::filesystem::path dir_;
};

TEST_F(OverlayCompaction, SemCompactionByteIdenticalToWriteGraph) {
  for (const std::uint64_t seed : {4u, 23u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const csr_graph<vertex32> base = messy_base(seed);
    delta_overlay<csr_graph<vertex32>> ov(base);
    const auto stream = generate_update_stream(
        base, {.seed = seed, .num_batches = 4, .batch_size = 64,
               .delete_fraction = 0.35, .symmetric = false, .max_weight = 4});
    for (const auto& b : stream) ov.apply(b);

    // IM path: materialized graph written by write_graph (+ reverse).
    const csr_graph<vertex32> compacted = ov.compact(/*build_reverse=*/true);
    write_graph_with_reverse(out("im_" + std::to_string(seed) + ".agt"),
                             compacted);

    // SEM path: streamed through the ooc_builder with a tiny budget so the
    // external sort genuinely spills.
    sem::sem_compaction_options copt;
    copt.memory_budget_bytes = 512;
    copt.scratch_dir = dir_ / "scratch";
    const auto stats = sem::compact_to_file(
        ov.snapshot(), out("sem_" + std::to_string(seed) + ".agt"), copt);
    EXPECT_EQ(stats.edges, ov.num_edges());
    EXPECT_EQ(stats.epoch, ov.epoch());

    EXPECT_TRUE(files_identical(out("im_" + std::to_string(seed) + ".agt"),
                                out("sem_" + std::to_string(seed) + ".agt")));
    EXPECT_TRUE(files_identical(
        reverse_path_for(out("im_" + std::to_string(seed) + ".agt")),
        reverse_path_for(out("sem_" + std::to_string(seed) + ".agt"))));
  }
}

TEST_F(OverlayCompaction, RebaseDropsPatchesAndKeepsHeadEdgeSet) {
  const csr_graph<vertex32> base = messy_base(11);
  delta_overlay<csr_graph<vertex32>> ov(base);
  const auto stream = generate_update_stream(
      base, {.seed = 11, .num_batches = 3, .batch_size = 48,
             .delete_fraction = 0.4});
  for (const auto& b : stream) ov.apply(b);

  const edge_multiset head = collect_out(ov.snapshot());
  const std::uint64_t head_epoch = ov.epoch();

  const csr_graph<vertex32> clean = ov.compact(/*build_reverse=*/true);
  ov.rebase(clean);

  EXPECT_EQ(ov.epoch(), head_epoch) << "the epoch lineage survives rebase";
  EXPECT_EQ(ov.compacted_epoch(), head_epoch);
  EXPECT_EQ(collect_out(ov.snapshot()), head);
  const auto c = ov.counters();
  EXPECT_EQ(c.live_inserts, 0u);
  EXPECT_EQ(c.live_deletes, 0u);
  EXPECT_EQ(c.patched_pairs, 0u);

  // And the overlay keeps working on the new base.
  ov.apply(delta_batch<vertex32>{}.insert(0, 1, 3).erase(1, 0));
  EXPECT_EQ(ov.epoch(), head_epoch + 1);
  EXPECT_EQ(collect_out(ov.snapshot()).size(), ov.num_edges());
}

TEST_F(OverlayCompaction, FailedSemCompactionRemovesPartialOutput) {
  const csr_graph<vertex32> base = messy_base(6);
  delta_overlay<csr_graph<vertex32>> ov(base);
  ov.apply(delta_batch<vertex32>{}.insert(1, 2, 2));

  // A scratch dir that is actually a file makes the external sorter's
  // spill path fail partway through.
  sem::sem_compaction_options copt;
  copt.memory_budget_bytes = 128;  // force spilling
  copt.scratch_dir = dir_ / "scratch_blocked";
  { std::ofstream block(copt.scratch_dir); }

  EXPECT_ANY_THROW(
      sem::compact_to_file(ov.snapshot(), out("partial.agt"), copt));
  EXPECT_FALSE(std::filesystem::exists(out("partial.agt")));
  EXPECT_FALSE(
      std::filesystem::exists(reverse_path_for(out("partial.agt"))));
  // The overlay itself — the "old epoch" — is untouched and readable.
  EXPECT_EQ(ov.snapshot().num_edges(), ov.num_edges());
}

}  // namespace
}  // namespace asyncgt
