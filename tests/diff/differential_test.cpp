// Differential correctness harness (`ctest -L diff`).
//
// The library's central refactoring bet is that storage is a swap-in
// backend: the asynchronous traversals must produce the same answer in
// memory and semi-externally, with or without a block cache. This suite
// checks that bet differentially — seeded random RMAT / grid / web graphs,
// async BFS / SSSP / CC against the serial baselines in src/baselines/ —
// across every execution mode. A failure message always carries the
// generator seed, so any discrepancy is replayable from the log alone.
//
// The Incremental* rows run the delta-overlay repair drivers
// (docs/dynamic_graphs.md) against a full recompute over the same pinned
// view, per mode — the overlay must compose with every storage/transport
// combination exactly like a static graph does.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/dobfs.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"

namespace asyncgt {
namespace {

/// One execution mode: in-memory, or semi-external. `flush_batch` is the
/// queue's delivery batch; `cache_fraction` > 0 gives SEM storage a block
/// cache that small, so the row evicts. Labels are pop-order independent,
/// so every row must stay bit-identical. The rows' order is fixed: ctest
/// names carry the row index.
struct exec_mode {
  std::string name;
  bool sem = false;
  std::size_t flush_batch = 1;
  double cache_fraction = 0.0;
};

const std::vector<exec_mode>& modes() {
  static const std::vector<exec_mode> m = {
      {"im", false, 1, 0.0},
      {"im_batch64", false, 64, 0.0},  // the tools' in-memory default
      {"sem", true, 1, 0.0},
      {"sem_cache", true, 1, 0.25},
  };
  return m;
}

constexpr std::uint64_t kSeeds[] = {7, 21};

class Differential : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    mode_ = modes()[static_cast<std::size_t>(GetParam())];
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_diff_" + std::to_string(::getpid()) + "_" + mode_.name);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Queue config for this mode.
  visitor_queue_config cfg() const {
    visitor_queue_config c;
    c.num_threads = 8;
    c.flush_batch = mode_.flush_batch;
    c.secondary_vertex_sort = true;
    return c;
  }

  /// SEM builder for this mode: cache size from the mode axis.
  sem::sem_config sem_cfg(const std::string& p) const {
    sem::sem_config scfg(p);
    scfg.with_cache_fraction(mode_.cache_fraction);
    return scfg;
  }

  /// Run `fn` against `g` in this mode's storage: directly for in-memory,
  /// or via a fresh on-disk .agt + sem_csr.
  template <typename Fn>
  auto on_mode(const csr32& g, const std::string& tag, Fn&& fn) {
    if (!mode_.sem) return fn(g);
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph(p, g);
    const auto bundle = sem_cfg(p).open<vertex32>();
    return fn(*bundle.graph);
  }

  /// Like on_mode, but the storage carries a reverse (transpose) view —
  /// the hybrid traversals and directed dobfs require one. In memory that
  /// is ensure_reverse() on a copy; semi-externally it is the on-disk
  /// ".rev" companion written by write_graph_with_reverse and opened as a
  /// nested sem_csr.
  template <typename Fn>
  auto on_mode_reverse(const csr32& g, const std::string& tag, Fn&& fn) {
    if (!mode_.sem) {
      csr32 copy = g;
      copy.ensure_reverse();
      return fn(copy);
    }
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph_with_reverse(p, g);
    const auto bundle = sem_cfg(p).with_reverse().open<vertex32>();
    return fn(*bundle.graph);
  }

  /// The seeded graph families under test. CC additionally needs symmetric
  /// structure, so it re-generates the RMAT family undirected.
  struct family_case {
    std::string name;
    csr32 graph;
  };
  static std::vector<family_case> families(std::uint64_t seed,
                                           bool undirected) {
    std::vector<family_case> out;
    out.push_back({"rmat_a", undirected
                                 ? rmat_graph_undirected<vertex32>(
                                       rmat_a(8, seed))
                                 : rmat_graph<vertex32>(rmat_a(8, seed))});
    // The mesh itself is deterministic; the seed varies its SSSP weights.
    out.push_back({"grid", grid_graph<vertex32>(14 + seed % 5, 16)});
    webgen_params wp;
    wp.num_hosts = 24;
    wp.seed = seed;
    out.push_back({"web", webgen_graph<vertex32>(wp)});
    return out;
  }

  exec_mode mode_;
  std::filesystem::path dir_;
};

TEST_P(Differential, BfsMatchesSerialBaseline) {
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& fam : families(seed, false)) {
      SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                   " seed=" + std::to_string(seed));
      const auto expected = serial_bfs(fam.graph, vertex32{0});
      const auto got =
          on_mode(fam.graph, fam.name + "_bfs" + std::to_string(seed),
                  [&](const auto& g) { return async_bfs(g, vertex32{0},
                                                        cfg()); });
      EXPECT_EQ(got.level, expected.level);
      EXPECT_EQ(got.visited_count(), expected.visited_count());
    }
  }
}

TEST_P(Differential, SsspMatchesDijkstra) {
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& fam : families(seed, false)) {
      SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                   " seed=" + std::to_string(seed));
      const csr32 weighted =
          add_weights(fam.graph, weight_scheme::log_uniform, seed);
      const auto expected = dijkstra_sssp(weighted, vertex32{0});
      const auto got =
          on_mode(weighted, fam.name + "_sssp" + std::to_string(seed),
                  [&](const auto& g) { return async_sssp(g, vertex32{0},
                                                         cfg()); });
      EXPECT_EQ(got.dist, expected.dist);
    }
  }
}

TEST_P(Differential, CcMatchesSerialBaseline) {
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& fam : families(seed, true)) {
      SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                   " seed=" + std::to_string(seed));
      const auto expected = serial_cc(fam.graph);
      const auto got =
          on_mode(fam.graph, fam.name + "_cc" + std::to_string(seed),
                  [&](const auto& g) { return async_cc(g, cfg()); });
      EXPECT_EQ(got.component, expected.component);
      EXPECT_EQ(got.num_components(), expected.num_components());
    }
  }
}

// The hybrid driver's promise is bit-identical labels to the pure-async
// engine — not just "a valid BFS". Run both in the same mode and compare
// directly, once with the literature defaults (alpha=14/beta=24, which on
// these small graphs mostly stays top-down) and once with alpha=1/beta=64
// to force bottom-up sweeps through the reverse view.
TEST_P(Differential, HybridBfsMatchesAsync) {
  const struct {
    double alpha, beta;
  } knobs[] = {{14.0, 24.0}, {1.0, 64.0}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& fam : families(seed, false)) {
      for (const auto& k : knobs) {
        SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                     " seed=" + std::to_string(seed) +
                     " alpha=" + std::to_string(k.alpha));
        const auto plain =
            on_mode(fam.graph, fam.name + "_hba" + std::to_string(seed),
                    [&](const auto& g) { return async_bfs(g, vertex32{0},
                                                          cfg()); });
        traversal_options topt(cfg());
        topt.hybrid_alpha = k.alpha;
        topt.hybrid_beta = k.beta;
        hybrid_extra extra;
        const auto got = on_mode_reverse(
            fam.graph, fam.name + "_hbh" + std::to_string(seed),
            [&](const auto& g) {
              return hybrid_bfs(g, vertex32{0}, topt, &extra);
            });
        EXPECT_EQ(got.level, plain.level);
        EXPECT_EQ(got.visited_count(), plain.visited_count());
        // Per-phase inspections must account for the total exactly.
        std::uint64_t phase_sum = 0;
        for (const auto& p : extra.phases) phase_sum += p.edge_inspections;
        EXPECT_EQ(phase_sum, extra.edge_inspections);
      }
    }
  }
}

TEST_P(Differential, HybridCcMatchesAsync) {
  const struct {
    double alpha, beta;
  } knobs[] = {{14.0, 24.0}, {1.0, 4.0}};
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& fam : families(seed, true)) {
      for (const auto& k : knobs) {
        SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                     " seed=" + std::to_string(seed) +
                     " beta=" + std::to_string(k.beta));
        const auto plain =
            on_mode(fam.graph, fam.name + "_hca" + std::to_string(seed),
                    [&](const auto& g) { return async_cc(g, cfg()); });
        traversal_options topt(cfg());
        topt.hybrid_alpha = k.alpha;
        topt.hybrid_beta = k.beta;
        hybrid_extra extra;
        const auto got = on_mode_reverse(
            fam.graph, fam.name + "_hch" + std::to_string(seed),
            [&](const auto& g) { return hybrid_cc(g, topt, &extra); });
        EXPECT_EQ(got.component, plain.component);
        EXPECT_EQ(got.num_components(), plain.num_components());
      }
    }
  }
}

// dobfs on a *directed* graph is only valid through a real reverse view
// (the out-edge fallback assumes symmetry). A tiny switch fraction forces
// bottom-up levels so the in-edge probe actually runs, in every mode.
TEST_P(Differential, DobfsMatchesSerialOnDirected) {
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& fam : families(seed, false)) {
      SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                   " seed=" + std::to_string(seed));
      const auto expected = serial_bfs(fam.graph, vertex32{0});
      dobfs_extra extra;
      const auto got = on_mode_reverse(
          fam.graph, fam.name + "_do" + std::to_string(seed),
          [&](const auto& g) {
            return dobfs(g, vertex32{0}, &extra, 0.01);
          });
      EXPECT_EQ(got.level, expected.level);
      EXPECT_GT(extra.bottom_up_levels, 0u);
    }
  }
}

// Incremental rows (docs/dynamic_graphs.md): the delta-overlay repair
// drivers must agree with a full recompute over the same pinned view in
// every execution mode — the overlay composes with whatever storage the
// mode axis supplies (in-memory CSR, or sem_csr with or without a
// cache). Deletes are in play, so every row
// runs through on_mode_reverse. Labels chain: each epoch repairs the
// previous epoch's repaired labels, so a divergence compounds instead of
// washing out.
TEST_P(Differential, IncrementalBfsMatchesRecompute) {
  for (const std::uint64_t seed : kSeeds) {
    const auto fam = families(seed, false)[0];  // rmat_a
    SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                 " seed=" + std::to_string(seed));
    on_mode_reverse(fam.graph, fam.name + "_inc" + std::to_string(seed),
                    [&](const auto& g) {
      delta_overlay<std::decay_t<decltype(g)>> ov(g);
      const auto stream = generate_update_stream(
          g, {.seed = seed, .num_batches = 2, .batch_size = 32,
              .delete_fraction = 0.4});
      auto prior = async_bfs(ov.snapshot(), vertex32{0}, cfg());
      for (const auto& batch : stream) {
        ov.apply(batch);
        auto view = ov.snapshot();
        incremental_extra ex;
        prior = incremental_bfs(view, batch, std::move(prior), &ex,
                                traversal_options(cfg()));
        const auto full = async_bfs(view, vertex32{0}, cfg());
        EXPECT_EQ(prior.level, full.level)
            << "epoch=" << ov.epoch() << " seed=" << seed;
        EXPECT_LE(ex.reseeded_vertices, ex.affected);
      }
      return 0;
    });
  }
}

TEST_P(Differential, IncrementalSsspMatchesRecompute) {
  for (const std::uint64_t seed : kSeeds) {
    const auto fam = families(seed, false)[0];
    SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                 " seed=" + std::to_string(seed));
    const csr32 weighted =
        add_weights(fam.graph, weight_scheme::log_uniform, seed);
    on_mode_reverse(weighted, fam.name + "_incs" + std::to_string(seed),
                    [&](const auto& g) {
      delta_overlay<std::decay_t<decltype(g)>> ov(g);
      const auto stream = generate_update_stream(
          g, {.seed = seed, .num_batches = 2, .batch_size = 32,
              .delete_fraction = 0.4, .max_weight = 6});
      auto prior = async_sssp(ov.snapshot(), vertex32{0}, cfg());
      for (const auto& batch : stream) {
        ov.apply(batch);
        auto view = ov.snapshot();
        incremental_extra ex;
        prior = incremental_sssp(view, batch, std::move(prior), &ex,
                                 traversal_options(cfg()));
        const auto full = async_sssp(view, vertex32{0}, cfg());
        EXPECT_EQ(prior.dist, full.dist)
            << "epoch=" << ov.epoch() << " seed=" << seed;
        EXPECT_LE(ex.reseeded_vertices, ex.affected);
      }
      return 0;
    });
  }
}

TEST_P(Differential, IncrementalCcMatchesRecompute) {
  for (const std::uint64_t seed : kSeeds) {
    const auto fam = families(seed, true)[0];  // symmetric rmat_a
    SCOPED_TRACE("mode=" + mode_.name + " family=" + fam.name +
                 " seed=" + std::to_string(seed));
    on_mode_reverse(fam.graph, fam.name + "_incc" + std::to_string(seed),
                    [&](const auto& g) {
      delta_overlay<std::decay_t<decltype(g)>> ov(g);
      // CC repair assumes a symmetric delta, matching the symmetric base.
      const auto stream = generate_update_stream(
          g, {.seed = seed, .num_batches = 2, .batch_size = 24,
              .delete_fraction = 0.4, .symmetric = true});
      auto prior = async_cc(ov.snapshot(), cfg());
      for (const auto& batch : stream) {
        ov.apply(batch);
        auto view = ov.snapshot();
        incremental_extra ex;
        prior = incremental_cc(view, batch, std::move(prior), &ex,
                               traversal_options(cfg()));
        const auto full = async_cc(view, cfg());
        EXPECT_EQ(prior.component, full.component)
            << "epoch=" << ov.epoch() << " seed=" << seed;
        EXPECT_LE(ex.reseeded_vertices, ex.affected);
      }
      return 0;
    });
  }
}

std::string mode_name(const ::testing::TestParamInfo<int>& info) {
  return modes()[static_cast<std::size_t>(info.param)].name;
}

INSTANTIATE_TEST_SUITE_P(Modes, Differential,
                         ::testing::Range(0,
                                          static_cast<int>(modes().size())),
                         mode_name);

}  // namespace
}  // namespace asyncgt
