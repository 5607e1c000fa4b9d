// Randomized differential battery for incremental recompute (the ISSUE 10
// tentpole's correctness story): for every batch of a seeded update stream,
//
//   incremental(prior_labels, delta)  ==  full_recompute(G union delta)
//
// bit-for-bit on the label arrays (levels / distances / component ids —
// parents are tie-broken nondeterministically by the async engine, exactly
// as in tests/diff), across BFS/SSSP/CC, in-memory and semi-external
// storage, and with mid-stream compaction+rebase on or off. The repaired
// labels then become the prior for the next batch, so errors would
// compound — a stream that stays green proves the repair reaches the true
// fixed point every epoch. Failing seeds print in the assertion context.
#include "core/incremental.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "gen/webgen.hpp"
#include "gen/weights.hpp"
#include "graph/delta_overlay.hpp"
#include "graph/graph_io.hpp"
#include "sem/sem_compaction.hpp"
#include "sem/sem_csr.hpp"

namespace asyncgt {
namespace {

constexpr std::uint32_t kSeeds[] = {3, 19};

traversal_options cfg() {
  visitor_queue_config q;
  q.num_threads = 4;
  q.flush_batch = 1;
  return traversal_options(q);
}

template <typename T>
void expect_labels_equal(const std::vector<T>& inc, const std::vector<T>& full,
                         const char* what) {
  ASSERT_EQ(inc.size(), full.size());
  std::size_t mismatches = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < inc.size(); ++i) {
    if (inc[i] != full[i]) {
      if (mismatches == 0) first = i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << what << ": " << mismatches << " label mismatches, first at vertex "
      << first << " (incremental=" << +inc[first]
      << " recompute=" << +full[first] << ")";
}

void check_extra(const incremental_extra& ex, std::uint64_t n) {
  EXPECT_LE(ex.reseeded_vertices, ex.affected);
  EXPECT_LE(ex.affected, n);
}

/// Directed weighted families for BFS/SSSP.
std::vector<csr_graph<vertex32>> directed_families(std::uint32_t seed) {
  std::vector<csr_graph<vertex32>> out;
  out.push_back(rmat_graph<vertex32>(rmat_a(8, seed)));
  out.push_back(webgen_graph<vertex32>({.num_hosts = 20, .seed = seed}));
  for (auto& g : out) {
    add_weights(g, weight_scheme::log_uniform, seed);
    g.ensure_reverse();
  }
  return out;
}

/// Symmetric families for CC.
std::vector<csr_graph<vertex32>> undirected_families(std::uint32_t seed) {
  std::vector<csr_graph<vertex32>> out;
  out.push_back(rmat_graph_undirected<vertex32>(rmat_a(8, seed)));
  out.push_back(grid_graph<vertex32>(12 + seed % 5, 14));
  for (auto& g : out) g.ensure_reverse();
  return out;
}

update_stream_params stream_params(std::uint32_t seed, bool symmetric) {
  update_stream_params p;
  p.seed = seed;
  p.num_batches = 4;
  p.batch_size = 48;
  p.delete_fraction = 0.4;
  p.symmetric = symmetric;
  p.max_weight = 4;
  return p;
}

// ---- In-memory rows ----
//
// One driver per algorithm: run the stream, repairing batch-by-batch and
// recomputing from scratch over the same pinned view; optionally compact
// and rebase mid-stream (the repaired labels stay valid — the edge set is
// unchanged — which is itself part of the contract under test).

template <typename RunFull, typename RunIncr, typename GetLabels>
void drive_im(const csr_graph<vertex32>& base, std::uint32_t seed,
              bool compact_midstream, bool symmetric, RunFull run_full,
              RunIncr run_incr, GetLabels labels) {
  delta_overlay<csr_graph<vertex32>> ov(base);
  auto prior = run_full(ov.snapshot());
  const auto stream = generate_update_stream(base, stream_params(seed,
                                                                 symmetric));
  csr_graph<vertex32> rebased;  // must outlive the overlay's use of it
  for (std::size_t bi = 0; bi < stream.size(); ++bi) {
    SCOPED_TRACE("batch=" + std::to_string(bi) +
                 " seed=" + std::to_string(seed));
    ov.apply(stream[bi]);
    auto view = ov.snapshot();
    incremental_extra ex;
    auto repaired = run_incr(view, stream[bi], std::move(prior), &ex);
    check_extra(ex, base.num_vertices());
    auto full = run_full(view);
    expect_labels_equal(labels(repaired), labels(full), "incremental vs full");
    if (compact_midstream && bi == stream.size() / 2) {
      rebased = ov.compact(/*build_reverse=*/true);
      ov.rebase(rebased);
      // Labels survive compaction unchanged; verify against the new base.
      auto post = run_full(ov.snapshot());
      expect_labels_equal(labels(repaired), labels(post),
                          "labels across rebase");
    }
    prior = std::move(repaired);
  }
}

TEST(IncrementalDiff, BfsMatchesRecomputeInMemory) {
  for (const auto seed : kSeeds) {
    for (const bool compact : {false, true}) {
      std::size_t fam = 0;
      for (const auto& g : directed_families(seed)) {
        SCOPED_TRACE("family=" + std::to_string(fam++) + " compact=" +
                     std::to_string(compact) + " seed=" +
                     std::to_string(seed));
        drive_im(
            g, seed, compact, /*symmetric=*/false,
            [](const auto& v) { return async_bfs(v, vertex32{0}, cfg()); },
            [](const auto& v, const auto& d, auto prior, auto* ex) {
              return incremental_bfs(v, d, std::move(prior), ex, cfg());
            },
            [](const auto& r) -> const std::vector<dist_t>& {
              return r.level;
            });
      }
    }
  }
}

TEST(IncrementalDiff, SsspMatchesRecomputeInMemory) {
  for (const auto seed : kSeeds) {
    for (const bool compact : {false, true}) {
      std::size_t fam = 0;
      for (const auto& g : directed_families(seed)) {
        SCOPED_TRACE("family=" + std::to_string(fam++) + " compact=" +
                     std::to_string(compact) + " seed=" +
                     std::to_string(seed));
        drive_im(
            g, seed, compact, /*symmetric=*/false,
            [](const auto& v) { return async_sssp(v, vertex32{0}, cfg()); },
            [](const auto& v, const auto& d, auto prior, auto* ex) {
              return incremental_sssp(v, d, std::move(prior), ex, cfg());
            },
            [](const auto& r) -> const std::vector<dist_t>& {
              return r.dist;
            });
      }
    }
  }
}

TEST(IncrementalDiff, CcMatchesRecomputeInMemory) {
  for (const auto seed : kSeeds) {
    for (const bool compact : {false, true}) {
      std::size_t fam = 0;
      for (const auto& g : undirected_families(seed)) {
        SCOPED_TRACE("family=" + std::to_string(fam++) + " compact=" +
                     std::to_string(compact) + " seed=" +
                     std::to_string(seed));
        drive_im(
            g, seed, compact, /*symmetric=*/true,
            [](const auto& v) { return async_cc(v, cfg()); },
            [](const auto& v, const auto& d, auto prior, auto* ex) {
              return incremental_cc(v, d, std::move(prior), ex, cfg());
            },
            [](const auto& r) -> const std::vector<vertex32>& {
              return r.component;
            });
      }
    }
  }
}

// ---- Semi-external rows ----
//
// The overlay wraps a disk-backed sem_csr (with its .rev companion);
// compaction goes through sem::compact_to_file and a fresh sem_csr is
// rebased in — the full SEM lifecycle of docs/dynamic_graphs.md.

class IncrementalDiffSem : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_dyn_sem_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string out(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

template <typename RunFull, typename RunIncr, typename GetLabels>
void drive_sem(const std::filesystem::path& dir,
               const csr_graph<vertex32>& im_base, std::uint32_t seed,
               bool compact_midstream, bool symmetric, RunFull run_full,
               RunIncr run_incr, GetLabels labels) {
  const std::string path = (dir / ("base_" + std::to_string(seed) + ".agt"))
                               .string();
  write_graph_with_reverse(path, im_base);
  auto base = std::make_unique<sem::sem_csr<vertex32>>(path);
  base->open_reverse();

  auto ov = std::make_unique<delta_overlay<sem::sem_csr<vertex32>>>(*base);
  auto prior = run_full(ov->snapshot());
  const auto stream =
      generate_update_stream(im_base, stream_params(seed, symmetric));
  std::unique_ptr<sem::sem_csr<vertex32>> rebased;
  for (std::size_t bi = 0; bi < stream.size(); ++bi) {
    SCOPED_TRACE("batch=" + std::to_string(bi) +
                 " seed=" + std::to_string(seed));
    ov->apply(stream[bi]);
    auto view = ov->snapshot();
    incremental_extra ex;
    auto repaired = run_incr(view, stream[bi], std::move(prior), &ex);
    check_extra(ex, im_base.num_vertices());
    auto full = run_full(view);
    expect_labels_equal(labels(repaired), labels(full), "incremental vs full");
    if (compact_midstream && bi == stream.size() / 2) {
      const std::string cpath =
          (dir / ("compact_" + std::to_string(seed) + ".agt")).string();
      sem::sem_compaction_options copt;
      copt.scratch_dir = dir / "scratch";
      sem::compact_to_file(view, cpath, copt);
      rebased = std::make_unique<sem::sem_csr<vertex32>>(cpath);
      rebased->open_reverse();
      ov->rebase(*rebased);
      auto post = run_full(ov->snapshot());
      expect_labels_equal(labels(repaired), labels(post),
                          "labels across SEM rebase");
    }
    prior = std::move(repaired);
  }
}

TEST_F(IncrementalDiffSem, BfsMatchesRecomputeSem) {
  for (const auto seed : kSeeds) {
    for (const bool compact : {false, true}) {
      SCOPED_TRACE("compact=" + std::to_string(compact));
      auto g = rmat_graph<vertex32>(rmat_a(8, seed));
      add_weights(g, weight_scheme::log_uniform, seed);
      g.ensure_reverse();
      drive_sem(
          dir_, g, seed, compact, /*symmetric=*/false,
          [](const auto& v) { return async_bfs(v, vertex32{0}, cfg()); },
          [](const auto& v, const auto& d, auto prior, auto* ex) {
            return incremental_bfs(v, d, std::move(prior), ex, cfg());
          },
          [](const auto& r) -> const std::vector<dist_t>& {
            return r.level;
          });
    }
  }
}

TEST_F(IncrementalDiffSem, SsspMatchesRecomputeSem) {
  for (const auto seed : kSeeds) {
    for (const bool compact : {false, true}) {
      SCOPED_TRACE("compact=" + std::to_string(compact));
      auto g = rmat_graph<vertex32>(rmat_a(8, seed));
      add_weights(g, weight_scheme::log_uniform, seed);
      g.ensure_reverse();
      drive_sem(
          dir_, g, seed, compact, /*symmetric=*/false,
          [](const auto& v) { return async_sssp(v, vertex32{0}, cfg()); },
          [](const auto& v, const auto& d, auto prior, auto* ex) {
            return incremental_sssp(v, d, std::move(prior), ex, cfg());
          },
          [](const auto& r) -> const std::vector<dist_t>& {
            return r.dist;
          });
    }
  }
}

TEST_F(IncrementalDiffSem, CcMatchesRecomputeSem) {
  for (const auto seed : kSeeds) {
    for (const bool compact : {false, true}) {
      SCOPED_TRACE("compact=" + std::to_string(compact));
      auto g = rmat_graph_undirected<vertex32>(rmat_a(8, seed));
      g.ensure_reverse();
      drive_sem(
          dir_, g, seed, compact, /*symmetric=*/true,
          [](const auto& v) { return async_cc(v, cfg()); },
          [](const auto& v, const auto& d, auto prior, auto* ex) {
            return incremental_cc(v, d, std::move(prior), ex, cfg());
          },
          [](const auto& r) -> const std::vector<vertex32>& {
            return r.component;
          });
    }
  }
}

// ---- Contract rows ----

TEST(IncrementalDiff, DeleteRepairWithoutReverseViewThrows) {
  auto g = rmat_graph<vertex32>(rmat_a(6, 1));  // no reverse built
  delta_overlay<csr_graph<vertex32>> ov(g);
  delta_batch<vertex32> d;
  d.erase(0, 1);
  ov.apply(d);
  auto prior = async_bfs(ov.snapshot_at(0), vertex32{0}, cfg());
  EXPECT_THROW(
      incremental_bfs(ov.snapshot(), d, std::move(prior), nullptr, cfg()),
      std::invalid_argument);
}

TEST(IncrementalDiff, InsertOnlyRepairNeedsNoReverseView) {
  auto g = rmat_graph<vertex32>(rmat_a(6, 2));  // no reverse built
  delta_overlay<csr_graph<vertex32>> ov(g);
  auto prior = async_bfs(ov.snapshot(), vertex32{0}, cfg());
  delta_batch<vertex32> d;
  d.insert(0, static_cast<vertex32>(g.num_vertices() - 1));
  ov.apply(d);
  auto view = ov.snapshot();
  incremental_extra ex;
  auto repaired = incremental_bfs(view, d, std::move(prior), &ex, cfg());
  auto full = async_bfs(view, vertex32{0}, cfg());
  expect_labels_equal(repaired.level, full.level, "insert-only repair");
  check_extra(ex, g.num_vertices());
}

// Regression: re-inserting a LIVE pair at a smaller weight is a set-
// semantics no-op, but the planner used to seed the repair from the
// batch's listed weight — a distance the real edge set cannot achieve,
// which monotone relaxation then happily keeps. The seed must come from
// the pair's live weight in the post-apply view.
TEST(IncrementalDiff, DuplicateInsertAtSmallerWeightStaysExact) {
  // 0 -(7)-> 1 -(7)-> 2: dist(2) = 14 and must stay 14 when the no-op
  // "+ 1 2 w=1" lands (the live weight is still 7). The buggy planner
  // seeded dist(2) = 7 + 1 = 8.
  std::vector<edge<vertex32>> edges{{0, 1, 7}, {1, 2, 7}};
  const auto g = build_csr<vertex32>(3, std::move(edges));
  delta_overlay<csr_graph<vertex32>> ov(g);
  auto prior = async_sssp(ov.snapshot(), vertex32{0}, cfg());
  ASSERT_EQ(prior.dist[2], 14u);
  delta_batch<vertex32> d;
  d.insert(1, 2, 1);  // pair already live at weight 7 -> no-op
  ov.apply(d);
  auto view = ov.snapshot();
  incremental_extra ex;
  auto repaired = incremental_sssp(view, d, std::move(prior), &ex, cfg());
  auto full = async_sssp(view, vertex32{0}, cfg());
  expect_labels_equal(repaired.dist, full.dist, "no-op duplicate insert");
  EXPECT_EQ(repaired.dist[2], 14u);
  check_extra(ex, g.num_vertices());
}

// Regression: label_corrections = updates - relaxed_vertices wrapped for
// every repair job, because the labelled set includes the prior labels the
// repair never expands. It must saturate, in the result and the counters.
TEST(IncrementalDiff, RepairLabelCorrectionsNeverExceedUpdates) {
  auto g = rmat_graph_undirected<vertex32>(rmat_a(12, 4));
  delta_overlay<csr_graph<vertex32>> ov(g);
  telemetry::metrics_registry reg;
  const traversal_options opts = cfg().with_metrics(&reg);
  auto bfs_prior = async_bfs(ov.snapshot(), vertex32{0}, opts);
  auto sssp_prior = async_sssp(ov.snapshot(), vertex32{0}, opts);
  auto cc_prior = async_cc(ov.snapshot(), opts);
  delta_batch<vertex32> d;
  const auto n = static_cast<vertex32>(g.num_vertices());
  for (vertex32 i = 0; i < 50; ++i) {
    d.insert_undirected((i * 7919u) % n, (i * 104729u + 1) % n);
  }
  ov.apply(d);
  const auto view = ov.snapshot();
  const auto bfs =
      incremental_bfs(view, d, std::move(bfs_prior), nullptr, opts);
  const auto sssp =
      incremental_sssp(view, d, std::move(sssp_prior), nullptr, opts);
  const auto cc = incremental_cc(view, d, std::move(cc_prior), nullptr, opts);
  for (const traversal_work& w : {bfs.work(), sssp.work(), cc.work()}) {
    EXPECT_LE(w.label_corrections, w.updates);
  }
  for (const std::string algo :
       {"incremental_bfs", "incremental_sssp", "incremental_cc"}) {
    SCOPED_TRACE(algo);
    EXPECT_LE(reg.get_counter(algo + ".label_corrections").total(),
              reg.get_counter(algo + ".updates").total());
  }
}

TEST(IncrementalDiff, JobStatsCarryDeltaEpoch) {
  auto g = rmat_graph<vertex32>(rmat_a(6, 3));
  g.ensure_reverse();
  delta_overlay<csr_graph<vertex32>> ov(g);
  engine eng;
  auto prior = eng.submit_bfs(ov.snapshot(), vertex32{0}, cfg()).get();
  delta_batch<vertex32> d;
  d.insert(1, 2).erase(2, 3);
  ov.apply(d);
  ov.apply(delta_batch<vertex32>{}.insert(3, 4));
  auto j = eng.submit_incremental_bfs(ov.snapshot(), d, std::move(prior),
                                      nullptr, cfg());
  j.wait();
  EXPECT_EQ(j.stats().delta_epoch, 2u);
  EXPECT_EQ(j.stats().label, "incremental_bfs");
}

}  // namespace
}  // namespace asyncgt
