// The parallel transpose behind csr_graph::ensure_reverse, checked against
// the serial counting sort it replaced: thread counts 1-5 through
// detail::transpose_on, both histogram cell widths, weighted and
// unweighted graphs with self loops, duplicate edges, zero-degree vertices
// and a hub, 32- and 64-bit ids, below and above the parallel threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"

namespace asyncgt {
namespace {

/// The serial transpose: one pass over the sources in ascending order.
template <typename VertexId>
detail::transpose_arrays<VertexId> reference_transpose(
    const csr_graph<VertexId>& g) {
  const std::uint64_t n = g.num_vertices();
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  const auto weights = g.weights();
  detail::transpose_arrays<VertexId> r;
  r.offsets.assign(n + 1, 0);
  for (const VertexId t : targets) ++r.offsets[t + 1];
  for (std::uint64_t v = 0; v < n; ++v) r.offsets[v + 1] += r.offsets[v];
  r.targets.resize(targets.size());
  r.weights.resize(weights.size());
  std::vector<std::uint64_t> cursor(r.offsets.begin(), r.offsets.end() - 1);
  for (std::uint64_t v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const std::uint64_t slot = cursor[targets[i]]++;
      r.targets[slot] = static_cast<VertexId>(v);
      if (!weights.empty()) r.weights[slot] = weights[i];
    }
  }
  return r;
}

/// Seeded graph over n vertices that keeps self loops and duplicates
/// (about 1 in 16 edges each), leaves the top quarter of the ids without
/// edges, and sends about a fifth of the edges out of or into a hub.
template <typename VertexId>
csr_graph<VertexId> messy_graph(std::uint64_t n, std::size_t m, bool weighted,
                                bool sorted, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> id(0, n - n / 4 - 1);
  std::uniform_int_distribution<weight_t> wt(1, 9);
  std::vector<edge<VertexId>> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    auto s = static_cast<VertexId>(id(rng));
    auto d = static_cast<VertexId>(id(rng));
    const std::uint64_t roll = rng() % 16;
    if (roll == 0) d = s;
    if (roll == 1 && !edges.empty()) {
      s = edges.back().src;
      d = edges.back().dst;
    }
    if (roll >= 13) s = 2;
    if (roll == 12) d = 2;
    edges.push_back({s, d, weighted ? wt(rng) : weight_t{1}});
  }
  build_options opt;
  opt.remove_self_loops = false;
  opt.remove_duplicates = false;
  opt.sort_adjacency = sorted;
  return build_csr<VertexId>(n, std::move(edges), opt);
}

template <typename VertexId>
void expect_same(const detail::transpose_arrays<VertexId>& got,
                 const detail::transpose_arrays<VertexId>& want) {
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.targets, want.targets);
  EXPECT_EQ(got.weights, want.weights);
}

/// A graph's forward arrays, to compare a transpose() with.
template <typename VertexId>
detail::transpose_arrays<VertexId> forward_arrays(
    const csr_graph<VertexId>& g) {
  return {{g.offsets().begin(), g.offsets().end()},
          {g.targets().begin(), g.targets().end()},
          {g.weights().begin(), g.weights().end()}};
}

template <typename VertexId>
void expect_reverse_is(const csr_graph<VertexId>& g,
                       const detail::transpose_arrays<VertexId>& want) {
  ASSERT_TRUE(g.has_reverse());
  const auto eq = [](auto a, const auto& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(eq(g.in_offsets(), want.offsets));
  EXPECT_TRUE(eq(g.in_targets(), want.targets));
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    std::size_t i = want.offsets[v];
    g.for_each_in_edge(static_cast<VertexId>(v), [&](VertexId, weight_t w) {
      EXPECT_EQ(w, want.weights.empty() ? weight_t{1} : want.weights[i]);
      ++i;
    });
  }
}

template <typename VertexId>
void run_differential(std::uint64_t n, std::size_t m, std::uint64_t seed) {
  for (const bool weighted : {false, true}) {
    for (const bool sorted : {false, true}) {
      SCOPED_TRACE(std::string("weighted=") + (weighted ? "1" : "0") +
                   " sorted=" + (sorted ? "1" : "0") +
                   " m=" + std::to_string(m));
      csr_graph<VertexId> g =
          messy_graph<VertexId>(n, m, weighted, sorted, seed);
      ASSERT_EQ(g.is_weighted(), weighted);
      const auto want = reference_transpose(g);
      for (std::size_t threads = 1; threads <= 5; ++threads) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expect_same(detail::transpose_on<VertexId>(threads, g.offsets(),
                                                   g.targets(), g.weights()),
                    want);
        // The 64-bit cells that graphs past 2^32 edges use.
        expect_same(detail::transpose_counting<std::uint64_t, VertexId>(
                        threads, g.offsets(), g.targets(), g.weights()),
                    want);
      }
      expect_same(forward_arrays(g.transpose()), want);
      g.ensure_reverse();
      expect_reverse_is(g, want);
    }
  }
}

TEST(Transpose, MatchesSerialReferenceBelowTheParallelThreshold) {
  run_differential<vertex32>(40, 600, 11);
  run_differential<vertex32>(9, 40, 12);
  run_differential<vertex64>(300, 3000, 13);
}

TEST(Transpose, MatchesSerialReferenceAboveTheParallelThreshold) {
  // ensure_reverse itself picks the host's thread count here.
  static_assert(detail::parallel_build_threshold <= 70000);
  run_differential<vertex32>(2000, 70000, 21);
  run_differential<vertex64>(2000, 70000, 22);
}

TEST(Transpose, MoreThreadsThanVerticesOrEdges) {
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 4}, {2, 1, 1}});
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(detail::transpose_on<vertex32>(threads, g.offsets(),
                                               g.targets(), g.weights()),
                reference_transpose(g));
  }
  const csr32 empty = build_csr<vertex32>(0, {});
  const auto r = detail::transpose_on<vertex32>(8, empty.offsets(),
                                                empty.targets(),
                                                empty.weights());
  EXPECT_EQ(r.offsets, std::vector<std::uint64_t>{0});
  EXPECT_TRUE(r.targets.empty());
}

}  // namespace
}  // namespace asyncgt
