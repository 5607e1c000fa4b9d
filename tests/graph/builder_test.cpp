#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/graph_stats.hpp"

namespace asyncgt {
namespace {

TEST(Builder, RemovesSelfLoops) {
  const csr32 g = build_csr<vertex32>(3, {{0, 0, 1}, {0, 1, 1}, {2, 2, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  build_options opt;
  opt.remove_self_loops = false;
  const csr32 g = build_csr<vertex32>(2, {{0, 0, 1}, {0, 1, 1}}, opt);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, RemovesDuplicateEdges) {
  const csr32 g = build_csr<vertex32>(
      3, {{0, 1, 1}, {0, 1, 1}, {0, 1, 1}, {1, 2, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, DuplicateRemovalKeepsLowestWeight) {
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 9}, {0, 1, 3}});
  EXPECT_EQ(g.num_edges(), 1u);
  g.for_each_out_edge(0, [](vertex32, weight_t w) { EXPECT_EQ(w, 3u); });
}

TEST(Builder, SymmetrizeAddsReverseEdges) {
  build_options opt;
  opt.symmetrize = true;
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 1}, {1, 2, 1}}, opt);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(is_symmetric(g));
}

TEST(Builder, SymmetrizeDedupsMutualEdges) {
  // (0,1) and (1,0) both present: symmetrization must not double them.
  build_options opt;
  opt.symmetrize = true;
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}, {1, 0, 1}}, opt);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, AdjacencySorted) {
  const csr32 g = build_csr<vertex32>(
      4, {{0, 3, 1}, {0, 1, 1}, {0, 2, 1}});
  const auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Builder, OutOfRangeEndpointRejected) {
  EXPECT_THROW(build_csr<vertex32>(2, {{0, 2, 1}}), std::invalid_argument);
  EXPECT_THROW(build_csr<vertex32>(2, {{5, 0, 1}}), std::invalid_argument);
}

TEST(Builder, OutOfRangeEndpointRejectedAboveTheParallelThreshold) {
  // Enough slots that the build would run its parallel passes; the bad
  // endpoint sits in the last chunk, and in the symmetrized reverse copy.
  std::vector<edge<vertex32>> edges;
  for (vertex32 i = 0; i < detail::parallel_build_threshold; ++i) {
    edges.push_back({i % 64, (i * 7) % 64, 1});
  }
  edges.push_back({3, 64, 1});
  build_options opt;
  opt.symmetrize = true;
  EXPECT_THROW(build_csr<vertex32>(64, edges, opt), std::invalid_argument);
  edges.back() = {64, 3, 1};
  EXPECT_THROW(build_csr<vertex32>(64, edges), std::invalid_argument);
  EXPECT_THROW(detail::build_csr_on<vertex32>(4, 64, edges, {}),
               std::invalid_argument);
}

TEST(Builder, EmptyEdgeList) {
  const csr32 g = build_csr<vertex32>(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Builder, ZeroVertices) {
  const csr32 g = build_csr<vertex32>(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
}

TEST(Builder, UnweightedWhenAllWeightsOne) {
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  EXPECT_FALSE(g.is_weighted());
}

TEST(Builder, WeightedWhenAnyWeightDiffers) {
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 1}, {1, 2, 4}});
  EXPECT_TRUE(g.is_weighted());
}

TEST(Builder, BuildReverseOption) {
  build_options opt;
  opt.build_reverse = true;
  const csr32 g = build_csr<vertex32>(3, {{0, 1, 1}, {2, 1, 1}}, opt);
  ASSERT_TRUE(g.has_reverse());
  EXPECT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.in_neighbors(1)[0], 0u);
  EXPECT_EQ(g.in_neighbors(1)[1], 2u);
}

TEST(Builder, ReverseOffByDefault) {
  const csr32 g = build_csr<vertex32>(2, {{0, 1, 1}});
  EXPECT_FALSE(g.has_reverse());
}

TEST(Builder, RoundTripThroughEdgeList) {
  const csr32 g = build_csr<vertex32>(
      4, {{0, 1, 2}, {0, 2, 3}, {2, 3, 4}, {3, 0, 5}});
  const auto edges = to_edge_list(g);
  const csr32 h = build_csr<vertex32>(4, edges);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (vertex32 v = 0; v < 4; ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

// ---- Differential test against the sort-based builder ----

/// The comparison-sort builder build_csr replaced, kept as the reference
/// model: append reversed copies, drop self loops, sort every edge by
/// (src, dst, weight), keep the first copy of each (src, dst), then a
/// stable counting placement by source.
template <typename VertexId>
csr_graph<VertexId> reference_build(std::uint64_t n,
                                    std::vector<edge<VertexId>> edges,
                                    const build_options& opt) {
  if (opt.symmetrize) {
    const std::size_t original = edges.size();
    for (std::size_t i = 0; i < original; ++i) {
      edges.push_back({edges[i].dst, edges[i].src, edges[i].weight});
    }
  }
  if (opt.remove_self_loops) {
    std::erase_if(edges,
                  [](const edge<VertexId>& e) { return e.src == e.dst; });
  }
  if (opt.remove_duplicates || opt.sort_adjacency) {
    std::sort(edges.begin(), edges.end(),
              [](const edge<VertexId>& a, const edge<VertexId>& b) {
                if (a.src != b.src) return a.src < b.src;
                if (a.dst != b.dst) return a.dst < b.dst;
                return a.weight < b.weight;
              });
  }
  if (opt.remove_duplicates) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const edge<VertexId>& a,
                               const edge<VertexId>& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const auto& e : edges) ++offsets[e.src + 1];
  for (std::uint64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  const bool weighted =
      std::any_of(edges.begin(), edges.end(),
                  [](const edge<VertexId>& e) { return e.weight != 1; });
  std::vector<VertexId> targets(edges.size());
  std::vector<weight_t> weights(weighted ? edges.size() : 0);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& e : edges) {
    const std::uint64_t slot = cursor[e.src]++;
    targets[slot] = e.dst;
    if (weighted) weights[slot] = e.weight;
  }
  csr_graph<VertexId> g(std::move(offsets), std::move(targets),
                        std::move(weights));
  if (opt.build_reverse) g.ensure_reverse();
  return g;
}

enum class weight_mix { all_one, mixed, dup_heavier_only };

/// Seeded edge list over n vertices: endpoints drawn from a small id pool
/// (so duplicates are common), about 1 in 16 a self loop, and a hub
/// (vertex 1) at one end of about a fifth of the edges. `dup_heavier_only`
/// gives weight 1 to the first copy of every pair and 2 to later copies,
/// so deduplication alone decides whether the result is weighted.
template <typename VertexId>
std::vector<edge<VertexId>> random_edges(std::uint64_t n, std::size_t m,
                                         weight_mix mix, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> id(0, n - 1);
  std::uniform_int_distribution<weight_t> wt(1, 4);
  std::vector<edge<VertexId>> edges;
  edges.reserve(m);
  std::vector<char> seen(n * n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    VertexId s = static_cast<VertexId>(id(rng));
    VertexId d = static_cast<VertexId>(id(rng));
    const std::uint64_t roll = rng() % 16;
    if (roll == 0) d = s;
    if (roll >= 13) s = 1;
    if (roll == 12) d = 1;
    weight_t w = 1;
    if (mix == weight_mix::mixed) w = wt(rng);
    if (mix == weight_mix::dup_heavier_only) {
      char& first = seen[static_cast<std::size_t>(s) * n + d];
      w = first ? 2 : 1;
      first = 1;
    }
    edges.push_back({s, d, w});
  }
  return edges;
}

template <typename VertexId>
void expect_same_csr(const csr_graph<VertexId>& got,
                     const csr_graph<VertexId>& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  ASSERT_EQ(got.is_weighted(), want.is_weighted());
  const auto eq = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(eq(got.offsets(), want.offsets()));
  EXPECT_TRUE(eq(got.targets(), want.targets()));
  EXPECT_TRUE(eq(got.weights(), want.weights()));
  ASSERT_EQ(got.has_reverse(), want.has_reverse());
  EXPECT_TRUE(eq(got.in_offsets(), want.in_offsets()));
  EXPECT_TRUE(eq(got.in_targets(), want.in_targets()));
  EXPECT_EQ(got.resident_bytes(), want.resident_bytes());
}

build_options options_from_bits(unsigned bits) {
  build_options opt;
  opt.remove_self_loops = bits & 1;
  opt.remove_duplicates = bits & 2;
  opt.symmetrize = bits & 4;
  opt.sort_adjacency = bits & 8;
  opt.build_reverse = bits & 16;
  return opt;
}

std::string describe(const build_options& o) {
  return std::string("loops=") + (o.remove_self_loops ? "drop" : "keep") +
         " dedup=" + (o.remove_duplicates ? "1" : "0") +
         " sym=" + (o.symmetrize ? "1" : "0") +
         " sort=" + (o.sort_adjacency ? "1" : "0") +
         " reverse=" + (o.build_reverse ? "1" : "0");
}

// All 16 combinations of the four edge transformations (plus the reverse
// view on the deduplicating ones), three weight mixes, through build_csr
// and through thread counts 1 to max_threads with 32- and 64-bit
// histogram cells (the parallel passes run at any size when asked for):
// offsets, targets, weights,
// the reverse arrays and the weighted flag equal the sort-based builder's.
template <typename VertexId>
void run_differential(std::uint64_t n, std::size_t m, std::uint64_t seed,
                      std::size_t max_threads) {
  for (unsigned bits = 0; bits < 32; ++bits) {
    const build_options opt = options_from_bits(bits);
    if (opt.build_reverse && (bits & 3) != 3) continue;
    for (const weight_mix mix : {weight_mix::all_one, weight_mix::mixed,
                                 weight_mix::dup_heavier_only}) {
      SCOPED_TRACE(describe(opt) + " mix=" +
                   std::to_string(static_cast<int>(mix)) +
                   " m=" + std::to_string(m) +
                   " seed=" + std::to_string(seed));
      const auto edges = random_edges<VertexId>(n, m, mix, seed + bits);
      const auto want = reference_build<VertexId>(n, edges, opt);
      expect_same_csr(build_csr<VertexId>(n, edges, opt), want);
      for (std::size_t threads = 1; threads <= max_threads; ++threads) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expect_same_csr(detail::build_csr_on<VertexId>(threads, n, edges, opt),
                        want);
        // The 64-bit histogram cells that edge lists past 2^32 slots use.
        expect_same_csr(detail::build_csr_counting<std::uint64_t, VertexId>(
                            threads, n, edges, opt),
                        want);
      }
    }
  }
}

TEST(Builder, MatchesSortBuilderBelowTheParallelThreshold) {
  run_differential<vertex32>(40, 600, 101, 5);
  run_differential<vertex32>(7, 50, 202, 5);
}

TEST(Builder, MatchesSortBuilderAboveTheParallelThreshold) {
  // Symmetrized or not, 70k input edges clear the 64k-slot threshold, so
  // build_csr itself picks the host's thread count.
  static_assert(detail::parallel_build_threshold <= 70000);
  run_differential<vertex32>(400, 70000, 303, 0);
}

TEST(Builder, MatchesSortBuilderWithSixtyFourBitIds) {
  run_differential<vertex64>(300, 3000, 404, 3);
}

TEST(Builder, MoreThreadsThanVerticesOrEdges) {
  const std::vector<edge<vertex32>> edges = {{0, 1, 3}, {1, 0, 1}, {1, 1, 2}};
  for (unsigned bits = 0; bits < 16; ++bits) {
    const build_options opt = options_from_bits(bits);
    SCOPED_TRACE(describe(opt));
    expect_same_csr(detail::build_csr_on<vertex32>(8, 2, edges, opt),
                    reference_build<vertex32>(2, edges, opt));
  }
  expect_same_csr(detail::build_csr_on<vertex32>(8, 0, {}, {}),
                  reference_build<vertex32>(0, {}, {}));
}

TEST(Builder, ParallelOnlyAboveTheThreshold) {
  const std::uint64_t t = detail::parallel_build_threshold;
  EXPECT_EQ(detail::build_threads(t - 1, 10), 1u);
  EXPECT_GE(detail::build_threads(t, 10), 1u);
  // Histograms stay within a quarter of a cell per slot: 2^20 slots over
  // 2^18 vertices leave room for exactly one.
  EXPECT_EQ(detail::build_threads(1u << 20, (1u << 18) - 1), 1u);
  // ...and within the two words per vertex of a serial placement: four
  // 32-bit histograms, or two 64-bit ones once slot indices need 64 bits.
  EXPECT_LE(detail::build_threads(t << 8, 10), 4u);
  EXPECT_LE(detail::build_threads(1ull << 33, 10), 2u);
}

}  // namespace
}  // namespace asyncgt
