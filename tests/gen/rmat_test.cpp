#include "gen/rmat.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "graph/graph_stats.hpp"

namespace asyncgt {
namespace {

TEST(RmatParams, PresetsSumToOne) {
  rmat_a(10).validate();
  rmat_b(10).validate();
}

TEST(RmatParams, InvalidProbabilitiesRejected) {
  rmat_params p;
  p.a = 0.9;
  p.b = 0.9;  // sums to > 1 with c, d
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// Every comparison with a NaN is false, and a negative probability can
// hide behind a sum of 1; both would leave the sampler's integer
// thresholds out of range.
TEST(RmatParams, NanOrNegativeProbabilitiesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int which = 0; which < 4; ++which) {
    for (const double bad : {nan, -0.5, -1e-300}) {
      rmat_params p = rmat_a(8);
      double* const x[] = {&p.a, &p.b, &p.c, &p.d};
      *x[which] = bad;
      SCOPED_TRACE("probability " + std::to_string(which) + " = " +
                   std::to_string(bad));
      EXPECT_THROW(p.validate(), std::invalid_argument);
      EXPECT_THROW(rmat_edges<vertex32>(p), std::invalid_argument);
      EXPECT_THROW(rmat_sampler<vertex32>{p}, std::invalid_argument);
    }
  }
  rmat_params p = rmat_a(8);
  p.a = -0.5;
  p.b = 1.5;  // with c = d = 0, the sum is 1
  p.c = 0.0;
  p.d = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Zero is a valid probability.
  p.a = 0.0;
  p.b = 1.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(RmatParams, SizesFollowScaleAndEdgeFactor) {
  const rmat_params p = rmat_a(12);
  EXPECT_EQ(p.num_vertices(), 1ULL << 12);
  EXPECT_EQ(p.num_edges(), (1ULL << 12) * 16);
}

TEST(RmatScramble, IsBijectiveOverScaleBits) {
  constexpr unsigned kScale = 12;
  std::set<vertex32> outs;
  for (std::uint64_t v = 0; v < (1ULL << kScale); ++v) {
    const vertex32 s = rmat_scramble<vertex32>(v, kScale, 42);
    EXPECT_LT(s, 1u << kScale);
    outs.insert(s);
  }
  EXPECT_EQ(outs.size(), 1ULL << kScale);  // permutation
}

TEST(RmatEdges, DeterministicForSeed) {
  const rmat_params p = rmat_a(10, 7);
  const auto e1 = rmat_edges<vertex32>(p);
  const auto e2 = rmat_edges<vertex32>(p);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) EXPECT_EQ(e1[i], e2[i]);
}

TEST(RmatEdges, DifferentSeedsDiffer) {
  const auto e1 = rmat_edges<vertex32>(rmat_a(10, 1));
  const auto e2 = rmat_edges<vertex32>(rmat_a(10, 2));
  std::size_t same = 0;
  for (std::size_t i = 0; i < e1.size(); ++i) same += (e1[i] == e2[i]);
  EXPECT_LT(same, e1.size() / 100);
}

TEST(RmatEdges, EndpointsInRange) {
  const rmat_params p = rmat_b(10);
  for (const auto& e : rmat_edges<vertex32>(p)) {
    EXPECT_LT(e.src, p.num_vertices());
    EXPECT_LT(e.dst, p.num_vertices());
  }
}

TEST(RmatGraph, UniqueEdgesNoSelfLoops) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(10));
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      EXPECT_NE(nb[i], v);                       // no self loop
      if (i > 0) EXPECT_LT(nb[i - 1], nb[i]);    // sorted & unique
    }
  }
}

TEST(RmatGraph, UndirectedVersionIsSymmetric) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(9));
  EXPECT_TRUE(is_symmetric(g));
}

TEST(RmatGraph, RmatBMoreSkewedThanRmatA) {
  // The defining property of the two presets (paper §V-A1): RMAT-B has
  // "heavy out-degree skewness" vs RMAT-A's "moderate".
  const auto sa = compute_degree_summary(rmat_graph<vertex32>(rmat_a(13)));
  const auto sb = compute_degree_summary(rmat_graph<vertex32>(rmat_b(13)));
  EXPECT_GT(sb.max_degree, sa.max_degree);
  EXPECT_GT(sb.top_fraction_edge_share, sa.top_fraction_edge_share);
  EXPECT_GT(sb.stats.cv(), sa.stats.cv());
}

TEST(RmatGraph, PowerLawTail) {
  // A scale-free graph has hubs orders of magnitude above the mean degree.
  const auto s = compute_degree_summary(rmat_graph<vertex32>(rmat_b(13)));
  EXPECT_GT(static_cast<double>(s.max_degree), 20.0 * s.stats.mean());
}

TEST(RmatEdges, ParallelGenerationBitIdenticalToSerial) {
  const rmat_params p = rmat_b(11, 5);
  const auto serial = rmat_edges<vertex32>(p);
  for (const std::size_t t : {1u, 2u, 3u, 7u, 16u}) {
    const auto parallel = rmat_edges_parallel<vertex32>(p, t);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << t;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i]) << "threads=" << t << " i=" << i;
    }
  }
}

TEST(RmatEdges, ParallelZeroThreadsRejected) {
  EXPECT_THROW(rmat_edges_parallel<vertex32>(rmat_a(8), 0),
               std::invalid_argument);
}

// ---- golden digests ----

/// FNV-1a over the edge count and every edge's (src, dst, weight).
template <typename VertexId>
std::uint64_t edges_digest(const std::vector<edge<VertexId>>& edges) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  mix(edges.size());
  for (const auto& e : edges) {
    mix(e.src);
    mix(e.dst);
    mix(e.weight);
  }
  return h;
}

rmat_params with_scramble(rmat_params p, bool scramble) {
  p.scramble_ids = scramble;
  return p;
}

rmat_params custom(double a, double b, double c, double d, unsigned scale,
                   std::uint64_t seed, bool scramble) {
  rmat_params p;
  p.a = a;
  p.b = b;
  p.c = c;
  p.d = d;
  p.scale = scale;
  p.seed = seed;
  p.scramble_ids = scramble;
  return p;
}

// Recorded from the generator that compared next_double() against the
// running sums a, a+b, a+b+c level by level, before it sampled on
// integer thresholds. Same params, same edge list.
TEST(RmatGolden, PresetsMatchTheirDigests) {
  for (const bool scramble : {false, true}) {
    SCOPED_TRACE(scramble ? "scrambled" : "plain");
    EXPECT_EQ(edges_digest(
                  rmat_edges<vertex32>(with_scramble(rmat_a(12, 7), scramble))),
              scramble ? 0x07C472DA002466B3ull : 0x1DD4BB21205DC889ull);
    EXPECT_EQ(edges_digest(
                  rmat_edges<vertex32>(with_scramble(rmat_b(12, 7), scramble))),
              scramble ? 0x10F853F663983A44ull : 0x34B2B47E4D06F493ull);
  }
}

// a, a+b and a+b+c times 2^53 are exact integers here, so a draw can sit
// exactly on a threshold.
TEST(RmatGolden, DyadicProbabilitiesMatchTheirDigests) {
  EXPECT_EQ(edges_digest(rmat_edges<vertex32>(
                custom(0.5, 0.25, 0.125, 0.125, 11, 3, true))),
            0x41F3A0998C58B436ull);
  EXPECT_EQ(edges_digest(rmat_edges<vertex32>(
                custom(0.5, 0.25, 0.125, 0.125, 11, 3, false))),
            0x27757C19BFB19D0Full);
}

TEST(RmatGolden, ZeroDMatchesItsDigest) {
  EXPECT_EQ(edges_digest(rmat_edges<vertex32>(
                custom(0.6, 0.2, 0.2, 0.0, 11, 4, true))),
            0xDAEA7366986199E5ull);
  EXPECT_EQ(edges_digest(rmat_edges<vertex32>(
                custom(0.6, 0.2, 0.2, 0.0, 11, 4, false))),
            0xB642F13004E7890Dull);
}

TEST(RmatGolden, OtherShapesMatchTheirDigests) {
  rmat_params wide = rmat_a(13, 9);
  wide.edge_factor = 5;
  EXPECT_EQ(edges_digest(rmat_edges<vertex64>(wide)), 0x5D19042029870889ull);
  // A sum inside validate()'s tolerance but not exactly 1.
  EXPECT_EQ(edges_digest(rmat_edges<vertex32>(
                custom(0.4, 0.3, 0.2, 0.1005, 10, 11, true))),
            0x866AB0B31B84519Aull);
  EXPECT_EQ(edges_digest(rmat_edges<vertex32>(rmat_b(1, 5))),
            0xF4E3EA5A34618584ull);
  EXPECT_EQ(edges_digest(rmat_edges_parallel<vertex32>(rmat_b(12, 7), 3)),
            0x10F853F663983A44ull);
}

// A draw lands within one unit of a threshold with probability 2^-52, so
// no sampled edge list tests the boundary: check it directly. The draw k
// is below threshold(t) exactly when next_double() = k * 2^-53 is below t.
TEST(RmatGolden, ThresholdsMatchNextDoubleAtTheirBoundaries) {
  for (const double t : {0.45, 0.45 + 0.15, 0.45 + 0.15 + 0.15, 0.57,
                         0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.5, 0.75, 0.875,
                         1.0, 1.0005, 0.1, 1e-300, 0.0}) {
    const std::uint64_t k_t = detail::rmat_threshold(t);
    for (const std::uint64_t k : {k_t - 1, k_t, k_t + 1}) {
      if (k >= (1ull << 53)) continue;  // not a 53-bit draw
      EXPECT_EQ(static_cast<double>(k) * 0x1.0p-53 < t, k < k_t)
          << "t=" << t << " k=" << k << " threshold=" << k_t;
    }
  }
  EXPECT_EQ(detail::rmat_threshold(0.5), 1ull << 52);
  EXPECT_EQ(detail::rmat_threshold(0.0), 0u);
}

TEST(RmatGraph, ScrambleSpreadsHubs) {
  // Without scrambling, RMAT hubs concentrate at low ids; with it the top
  // 1% of ids should not hold most edges.
  rmat_params p = rmat_b(12);
  p.scramble_ids = false;
  const csr32 raw = rmat_graph<vertex32>(p);
  std::uint64_t low_id_edges_raw = 0;
  const vertex32 cut = static_cast<vertex32>(raw.num_vertices() / 100);
  for (vertex32 v = 0; v < cut; ++v) low_id_edges_raw += raw.out_degree(v);

  p.scramble_ids = true;
  const csr32 mixed = rmat_graph<vertex32>(p);
  std::uint64_t low_id_edges_mixed = 0;
  for (vertex32 v = 0; v < cut; ++v) low_id_edges_mixed += mixed.out_degree(v);

  EXPECT_GT(low_id_edges_raw, 2 * low_id_edges_mixed);
}

}  // namespace
}  // namespace asyncgt
