#include "gen/update_stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gen/rmat.hpp"
#include "graph/builder.hpp"

namespace asyncgt {
namespace {

using pair_set = std::set<std::pair<vertex32, vertex32>>;

/// FNV-1a over every op of the stream, batch by batch: inserts
/// (src, dst, weight) then deletes (src, dst), with the batch sizes mixed
/// in so ops cannot migrate between batches unnoticed.
std::uint64_t stream_digest(const std::vector<delta_batch<vertex32>>& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  mix(s.size());
  for (const auto& b : s) {
    mix(b.inserts.size());
    for (const auto& e : b.inserts) {
      mix(e.src);
      mix(e.dst);
      mix(e.weight);
    }
    mix(b.deletes.size());
    for (const auto& [u, v] : b.deletes) {
      mix(u);
      mix(v);
    }
  }
  return h;
}

pair_set edge_set(const csr32& g) {
  pair_set out;
  for (vertex32 u = 0; u < g.num_vertices(); ++u) {
    for (const vertex32 v : g.neighbors(u)) out.insert({u, v});
  }
  return out;
}

/// Complete directed graph on n vertices: inserts are rejected often
/// enough that the dense-graph delete fallback runs.
csr32 complete_graph(vertex32 n) {
  std::vector<edge<vertex32>> edges;
  for (vertex32 u = 0; u < n; ++u) {
    for (vertex32 v = 0; v < n; ++v) {
      if (u != v) edges.push_back({u, v, 1});
    }
  }
  return build_csr<vertex32>(n, std::move(edges));
}

// Golden digests: recorded from the node-based-map pool this generator used
// before its open-addressed table. Same seed, same graph, same stream.
TEST(UpdateStream, SymmetricStreamMatchesGoldenDigest) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(12, 5));
  const auto s = generate_update_stream(
      g, {.seed = 21, .num_batches = 64, .batch_size = 64,
          .delete_fraction = 0.4, .symmetric = true, .min_weight = 1,
          .max_weight = 9});
  EXPECT_EQ(stream_digest(s), 0x2F06F107958FC3ADull);
}

TEST(UpdateStream, DirectedStreamMatchesGoldenDigest) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(12, 6));
  const auto s = generate_update_stream(
      g, {.seed = 22, .num_batches = 64, .batch_size = 64,
          .delete_fraction = 0.3});
  EXPECT_EQ(stream_digest(s), 0x91A0FE4075D6DE3Full);
}

TEST(UpdateStream, DenseGraphStreamMatchesGoldenDigest) {
  const csr32 g = complete_graph(6);
  const auto s = generate_update_stream(
      g, {.seed = 23, .num_batches = 16, .batch_size = 8,
          .delete_fraction = 0.2, .symmetric = true});
  EXPECT_EQ(stream_digest(s), 0x71E99112CA1A51BDull);
}

// One op per batch, so the stream replays in emission order against a
// set model of the live edges.
TEST(UpdateStream, EveryDeleteHitsALiveEdgeAndNoInsertDuplicatesOne) {
  for (const bool symmetric : {false, true}) {
    SCOPED_TRACE(symmetric ? "symmetric" : "directed");
    const csr32 g = symmetric ? rmat_graph_undirected<vertex32>(rmat_a(8, 3))
                              : rmat_graph<vertex32>(rmat_a(8, 3));
    pair_set live = edge_set(g);
    const auto s = generate_update_stream(
        g, {.seed = 31, .num_batches = 4000, .batch_size = 1,
            .delete_fraction = 0.5, .symmetric = symmetric});
    ASSERT_EQ(s.size(), 4000u);
    for (const auto& b : s) {
      ASSERT_EQ(b.size(), symmetric ? 2u : 1u);
      for (const auto& [u, v] : b.deletes) {
        ASSERT_EQ(live.erase({u, v}), 1u) << u << "->" << v;
      }
      for (const auto& e : b.inserts) {
        ASSERT_NE(e.src, e.dst);
        ASSERT_TRUE(live.insert({e.src, e.dst}).second)
            << e.src << "->" << e.dst;
      }
    }
  }
}

TEST(UpdateStream, DenseGraphFallsBackToDeletes) {
  const csr32 g = complete_graph(5);
  pair_set live = edge_set(g);
  const auto s = generate_update_stream(
      g, {.seed = 5, .num_batches = 200, .batch_size = 1,
          .delete_fraction = 0.0});
  std::size_t deletes = 0;
  for (const auto& b : s) {
    ASSERT_EQ(b.size(), 1u);
    for (const auto& [u, v] : b.deletes) {
      ASSERT_EQ(live.erase({u, v}), 1u);
      ++deletes;
    }
    for (const auto& e : b.inserts) {
      ASSERT_TRUE(live.insert({e.src, e.dst}).second);
    }
  }
  // delete_fraction 0 still deletes: the first op finds K5 full.
  EXPECT_GT(deletes, 0u);
}

TEST(UpdateStream, SymmetricStreamsEmitBothDirections) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(9, 4));
  const auto s = generate_update_stream(
      g, {.seed = 41, .num_batches = 32, .batch_size = 32,
          .delete_fraction = 0.4, .symmetric = true, .min_weight = 2,
          .max_weight = 6});
  std::size_t ops = 0;
  for (const auto& b : s) {
    ASSERT_EQ(b.inserts.size() % 2, 0u);
    ASSERT_EQ(b.deletes.size() % 2, 0u);
    for (std::size_t i = 0; i < b.inserts.size(); i += 2) {
      const auto& a = b.inserts[i];
      const auto& r = b.inserts[i + 1];
      EXPECT_LT(a.src, a.dst);  // drawn on canonical (min, max) pairs
      EXPECT_EQ(r.src, a.dst);
      EXPECT_EQ(r.dst, a.src);
      EXPECT_EQ(r.weight, a.weight);
      EXPECT_GE(a.weight, 2u);
      EXPECT_LE(a.weight, 6u);
    }
    for (std::size_t i = 0; i < b.deletes.size(); i += 2) {
      EXPECT_LT(b.deletes[i].first, b.deletes[i].second);
      EXPECT_EQ(b.deletes[i + 1].first, b.deletes[i].second);
      EXPECT_EQ(b.deletes[i + 1].second, b.deletes[i].first);
    }
    ops += b.size();
  }
  EXPECT_EQ(ops, 2u * 32 * 32);
}

TEST(UpdateStream, SameSeedSameStream) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8, 2));
  const update_stream_params p{.seed = 9, .num_batches = 8, .batch_size = 16};
  EXPECT_EQ(stream_digest(generate_update_stream(g, p)),
            stream_digest(generate_update_stream(g, p)));
}

// The symmetric fill inserts only the u <= v half of a symmetric base; a
// base with more edges on one side cannot be symmetric and is refused
// rather than silently losing the pairs only its u > v half holds.
TEST(UpdateStream, SymmetricStreamRejectsAnAsymmetricBase) {
  const update_stream_params p{.seed = 3, .num_batches = 2, .batch_size = 4,
                               .symmetric = true};
  const csr32 lower = build_csr<vertex32>(4, {{1, 0, 1}, {2, 0, 1}, {3, 2, 1}});
  EXPECT_THROW(generate_update_stream(lower, p), std::invalid_argument);
  const csr32 upper = build_csr<vertex32>(4, {{0, 1, 1}, {1, 0, 1}, {0, 3, 1}});
  EXPECT_THROW(generate_update_stream(upper, p), std::invalid_argument);
  // The directed stream takes either base; so does the symmetric one once
  // the base is symmetrized. Self loops count on neither side.
  update_stream_params directed = p;
  directed.symmetric = false;
  EXPECT_EQ(generate_update_stream(lower, directed).size(), 2u);
  build_options sym;
  sym.symmetrize = true;
  sym.remove_self_loops = false;
  const csr32 both = build_csr<vertex32>(
      4, {{1, 0, 1}, {2, 0, 1}, {3, 2, 1}, {3, 3, 1}}, sym);
  EXPECT_EQ(generate_update_stream(both, p).size(), 2u);
}

TEST(UpdateStream, TinyGraphGivesAnEmptyStream) {
  const csr32 g = build_csr<vertex32>(1, {});
  EXPECT_TRUE(generate_update_stream(g, {}).empty());
}

// ---- detail::edge_pool ----

TEST(UpdateStream, PoolEraseThenReinsert) {
  detail::edge_pool pool;
  for (std::uint64_t i = 0; i < 40; ++i) ASSERT_TRUE(pool.insert({i, i + 1}));
  EXPECT_FALSE(pool.insert({7, 8}));
  EXPECT_TRUE(pool.erase({7, 8}));
  EXPECT_FALSE(pool.contains({7, 8}));
  EXPECT_FALSE(pool.erase({7, 8}));
  EXPECT_EQ(pool.size(), 39u);
  EXPECT_TRUE(pool.insert({7, 8}));
  EXPECT_TRUE(pool.contains({7, 8}));
  EXPECT_EQ(pool.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(pool.contains({i, i + 1})) << i;
    EXPECT_FALSE(pool.contains({i + 1, i})) << i;
  }
}

TEST(UpdateStream, PoolEraseOfTheLastElement) {
  detail::edge_pool pool;
  ASSERT_TRUE(pool.insert({1, 2}));
  ASSERT_TRUE(pool.insert({3, 4}));
  // {3, 4} sits last in the live vector: erasing it swaps with itself.
  EXPECT_TRUE(pool.erase({3, 4}));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains({1, 2}));
  EXPECT_FALSE(pool.contains({3, 4}));
  EXPECT_TRUE(pool.erase({1, 2}));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.contains({1, 2}));
  EXPECT_TRUE(pool.insert({3, 4}));
  std::mt19937_64 rng(1);
  EXPECT_EQ(pool.sample(rng), (detail::edge_pool::key{3, 4}));
}

// Random insert/erase churn against std::set: membership, size, and
// the sampled keys stay in step, across many table growths.
TEST(UpdateStream, PoolMatchesASetModelUnderChurn) {
  detail::edge_pool pool;
  std::set<detail::edge_pool::key> model;
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<std::uint64_t> id(0, 255);
  for (int i = 0; i < 200000; ++i) {
    const detail::edge_pool::key k{id(rng), id(rng)};
    if (rng() % 2 == 0) {
      ASSERT_EQ(pool.erase(k), model.erase(k) == 1) << i;
    } else {
      ASSERT_EQ(pool.insert(k), model.insert(k).second) << i;
    }
    ASSERT_EQ(pool.size(), model.size());
    if (i % 4999 == 0) {
      for (const auto& m : model) ASSERT_TRUE(pool.contains(m));
      if (pool.size() > 0) {
        ASSERT_TRUE(model.count(pool.sample(rng)));
      }
    }
  }
}

}  // namespace
}  // namespace asyncgt
