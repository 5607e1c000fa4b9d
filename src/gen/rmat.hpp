// RMAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos 2004),
// the synthetic workload of the paper's evaluation.
//
// The paper's two parameterizations are provided as presets:
//   RMAT-A: a=0.45 b=0.15 c=0.15 d=0.25  (moderate out-degree skew)
//   RMAT-B: a=0.57 b=0.19 c=0.19 d=0.05  (heavy out-degree skew)
// with 2^scale vertices and edge_factor (paper: 16) edges per vertex.
// Generation is deterministic in the seed and parallelizable: every edge is
// derived from an independent RNG stream keyed by (seed, edge index).
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/types.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace asyncgt {

struct rmat_params {
  double a = 0.45, b = 0.15, c = 0.15, d = 0.25;
  unsigned scale = 16;          // num_vertices = 2^scale
  unsigned edge_factor = 16;    // average out-degree (paper: 16)
  std::uint64_t seed = 42;
  /// Shuffle vertex ids through a bijective mix so hubs are not clustered at
  /// low ids. RMAT's recursion concentrates high degrees near id 0; real
  /// graphs do not label hubs consecutively. Kept on by default.
  bool scramble_ids = true;

  std::uint64_t num_vertices() const { return 1ULL << scale; }
  std::uint64_t num_edges() const { return num_vertices() * edge_factor; }

  /// Every probability must be a non-negative number (a NaN or negative
  /// one would push the sampler's integer thresholds out of range), and
  /// they must sum to 1.
  void validate() const {
    for (const double x : {a, b, c, d}) {
      if (!(x >= 0.0)) {
        throw std::invalid_argument(
            "rmat_params: probabilities must be non-negative numbers, got " +
            std::to_string(x));
      }
    }
    const double sum = a + b + c + d;
    if (!(sum >= 0.999 && sum <= 1.001)) {
      throw std::invalid_argument("rmat_params: a+b+c+d must be 1, got " +
                                  std::to_string(sum));
    }
    if (scale == 0 || scale > 40) {
      throw std::invalid_argument("rmat_params: scale out of range");
    }
  }
};

inline rmat_params rmat_a(unsigned scale, std::uint64_t seed = 42) {
  rmat_params p;
  p.a = 0.45; p.b = 0.15; p.c = 0.15; p.d = 0.25;
  p.scale = scale;
  p.seed = seed;
  return p;
}

inline rmat_params rmat_b(unsigned scale, std::uint64_t seed = 42) {
  rmat_params p;
  p.a = 0.57; p.b = 0.19; p.c = 0.19; p.d = 0.05;
  p.scale = scale;
  p.seed = seed;
  return p;
}

namespace detail {

/// rmat_scramble with its xor key, splitmix64(seed).next() masked to
/// `scale` bits, computed by the caller.
template <typename VertexId>
VertexId rmat_scramble_keyed(std::uint64_t v, unsigned scale,
                             std::uint64_t seed, std::uint64_t key) noexcept {
  const std::uint64_t mask = (scale == 64) ? ~0ULL : ((1ULL << scale) - 1);
  // xor with a seed-derived constant then apply a feistel-ish pair of rounds
  // confined to the low `scale` bits; both steps are invertible so the map
  // is a permutation of [0, 2^scale).
  std::uint64_t x = v ^ key;
  const unsigned half = scale / 2;
  if (half > 0) {
    for (int round = 0; round < 2; ++round) {
      const std::uint64_t lo = x & ((1ULL << half) - 1);
      const std::uint64_t hi = x >> half;
      const std::uint64_t f = mix64(lo + seed + static_cast<unsigned>(round));
      x = ((lo << (scale - half)) | (hi ^ (f & ((1ULL << (scale - half)) - 1)))) &
          mask;
    }
  }
  return static_cast<VertexId>(x);
}

inline std::uint64_t rmat_scramble_key(unsigned scale, std::uint64_t seed) {
  const std::uint64_t mask = (scale == 64) ? ~0ULL : ((1ULL << scale) - 1);
  return splitmix64(seed).next() & mask;
}

/// ceil(t * 2^53), or 0 for t <= 0. next_double() is k * 2^-53 with
/// k = rng() >> 11 < 2^53, and both sides of `next_double() < t` scale by
/// 2^53 exactly, so the draw is below t exactly when k < rmat_threshold(t).
inline std::uint64_t rmat_threshold(double t) {
  return t <= 0.0 ? 0
                  : static_cast<std::uint64_t>(std::ceil(std::ldexp(t, 53)));
}

}  // namespace detail

/// Bijective id scramble: multiply-xorshift over exactly `scale` bits.
template <typename VertexId>
VertexId rmat_scramble(std::uint64_t v, unsigned scale,
                       std::uint64_t seed) noexcept {
  return detail::rmat_scramble_keyed<VertexId>(
      v, scale, seed, detail::rmat_scramble_key(scale, seed));
}

/// The RMAT edge stream of one rmat_params, with its per-edge constants
/// computed once: the quadrant thresholds on the generator's integer draws
/// and the scramble key. Edge i is a pure function of (params, i).
template <typename VertexId>
class rmat_sampler {
 public:
  /// Throws std::invalid_argument when `p` does not validate.
  explicit rmat_sampler(const rmat_params& p)
      : scale_(validated(p).scale),
        seed_(p.seed),
        scramble_(p.scramble_ids),
        key_(detail::rmat_scramble_key(p.scale, p.seed)),
        // The same double sums a next_double() < a, < a+b, < a+b+c chain
        // compares against.
        k_a_(detail::rmat_threshold(p.a)),
        k_ab_(detail::rmat_threshold(p.a + p.b)),
        k_abc_(detail::rmat_threshold(p.a + p.b + p.c)) {}

  /// Edge i of the stream. Each level picks a quadrant from one draw k:
  /// a (k < k_a) sets no bit, b sets dst's, c sets src's, d sets both.
  edge<VertexId> operator()(std::uint64_t i) const noexcept {
    xoshiro256ss rng(splitmix64(seed_ ^ mix64(i)).next());
    std::uint64_t src = 0, dst = 0;
    for (unsigned depth = 0; depth < scale_; ++depth) {
      const std::uint64_t k = rng() >> 11;
      const std::uint64_t s = k >= k_ab_;
      src = (src << 1) | s;
      dst = (dst << 1) |
            (static_cast<std::uint64_t>(k >= k_a_) ^ s ^
             static_cast<std::uint64_t>(k >= k_abc_));
    }
    if (scramble_) {
      return {detail::rmat_scramble_keyed<VertexId>(src, scale_, seed_, key_),
              detail::rmat_scramble_keyed<VertexId>(dst, scale_, seed_, key_),
              1};
    }
    return {static_cast<VertexId>(src), static_cast<VertexId>(dst), 1};
  }

 private:
  static const rmat_params& validated(const rmat_params& p) {
    p.validate();
    return p;
  }

  unsigned scale_;
  std::uint64_t seed_;
  bool scramble_;
  std::uint64_t key_;
  std::uint64_t k_a_, k_ab_, k_abc_;
};

/// Materializes the full edge list (num_edges entries, before dedup).
template <typename VertexId>
std::vector<edge<VertexId>> rmat_edges(const rmat_params& p) {
  const rmat_sampler<VertexId> sample(p);
  std::vector<edge<VertexId>> edges;
  edges.reserve(p.num_edges());
  for (std::uint64_t i = 0; i < p.num_edges(); ++i) {
    edges.push_back(sample(i));
  }
  return edges;
}

/// Parallel edge materialization. Because every edge i derives from an
/// independent RNG stream keyed by (seed, i), generation partitions
/// perfectly: part t fills the contiguous slice [t*m/T, (t+1)*m/T) of the
/// result in place, and the output is bit-identical to rmat_edges() for any
/// thread count.
template <typename VertexId>
std::vector<edge<VertexId>> rmat_edges_parallel(const rmat_params& p,
                                                std::size_t num_threads) {
  const rmat_sampler<VertexId> sample(p);
  if (num_threads == 0) {
    throw std::invalid_argument("rmat_edges_parallel: need >= 1 thread");
  }
  const std::uint64_t m = p.num_edges();
  std::vector<edge<VertexId>> edges(m);
  detail::run_parts(num_threads, [&](std::size_t t) {
    const std::uint64_t hi = m * (t + 1) / num_threads;
    for (std::uint64_t i = m * t / num_threads; i < hi; ++i) {
      edges[i] = sample(i);
    }
  });
  return edges;
}

/// Generates a directed RMAT CSR with unique edges and no self loops,
/// matching the paper's directed inputs for BFS/SSSP.
template <typename VertexId>
csr_graph<VertexId> rmat_graph(const rmat_params& p) {
  build_options opt;
  return build_csr<VertexId>(p.num_vertices(), rmat_edges<VertexId>(p), opt);
}

/// Undirected variant ("created by adding reverse edges") for CC.
template <typename VertexId>
csr_graph<VertexId> rmat_graph_undirected(const rmat_params& p) {
  build_options opt;
  opt.symmetrize = true;
  return build_csr<VertexId>(p.num_vertices(), rmat_edges<VertexId>(p), opt);
}

}  // namespace asyncgt
