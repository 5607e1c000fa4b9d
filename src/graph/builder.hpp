// Edge-list → CSR construction.
//
// Handles the transformations the paper's experimental setup describes:
// duplicate-edge removal ("graphs with unique edges"), self-loop removal,
// and symmetrization by adding reverse edges ("undirected versions of these
// graphs ... were created by adding reverse edges").
//
// The build is a counting sort by source: count each source's out-degree
// (a reverse copy counts at its destination in place, never appended),
// prefix-sum the counts, scatter every target (and weight) into its
// source's slots, then sort and dedup each adjacency on its own and compact.
// Above parallel_build_threshold edge slots the passes run on up to
// hardware_concurrency() threads over contiguous chunks of the edge list,
// each with its own degree histogram, so the scatter stays stable: a
// source's slots fill in input order, originals before reversed copies —
// the order an unsorted, undeduplicated build keeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "util/parallel.hpp"

namespace asyncgt {

struct build_options {
  bool remove_self_loops = true;
  bool remove_duplicates = true;
  /// Add a (dst,src) edge for every (src,dst): turns the list undirected.
  bool symmetrize = false;
  /// Sort adjacency lists by target id (deterministic layout; also what a
  /// CSR file format wants).
  bool sort_adjacency = true;
  /// Also build the reverse (transpose) view at construction — in-offsets /
  /// in-targets arrays for in-edge traversal (csr_graph::for_each_in_edge).
  /// Equivalent to calling ensure_reverse() on the result; costs one extra
  /// O(V+E) counting sort and doubles the edge-array footprint.
  bool build_reverse = false;
};

namespace detail {

/// build_csr with Count-wide histogram cells on exactly `threads` >= 1
/// threads; the endpoints are already checked.
template <typename Count, typename VertexId>
csr_graph<VertexId> build_csr_counting(std::size_t threads, std::uint64_t n,
                                       std::vector<edge<VertexId>> edges,
                                       const build_options& opt) {
  using offset_type = typename csr_graph<VertexId>::offset_type;

  // Virtual edge sequence: the input, then (when symmetrizing) its reverse
  // copies. Each thread owns one contiguous chunk of it.
  const std::uint64_t num_input = edges.size();
  const std::uint64_t slots = num_input * (opt.symmetrize ? 2 : 1);
  const bool drop_loops = opt.remove_self_loops;
  const auto for_each_in_chunk = [&](std::size_t t, auto&& f) {
    const std::uint64_t lo = slots * t / threads;
    const std::uint64_t hi = slots * (t + 1) / threads;
    for (std::uint64_t i = lo; i < std::min(hi, num_input); ++i) {
      const auto& e = edges[i];
      if (!drop_loops || e.src != e.dst) f(e.src, e.dst, e.weight);
    }
    for (std::uint64_t i = std::max(lo, num_input); i < hi; ++i) {
      const auto& e = edges[i - num_input];
      if (!drop_loops || e.src != e.dst) f(e.dst, e.src, e.weight);
    }
  };
  const auto vertex_range = [&](std::size_t r) {
    return std::pair<std::uint64_t, std::uint64_t>{n * r / threads,
                                                   n * (r + 1) / threads};
  };

  // Pass 1: per-thread out-degree histograms; any kept weight != 1?
  std::vector<Count> hist(threads * n, 0);
  std::vector<char> any_weight(threads, 0);
  run_parts(threads, [&](std::size_t t) {
    Count* h = hist.data() + t * n;
    bool w = false;
    for_each_in_chunk(t, [&](VertexId s, VertexId, weight_t wt) {
      ++h[s];
      w |= wt != 1;
    });
    any_weight[t] = w;
  });
  bool weighted = std::find(any_weight.begin(), any_weight.end(), 1) !=
                  any_weight.end();

  // Pass 2: prefix sums; thread t's cursor for a source follows thread
  // t-1's.
  const offset_type total = histogram_cursors(threads, n, hist);

  // Pass 3: stable scatter into the source slots. The last thread's cursors
  // then end each source's slots: they become the offsets once the input
  // is gone.
  std::vector<VertexId> targets(total);
  std::vector<weight_t> weights(weighted ? total : 0);
  run_parts(threads, [&](std::size_t t) {
    Count* cursor = hist.data() + t * n;
    for_each_in_chunk(t, [&](VertexId s, VertexId d, weight_t wt) {
      const Count slot = cursor[s]++;
      targets[slot] = d;
      if (weighted) weights[slot] = wt;
    });
  });
  std::vector<edge<VertexId>>().swap(edges);
  std::vector<offset_type> offsets(n + 1, 0);
  run_parts(threads, [&](std::size_t r) {
    const auto [lo, hi] = vertex_range(r);
    const Count* end = hist.data() + (threads - 1) * n;
    for (std::uint64_t v = lo; v < hi; ++v) offsets[v + 1] = end[v];
  });
  std::vector<Count>().swap(hist);

  if (opt.remove_duplicates || opt.sort_adjacency) {
    // Pass 4: sort each adjacency by (dst, weight) and keep the first copy
    // of each dst — the lowest weight. Vertex ranges split the slots
    // evenly; kept[v + 1] is v's surviving degree, then its new end.
    const std::vector<std::uint64_t> bound =
        edge_balanced_ranges(threads, offsets);
    std::vector<offset_type> kept(opt.remove_duplicates ? n + 1 : 0);
    std::fill(any_weight.begin(), any_weight.end(), 0);
    run_parts(threads, [&](std::size_t r) {
      std::vector<std::pair<VertexId, weight_t>> adj;
      bool w = false;
      for (std::uint64_t v = bound[r]; v < bound[r + 1]; ++v) {
        VertexId* const b = targets.data() + offsets[v];
        VertexId* const e = targets.data() + offsets[v + 1];
        std::size_t deg = static_cast<std::size_t>(e - b);
        if (!weighted) {
          std::sort(b, e);
          if (opt.remove_duplicates) deg = std::unique(b, e) - b;
        } else {
          weight_t* const wb = weights.data() + offsets[v];
          adj.resize(deg);
          for (std::size_t i = 0; i < deg; ++i) adj[i] = {b[i], wb[i]};
          std::sort(adj.begin(), adj.end());
          if (opt.remove_duplicates) {
            deg = std::unique(adj.begin(), adj.end(),
                              [](const auto& x, const auto& y) {
                                return x.first == y.first;
                              }) -
                  adj.begin();
          }
          for (std::size_t i = 0; i < deg; ++i) {
            b[i] = adj[i].first;
            wb[i] = adj[i].second;
            w |= adj[i].second != 1;
          }
        }
        if (opt.remove_duplicates) kept[v + 1] = deg;
      }
      any_weight[r] = w;
    });
    if (opt.remove_duplicates) {
      // Dropped duplicates can leave every surviving weight at 1.
      weighted = std::find(any_weight.begin(), any_weight.end(), 1) !=
                 any_weight.end();
      for (std::uint64_t v = 0; v < n; ++v) kept[v + 1] += kept[v];
      if (kept[n] != total) {
        // Pass 5: compact the surviving prefix of each slot range.
        std::vector<VertexId> packed(kept[n]);
        std::vector<weight_t> packed_w(weighted ? kept[n] : 0);
        run_parts(threads, [&](std::size_t r) {
          for (std::uint64_t v = bound[r]; v < bound[r + 1]; ++v) {
            const offset_type deg = kept[v + 1] - kept[v];
            std::copy_n(targets.begin() + offsets[v], deg,
                        packed.begin() + kept[v]);
            if (weighted) {
              std::copy_n(weights.begin() + offsets[v], deg,
                          packed_w.begin() + kept[v]);
            }
          }
        });
        targets = std::move(packed);
        weights = std::move(packed_w);
      }
      offsets = std::move(kept);
    }
  }
  if (!weighted) std::vector<weight_t>().swap(weights);

  csr_graph<VertexId> g(std::move(offsets), std::move(targets),
                        std::move(weights));
  if (opt.build_reverse) g.ensure_reverse();
  return g;
}

/// build_csr on exactly `threads` >= 1 threads (the result does not depend
/// on the count).
template <typename VertexId>
csr_graph<VertexId> build_csr_on(std::size_t threads, std::uint64_t n,
                                 std::vector<edge<VertexId>> edges,
                                 const build_options& opt) {
  if (n >= invalid_vertex<VertexId>) {
    throw std::invalid_argument("build_csr: vertex count exceeds id space");
  }
  for (const auto& e : edges) {
    if (e.src >= n || e.dst >= n) {
      throw std::invalid_argument("build_csr: edge endpoint out of range");
    }
  }
  if (count_bytes(edges.size() * (opt.symmetrize ? 2 : 1)) == 4) {
    return build_csr_counting<std::uint32_t>(threads, n, std::move(edges),
                                             opt);
  }
  return build_csr_counting<std::uint64_t>(threads, n, std::move(edges), opt);
}

}  // namespace detail

/// Builds a CSR with `n` vertices from `edges`. Edges referencing vertices
/// >= n are rejected before any work starts. The input vector is consumed:
/// it is released once its edges are scattered into the adjacency slots.
/// The result is the one a sort of the edges by (src, dst, weight) would
/// give: sorted adjacency keeps the lowest-weight copy of each duplicate,
/// and an unsorted one keeps input order per source with reversed copies
/// after all originals.
template <typename VertexId>
csr_graph<VertexId> build_csr(std::uint64_t n,
                              std::vector<edge<VertexId>> edges,
                              const build_options& opt = {}) {
  const std::size_t threads =
      detail::build_threads(edges.size() * (opt.symmetrize ? 2 : 1), n);
  return detail::build_csr_on(threads, n, std::move(edges), opt);
}

/// Extracts the edge list back out of a CSR (used by tests and by the SEM
/// on-disk builder).
template <typename VertexId>
std::vector<edge<VertexId>> to_edge_list(const csr_graph<VertexId>& g) {
  std::vector<edge<VertexId>> out;
  out.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.for_each_out_edge(v, [&](VertexId t, weight_t w) {
      out.push_back({v, t, w});
    });
  }
  return out;
}

}  // namespace asyncgt
