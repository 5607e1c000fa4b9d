// In-memory Compressed Sparse Row graph.
//
// This is the in-memory storage backend for all traversals (the paper used
// Boost's CSR for the in-memory experiments). Adjacency of vertex v is the
// slice targets[offsets[v] .. offsets[v+1]); weights, when present, are a
// parallel array. The class models the GraphStorage concept consumed by the
// algorithms in src/core and src/baselines:
//
//   num_vertices(), num_edges(), out_degree(v),
//   for_each_out_edge(v, f)  with f(target, weight)
//
// so the same algorithm template instantiates over this class or over
// sem::sem_csr (disk-backed).
//
// Reverse view. Storage backends may additionally carry an optional
// transpose — in-offsets/in-targets arrays here, a second on-disk edge file
// for sem_csr — extending the concept with:
//
//   has_reverse(), in_degree(v),
//   for_each_in_edge(v, f)   with f(source, weight)
//
// Algorithms that pull over in-edges (the bottom-up sweeps of
// core/hybrid_traversal.hpp, the dobfs baseline on directed graphs,
// graph_stats' in-degree summary) gate on has_reverse() at runtime. The
// in-memory transpose is built on demand by ensure_reverse() — a counting
// sort over the forward arrays, O(V+E) time, no edge list materialized,
// parallel above detail::parallel_build_threshold edges — and in-adjacency
// comes out sorted by source id, so the layout is deterministic and
// binary-searchable like the forward one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "util/parallel.hpp"

namespace asyncgt {

namespace detail {

/// The arrays of a transpose: csr_graph's reverse view.
template <typename VertexId>
struct transpose_arrays {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> targets;
  std::vector<weight_t> weights;
};

/// Splits the vertices of a CSR with these offsets into `parts`
/// contiguous ranges of about equal edge counts: range r is
/// [first[r], first[r + 1]).
inline std::vector<std::uint64_t> edge_balanced_ranges(
    std::size_t parts, std::span<const std::uint64_t> offsets) {
  const std::uint64_t n = offsets.size() - 1;
  std::vector<std::uint64_t> first(parts + 1, n);
  for (std::size_t r = 0; r < parts; ++r) {
    first[r] = static_cast<std::uint64_t>(
        std::lower_bound(offsets.begin(), offsets.end() - 1,
                         offsets.back() * r / parts) -
        offsets.begin());
  }
  return first;
}

/// Transposes the CSR (offsets, targets, weights) with Count-wide
/// histogram cells on exactly `threads` >= 1 threads. The sources split
/// into contiguous ranges of about equal edge counts, one per thread, each
/// with its own in-degree histogram. The histograms are prefix-summed in
/// (vertex, thread) order, so thread t's slots for a vertex follow thread
/// t-1's: every in-adjacency comes out sorted by source, as a serial pass
/// over the sources in ascending order lays it out.
template <typename Count, typename VertexId>
transpose_arrays<VertexId> transpose_counting(
    std::size_t threads, std::span<const std::uint64_t> offsets,
    std::span<const VertexId> targets, std::span<const weight_t> weights) {
  const std::uint64_t n = offsets.size() - 1;
  const std::uint64_t m = targets.size();
  const bool weighted = !weights.empty();
  transpose_arrays<VertexId> out;
  out.offsets.resize(n + 1);
  out.targets.resize(m);
  if (weighted) out.weights.resize(m);

  const std::vector<std::uint64_t> first =
      edge_balanced_ranges(threads, offsets);

  // Pass 1: per-thread in-degree histograms.
  std::vector<Count> hist(threads * n, 0);
  run_parts(threads, [&](std::size_t t) {
    Count* h = hist.data() + t * n;
    for (std::uint64_t i = offsets[first[t]]; i < offsets[first[t + 1]];
         ++i) {
      ++h[targets[i]];
    }
  });

  // Pass 2: per-thread cursors. Thread 0's cursor for v is where v's
  // in-adjacency starts.
  histogram_cursors(threads, n, hist);
  std::copy_n(hist.begin(), n, out.offsets.begin());
  out.offsets[n] = m;

  // Pass 3: each thread scatters its sources, in ascending order.
  run_parts(threads, [&](std::size_t t) {
    Count* cursor = hist.data() + t * n;
    for (std::uint64_t v = first[t]; v < first[t + 1]; ++v) {
      for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const Count slot = cursor[targets[i]]++;
        out.targets[slot] = static_cast<VertexId>(v);
        if (weighted) out.weights[slot] = weights[i];
      }
    }
  });
  return out;
}

/// The transpose of a CSR on exactly `threads` >= 1 threads (the result
/// does not depend on the count).
template <typename VertexId>
transpose_arrays<VertexId> transpose_on(std::size_t threads,
                                        std::span<const std::uint64_t> offsets,
                                        std::span<const VertexId> targets,
                                        std::span<const weight_t> weights) {
  if (count_bytes(targets.size()) == 4) {
    return transpose_counting<std::uint32_t>(threads, offsets, targets,
                                             weights);
  }
  return transpose_counting<std::uint64_t>(threads, offsets, targets,
                                           weights);
}

}  // namespace detail

template <typename VertexId>
class csr_graph {
 public:
  using vertex_id = VertexId;
  using offset_type = std::uint64_t;

  csr_graph() = default;

  /// Assembles a CSR from prebuilt arrays. offsets must have size
  /// num_vertices+1 with offsets.front()==0 and offsets.back()==targets.size;
  /// weights must be empty (unweighted) or parallel to targets.
  csr_graph(std::vector<offset_type> offsets, std::vector<VertexId> targets,
            std::vector<weight_t> weights = {})
      : offsets_(std::move(offsets)),
        targets_(std::move(targets)),
        weights_(std::move(weights)) {
    if (offsets_.empty() || offsets_.front() != 0 ||
        offsets_.back() != targets_.size()) {
      throw std::invalid_argument("csr_graph: malformed offset array");
    }
    if (!weights_.empty() && weights_.size() != targets_.size()) {
      throw std::invalid_argument(
          "csr_graph: weights must parallel targets or be empty");
    }
  }

  std::uint64_t num_vertices() const noexcept { return offsets_.size() - 1; }
  std::uint64_t num_edges() const noexcept { return targets_.size(); }
  bool is_weighted() const noexcept { return !weights_.empty(); }

  std::uint64_t out_degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {targets_.data() + offsets_[v],
            targets_.data() + offsets_[v + 1]};
  }

  std::span<const weight_t> edge_weights(VertexId v) const noexcept {
    if (weights_.empty()) return {};
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  /// Invokes f(target, weight) for every out-edge of v. Unweighted graphs
  /// report weight 1, which is exactly the paper's BFS-as-SSSP convention.
  template <typename F>
  void for_each_out_edge(VertexId v, F&& f) const {
    const offset_type begin = offsets_[v];
    const offset_type end = offsets_[v + 1];
    if (weights_.empty()) {
      for (offset_type i = begin; i < end; ++i) f(targets_[i], weight_t{1});
    } else {
      for (offset_type i = begin; i < end; ++i) f(targets_[i], weights_[i]);
    }
  }

  std::span<const offset_type> offsets() const noexcept { return offsets_; }
  std::span<const VertexId> targets() const noexcept { return targets_; }
  std::span<const weight_t> weights() const noexcept { return weights_; }

  /// Resident heap footprint of the adjacency arrays (forward + reverse),
  /// for the service engine's memory_budget_bytes admission guardrail
  /// (traversal_options::memory_estimate_bytes).
  std::uint64_t resident_bytes() const noexcept {
    return static_cast<std::uint64_t>(
        offsets_.capacity() * sizeof(offset_type) +
        targets_.capacity() * sizeof(VertexId) +
        weights_.capacity() * sizeof(weight_t) +
        in_offsets_.capacity() * sizeof(offset_type) +
        in_targets_.capacity() * sizeof(VertexId) +
        in_weights_.capacity() * sizeof(weight_t));
  }

  // ---- Reverse (transpose) view ----

  bool has_reverse() const noexcept { return !in_offsets_.empty(); }

  /// Builds the transpose in place if absent: a counting sort over the
  /// forward arrays (no edge list), on build_threads threads. Self-loops
  /// and duplicate edges transpose to themselves; zero-out-degree vertices
  /// simply contribute nothing, and every vertex keeps an in-adjacency slot
  /// (possibly empty). Idempotent.
  void ensure_reverse() {
    if (has_reverse()) return;
    auto r = transposed();
    in_offsets_ = std::move(r.offsets);
    in_targets_ = std::move(r.targets);
    in_weights_ = std::move(r.weights);
  }

  /// Adopts prebuilt transpose arrays (graph_io's reverse-file reader uses
  /// this to avoid recomputing a transpose that is already on disk). Shape
  /// is validated like the forward constructor's.
  void set_reverse(std::vector<offset_type> in_offsets,
                   std::vector<VertexId> in_targets,
                   std::vector<weight_t> in_weights = {}) {
    if (in_offsets.size() != offsets_.size() || in_offsets.front() != 0 ||
        in_offsets.back() != in_targets.size() ||
        in_targets.size() != targets_.size()) {
      throw std::invalid_argument("csr_graph: malformed reverse arrays");
    }
    if (!in_weights.empty() && in_weights.size() != in_targets.size()) {
      throw std::invalid_argument(
          "csr_graph: reverse weights must parallel in-targets or be empty");
    }
    in_offsets_ = std::move(in_offsets);
    in_targets_ = std::move(in_targets);
    in_weights_ = std::move(in_weights);
  }

  /// In-degree of v. Requires has_reverse().
  std::uint64_t in_degree(VertexId v) const noexcept {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Sources of v's in-edges, sorted ascending. Requires has_reverse().
  std::span<const VertexId> in_neighbors(VertexId v) const noexcept {
    return {in_targets_.data() + in_offsets_[v],
            in_targets_.data() + in_offsets_[v + 1]};
  }

  /// Invokes f(source, weight) for every in-edge of v; weight is the
  /// original (u,v) edge's weight, 1 when unweighted. Requires
  /// has_reverse().
  template <typename F>
  void for_each_in_edge(VertexId v, F&& f) const {
    const offset_type begin = in_offsets_[v];
    const offset_type end = in_offsets_[v + 1];
    if (in_weights_.empty()) {
      for (offset_type i = begin; i < end; ++i)
        f(in_targets_[i], weight_t{1});
    } else {
      for (offset_type i = begin; i < end; ++i)
        f(in_targets_[i], in_weights_[i]);
    }
  }

  std::span<const offset_type> in_offsets() const noexcept {
    return in_offsets_;
  }
  std::span<const VertexId> in_targets() const noexcept { return in_targets_; }

  /// The transpose as a standalone graph (its out-edges are this graph's
  /// in-edges) — what graph_io serializes as the on-disk reverse edge file.
  /// Reuses the reverse arrays when present, else transposes directly.
  csr_graph<VertexId> transpose() const {
    if (has_reverse()) {
      return csr_graph<VertexId>(in_offsets_, in_targets_, in_weights_);
    }
    auto r = transposed();
    return csr_graph<VertexId>(std::move(r.offsets), std::move(r.targets),
                               std::move(r.weights));
  }

  /// Approximate resident size, for memory-budget reporting in benches.
  std::uint64_t memory_bytes() const noexcept {
    return (offsets_.size() + in_offsets_.size()) * sizeof(offset_type) +
           (targets_.size() + in_targets_.size()) * sizeof(VertexId) +
           (weights_.size() + in_weights_.size()) * sizeof(weight_t);
  }

 private:
  detail::transpose_arrays<VertexId> transposed() const {
    return detail::transpose_on<VertexId>(
        detail::build_threads(num_edges(), num_vertices()), offsets_,
        targets_, weights_);
  }

  std::vector<offset_type> offsets_{0};
  std::vector<VertexId> targets_;
  std::vector<weight_t> weights_;
  // Reverse view (empty until ensure_reverse()/set_reverse()).
  std::vector<offset_type> in_offsets_;
  std::vector<VertexId> in_targets_;
  std::vector<weight_t> in_weights_;
};

using csr32 = csr_graph<vertex32>;
using csr64 = csr_graph<vertex64>;

}  // namespace asyncgt
