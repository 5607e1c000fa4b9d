// Seeded randomized update-stream generator for the dynamic-graph battery.
//
// Produces a sequence of delta_batches over an existing graph: each op is
// an insert of a currently-absent edge or a delete of a currently-live one,
// drawn from an internal evolving edge model that tracks the graph as the
// stream mutates it. Deletes therefore always target edges that exist at
// that point in the stream (base edges or earlier inserts), and inserts
// never duplicate a live edge — every op is "real" under the overlay's set
// semantics, which keeps the differential tests' affected-set accounting
// meaningful. Same seed, same stream, like every generator in src/gen.
//
// symmetric=true keeps a symmetric base symmetric: ops are drawn on
// canonical (min, max) pairs and emitted in both directions — the
// precondition for incremental CC (docs/dynamic_graphs.md). A base that is
// visibly not symmetric (its u<v and u>v edge counts differ) is rejected
// with std::invalid_argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/delta_overlay.hpp"
#include "graph/types.hpp"
#include "util/hash.hpp"

namespace asyncgt {

struct update_stream_params {
  std::uint64_t seed = 1;
  std::size_t num_batches = 8;
  std::size_t batch_size = 64;
  double delete_fraction = 0.3;  ///< probability an op is a delete
  bool symmetric = false;        ///< mutate both directions (CC bases)
  std::uint32_t min_weight = 1;  ///< inserted weights drawn from [min, max]
  std::uint32_t max_weight = 1;  ///< (min > max collapses to min)
};

namespace detail {

/// The stream's evolving edge model. The live pairs sit in a vector,
/// sampled by index and erased by moving the last pair into the hole. A
/// pair is live when the base holds it XOR the stream toggled it since
/// (inserted it absent or erased it present): the base answers from each
/// source's sorted distinct targets by binary search, and only the
/// stream's own ops go into the toggle set.
template <typename V>
class live_pairs {
 public:
  using key = std::pair<V, V>;

  /// An empty base: every pair starts absent.
  live_pairs() = default;
  /// Base pairs of source u are targets[offsets[u], offsets[u + 1]),
  /// sorted and distinct; `live` lists them in sampling order.
  live_pairs(std::vector<std::size_t> offsets, std::vector<V> targets,
             std::vector<key> live)
      : offsets_(std::move(offsets)),
        targets_(std::move(targets)),
        live_(std::move(live)) {}

  bool contains(const key& k) const {
    return in_base(k) != (toggled_.count(k) > 0);
  }
  std::size_t size() const noexcept { return live_.size(); }

  bool insert(const key& k) {
    if (contains(k)) return false;
    toggle(k);
    live_.push_back(k);
    return true;
  }

  /// Removes and returns a uniformly drawn live pair (size() > 0).
  template <typename Rng>
  key sample_and_erase(Rng& rng) {
    const std::size_t i = std::uniform_int_distribution<std::size_t>(
        0, live_.size() - 1)(rng);
    const key k = live_[i];
    toggle(k);
    live_[i] = live_.back();
    live_.pop_back();
    return k;
  }

 private:
  struct key_hash {
    std::size_t operator()(const key& k) const noexcept {
      return static_cast<std::size_t>(
          mix64(static_cast<std::uint64_t>(k.first) * 0x9E3779B97F4A7C15ull +
                static_cast<std::uint64_t>(k.second)));
    }
  };

  bool in_base(const key& k) const {
    const auto u = static_cast<std::size_t>(k.first);
    if (u + 1 >= offsets_.size()) return false;
    return std::binary_search(targets_.begin() + offsets_[u],
                              targets_.begin() + offsets_[u + 1], k.second);
  }

  void toggle(const key& k) {
    if (toggled_.erase(k) == 0) toggled_.insert(k);
  }

  std::vector<std::size_t> offsets_;
  std::vector<V> targets_;
  std::vector<key> live_;
  std::unordered_set<key, key_hash> toggled_;
};

/// The model's starting state: g's distinct pairs, ordered by source and
/// then by first occurrence in the adjacency. A symmetric base holds each
/// canonical pair as (min, max) and (max, min); symmetric=true keeps only
/// the u <= v half, which the walk meets first, and counts the u > v edges
/// — a base whose two counts differ cannot be symmetric.
template <typename Graph>
live_pairs<typename Graph::vertex_id> base_pairs(const Graph& g,
                                                 bool symmetric) {
  using V = typename Graph::vertex_id;
  const std::uint64_t n = g.num_vertices();
  const std::size_t expected =
      static_cast<std::size_t>(symmetric ? g.num_edges() / 2 + n
                                         : g.num_edges());
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<V> targets;
  std::vector<typename live_pairs<V>::key> live;
  targets.reserve(expected);
  live.reserve(expected);
  std::vector<V> adj;
  std::vector<char> seen;
  std::uint64_t below = 0, above = 0;
  for (std::uint64_t u = 0; u < n; ++u) {
    const auto src = static_cast<V>(u);
    adj.clear();
    g.for_each_out_edge(src, [&](V v, weight_t) {
      const auto w = static_cast<std::uint64_t>(v);
      if (!symmetric || u <= w) {
        below += symmetric && u < w;
        adj.push_back(v);
      } else {
        ++above;
      }
    });
    const std::size_t start = targets.size();
    if (std::is_sorted(adj.begin(), adj.end())) {
      for (std::size_t i = 0; i < adj.size(); ++i) {
        if (i > 0 && adj[i] == adj[i - 1]) continue;
        targets.push_back(adj[i]);
        live.emplace_back(src, adj[i]);
      }
    } else {
      targets.insert(targets.end(), adj.begin(), adj.end());
      std::sort(targets.begin() + start, targets.end());
      targets.erase(std::unique(targets.begin() + start, targets.end()),
                    targets.end());
      seen.assign(targets.size() - start, 0);
      for (const V v : adj) {
        const auto k = static_cast<std::size_t>(
            std::lower_bound(targets.begin() + start, targets.end(), v) -
            (targets.begin() + start));
        if (seen[k]) continue;
        seen[k] = 1;
        live.emplace_back(src, v);
      }
    }
    offsets[u + 1] = targets.size();
  }
  if (below != above) {
    throw std::invalid_argument(
        "generate_update_stream: symmetric=true needs a symmetric base, but "
        "it has " + std::to_string(below) + " edges u<v and " +
        std::to_string(above) + " edges u>v");
  }
  return live_pairs<V>(std::move(offsets), std::move(targets),
                       std::move(live));
}

}  // namespace detail

/// Generates params.num_batches delta batches over `g`. The internal model
/// starts from g's distinct edge pairs and evolves with each emitted op.
template <typename Graph>
std::vector<delta_batch<typename Graph::vertex_id>> generate_update_stream(
    const Graph& g, const update_stream_params& params) {
  using V = typename Graph::vertex_id;
  const std::uint64_t n = g.num_vertices();
  std::vector<delta_batch<V>> stream;
  if (n < 2) return stream;

  detail::live_pairs<V> live = detail::base_pairs(g, params.symmetric);

  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::uint64_t> vert(0, n - 1);
  const std::uint32_t wlo = params.min_weight == 0 ? 1 : params.min_weight;
  std::uniform_int_distribution<std::uint32_t> wdist(
      wlo, std::max(wlo, params.max_weight));

  stream.reserve(params.num_batches);
  for (std::size_t b = 0; b < params.num_batches; ++b) {
    delta_batch<V> batch;
    for (std::size_t i = 0; i < params.batch_size; ++i) {
      const bool want_delete =
          coin(rng) < params.delete_fraction && live.size() > 0;
      if (want_delete) {
        const auto [u, v] = live.sample_and_erase(rng);
        if (params.symmetric) {
          batch.erase_undirected(static_cast<V>(u), static_cast<V>(v));
        } else {
          batch.erase(static_cast<V>(u), static_cast<V>(v));
        }
        continue;
      }
      // Rejection-sample an absent non-loop pair; dense-graph fallback to
      // a delete keeps the stream the requested length.
      bool inserted = false;
      for (int attempt = 0; attempt < 32; ++attempt) {
        std::uint64_t u = vert(rng);
        std::uint64_t v = vert(rng);
        if (u == v) continue;
        if (params.symmetric && u > v) std::swap(u, v);
        if (!live.insert({static_cast<V>(u), static_cast<V>(v)})) continue;
        const weight_t w = static_cast<weight_t>(wdist(rng));
        if (params.symmetric) {
          batch.insert_undirected(static_cast<V>(u), static_cast<V>(v), w);
        } else {
          batch.insert(static_cast<V>(u), static_cast<V>(v), w);
        }
        inserted = true;
        break;
      }
      if (!inserted && live.size() > 0) {
        const auto [u, v] = live.sample_and_erase(rng);
        if (params.symmetric) {
          batch.erase_undirected(static_cast<V>(u), static_cast<V>(v));
        } else {
          batch.erase(static_cast<V>(u), static_cast<V>(v));
        }
      }
    }
    stream.push_back(std::move(batch));
  }
  return stream;
}

}  // namespace asyncgt
