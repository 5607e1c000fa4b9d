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

/// Live-edge set with O(1) insert, erase, and uniform random sampling: a
/// vector of pairs (sampled by index, erased by swap-remove) plus an
/// open-addressed, linear-probing table of indices into it (erased by
/// backward shift, so no tombstones pile up under churn). The table stays
/// at most half full and lives in one flat array.
class edge_pool {
 public:
  using key = std::pair<std::uint64_t, std::uint64_t>;

  edge_pool() = default;
  /// Sized for `expected` live pairs without growing.
  explicit edge_pool(std::size_t expected) {
    live_.reserve(expected);
    rehash(table_size_for(expected));
  }

  bool contains(const key& k) const { return find(k) != npos; }
  std::size_t size() const noexcept { return live_.size(); }

  bool insert(const key& k) {
    if (2 * (live_.size() + 1) > slots_.size()) {
      rehash(table_size_for(live_.size() + 1));
    }
    std::size_t s = home(k);
    for (; slots_[s] != empty; s = (s + 1) & mask_) {
      if (live_[slots_[s]] == k) return false;
    }
    slots_[s] = live_.size();
    live_.push_back(k);
    return true;
  }

  bool erase(const key& k) {
    std::size_t s = find(k);
    if (s == npos) return false;
    const std::size_t i = slots_[s];
    // Backward shift: pull later entries of the probe run into the hole
    // unless that would move them before their home slot.
    for (std::size_t j = (s + 1) & mask_; slots_[j] != empty;
         j = (j + 1) & mask_) {
      const std::size_t h = home(live_[slots_[j]]);
      if (((j - h) & mask_) >= ((j - s) & mask_)) {
        slots_[s] = slots_[j];
        s = j;
      }
    }
    slots_[s] = empty;
    const std::size_t last = live_.size() - 1;
    if (i != last) {
      slots_[find(live_[last])] = i;
      live_[i] = live_[last];
    }
    live_.pop_back();
    return true;
  }

  template <typename Rng>
  key sample(Rng& rng) const {
    return live_[std::uniform_int_distribution<std::size_t>(
        0, live_.size() - 1)(rng)];
  }

 private:
  static constexpr std::size_t empty = static_cast<std::size_t>(-1);
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Smallest power of two holding `n` pairs at most half full.
  static std::size_t table_size_for(std::size_t n) {
    std::size_t cap = 16;
    while (cap < 2 * n) cap *= 2;
    return cap;
  }

  std::size_t home(const key& k) const noexcept {
    return static_cast<std::size_t>(
               mix64(k.first * 0x9E3779B97F4A7C15ull + k.second)) &
           mask_;
  }

  std::size_t find(const key& k) const {
    if (slots_.empty()) return npos;
    for (std::size_t s = home(k); slots_[s] != empty; s = (s + 1) & mask_) {
      if (live_[slots_[s]] == k) return s;
    }
    return npos;
  }

  void rehash(std::size_t cap) {
    slots_.assign(cap, empty);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      std::size_t s = home(live_[i]);
      while (slots_[s] != empty) s = (s + 1) & mask_;
      slots_[s] = i;
    }
  }

  std::vector<key> live_;
  std::vector<std::size_t> slots_;  ///< index into live_, or empty
  std::size_t mask_ = 0;
};

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

  // A symmetric base holds each canonical pair as (min, max) and (max,
  // min). The fill walks u upwards, so it meets (min, max) first: inserting
  // only the u <= v edges puts the same pairs into the pool in the same
  // order, with one probe each. The u > v edges are only counted, and a
  // base whose two counts differ cannot be symmetric.
  detail::edge_pool live(params.symmetric ? g.num_edges() / 2
                                          : g.num_edges());
  std::uint64_t below = 0, above = 0;
  for (std::uint64_t u = 0; u < n; ++u) {
    g.for_each_out_edge(static_cast<V>(u), [&](V v, weight_t) {
      const auto w = static_cast<std::uint64_t>(v);
      if (!params.symmetric) {
        live.insert({u, w});
      } else if (u <= w) {
        below += u < w;
        live.insert({u, w});
      } else {
        ++above;
      }
    });
  }
  if (below != above) {
    throw std::invalid_argument(
        "generate_update_stream: symmetric=true needs a symmetric base, but "
        "it has " + std::to_string(below) + " edges u<v and " +
        std::to_string(above) + " edges u>v");
  }

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
        const auto [u, v] = live.sample(rng);
        live.erase({u, v});
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
        if (!live.insert({u, v})) continue;
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
        const auto [u, v] = live.sample(rng);
        live.erase({u, v});
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
