// Edge-delta overlay on an immutable CSR (dynamic graphs, PR 10).
//
// Everything below src/graph is a static snapshot: csr_graph and
// sem::sem_csr never change after construction, which is exactly what makes
// them safe to share between concurrent jobs. Real traffic mutates the
// graph, so this header adds the mutation layer *above* the snapshot
// instead of inside it: a delta_overlay records insert/delete batches in an
// epoch-versioned per-vertex patch index, and an overlay_view pinned at an
// epoch models the same GraphStorage concept as the base —
// for_each_out_edge / in-edge iteration walk base ∪ inserts − deletes
// without the base file or arrays ever being rewritten.
//
// Semantics. The overlay is a SET over (src, dst) pairs:
//   * insert(u, v, w) is a no-op when (u, v) is currently present (base or
//     overlay) — inserting an existing edge is idempotent;
//   * erase(u, v) hides every base copy of (u, v) (graphs built with
//     remove_duplicates keep one, but parallel copies all go) or removes
//     the live overlay copy; erasing an absent edge is a no-op.
// Each pair keeps its full event history (insert/delete, ascending epochs),
// so a reader pinned at epoch e reconstructs exactly the edge set as of e
// even while later batches land — delete→insert→delete sequences included.
//
// Concurrency. apply() serializes writers internally; readers never block
// writers and vice versa beyond a sharded shared_mutex on the patch index.
// A vertex with no patch entries is detected by a lock-free atomic flag and
// iterates the base directly — the common case pays one acquire-load per
// vertex. Queries pin their epoch once at view creation (snapshot()), so a
// traversal in flight across a concurrent apply() sees one consistent edge
// set throughout. rebase() (compaction) is the only operation that must not
// run concurrently with readers, the same "not while readers are in flight"
// contract as sem_csr::open_reverse.
//
// Compaction. materialize()/compact() rewrite the overlay into a clean
// csr_graph with (dst, weight)-sorted adjacency — byte-identical, once
// written by graph_io, to what sem::compact_to_file (sem_compaction.hpp)
// streams through the ooc_builder for on-disk graphs. After swapping the
// clean base in, rebase() drops every patch and the overlay starts a new
// epoch lineage over it. docs/dynamic_graphs.md walks the whole lifecycle.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace asyncgt {

/// One batch of edge mutations, applied atomically as one epoch.
template <typename VertexId>
struct delta_batch {
  std::vector<edge<VertexId>> inserts;
  std::vector<std::pair<VertexId, VertexId>> deletes;

  delta_batch& insert(VertexId src, VertexId dst, weight_t weight = 1) {
    inserts.push_back({src, dst, weight});
    return *this;
  }
  delta_batch& erase(VertexId src, VertexId dst) {
    deletes.emplace_back(src, dst);
    return *this;
  }
  /// Undirected helpers: mutate both directions, keeping a symmetric base
  /// symmetric (the CC precondition).
  delta_batch& insert_undirected(VertexId u, VertexId v, weight_t w = 1) {
    insert(u, v, w);
    if (u != v) insert(v, u, w);
    return *this;
  }
  delta_batch& erase_undirected(VertexId u, VertexId v) {
    erase(u, v);
    if (u != v) erase(v, u);
    return *this;
  }

  bool empty() const noexcept { return inserts.empty() && deletes.empty(); }
  std::size_t size() const noexcept {
    return inserts.size() + deletes.size();
  }
};

/// Live-size / lifetime accounting of one overlay (the telemetry gauges
/// overlay.live_inserts / overlay.live_deletes / overlay.epoch mirror the
/// first three fields). From counters() the applied_* / noop_* fields are
/// lifetime totals; from apply() they are scoped to the returned batch.
struct overlay_counters {
  std::uint64_t live_inserts = 0;   ///< overlay copies visible at the head
  std::uint64_t live_deletes = 0;   ///< base copies hidden at the head
  std::uint64_t epoch = 0;          ///< last fully applied batch
  std::uint64_t applied_inserts = 0;  ///< inserts that changed the edge set
  std::uint64_t applied_deletes = 0;  ///< deletes that changed the edge set
  std::uint64_t noop_inserts = 0;   ///< idempotent duplicate inserts
  std::uint64_t noop_deletes = 0;   ///< idempotent double deletes
  std::uint64_t patched_pairs = 0;  ///< (src,dst) pairs holding any history
};

template <typename Graph>
class overlay_view;

template <typename Graph>
class delta_overlay {
 public:
  using vertex_id = typename Graph::vertex_id;
  using view_type = overlay_view<Graph>;

  explicit delta_overlay(const Graph& base)
      : base_(&base),
        n_(base.num_vertices()),
        out_flag_(std::make_unique<std::atomic<std::uint8_t>[]>(n_)),
        in_flag_(std::make_unique<std::atomic<std::uint8_t>[]>(n_)) {
    for (std::uint64_t v = 0; v < n_; ++v) {
      out_flag_[v].store(0, std::memory_order_relaxed);
      in_flag_[v].store(0, std::memory_order_relaxed);
    }
    head_edges_ = base.num_edges();
  }

  delta_overlay(const delta_overlay&) = delete;
  delta_overlay& operator=(const delta_overlay&) = delete;

  const Graph& base() const noexcept { return *base_; }
  std::uint64_t num_vertices() const noexcept { return n_; }

  /// Epoch of the last fully applied batch (0 = pristine base). Acquire:
  /// a reader that pins this epoch sees every patch the batch wrote.
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Edge count of the head epoch's edge set.
  std::uint64_t num_edges() const {
    std::lock_guard lk(apply_mu_);
    return head_edges_;
  }

  overlay_counters counters() const {
    std::lock_guard lk(apply_mu_);
    overlay_counters c = counters_;
    c.epoch = epoch_.load(std::memory_order_relaxed);
    return c;
  }

  /// True once any live overlay copy carries a weight != 1 — an unweighted
  /// base can become weighted through inserts.
  bool overlay_weighted() const noexcept {
    return overlay_weighted_.load(std::memory_order_acquire);
  }

  /// Applies one batch as the next epoch. Deletes run before inserts (a
  /// batch that deletes and re-inserts the same pair nets to the re-insert,
  /// mirroring set semantics); the epoch publishes only after every patch
  /// landed, so concurrent readers pin either the previous epoch's complete
  /// edge set or this one's — never a partial batch. Writers serialize
  /// internally. Throws std::out_of_range on an endpoint >= num_vertices
  /// before any mutation of that batch lands.
  ///
  /// The returned counters are scoped to THIS batch: applied_* / noop_*
  /// count the batch's own operations, while live_* / patched_pairs report
  /// the overlay's state after the batch. Lifetime totals via counters().
  overlay_counters apply(const delta_batch<vertex_id>& batch) {
    std::lock_guard lk(apply_mu_);
    for (const auto& e : batch.inserts) {
      if (e.src >= n_ || e.dst >= n_) {
        throw std::out_of_range("delta_overlay: insert endpoint out of range");
      }
    }
    for (const auto& [u, v] : batch.deletes) {
      if (u >= n_ || v >= n_) {
        throw std::out_of_range("delta_overlay: delete endpoint out of range");
      }
    }
    const std::uint32_t e =
        static_cast<std::uint32_t>(epoch_.load(std::memory_order_relaxed)) + 1;
    const overlay_counters before = counters_;
    for (const auto& [u, v] : batch.deletes) apply_delete(u, v, e);
    for (const auto& ins : batch.inserts) {
      apply_insert(ins.src, ins.dst, ins.weight, e);
    }
    head_edges_ = base_->num_edges() + counters_.live_inserts -
                  counters_.live_deletes;
    edges_at_epoch_.push_back(head_edges_);
    epoch_.store(e, std::memory_order_release);
    overlay_counters c = counters_;
    c.applied_inserts -= before.applied_inserts;
    c.applied_deletes -= before.applied_deletes;
    c.noop_inserts -= before.noop_inserts;
    c.noop_deletes -= before.noop_deletes;
    c.epoch = e;
    return c;
  }

  /// A GraphStorage view pinned at the head epoch. The view borrows the
  /// overlay; it stays valid across later apply() calls (it keeps seeing
  /// its pinned edge set) but not across rebase().
  view_type snapshot() const {
    std::lock_guard lk(apply_mu_);
    return view_type(this,
                     static_cast<std::uint32_t>(
                         epoch_.load(std::memory_order_relaxed)),
                     head_edges_);
  }

  /// A view pinned at a historical epoch (<= epoch()).
  view_type snapshot_at(std::uint64_t epoch) const {
    std::lock_guard lk(apply_mu_);
    const std::uint64_t head = epoch_.load(std::memory_order_relaxed);
    if (epoch > head) {
      throw std::out_of_range("delta_overlay: epoch not yet applied");
    }
    const std::uint64_t edges =
        epoch == 0 ? base_->num_edges() : edges_at_epoch_[epoch - 1];
    return view_type(this, static_cast<std::uint32_t>(epoch), edges);
  }

  /// The edge set at `epoch` as a plain edge list, adjacency-ordered like
  /// the canonical compaction output: sorted by (src, dst, weight).
  std::vector<edge<vertex_id>> materialize(std::uint64_t epoch) const {
    std::vector<edge<vertex_id>> out;
    out.reserve(base_->num_edges());
    const auto e = static_cast<std::uint32_t>(epoch);
    for (std::uint64_t v = 0; v < n_; ++v) {
      for_each_out_edge_at(static_cast<vertex_id>(v), e,
                           [&](vertex_id t, weight_t w) {
                             out.push_back(
                                 {static_cast<vertex_id>(v), t, w});
                           });
    }
    std::sort(out.begin(), out.end(),
              [](const edge<vertex_id>& a, const edge<vertex_id>& b) {
                if (a.src != b.src) return a.src < b.src;
                if (a.dst != b.dst) return a.dst < b.dst;
                return a.weight < b.weight;
              });
    return out;
  }

  /// In-memory compaction: the head epoch's edge set as a clean csr_graph
  /// with canonical (dst, weight)-sorted adjacency — exactly the graph
  /// write_graph would serialize, and byte-identical (via graph_io) to what
  /// sem::compact_to_file streams through the ooc_builder. Pass
  /// build_reverse=true to also carry the transpose (the repair drivers'
  /// reverse-view precondition).
  csr_graph<vertex_id> compact(bool build_reverse = false) const {
    build_options opt;
    opt.remove_self_loops = false;   // the overlay IS the edge set;
    opt.remove_duplicates = false;   // nothing here may be dropped
    opt.sort_adjacency = true;
    opt.build_reverse = build_reverse;
    return build_csr<vertex_id>(n_, materialize(epoch()), opt);
  }

  /// Swaps in a freshly compacted base and drops every patch. The new base
  /// must hold the head epoch's edge set (compact() / compact_to_file
  /// output). Epochs keep counting — the lineage survives compaction, only
  /// the patch index resets. NOT safe concurrently with readers or apply();
  /// quiesce queries first (docs/dynamic_graphs.md).
  void rebase(const Graph& new_base) {
    std::lock_guard lk(apply_mu_);
    if (new_base.num_vertices() != n_) {
      throw std::invalid_argument(
          "delta_overlay: rebase vertex count mismatch");
    }
    base_ = &new_base;
    for (auto& s : shards_) {
      std::unique_lock slk(s.mu);
      s.out.clear();
      s.in.clear();
    }
    for (std::uint64_t v = 0; v < n_; ++v) {
      out_flag_[v].store(0, std::memory_order_relaxed);
      in_flag_[v].store(0, std::memory_order_relaxed);
    }
    counters_.live_inserts = 0;
    counters_.live_deletes = 0;
    counters_.patched_pairs = 0;
    head_edges_ = base_->num_edges();
    // Historical epochs predate the new base; only the head stays
    // addressable. snapshot_at() of older epochs would read cleared
    // patches, so forget them.
    edges_at_epoch_.assign(epoch_.load(std::memory_order_relaxed),
                           head_edges_);
    compacted_epoch_ = epoch_.load(std::memory_order_relaxed);
  }

  /// Epoch at which the current base was rebased in (0 = original base).
  std::uint64_t compacted_epoch() const noexcept {
    std::lock_guard lk(apply_mu_);
    return compacted_epoch_;
  }

  /// Patch-index heap footprint estimate, for resident_bytes accounting.
  std::uint64_t overlay_bytes() const {
    std::lock_guard lk(apply_mu_);
    return counters_.patched_pairs *
           (2 * (sizeof(pair_patch) + 2 * sizeof(event)));
  }

  // ---- Pinned-epoch iteration (the overlay_view plumbing) ----

  std::uint64_t out_degree_at(vertex_id v, std::uint32_t e) const {
    if (out_flag_[v].load(std::memory_order_acquire) == 0) {
      return base_->out_degree(v);
    }
    std::int64_t d = static_cast<std::int64_t>(base_->out_degree(v));
    visit_patches(shard_of(v).out, v, e,
                  [&](const pair_patch& p, bool live_overlay) {
                    d -= static_cast<std::int64_t>(p.base_copies);
                    if (live_overlay) ++d;
                  });
    return static_cast<std::uint64_t>(d);
  }

  std::uint64_t in_degree_at(vertex_id v, std::uint32_t e) const {
    if (in_flag_[v].load(std::memory_order_acquire) == 0) {
      return base_->in_degree(v);
    }
    std::int64_t d = static_cast<std::int64_t>(base_->in_degree(v));
    visit_patches(shard_of(v).in, v, e,
                  [&](const pair_patch& p, bool live_overlay) {
                    d -= static_cast<std::int64_t>(p.base_copies);
                    if (live_overlay) ++d;
                  });
    return static_cast<std::uint64_t>(d);
  }

  template <typename F>
  void for_each_out_edge_at(vertex_id v, std::uint32_t e, F&& f) const {
    // Unpatched fast path: one acquire-load, then the base untouched. The
    // flag is only ever set (never cleared outside rebase), so a stale 0
    // can only be read for patches from an epoch > the pinned one — which
    // the filter would discard anyway.
    if (out_flag_[v].load(std::memory_order_acquire) == 0) {
      base_->for_each_out_edge(v, std::forward<F>(f));
      return;
    }
    merged_iterate(
        shard_of(v).out, v, e,
        [&](auto&& g) { base_->for_each_out_edge(v, g); },
        std::forward<F>(f));
  }

  template <typename F>
  void for_each_in_edge_at(vertex_id v, std::uint32_t e, F&& f) const {
    if (in_flag_[v].load(std::memory_order_acquire) == 0) {
      base_->for_each_in_edge(v, std::forward<F>(f));
      return;
    }
    merged_iterate(
        shard_of(v).in, v, e,
        [&](auto&& g) { base_->for_each_in_edge(v, g); },
        std::forward<F>(f));
  }

  /// True when (u, v) is present in the edge set of epoch e.
  bool has_edge_at(vertex_id u, vertex_id v, std::uint32_t e) const {
    if (out_flag_[u].load(std::memory_order_acquire) != 0) {
      const shard& s = shard_of(u);
      std::shared_lock lk(s.mu);
      const auto it = s.out.find(u);
      if (it != s.out.end()) {
        for (const pair_patch& p : it->second) {
          if (p.other != v) continue;
          const event* last = last_event_at(p, e);
          if (last != nullptr) return last->is_insert;
          break;  // no event at this epoch yet: fall through to base
        }
      }
    }
    return base_has(u, v) > 0;
  }

 private:
  friend class overlay_view<Graph>;

  /// One insert/delete of a (src, dst) pair. Events append in ascending
  /// epoch order and strictly alternate in effect (set semantics filters
  /// no-ops at apply time), so "last event at epoch e" decides presence.
  struct event {
    std::uint32_t epoch = 0;
    weight_t weight = 1;
    bool is_insert = false;
  };

  /// Patch history of one (vertex, other) pair in one direction.
  struct pair_patch {
    vertex_id other{};
    std::uint32_t base_copies = 0;  ///< parallel base copies this pair hides
    std::vector<event> events;
  };

  struct shard {
    mutable std::shared_mutex mu;
    std::unordered_map<vertex_id, std::vector<pair_patch>> out;
    std::unordered_map<vertex_id, std::vector<pair_patch>> in;
  };

  static constexpr std::size_t kShards = 64;

  shard& shard_of(vertex_id v) const noexcept {
    return shards_[static_cast<std::size_t>(v) % kShards];
  }

  static const event* last_event_at(const pair_patch& p, std::uint32_t e) {
    const event* last = nullptr;
    for (const event& ev : p.events) {
      if (ev.epoch > e) break;  // ascending epochs
      last = &ev;
    }
    return last;
  }

  /// Invokes cb(patch, live_overlay_at_e) for every pair of v that has any
  /// event at or before epoch e, under the shard's shared lock.
  template <typename Map, typename Cb>
  void visit_patches(const Map& map, vertex_id v, std::uint32_t e,
                     Cb&& cb) const {
    const shard& s = shard_of(v);
    std::shared_lock lk(s.mu);
    const auto it = map.find(v);
    if (it == map.end()) return;
    for (const pair_patch& p : it->second) {
      const event* last = last_event_at(p, e);
      if (last == nullptr) continue;  // history starts after the pin
      cb(p, last->is_insert);
    }
  }

  /// The merged iteration both directions share: copy the pinned-epoch
  /// patch summary out under the shared lock (so the base walk — which may
  /// be a disk read on SEM storage — runs without holding it), then stream
  /// base edges minus suppressed pairs, then the overlay copies sorted by
  /// (other, weight) for a deterministic layout.
  template <typename BaseIter, typename F>
  void merged_iterate(
      const std::unordered_map<vertex_id, std::vector<pair_patch>>& map,
      vertex_id v, std::uint32_t e, BaseIter&& base_iter, F&& f) const {
    thread_local std::vector<vertex_id> suppressed;
    thread_local std::vector<std::pair<vertex_id, weight_t>> copies;
    suppressed.clear();
    copies.clear();
    visit_patches(map, v, e, [&](const pair_patch& p, bool live) {
      suppressed.push_back(p.other);
      if (live) {
        copies.emplace_back(p.other, last_event_at(p, e)->weight);
      }
    });
    if (suppressed.empty() && copies.empty()) {
      base_iter(std::forward<F>(f));
      return;
    }
    std::sort(suppressed.begin(), suppressed.end());
    std::sort(copies.begin(), copies.end());
    base_iter([&](vertex_id t, weight_t w) {
      if (std::binary_search(suppressed.begin(), suppressed.end(), t)) return;
      f(t, w);
    });
    for (const auto& [t, w] : copies) f(t, w);
  }

  /// Parallel base copies of (u, v) — a linear adjacency probe, only paid
  /// on the first mutation of a pair (set-semantics presence check).
  std::uint32_t base_has(vertex_id u, vertex_id v) const {
    std::uint32_t copies = 0;
    base_->for_each_out_edge(u, [&](vertex_id t, weight_t) {
      if (t == v) ++copies;
    });
    return copies;
  }

  /// Finds or creates the patch of (v -> other) in `map`; marks the flag.
  pair_patch& patch_for(
      std::unordered_map<vertex_id, std::vector<pair_patch>>& map,
      std::atomic<std::uint8_t>* flags, vertex_id v, vertex_id other) {
    auto& list = map[v];
    for (pair_patch& p : list) {
      if (p.other == other) return p;
    }
    list.push_back(pair_patch{other, 0, {}});
    flags[v].store(1, std::memory_order_release);
    return list.back();
  }

  // Callers hold apply_mu_. Presence at the working epoch decides
  // idempotence; both directions' patches record the same event so in-edge
  // iteration stays consistent with out-edge iteration at every epoch.
  void apply_insert(vertex_id u, vertex_id v, weight_t w, std::uint32_t e) {
    shard& su = shard_of(u);
    std::unique_lock lku(su.mu);
    auto out_it = su.out.find(u);
    pair_patch* existing = nullptr;
    if (out_it != su.out.end()) {
      for (pair_patch& p : out_it->second) {
        if (p.other == v) {
          existing = &p;
          break;
        }
      }
    }
    const bool present = existing != nullptr && !existing->events.empty()
                             ? existing->events.back().is_insert
                             : base_has(u, v) > 0;
    if (present) {
      ++counters_.noop_inserts;
      return;
    }
    std::uint32_t base_copies = 0;
    if (existing == nullptr) {
      base_copies = 0;  // absent pair with no history: base has no copies
      counters_.patched_pairs++;
    }
    pair_patch& out_p = existing != nullptr
                            ? *existing
                            : patch_for(su.out, out_flag_.get(), u, v);
    if (existing == nullptr) out_p.base_copies = base_copies;
    out_p.events.push_back({e, w, true});
    lku.unlock();
    shard& sv = shard_of(v);
    std::unique_lock lkv(sv.mu);
    pair_patch& in_p = patch_for(sv.in, in_flag_.get(), v, u);
    in_p.base_copies = out_p.base_copies;
    in_p.events.push_back({e, w, true});
    lkv.unlock();
    ++counters_.applied_inserts;
    ++counters_.live_inserts;
    if (w != 1) overlay_weighted_.store(true, std::memory_order_release);
  }

  void apply_delete(vertex_id u, vertex_id v, std::uint32_t e) {
    shard& su = shard_of(u);
    std::unique_lock lku(su.mu);
    auto out_it = su.out.find(u);
    pair_patch* existing = nullptr;
    if (out_it != su.out.end()) {
      for (pair_patch& p : out_it->second) {
        if (p.other == v) {
          existing = &p;
          break;
        }
      }
    }
    bool deleting_overlay_copy = false;
    std::uint32_t base_copies = 0;
    if (existing != nullptr && !existing->events.empty()) {
      if (!existing->events.back().is_insert) {
        ++counters_.noop_deletes;
        return;
      }
      deleting_overlay_copy = true;
    } else {
      base_copies = base_has(u, v);
      if (base_copies == 0) {
        ++counters_.noop_deletes;
        return;
      }
    }
    pair_patch& out_p = existing != nullptr
                            ? *existing
                            : patch_for(su.out, out_flag_.get(), u, v);
    if (existing == nullptr) {
      out_p.base_copies = base_copies;
      counters_.patched_pairs++;
    }
    out_p.events.push_back({e, 1, false});
    const std::uint32_t copies = out_p.base_copies;
    lku.unlock();
    shard& sv = shard_of(v);
    std::unique_lock lkv(sv.mu);
    pair_patch& in_p = patch_for(sv.in, in_flag_.get(), v, u);
    in_p.base_copies = copies;
    in_p.events.push_back({e, 1, false});
    lkv.unlock();
    ++counters_.applied_deletes;
    if (deleting_overlay_copy) {
      --counters_.live_inserts;
    } else {
      counters_.live_deletes += copies;
    }
  }

  const Graph* base_;
  std::uint64_t n_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> out_flag_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> in_flag_;
  mutable std::array<shard, kShards> shards_{};
  mutable std::mutex apply_mu_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> overlay_weighted_{false};
  // Guarded by apply_mu_:
  overlay_counters counters_;
  std::uint64_t head_edges_ = 0;
  std::vector<std::uint64_t> edges_at_epoch_;  // [epoch-1] -> edge count
  std::uint64_t compacted_epoch_ = 0;
};

/// A GraphStorage over the overlay pinned at one epoch. Models the same
/// concept as csr_graph / sem_csr (including the reverse extension when the
/// base carries one), so async_bfs / async_sssp / async_cc and the
/// incremental repair drivers instantiate over it unchanged. Cheap to copy;
/// borrows the overlay. Valid across later apply() calls, not across
/// rebase().
template <typename Graph>
class overlay_view {
 public:
  using vertex_id = typename Graph::vertex_id;

  overlay_view() = default;

  std::uint64_t num_vertices() const noexcept { return ov_->num_vertices(); }
  std::uint64_t num_edges() const noexcept { return num_edges_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  const delta_overlay<Graph>& overlay() const noexcept { return *ov_; }
  const Graph& base() const noexcept { return ov_->base(); }

  bool is_weighted() const noexcept {
    return ov_->base().is_weighted() || ov_->overlay_weighted();
  }

  std::uint64_t out_degree(vertex_id v) const {
    return ov_->out_degree_at(v, epoch_);
  }

  template <typename F>
  void for_each_out_edge(vertex_id v, F&& f) const {
    ov_->for_each_out_edge_at(v, epoch_, std::forward<F>(f));
  }

  bool has_reverse() const noexcept { return ov_->base().has_reverse(); }

  std::uint64_t in_degree(vertex_id v) const {
    return ov_->in_degree_at(v, epoch_);
  }

  template <typename F>
  void for_each_in_edge(vertex_id v, F&& f) const {
    ov_->for_each_in_edge_at(v, epoch_, std::forward<F>(f));
  }

  bool has_edge(vertex_id u, vertex_id v) const {
    return ov_->has_edge_at(u, v, epoch_);
  }

  /// Base residency plus the patch index (service admission guardrail).
  std::uint64_t resident_bytes() const {
    return ov_->base().resident_bytes() + ov_->overlay_bytes();
  }

 private:
  friend class delta_overlay<Graph>;
  overlay_view(const delta_overlay<Graph>* ov, std::uint32_t epoch,
               std::uint64_t num_edges)
      : ov_(ov), epoch_(epoch), num_edges_(num_edges) {}

  const delta_overlay<Graph>* ov_ = nullptr;
  std::uint32_t epoch_ = 0;
  std::uint64_t num_edges_ = 0;
};

}  // namespace asyncgt
