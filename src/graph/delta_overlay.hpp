// Edge-delta overlay on an immutable CSR (dynamic graphs, PR 10).
//
// Everything below src/graph is a static snapshot: csr_graph and
// sem::sem_csr never change after construction, which is exactly what makes
// them safe to share between concurrent jobs. Real traffic mutates the
// graph, so this header adds the mutation layer *above* the snapshot
// instead of inside it: a delta_overlay records insert/delete batches in an
// epoch-versioned patch record per vertex, and an overlay_view pinned at an
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
// Concurrency. apply() serializes writers internally. Each vertex holds one
// immutable patch record per direction: its patched pairs sorted by the
// other endpoint, each with its full event history, published through an
// atomic pointer. apply() builds a fresh record for every vertex a batch
// touches (the old record plus the batch's events), stores it with release
// before it publishes the epoch, and retires the old record to a
// writer-owned list that rebase() or the destructor frees, when no reader
// can hold it. A reader never locks: one acquire-load per visit, and a
// vertex with no record, or whose earliest event is newer than the pin,
// iterates the base directly. Queries pin their epoch once at view creation
// (snapshot()), so a traversal in flight across a concurrent apply() sees
// one consistent edge set throughout. rebase() (compaction) is the only
// operation that must not run concurrently with readers, the same "not while
// readers are in flight" contract as sem_csr::open_reverse.
//
// Compaction. materialize()/compact() rewrite the overlay into a clean
// csr_graph with (dst, weight)-sorted adjacency — byte-identical, once
// written by graph_io, to what sem::compact_to_file (sem_compaction.hpp)
// streams through the ooc_builder for on-disk graphs. After swapping the
// clean base in, rebase() drops every patch and the overlay starts a new
// epoch lineage over it. docs/dynamic_graphs.md walks the whole lifecycle.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
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
        out_(std::make_unique<std::atomic<const record*>[]>(n_)),
        in_(std::make_unique<std::atomic<const record*>[]>(n_)) {
    clear_records();
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
    // Ops on different pairs are independent under set semantics, so the
    // batch is resolved pair by pair: grouped by (src, dst), deletes ahead
    // of inserts and each kind in batch order (a stable sort of the
    // deletes-then-inserts sequence).
    std::vector<edge_op> ops;
    ops.reserve(batch.size());
    for (const auto& [u, v] : batch.deletes) ops.push_back({u, v, 1, false});
    for (const auto& ins : batch.inserts) {
      ops.push_back({ins.src, ins.dst, ins.weight, true});
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const edge_op& a, const edge_op& b) {
                       return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                     });
    std::vector<pair_update> updates;
    for (std::size_t i = 0; i < ops.size();) {
      std::size_t j = i + 1;
      while (j < ops.size() && ops[j].src == ops[i].src &&
             ops[j].dst == ops[i].dst) {
        ++j;
      }
      const pair_update up = resolve_pair(&ops[i], &ops[j], e);
      if (up.num_events > 0) updates.push_back(up);
      i = j;
    }
    // Both directions record the same events, so in-edge iteration stays
    // consistent with out-edge iteration at every epoch.
    publish(out_.get(), updates, e);
    for (pair_update& up : updates) std::swap(up.vertex, up.other);
    std::sort(updates.begin(), updates.end(),
              [](const pair_update& a, const pair_update& b) {
                return a.vertex != b.vertex ? a.vertex < b.vertex
                                            : a.other < b.other;
              });
    publish(in_.get(), updates, e);
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
  /// the patch records reset. NOT safe concurrently with readers or apply();
  /// quiesce queries first (docs/dynamic_graphs.md).
  void rebase(const Graph& new_base) {
    std::lock_guard lk(apply_mu_);
    if (new_base.num_vertices() != n_) {
      throw std::invalid_argument(
          "delta_overlay: rebase vertex count mismatch");
    }
    base_ = &new_base;
    clear_records();
    records_.clear();
    record_bytes_ = 0;
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

  /// Heap bytes of every patch record, live and retired (the records
  /// themselves; the two n-slot pointer arrays are fixed), for
  /// resident_bytes accounting. 0 on a pristine or just-rebased overlay.
  std::uint64_t overlay_bytes() const {
    std::lock_guard lk(apply_mu_);
    return record_bytes_;
  }

  // ---- Pinned-epoch iteration (the overlay_view plumbing) ----

  std::uint64_t out_degree_at(vertex_id v, std::uint32_t e) const {
    return degree_at(out_[v].load(std::memory_order_acquire),
                     base_->out_degree(v), e);
  }

  std::uint64_t in_degree_at(vertex_id v, std::uint32_t e) const {
    return degree_at(in_[v].load(std::memory_order_acquire),
                     base_->in_degree(v), e);
  }

  template <typename F>
  void for_each_out_edge_at(vertex_id v, std::uint32_t e, F&& f) const {
    const record* r = out_[v].load(std::memory_order_acquire);
    if (r == nullptr || e < r->min_epoch) {
      base_->for_each_out_edge(v, std::forward<F>(f));
      return;
    }
    merged_iterate(
        *r, e, [&](auto&& g) { base_->for_each_out_edge(v, g); }, f);
  }

  template <typename F>
  void for_each_in_edge_at(vertex_id v, std::uint32_t e, F&& f) const {
    const record* r = in_[v].load(std::memory_order_acquire);
    if (r == nullptr || e < r->min_epoch) {
      base_->for_each_in_edge(v, std::forward<F>(f));
      return;
    }
    merged_iterate(
        *r, e, [&](auto&& g) { base_->for_each_in_edge(v, g); }, f);
  }

  /// True when (u, v) is present in the edge set of epoch e.
  bool has_edge_at(vertex_id u, vertex_id v, std::uint32_t e) const {
    const record* r = out_[u].load(std::memory_order_acquire);
    if (r != nullptr && e >= r->min_epoch) {
      const pair_patch* p = find_pair(*r, v);
      if (p != nullptr) {
        const event* last = last_event_at(*r, *p, e);
        // No event at this epoch yet: the base decides.
        if (last != nullptr) return last->is_insert;
      }
    }
    return base_has(u, v) > 0;
  }

 private:
  friend class overlay_view<Graph>;

  /// One insert/delete of a (src, dst) pair. A pair's events are in
  /// ascending epoch order and strictly alternate in effect (set semantics
  /// filters no-ops at apply time), so "last event at epoch e" decides
  /// presence.
  struct event {
    std::uint32_t epoch = 0;
    weight_t weight = 1;
    bool is_insert = false;
  };

  /// Patch history of one (vertex, other) pair in one direction: its
  /// events are [first, first + count) of the record's event array.
  struct pair_patch {
    vertex_id other{};
    std::uint32_t base_copies = 0;  ///< parallel base copies this pair hides
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// The immutable patch record of one vertex in one direction, in one
  /// allocation: this header, num_pairs pair_patches sorted by `other`,
  /// then num_events events. Never written after publication.
  struct record {
    std::uint32_t min_epoch;   ///< earliest event: older pins read the base
    std::uint32_t max_epoch;   ///< latest event: head_delta holds from here
    std::uint32_t num_pairs;
    std::uint32_t num_events;
    std::int64_t head_delta;   ///< degree minus base degree at >= max_epoch
    std::size_t bytes;         ///< size of the allocation

    const pair_patch* pairs() const noexcept {
      return std::launder(reinterpret_cast<const pair_patch*>(this + 1));
    }
    const event* events() const noexcept {
      return std::launder(reinterpret_cast<const event*>(pairs() + num_pairs));
    }
  };
  static_assert(sizeof(record) % alignof(pair_patch) == 0);
  static_assert(sizeof(pair_patch) % alignof(event) == 0);

  struct record_free {
    void operator()(record* r) const noexcept { ::operator delete(r); }
  };
  using record_ptr = std::unique_ptr<record, record_free>;

  /// One op of a batch being applied.
  struct edge_op {
    vertex_id src{};
    vertex_id dst{};
    weight_t weight = 1;
    bool is_insert = false;
  };

  /// What a batch adds to one pair of `vertex`'s record: the base copies
  /// the pair hides and its new events at the batch's epoch. Deletes run
  /// before inserts, so a batch changes a pair at most twice.
  struct pair_update {
    vertex_id vertex{};
    vertex_id other{};
    std::uint32_t base_copies = 0;
    std::uint32_t num_events = 0;
    event events[2];
  };

  static const pair_patch* find_pair(const record& r, vertex_id other) {
    const pair_patch* const end = r.pairs() + r.num_pairs;
    const pair_patch* p = std::lower_bound(
        r.pairs(), end, other,
        [](const pair_patch& a, vertex_id o) { return a.other < o; });
    return p != end && p->other == other ? p : nullptr;
  }

  static const event* last_event_at(const record& r, const pair_patch& p,
                                    std::uint32_t e) {
    // Scans from the newest event: head pins stop at the first one.
    const event* ev = r.events() + p.first;
    for (std::uint32_t k = p.count; k > 0; --k) {
      if (ev[k - 1].epoch <= e) return &ev[k - 1];
    }
    return nullptr;
  }

  static std::uint64_t degree_at(const record* r, std::uint64_t base,
                                 std::uint32_t e) {
    if (r == nullptr || e < r->min_epoch) return base;
    std::int64_t d = static_cast<std::int64_t>(base);
    if (e >= r->max_epoch) return static_cast<std::uint64_t>(d + r->head_delta);
    const pair_patch* const pairs = r->pairs();
    for (std::uint32_t i = 0; i < r->num_pairs; ++i) {
      const event* last = last_event_at(*r, pairs[i], e);
      if (last == nullptr) continue;  // history starts after the pin
      d -= static_cast<std::int64_t>(pairs[i].base_copies);
      if (last->is_insert) ++d;
    }
    return static_cast<std::uint64_t>(d);
  }

  /// The merged iteration both directions share: base edges minus every
  /// pair with history at or before e, then the pairs' live overlay copies
  /// in `other` order. A merge cursor walks the sorted pairs beside the
  /// base adjacency; the first base target out of order switches the rest
  /// of this vertex to binary search, so an unsorted base reads the same.
  template <typename BaseIter, typename F>
  static void merged_iterate(const record& r, std::uint32_t e,
                             BaseIter&& base_iter, F& f) {
    const pair_patch* const begin = r.pairs();
    const pair_patch* const end = begin + r.num_pairs;
    const event* const events = r.events();
    const pair_patch* cursor = begin;
    bool sorted = true;
    vertex_id prev{};
    base_iter([&](vertex_id t, weight_t w) {
      const pair_patch* p;
      if (sorted && t >= prev) {
        while (cursor != end && cursor->other < t) ++cursor;
        p = cursor;
      } else {
        sorted = false;
        p = std::lower_bound(
            begin, end, t,
            [](const pair_patch& a, vertex_id o) { return a.other < o; });
      }
      prev = t;
      if (p != end && p->other == t && events[p->first].epoch <= e) return;
      f(t, w);
    });
    for (const pair_patch* p = begin; p != end; ++p) {
      const event* last = last_event_at(r, *p, e);
      if (last != nullptr && last->is_insert) f(p->other, last->weight);
    }
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

  // Callers hold apply_mu_ (as do the rest of the writer-side helpers).
  // Runs one pair's ops [first, last) of a batch against its presence at
  // the working epoch and returns the events that changed the edge set.
  pair_update resolve_pair(const edge_op* first, const edge_op* last,
                           std::uint32_t e) {
    const vertex_id u = first->src;
    const vertex_id v = first->dst;
    const record* r = out_[u].load(std::memory_order_relaxed);
    const pair_patch* p = r != nullptr ? find_pair(*r, v) : nullptr;
    pair_update up{u, v, 0, 0, {}};
    bool present;
    if (p != nullptr) {
      up.base_copies = p->base_copies;
      present = r->events()[p->first + p->count - 1].is_insert;
    } else {
      up.base_copies = base_has(u, v);
      present = up.base_copies > 0;
    }
    for (const edge_op* op = first; op != last; ++op) {
      // Once the pair has any history, a present copy is the overlay's.
      const bool overlay_copy = p != nullptr || up.num_events > 0;
      if (op->is_insert) {
        if (present) {
          ++counters_.noop_inserts;
          continue;
        }
        up.events[up.num_events++] = {e, op->weight, true};
        ++counters_.applied_inserts;
        ++counters_.live_inserts;
        if (op->weight != 1) {
          overlay_weighted_.store(true, std::memory_order_release);
        }
      } else {
        if (!present) {
          ++counters_.noop_deletes;
          continue;
        }
        up.events[up.num_events++] = {e, 1, false};
        ++counters_.applied_deletes;
        if (overlay_copy) {
          --counters_.live_inserts;
        } else {
          counters_.live_deletes += up.base_copies;
        }
      }
      present = op->is_insert;
    }
    if (p == nullptr && up.num_events > 0) ++counters_.patched_pairs;
    return up;
  }

  /// Publishes one new record per vertex of `updates` (sorted by vertex,
  /// then other) into `slots`; the old records stay owned by records_.
  void publish(std::atomic<const record*>* slots,
               const std::vector<pair_update>& updates, std::uint32_t e) {
    for (std::size_t i = 0; i < updates.size();) {
      std::size_t j = i + 1;
      while (j < updates.size() && updates[j].vertex == updates[i].vertex) {
        ++j;
      }
      std::atomic<const record*>& slot = slots[updates[i].vertex];
      record_ptr r = build_record(slot.load(std::memory_order_relaxed),
                                  &updates[i], &updates[j], e);
      record_bytes_ += r->bytes;
      // Owned before it is published: a failed push_back frees a record no
      // reader can have loaded.
      records_.push_back(std::move(r));
      slot.store(records_.back().get(), std::memory_order_release);
      i = j;
    }
  }

  /// Merges `old` (may be null) with the batch's updates [first, last) of
  /// one vertex into a new record, every pair's events still ascending.
  static record_ptr build_record(const record* old, const pair_update* first,
                                 const pair_update* last, std::uint32_t e) {
    const std::uint32_t old_pairs = old != nullptr ? old->num_pairs : 0;
    const pair_patch* const op = old != nullptr ? old->pairs() : nullptr;
    std::uint32_t num_pairs = old_pairs;
    std::uint32_t num_events = old != nullptr ? old->num_events : 0;
    for (const pair_update* u = first; u != last; ++u) {
      num_events += u->num_events;
      if (old == nullptr || find_pair(*old, u->other) == nullptr) ++num_pairs;
    }
    const std::size_t bytes = sizeof(record) +
                              num_pairs * sizeof(pair_patch) +
                              num_events * sizeof(event);
    record_ptr r(new (::operator new(bytes)) record{
        e, e, num_pairs, num_events, 0, bytes});
    auto* pairs = reinterpret_cast<pair_patch*>(r.get() + 1);
    auto* events = reinterpret_cast<event*>(pairs + num_pairs);
    std::uint32_t np = 0, ne = 0;
    const auto emit = [&](vertex_id other, std::uint32_t base_copies,
                          const event* ev, std::uint32_t n, const event* add,
                          std::uint32_t n_add) {
      new (&pairs[np++]) pair_patch{other, base_copies, ne, n + n_add};
      for (std::uint32_t k = 0; k < n; ++k) new (&events[ne++]) event(ev[k]);
      for (std::uint32_t k = 0; k < n_add; ++k) {
        new (&events[ne++]) event(add[k]);
      }
      r->min_epoch = std::min(r->min_epoch, events[ne - n - n_add].epoch);
      r->head_delta -= static_cast<std::int64_t>(base_copies);
      if (events[ne - 1].is_insert) ++r->head_delta;
    };
    std::uint32_t i = 0;
    const pair_update* u = first;
    while (i < old_pairs || u != last) {
      if (u == last || (i < old_pairs && op[i].other < u->other)) {
        emit(op[i].other, op[i].base_copies, old->events() + op[i].first,
             op[i].count, nullptr, 0);
        ++i;
      } else if (i < old_pairs && op[i].other == u->other) {
        emit(op[i].other, op[i].base_copies, old->events() + op[i].first,
             op[i].count, u->events, u->num_events);
        ++i;
        ++u;
      } else {
        emit(u->other, u->base_copies, nullptr, 0, u->events, u->num_events);
        ++u;
      }
    }
    return r;
  }

  void clear_records() {
    for (std::uint64_t v = 0; v < n_; ++v) {
      out_[v].store(nullptr, std::memory_order_relaxed);
      in_[v].store(nullptr, std::memory_order_relaxed);
    }
  }

  const Graph* base_;
  std::uint64_t n_;
  std::unique_ptr<std::atomic<const record*>[]> out_;
  std::unique_ptr<std::atomic<const record*>[]> in_;
  mutable std::mutex apply_mu_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> overlay_weighted_{false};
  // Guarded by apply_mu_:
  std::vector<record_ptr> records_;  // every record built, live or retired
  std::uint64_t record_bytes_ = 0;   // their total size
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

  /// Base residency plus the patch records (service admission guardrail).
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
