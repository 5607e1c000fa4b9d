// Incremental repair drivers: BFS / SSSP / CC over a delta overlay.
//
// The async label-correction engine is naturally incremental — a monotone
// fixed point can be repaired from the mutated endpoints instead of being
// recomputed from scratch. These drivers take the prior labels and the
// delta batch just applied to the overlay behind an overlay_view and seed
// the SAME visitors (bfs_visitor / sssp_visitor / cc_visitor, unchanged)
// through the same batched-outbox mailbox seam. Those visitors claim
// labels when their owner drains them, so a seed the current labels
// already dominate would only be dropped on arrival; the planners skip
// such seeds (exact, because labels only fall):
//
//   * Edge inserts are pure monotone improvements: for each inserted
//     (u, v, w) with a finite prior label at u, seed visitor{v, u,
//     label(u) + step} when it beats label(v), and let relaxation
//     propagate. Nothing is invalidated.
//   * Edge deletes can strand labels. A deleted (u, v) that was v's
//     shortest-path-tree edge (prior parent[v] == u) invalidates v and,
//     transitively, the tree cone below it: descending via post-delta
//     out-edges, x belongs to the cone of v when parent[x] == v and
//     dist[x] == dist[v] + step — the classic tree-cone test. The cone is
//     reset to infinity, then re-seeded from its frontier boundary: each
//     cone vertex x gets one seed {x, a, dist[a] + step} from its best
//     in-edge (a, x) with a finite (outside) source a. Labels outside the
//     cone stay achievable (their tree paths use no deleted edge, and
//     deletions only lengthen paths), so monotone relaxation from the
//     boundary plus the insert seeds converges to exactly the fixed point
//     of the new epoch — the property the dynamic differential battery
//     asserts bit-for-bit.
//   * CC deletes can split a component, which min-label propagation cannot
//     repair in place (labels would need to rise). Every component touched
//     by a plausible delete is reset wholesale and re-seeded Algorithm-3
//     style: each reset vertex gets one seed, the smaller of its own id
//     and its surviving neighbours' best id, plus insert seeds. The
//     symmetric-batch precondition of CC carries over: deltas must mutate
//     both directions (delta_batch::insert_undirected).
//
// A repair job is a seeded run (engine::submit_bfs/sssp/cc): the planned
// labels are installed and the plan's seeds pushed.
//
// Deletes need the reverse view for the boundary scan — the
// ensure_reverse / .agt.rev companions; submits throw std::invalid_argument
// on a delete batch over a view without has_reverse(). Insert-only batches
// run on any view.
//
// Accounting (surfaced through incremental_extra, the
// incremental.reseeded_vertices / incremental.repair_visits counters, and
// the overlay.* gauges): `affected` counts the invalidated cone plus
// distinct insert-seed targets outside it; `reseeded_vertices` counts
// distinct vertices receiving at least one seed, a subset of affected by
// construction — check_bench_json.py enforces reseeded <= affected <= n on
// every `incremental` report section. bench/ext_incremental gates
// repair_visits against the full-recompute visit count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "core/traversal_result.hpp"
#include "graph/delta_overlay.hpp"
#include "graph/types.hpp"
#include "service/engine.hpp"

namespace asyncgt {

/// Repair accounting of one incremental job. affected and
/// reseeded_vertices are written synchronously before the submit returns;
/// repair_visits is written by the completing worker before the result is
/// delivered (reading it is ordered by job::get()/wait()).
struct incremental_extra {
  std::uint64_t affected = 0;           ///< cone + insert-touched vertices
  std::uint64_t reseeded_vertices = 0;  ///< distinct seed targets
  std::uint64_t repair_visits = 0;      ///< visitor executions of the repair
};

namespace incr_detail {

// mark bits: kInCone = invalidated (or reset component), kSeeded = received
// at least one seed, kInsertTouched = insert-seed target. affected =
// kInCone | kInsertTouched; every seed target sets one of those two, which
// makes reseeded <= affected structural rather than asserted.
inline constexpr std::uint8_t kInCone = 1;
inline constexpr std::uint8_t kSeeded = 2;
inline constexpr std::uint8_t kInsertTouched = 4;

template <typename VertexId>
struct repair_plan {
  /// The seeded run's seeds: (target, parent, label) for distance repairs,
  /// (target, candidate component id) for CC.
  std::vector<label_seed<VertexId>> seeds;
  std::uint64_t affected = 0;
  std::uint64_t reseeded = 0;
};

template <typename VertexId>
void finish_counts(const std::vector<std::uint8_t>& mark,
                   repair_plan<VertexId>& plan) {
  for (const std::uint8_t m : mark) {
    if ((m & (kInCone | kInsertTouched)) != 0) ++plan.affected;
    if ((m & kSeeded) != 0) ++plan.reseeded;
  }
}

/// Shared BFS/SSSP planner. Mutates dist/parent in place (cone reset); the
/// caller then moves them into the job state. UnitWeights selects the BFS
/// step (always 1) vs the SSSP step (edge weight).
template <bool UnitWeights, typename View, typename VertexId>
repair_plan<VertexId> plan_distance_repair(
    const View& g, const delta_batch<VertexId>& delta,
    std::vector<dist_t>& dist, std::vector<VertexId>& parent) {
  const std::uint64_t n = g.num_vertices();
  std::vector<std::uint8_t> mark(n, 0);
  std::vector<VertexId> cone;  // worklist doubling as the final cone list

  // Cone roots: deleted shortest-path-tree edges. The start vertex is its
  // own parent, so it can only match on a (self, self) loop — excluded.
  for (const auto& [u, v] : delta.deletes) {
    if (u >= n || v >= n || u == v) continue;
    if (parent[v] != u) continue;
    if (dist[v] == infinite_distance<dist_t>) continue;
    if ((mark[v] & kInCone) == 0) {
      mark[v] |= kInCone;
      cone.push_back(v);
    }
  }

  // Tree-cone descent over post-delta out-edges and the OLD labels. A
  // child whose own tree edge was also deleted is not reachable here, but
  // it is a cone root in its own right from the loop above.
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const VertexId v = cone[i];
    const dist_t dv = dist[v];
    g.for_each_out_edge(v, [&](VertexId x, weight_t w) {
      if ((mark[x] & kInCone) != 0) return;
      if (parent[x] != v) return;
      if (dist[x] == infinite_distance<dist_t>) return;
      const dist_t step = UnitWeights ? 1 : static_cast<dist_t>(w);
      if (dist[x] != dv + step) return;
      mark[x] |= kInCone;
      cone.push_back(x);
    });
  }

  for (const VertexId x : cone) {
    dist[x] = infinite_distance<dist_t>;
    parent[x] = invalid_vertex<VertexId>;
  }

  repair_plan<VertexId> plan;
  // Boundary reseed: after the reset, a finite in-neighbour is by
  // definition outside the cone and its label is still achievable. Only
  // the best one is seeded: the visitors claim labels on arrival, so any
  // other boundary seed of x would be dropped there anyway.
  for (const VertexId x : cone) {
    dist_t best = infinite_distance<dist_t>;
    VertexId from = invalid_vertex<VertexId>;
    g.for_each_in_edge(x, [&](VertexId a, weight_t w) {
      if (dist[a] == infinite_distance<dist_t>) return;
      const dist_t step = UnitWeights ? 1 : static_cast<dist_t>(w);
      if (dist[a] + step < best) {
        best = dist[a] + step;
        from = a;
      }
    });
    if (best == infinite_distance<dist_t>) continue;
    plan.seeds.push_back({x, from, best});
    mark[x] |= kSeeded;
  }
  // Insert seeds: monotone re-relaxation from each live insert source.
  // Weighted repairs must seed with the pair's LIVE weight, not the
  // batch's listed one: set semantics turn a re-insert of a live pair
  // into a no-op, so a smaller listed weight would seed a distance the
  // actual edge set cannot achieve (and relaxation would happily keep).
  // A seed that does not beat the target's current label is skipped: it
  // would be dropped on arrival, because labels only fall.
  for (const auto& e : delta.inserts) {
    if (e.src >= n || e.dst >= n) continue;
    if (dist[e.src] == infinite_distance<dist_t>) continue;
    dist_t step = 1;
    if (!UnitWeights) {
      dist_t live = infinite_distance<dist_t>;
      g.for_each_out_edge(e.src, [&](VertexId x, weight_t w) {
        if (x == e.dst) live = std::min(live, static_cast<dist_t>(w));
      });
      if (live == infinite_distance<dist_t>) continue;  // out-of-range guard
      step = live;
    }
    if (dist[e.src] + step >= dist[e.dst]) continue;
    plan.seeds.push_back({e.dst, e.src, dist[e.src] + step});
    mark[e.dst] |= kSeeded | kInsertTouched;
  }
  finish_counts(mark, plan);
  return plan;
}

/// CC planner: resets every component a plausible delete touches (min-label
/// propagation cannot raise labels in place), then seeds Algorithm-3 style.
/// Mutates comp in place.
template <typename View, typename VertexId>
repair_plan<VertexId> plan_cc_repair(const View& g,
                                     const delta_batch<VertexId>& delta,
                                     std::vector<VertexId>& comp) {
  const std::uint64_t n = g.num_vertices();
  std::vector<std::uint8_t> mark(n, 0);
  repair_plan<VertexId> plan;

  // A real prior edge always joined vertices of one component; a delete
  // whose endpoints disagree was a no-op on an absent pair. (A no-op
  // delete of an absent same-component pair resets conservatively —
  // harmless, the repair reconverges to the identical labels.)
  std::unordered_set<VertexId> dead;
  for (const auto& [u, v] : delta.deletes) {
    if (u >= n || v >= n) continue;
    if (comp[u] == invalid_vertex<VertexId>) continue;
    if (comp[u] != comp[v]) continue;
    dead.insert(comp[u]);
  }

  std::vector<VertexId> reset;
  if (!dead.empty()) {
    for (std::uint64_t x = 0; x < n; ++x) {
      if (dead.count(comp[x]) != 0) {
        mark[x] |= kInCone;
        reset.push_back(static_cast<VertexId>(x));
      }
    }
    for (const VertexId x : reset) comp[x] = invalid_vertex<VertexId>;
  }

  // One seed per reset vertex: the smaller of its own id (restarting the
  // min-id race) and the best id among surviving neighbours. In a
  // symmetric graph only freshly inserted edges can cross the reset
  // frontier, but scanning in-edges keeps the repair honest if the prior
  // labels were stale. Insert seeds that do not beat the target's id are
  // skipped. Both rules drop only seeds the visitors would drop on arrival.
  for (const VertexId x : reset) {
    VertexId best = x;
    g.for_each_in_edge(x, [&](VertexId a, weight_t) {
      if (comp[a] == invalid_vertex<VertexId>) return;
      best = std::min(best, comp[a]);
    });
    plan.seeds.push_back({x, best, 0});
    mark[x] |= kSeeded;
  }
  for (const auto& e : delta.inserts) {
    if (e.src >= n || e.dst >= n) continue;
    if (comp[e.src] == invalid_vertex<VertexId>) continue;
    if (comp[e.src] >= comp[e.dst]) continue;
    plan.seeds.push_back({e.dst, comp[e.src], 0});
    mark[e.dst] |= kSeeded | kInsertTouched;
  }
  finish_counts(mark, plan);
  return plan;
}

template <typename Graph, typename VertexId>
void check_repair(const overlay_view<Graph>& g,
                  const delta_batch<VertexId>& delta, std::size_t labels,
                  std::size_t parents, const char* what) {
  if (labels != g.num_vertices() || parents != g.num_vertices()) {
    throw std::invalid_argument(std::string(what) +
                                ": prior labels sized for a different graph");
  }
  if (!delta.deletes.empty() && !g.has_reverse()) {
    throw std::invalid_argument(
        std::string(what) +
        ": delete repair needs a reverse view (build with ensure_reverse / "
        ".agt.rev companion)");
  }
}

template <typename Graph>
void publish_overlay_gauges(telemetry::metrics_registry* metrics,
                            const overlay_view<Graph>& g,
                            std::uint64_t reseeded) {
  if (metrics == nullptr) return;
  metrics->get_counter("incremental.reseeded_vertices").add(0, reseeded);
  const overlay_counters oc = g.overlay().counters();
  metrics->get_gauge("overlay.live_inserts")
      .set(static_cast<std::int64_t>(oc.live_inserts));
  metrics->get_gauge("overlay.live_deletes")
      .set(static_cast<std::int64_t>(oc.live_deletes));
  metrics->get_gauge("overlay.patched_pairs")
      .set(static_cast<std::int64_t>(oc.patched_pairs));
  metrics->get_gauge("overlay.epoch")
      .record_max(static_cast<std::int64_t>(oc.epoch));
}

/// Hands a planned repair to the algorithm's seeded-run path (`submit`):
/// the prior labels, as the planner left them, are installed and the plan's
/// seeds pushed. The job traverses a heap copy of the pinned view that its
/// completion hook owns, so the view outlives the run whatever the caller
/// does with `g`.
template <typename Result, typename Graph, typename Submit>
auto submit_repair(const overlay_view<Graph>& g, Result prior,
                   repair_plan<typename Graph::vertex_id> plan,
                   incremental_extra* extra,
                   telemetry::metrics_registry* metrics, const char* label,
                   Submit submit) {
  if (extra != nullptr) {
    extra->affected = plan.affected;
    extra->reseeded_vertices = plan.reseeded;
    extra->repair_visits = 0;
  }
  publish_overlay_gauges(metrics, g, plan.reseeded);
  auto view = std::make_shared<const overlay_view<Graph>>(g);
  return submit(
      *view,
      seeded_run<Result>{
          .prior = std::move(prior),
          .seeds = std::move(plan.seeds),
          .label = label,
          .delta_epoch = g.epoch(),
          .on_done = [view, extra, metrics](const queue_run_stats& stats) {
            if (extra != nullptr) extra->repair_visits = stats.visits;
            if (metrics != nullptr) {
              metrics->get_counter("incremental.repair_visits")
                  .add(0, stats.visits);
            }
          }});
}

}  // namespace incr_detail

/// Repairs a prior BFS fixed point to the view's pinned epoch. See the
/// header comment for the algorithm and docs/dynamic_graphs.md for the
/// lifecycle. `prior` must be the full-recompute (or previously repaired)
/// result over the pre-delta edge set; it is consumed.
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_incremental_bfs(
    const overlay_view<Graph>& g,
    const delta_batch<typename Graph::vertex_id>& delta,
    bfs_result<typename Graph::vertex_id> prior, incremental_extra* extra,
    std::optional<traversal_options> opts) {
  incr_detail::check_repair(g, delta, prior.level.size(),
                            prior.parent.size(), "submit_incremental_bfs");
  auto plan = incr_detail::plan_distance_repair<true>(g, delta, prior.level,
                                                      prior.parent);
  return incr_detail::submit_repair(
      g, std::move(prior), std::move(plan), extra, resolve_metrics(opts),
      "incremental_bfs", [&](const auto& view, auto run) {
        return submit_bfs(view, std::move(run), opts);
      });
}

/// Repairs a prior SSSP fixed point to the view's pinned epoch; see
/// submit_incremental_bfs.
template <typename Graph>
job<sssp_result<typename Graph::vertex_id>> engine::submit_incremental_sssp(
    const overlay_view<Graph>& g,
    const delta_batch<typename Graph::vertex_id>& delta,
    sssp_result<typename Graph::vertex_id> prior, incremental_extra* extra,
    std::optional<traversal_options> opts) {
  incr_detail::check_repair(g, delta, prior.dist.size(),
                            prior.parent.size(), "submit_incremental_sssp");
  auto plan = incr_detail::plan_distance_repair<false>(g, delta, prior.dist,
                                                       prior.parent);
  return incr_detail::submit_repair(
      g, std::move(prior), std::move(plan), extra, resolve_metrics(opts),
      "incremental_sssp", [&](const auto& view, auto run) {
        return submit_sssp(view, std::move(run), opts);
      });
}

/// Repairs a prior CC fixed point to the view's pinned epoch. The batch
/// must be symmetric (both directions of every mutation —
/// delta_batch::insert_undirected / erase_undirected), matching CC's
/// symmetric-graph precondition.
template <typename Graph>
job<cc_result<typename Graph::vertex_id>> engine::submit_incremental_cc(
    const overlay_view<Graph>& g,
    const delta_batch<typename Graph::vertex_id>& delta,
    cc_result<typename Graph::vertex_id> prior, incremental_extra* extra,
    std::optional<traversal_options> opts) {
  incr_detail::check_repair(g, delta, prior.component.size(),
                            prior.component.size(), "submit_incremental_cc");
  auto plan = incr_detail::plan_cc_repair(g, delta, prior.component);
  return incr_detail::submit_repair(
      g, std::move(prior), std::move(plan), extra, resolve_metrics(opts),
      "incremental_cc", [&](const auto& view, auto run) {
        return submit_cc(view, std::move(run), opts);
      });
}

// ---- One-shot wrappers over the process-local engine (submit + get) ----

template <typename Graph>
bfs_result<typename Graph::vertex_id> incremental_bfs(
    const overlay_view<Graph>& g,
    const delta_batch<typename Graph::vertex_id>& delta,
    bfs_result<typename Graph::vertex_id> prior,
    incremental_extra* extra = nullptr, traversal_options opts = {}) {
  return engine::process_default()
      .submit_incremental_bfs(g, delta, std::move(prior), extra,
                              std::move(opts))
      .get();
}

template <typename Graph>
sssp_result<typename Graph::vertex_id> incremental_sssp(
    const overlay_view<Graph>& g,
    const delta_batch<typename Graph::vertex_id>& delta,
    sssp_result<typename Graph::vertex_id> prior,
    incremental_extra* extra = nullptr, traversal_options opts = {}) {
  return engine::process_default()
      .submit_incremental_sssp(g, delta, std::move(prior), extra,
                               std::move(opts))
      .get();
}

template <typename Graph>
cc_result<typename Graph::vertex_id> incremental_cc(
    const overlay_view<Graph>& g,
    const delta_batch<typename Graph::vertex_id>& delta,
    cc_result<typename Graph::vertex_id> prior,
    incremental_extra* extra = nullptr, traversal_options opts = {}) {
  return engine::process_default()
      .submit_incremental_cc(g, delta, std::move(prior), extra,
                             std::move(opts))
      .get();
}

}  // namespace asyncgt
