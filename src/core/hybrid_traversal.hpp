// Frontier-adaptive hybrid (top-down / bottom-up) traversal.
//
// The paper's engine is purely asynchronous and push-based: every relaxed
// vertex pushes a visitor along each out-edge, so dense frontiers — the
// middle levels of a small-world BFS, the first waves of CC — inspect far
// more edges than they relax. Direction-optimizing traversal (Beamer,
// Buluç, Patterson, SC'12) flips those dense phases around: instead of the
// frontier pushing out-edges, every *unvisited* vertex scans its in-edges
// for a frontier parent and stops at the first hit. With a reverse view on
// the graph (csr_graph::ensure_reverse / sem_csr::open_reverse) the sweep
// is an early-exit scan and the total edges inspected drop by the ratio the
// bench harness (bench/ext_structure_sweep --hybrid) measures.
//
// This header grafts that idea onto the asynchronous engine without
// abandoning its label-correcting semantics (docs/hybrid_traversal.md
// walks through the proof obligations):
//
//   * Top-down phases run the normal visitor queue, but capped at a level
//     horizon: a visitor carrying a level >= horizon defers itself into a
//     per-thread buffer instead of relaxing. At quiescence every label
//     < horizon is exact (the run processed every visitor below the cap),
//     and the deferred buffers hold exactly the candidate edges into the
//     next level — which is both the next frontier and the m_f input to
//     the alpha test.
//   * Bottom-up phases are level-synchronous pull sweeps over the
//     still-unvisited candidates' in-edges, gang-scheduled on the engine's
//     worker pool (per-thread claim lists, driver applies them between
//     sweeps — no cross-thread writes, so the sweeps are race-free by
//     construction).
//   * The final flip back to top-down seeds "expand" visitors (push your
//     out-edges, relabel nothing) for the last bottom-up wave and runs the
//     queue with an infinite horizon — from an exact frontier, plain
//     asynchronous label correction finishes the traversal and converges
//     to the identical fixed point as the pure-async run. The diff harness
//     (ctest -L diff) asserts bit-identical labels on both IM and SEM
//     backends.
//
// The alpha/beta switch thresholds live in queue/frontier_estimator.hpp
// and come in through traversal_options (--hybrid-alpha / --hybrid-beta).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "queue/frontier_estimator.hpp"
#include "queue/visitor_queue.hpp"
#include "service/engine.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {

/// One direction phase of a hybrid run, for observability: bench reports
/// serialize these under "phases" and compare_bench_json watches the
/// edge_inspections totals.
struct hybrid_phase {
  std::string direction;  // "top-down" | "bottom-up" | "async-tail"
  std::uint64_t depth = 0;             // BFS level computed / CC sweep index
  std::uint64_t edge_inspections = 0;  // edges scanned during this phase
  std::uint64_t frontier = 0;          // wave size the phase produced
};

/// Side-channel detail a hybrid run fills in when the caller passes one.
struct hybrid_extra {
  std::uint64_t direction_switches = 0;
  std::uint64_t edge_inspections = 0;  // sum over phases
  std::vector<hybrid_phase> phases;
};

/// Deferred-visitor record; carried in the widest id so the state struct
/// below does not depend on the visitor template.
struct hybrid_bfs_visitor_data {
  std::uint64_t vtx = 0;
  std::uint64_t parent = 0;
  dist_t level = 0;
};

template <typename Graph>
struct hybrid_bfs_state {
  using V = typename Graph::vertex_id;

  const Graph* g = nullptr;
  std::vector<dist_t> level;
  std::vector<V> parent;
  sharded_counter updates;
  sharded_counter inspected;  // edges scanned, all phases
  /// Visitors at level >= horizon defer instead of relaxing; the driver
  /// raises this one level per capped run and sets it to
  /// infinite_distance for the final asynchronous tail.
  dist_t horizon = infinite_distance<dist_t>;
  /// Per-thread deferred-visitor buffers (cache-line padded: workers append
  /// concurrently to their own).
  std::vector<padded<std::vector<hybrid_bfs_visitor_data>>> deferred;

  hybrid_bfs_state(const Graph& graph, std::size_t num_threads)
      : g(&graph),
        level(graph.num_vertices(), infinite_distance<dist_t>),
        parent(graph.num_vertices(), invalid_vertex<V>),
        updates(num_threads),
        inspected(num_threads),
        deferred(num_threads) {}
};

template <typename VertexId>
struct hybrid_bfs_visitor {
  VertexId vtx{};
  VertexId cur_parent{};
  dist_t cur_level = 0;
  /// Flip-back seed: vtx already holds cur_level; push its out-edges
  /// without relabeling (the bottom-up sweep did the relabeling).
  bool expand = false;

  VertexId vertex() const noexcept { return vtx; }
  dist_t priority() const noexcept { return cur_level; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (expand) {
      if (s.level[vtx] == cur_level) {
        const std::uint64_t d = s.g->out_degree(vtx);
        s.inspected.add(tid, d);
        telemetry::metric_scope::count_edges(d);
        s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
          q.push(hybrid_bfs_visitor{vj, vtx, cur_level + 1, false});
        });
      }
      return;
    }
    if (cur_level < s.level[vtx]) {
      if (cur_level >= s.horizon) {
        s.deferred[tid].value.push_back(
            {static_cast<std::uint64_t>(vtx),
             static_cast<std::uint64_t>(cur_parent), cur_level});
        return;
      }
      s.level[vtx] = cur_level;
      s.parent[vtx] = cur_parent;
      s.updates.add(tid);
      const std::uint64_t d = s.g->out_degree(vtx);
      s.inspected.add(tid, d);
      telemetry::metric_scope::count_edges(d);
      s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
        q.push(hybrid_bfs_visitor{vj, vtx, cur_level + 1, false});
      });
    }
  }
};

namespace detail {

/// Gangs `body(tid, begin, end)` over `num_threads` contiguous ranges of
/// [0, n) on the pool; runs serially when no pool is configured. The wait
/// is the barrier the sweep protocols rely on.
template <typename F>
void hybrid_parallel_ranges(service::worker_pool* pool,
                            std::size_t num_threads, std::uint64_t n,
                            F&& body) {
  if (pool == nullptr || num_threads <= 1 || n < 2 * num_threads) {
    body(std::size_t{0}, std::uint64_t{0}, n);
    return;
  }
  const std::uint64_t chunk = (n + num_threads - 1) / num_threads;
  pool->wait(pool->submit(num_threads, [&](std::size_t t) {
    const std::uint64_t b = static_cast<std::uint64_t>(t) * chunk;
    if (b >= n) return;
    body(t, b, std::min(n, b + chunk));
  }));
}

/// Folds one capped/tail run's stats into the whole-traversal aggregate.
inline void hybrid_accumulate(queue_run_stats& agg,
                              const queue_run_stats& run) {
  agg.visits += run.visits;
  agg.pushes += run.pushes;
  agg.flushes += run.flushes;
  agg.wakeups += run.wakeups;
  agg.max_queue_length = std::max(agg.max_queue_length, run.max_queue_length);
  agg.elapsed_seconds += run.elapsed_seconds;
  if (agg.visits_per_queue.size() < run.visits_per_queue.size()) {
    agg.visits_per_queue.resize(run.visits_per_queue.size(), 0);
  }
  for (std::size_t i = 0; i < run.visits_per_queue.size(); ++i) {
    agg.visits_per_queue[i] += run.visits_per_queue[i];
  }
}

inline void hybrid_record_metrics(telemetry::metrics_registry* metrics,
                                  const hybrid_extra& extra,
                                  const char* algo) {
  if (metrics == nullptr) return;
  metrics->get_counter("engine.direction_switches")
      .add(0, extra.direction_switches);
  metrics->get_counter(std::string(algo) + ".edge_inspections")
      .add(0, extra.edge_inspections);
}

}  // namespace detail

/// Hybrid BFS. Requires a reverse view on `g` (throws std::invalid_argument
/// otherwise); produces exactly async_bfs's labels. `extra`, when non-null,
/// receives the per-phase direction/inspection breakdown.
template <typename Graph>
bfs_result<typename Graph::vertex_id> hybrid_bfs(
    const Graph& g, typename Graph::vertex_id start,
    traversal_options opts = {}, hybrid_extra* extra = nullptr) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("hybrid_bfs: start vertex out of range");
  }
  if (!g.has_reverse()) {
    throw std::invalid_argument(
        "hybrid_bfs: graph has no reverse view (ensure_reverse / "
        "open_reverse first)");
  }
  const double alpha = opts.hybrid_alpha;
  const double beta = opts.hybrid_beta;
  visitor_queue_config cfg =
      engine::process_default().pooled_config(std::move(opts));
  frontier_estimator est(alpha, beta);
  cfg.estimator = &est;

  const std::uint64_t n = g.num_vertices();
  hybrid_bfs_state<Graph> s(g, cfg.num_threads);
  visitor_queue<hybrid_bfs_visitor<V>, hybrid_bfs_state<Graph>> q(cfg);

  hybrid_extra detail_out;
  queue_run_stats agg;

  // Level 0 is applied directly; `wave` always holds the vertices newly
  // labelled at level `depth`.
  s.level[start] = 0;
  s.parent[start] = start;
  s.updates.add(0);
  std::vector<V> wave{start};
  dist_t depth = 0;
  // m_u: out-edges still owned by unvisited vertices (the alpha test's
  // denominator); maintained incrementally as waves land.
  std::uint64_t m_u = g.num_edges() - g.out_degree(start);

  enum class direction { top_down, bottom_up, async_tail };
  direction dir = direction::top_down;
  // Unvisited candidates for bottom-up sweeps; built on first entry,
  // compacted between sweeps.
  std::vector<V> candidates;
  bool candidates_built = false;

  while (!wave.empty()) {
    est.sample(wave.size());
    // Decide the direction that computes level depth+1.
    if (dir == direction::top_down) {
      std::uint64_t m_f = 0;
      for (const V v : wave) m_f += g.out_degree(v);
      if (est.go_bottom_up(m_f, m_u)) {
        dir = direction::bottom_up;
        ++detail_out.direction_switches;
      }
    } else if (dir == direction::bottom_up &&
               !est.stay_bottom_up(wave.size(), n)) {
      dir = direction::async_tail;
      ++detail_out.direction_switches;
    }

    const std::uint64_t inspected_before = s.inspected.total();
    std::vector<V> next_wave;

    if (dir == direction::async_tail) {
      // From an exact frontier, plain asynchronous label correction
      // finishes the traversal: seed expanders for the last wave and run
      // uncapped to quiescence.
      s.horizon = infinite_distance<dist_t>;
      for (const V v : wave) {
        q.push(hybrid_bfs_visitor<V>{v, v, depth, true});
      }
      detail::hybrid_accumulate(agg, q.run(s));
      detail_out.phases.push_back(
          {"async-tail", depth + 1, s.inspected.total() - inspected_before,
           0});
      break;
    }

    if (dir == direction::top_down) {
      // One capped run: expanders push the wave's out-edges; every level
      // depth+1 candidate defers itself. Quiescence makes the deferred
      // buffers the complete candidate set.
      s.horizon = depth + 1;
      for (const V v : wave) {
        q.push(hybrid_bfs_visitor<V>{v, v, depth, true});
      }
      detail::hybrid_accumulate(agg, q.run(s));
      // Apply the deferred relaxations serially (first candidate per
      // vertex wins, as in any label-correcting order).
      for (auto& lane : s.deferred) {
        for (const hybrid_bfs_visitor_data& d : lane.value) {
          const V v = static_cast<V>(d.vtx);
          if (d.level < s.level[v]) {
            s.level[v] = d.level;
            s.parent[v] = static_cast<V>(d.parent);
            s.updates.add(0);
            next_wave.push_back(v);
          }
        }
        lane.value.clear();
      }
    } else {
      // Bottom-up sweep: every unvisited candidate scans its in-edges for
      // a parent at `depth`, stopping (for accounting) at the first hit.
      if (!candidates_built) {
        candidates_built = true;
        candidates.reserve(n > wave.size() ? n - wave.size() : 0);
        for (std::uint64_t v = 0; v < n; ++v) {
          if (s.level[v] == infinite_distance<dist_t>) {
            candidates.push_back(static_cast<V>(v));
          }
        }
      } else {
        std::size_t keep = 0;
        for (const V v : candidates) {
          if (s.level[v] == infinite_distance<dist_t>) {
            candidates[keep++] = v;
          }
        }
        candidates.resize(keep);
      }
      struct claim {
        V vtx;
        V parent;
      };
      std::vector<padded<std::vector<claim>>> claims(cfg.num_threads);
      std::vector<padded<std::uint64_t>> scanned(cfg.num_threads);
      detail::hybrid_parallel_ranges(
          cfg.pool, cfg.num_threads, candidates.size(),
          [&](std::size_t tid, std::uint64_t b, std::uint64_t e) {
            std::uint64_t local_scanned = 0;
            for (std::uint64_t i = b; i < e; ++i) {
              const V v = candidates[i];
              bool claimed = false;
              g.for_each_in_edge(v, [&](V u, weight_t) {
                if (claimed) return;
                ++local_scanned;
                if (s.level[u] == depth) {
                  claimed = true;
                  claims[tid].value.push_back({v, u});
                }
              });
            }
            scanned[tid].value += local_scanned;
          });
      for (std::size_t t = 0; t < cfg.num_threads; ++t) {
        s.inspected.add(0, scanned[t].value);
        for (const claim& c : claims[t].value) {
          s.level[c.vtx] = depth + 1;
          s.parent[c.vtx] = c.parent;
          s.updates.add(0);
          next_wave.push_back(c.vtx);
        }
      }
      telemetry::metric_scope::count_edges(s.inspected.total() -
                                           inspected_before);
      // Each claim is morally one visit: keep the aggregate work proxies
      // (wasted_visits = visits - updates) non-degenerate.
      agg.visits += next_wave.size();
    }

    ++depth;
    for (const V v : next_wave) m_u -= g.out_degree(v);
    detail_out.phases.push_back(
        {dir == direction::top_down ? "top-down" : "bottom-up", depth,
         s.inspected.total() - inspected_before, next_wave.size()});
    wave = std::move(next_wave);
  }

  detail_out.edge_inspections = s.inspected.total();
  detail::hybrid_record_metrics(cfg.metrics, detail_out, "hybrid_bfs");
  if (extra != nullptr) *extra = std::move(detail_out);

  auto out = bfs_result<V>::finish(s, std::move(agg));
  if (cfg.metrics != nullptr) out.work().record(*cfg.metrics, "hybrid_bfs");
  return out;
}

template <typename Graph>
struct hybrid_cc_state {
  using V = typename Graph::vertex_id;

  const Graph* g = nullptr;
  std::vector<V> ccid;
  sharded_counter updates;
  sharded_counter inspected;

  hybrid_cc_state(const Graph& graph, std::size_t num_threads)
      : g(&graph),
        ccid(graph.num_vertices()),
        updates(num_threads),
        inspected(num_threads) {
    for (std::uint64_t v = 0; v < graph.num_vertices(); ++v) {
      ccid[v] = static_cast<V>(v);
    }
  }
};

template <typename VertexId>
struct hybrid_cc_visitor {
  VertexId vtx{};
  VertexId cur_ccid{};
  /// Flip-back seed: vtx already holds cur_ccid; push it to the neighbours
  /// without relabeling.
  bool expand = false;

  VertexId vertex() const noexcept { return vtx; }
  VertexId priority() const noexcept { return cur_ccid; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (expand) {
      if (s.ccid[vtx] == cur_ccid) {
        const std::uint64_t d = s.g->out_degree(vtx);
        s.inspected.add(tid, d);
        telemetry::metric_scope::count_edges(d);
        s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
          q.push(hybrid_cc_visitor{vj, cur_ccid, false});
        });
      }
      return;
    }
    if (cur_ccid < s.ccid[vtx]) {
      s.ccid[vtx] = cur_ccid;
      s.updates.add(tid);
      const std::uint64_t d = s.g->out_degree(vtx);
      s.inspected.add(tid, d);
      telemetry::metric_scope::count_edges(d);
      s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
        q.push(hybrid_cc_visitor{vj, cur_ccid, false});
      });
    }
  }
};

/// Hybrid CC for undirected (symmetric) graphs. Starts bottom-up — every
/// vertex's label is its own id, so the "frontier" is the whole graph and
/// Jacobi pull sweeps over in-edges relax it wholesale — then flips to the
/// asynchronous push tail once the per-sweep change count drops below
/// n/beta. Seeding the tail with only the final sweep's changed vertices is
/// sound: a double-buffered sweep that leaves both endpoints of an edge
/// unchanged has already ordered their labels, so every possible future
/// relaxation traces back to a changed vertex. Produces exactly async_cc's
/// labels (the min reachable id per vertex).
template <typename Graph>
cc_result<typename Graph::vertex_id> hybrid_cc(const Graph& g,
                                               traversal_options opts = {},
                                               hybrid_extra* extra = nullptr) {
  using V = typename Graph::vertex_id;
  if (!g.has_reverse()) {
    throw std::invalid_argument(
        "hybrid_cc: graph has no reverse view (ensure_reverse / "
        "open_reverse first)");
  }
  const double alpha = opts.hybrid_alpha;
  const double beta = opts.hybrid_beta;
  visitor_queue_config cfg =
      engine::process_default().pooled_config(std::move(opts));
  frontier_estimator est(alpha, beta);
  cfg.estimator = &est;

  const std::uint64_t n = g.num_vertices();
  hybrid_cc_state<Graph> s(g, cfg.num_threads);

  hybrid_extra detail_out;
  queue_run_stats agg;

  // Initialization to the own id is every vertex's first relaxation (the
  // async seeding does the same against the invalid init label), so the
  // aggregate work proxies stay well-defined: updates >= n, and
  // cc_result::work()'s label_corrections = updates - n never wraps.
  s.updates.add(0, n);
  agg.visits += n;

  std::vector<V> scratch(s.ccid);  // double buffer for the Jacobi sweeps
  std::vector<V> changed_last;
  std::uint64_t changed = n;
  std::uint64_t sweep_idx = 0;
  while (changed != 0 && (sweep_idx == 0 || est.stay_bottom_up(changed, n))) {
    const std::uint64_t inspected_before = s.inspected.total();
    std::vector<padded<std::vector<V>>> changed_lists(cfg.num_threads);
    std::vector<padded<std::uint64_t>> scanned(cfg.num_threads);
    detail::hybrid_parallel_ranges(
        cfg.pool, cfg.num_threads, n,
        [&](std::size_t tid, std::uint64_t b, std::uint64_t e) {
          std::uint64_t local_scanned = 0;
          for (std::uint64_t v = b; v < e; ++v) {
            V m = s.ccid[v];
            g.for_each_in_edge(static_cast<V>(v), [&](V u, weight_t) {
              ++local_scanned;
              if (s.ccid[u] < m) m = s.ccid[u];
            });
            scratch[v] = m;
            if (m < s.ccid[v]) {
              changed_lists[tid].value.push_back(static_cast<V>(v));
            }
          }
          scanned[tid].value += local_scanned;
        });
    std::swap(s.ccid, scratch);
    changed = 0;
    changed_last.clear();
    for (std::size_t t = 0; t < cfg.num_threads; ++t) {
      s.inspected.add(0, scanned[t].value);
      changed += changed_lists[t].value.size();
      changed_last.insert(changed_last.end(), changed_lists[t].value.begin(),
                          changed_lists[t].value.end());
    }
    s.updates.add(0, changed);
    agg.visits += changed;
    telemetry::metric_scope::count_edges(s.inspected.total() -
                                         inspected_before);
    ++sweep_idx;
    est.sample(changed);
    detail_out.phases.push_back({"bottom-up", sweep_idx,
                                 s.inspected.total() - inspected_before,
                                 changed});
  }

  if (changed != 0) {
    // Asynchronous push tail from the final sweep's changed set.
    ++detail_out.direction_switches;
    const std::uint64_t inspected_before = s.inspected.total();
    visitor_queue<hybrid_cc_visitor<V>, hybrid_cc_state<Graph>> q(cfg);
    for (const V v : changed_last) {
      q.push(hybrid_cc_visitor<V>{v, s.ccid[v], true});
    }
    detail::hybrid_accumulate(agg, q.run(s));
    detail_out.phases.push_back({"async-tail", sweep_idx + 1,
                                 s.inspected.total() - inspected_before, 0});
  }

  detail_out.edge_inspections = s.inspected.total();
  detail::hybrid_record_metrics(cfg.metrics, detail_out, "hybrid_cc");
  if (extra != nullptr) *extra = std::move(detail_out);

  auto out = cc_result<V>::finish(s, std::move(agg));
  if (cfg.metrics != nullptr) out.work().record(*cfg.metrics, "hybrid_cc");
  return out;
}

}  // namespace asyncgt
