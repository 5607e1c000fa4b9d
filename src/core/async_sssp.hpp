// Asynchronous Single Source Shortest Path (paper Algorithms 1 and 2).
//
// A Bellman-Ford / Dijkstra hybrid: label-correcting like Bellman-Ford
// (correctness never depends on visit order), priority-ordered like Dijkstra
// (each queue visits its locally shortest path first). Because there is no
// global synchronization, a vertex may be visited several times with
// successively shorter candidate paths — exactly the behaviour the paper
// walks through in Figure 3 (reproduced in tests/core/sssp_paper_example).
//
// The visitor is Algorithm 2 with the relaxation moved to arrival, plus a
// sender-side filter:
//   pre_visit (owner drains it from its mailbox):
//     if cur_dist < dist[v]:
//       dist[v] = cur_dist; parent[v] = cur_parent          (claim)
//     else drop the visitor unqueued
//   visit (owner pops it):
//     if cur_dist == dist[v]:                               (claim current)
//       for each out-edge (v, vj, w):
//         if cur_dist + w < dist[vj]:                        (relaxed read)
//           push visitor(vj, cur_dist + w, v)
// A claim is strict, so each claimed distance of v has exactly one queued
// visitor, and one superseded while queued is skipped at pop. Claiming on
// arrival makes queued candidates visible to the senders' filter, which
// drops visitors their target would reject on arrival. Distances only fall
// during a run, so a stale dist[vj] is >= the true one: a skipped visitor
// could never have won, final distances are unchanged, and every pushed
// visitor is still visited (visits == pushes).
//
// Data-race freedom: dist/parent entries for v are written only by the
// visitor for v, at drain and at visit, which always execute on the
// hash-owner thread of v.
// Other threads only read dist[vj] through load_label (a relaxed
// std::atomic_ref load, paired with the owner's store_label).
// The `Queue` parameter of visit() is the engine's per-worker handle: the
// per-relaxation push below appends to a thread-local outbox buffer
// (lock-free) and crosses threads in flush_batch-sized batches — delivery
// order is a heuristic anyway, label correction absorbs any reordering.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "queue/visitor_queue.hpp"
#include "service/engine.hpp"

namespace asyncgt {

template <typename Graph>
struct sssp_state {
  const Graph* g = nullptr;
  std::vector<dist_t> dist;
  std::vector<typename Graph::vertex_id> parent;
  sharded_counter updates;

  sssp_state(const Graph& graph, std::size_t num_threads)
      : g(&graph),
        dist(graph.num_vertices(), infinite_distance<dist_t>),
        parent(graph.num_vertices(),
               invalid_vertex<typename Graph::vertex_id>),
        updates(num_threads) {}
};

template <typename VertexId>
struct sssp_visitor {
  VertexId vtx{};
  VertexId cur_parent{};
  dist_t cur_dist = 0;

  VertexId vertex() const noexcept { return vtx; }
  dist_t priority() const noexcept { return cur_dist; }

  template <typename State>
  bool pre_visit(State& s) const {
    if (cur_dist < load_label(s.dist[vtx])) {
      store_label(s.dist[vtx], cur_dist);  // relax vertex information
      s.parent[vtx] = cur_parent;
      return true;
    }
    return false;
  }

  /// Whether this visitor still holds v's current claim; a superseded
  /// claim's visit expands nothing. The engine asks before it books the
  /// device read of a semi-external expansion.
  template <typename State>
  bool live(State& s) const {
    return cur_dist == load_label(s.dist[vtx]);
  }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (!live(s)) return;  // superseded claim
    s.updates.add(tid);
    telemetry::metric_scope::count_edges(s.g->out_degree(vtx));
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t w) {
      const dist_t next = cur_dist + w;
      if (next < load_label(s.dist[vj])) {
        q.push(sssp_visitor{vj, vtx, next});
      }
    });
  }
};

/// Session API: submits an SSSP job to this engine; see submit_bfs.
template <typename Graph>
job<sssp_result<typename Graph::vertex_id>> engine::submit_sssp(
    const Graph& g, typename Graph::vertex_id start,
    std::optional<traversal_options> opts) {
  return submit_sssp(g, {.seeds = {{start, start, 0}}, .label = "sssp"},
                   std::move(opts));
}

/// The seeded-run path of every SSSP job (see engine.hpp).
template <typename Graph>
job<sssp_result<typename Graph::vertex_id>> engine::submit_sssp(
    const Graph& g, seeded_run<sssp_result<typename Graph::vertex_id>> run,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  using state_t = sssp_state<Graph>;
  check_run(g.num_vertices(), run, run.prior.dist.size(),
            run.prior.parent.size());
  state_t state(g, resolve_threads(opts));
  if (!run.prior.dist.empty()) {
    state.dist = std::move(run.prior.dist);
    state.parent = std::move(run.prior.parent);
  }
  auto on_abort = checkpoint_on_abort(resolve(opts).checkpoint_path,
                                      checkpoint_kind::sssp, &state_t::dist,
                                      run.seeds);
  return submit_run<sssp_visitor<V>>(
      opts, std::move(state), std::move(run),
      [](const label_seed<V>& s) {
        return sssp_visitor<V>{s.vertex, s.from, s.label};
      },
      launch_pushed(), std::move(on_abort));
}

/// Computes SSSP from `start` over any GraphStorage. Edge weights must be
/// non-negative (u32 by construction). Throws if `start` is out of range.
/// One-shot compatibility wrapper over the process-local engine.
template <typename Graph>
sssp_result<typename Graph::vertex_id> async_sssp(
    const Graph& g, typename Graph::vertex_id start,
    traversal_options opts = {}) {
  return engine::process_default()
      .submit_sssp(g, start, std::move(opts))
      .get();
}

/// Resumes an SSSP from a checkpoint on the process-local engine (submit +
/// get); see core/checkpoint.hpp.
template <typename Graph>
sssp_result<typename Graph::vertex_id> resume_sssp(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    traversal_options opts = {}) {
  return engine::process_default()
      .submit_sssp(g,
                   resume_run<sssp_result<typename Graph::vertex_id>>(g, cp),
                   std::move(opts))
      .get();
}

}  // namespace asyncgt
