// Asynchronous Breadth First Search.
//
// The paper computes BFS "by applying our asynchronous SSSP algorithm with
// all edge weights equal to 1" (§III-B). This visitor is that
// specialization: the priority is the BFS level and every push adds one.
// Running it on a weighted graph deliberately ignores the weights, so the
// same input graph serves both the BFS and SSSP benches.
//
// The `Queue` the visitor pushes into is the traversal engine's per-worker
// handle: each push lands in a thread-local outbox buffer and is delivered
// to the owner queue in batches of flush_batch (see queue/mailbox.hpp), so
// the per-edge push here costs no lock and no atomic RMW. Levels and
// parents for v are only ever written on owner(v)'s thread (exclusivity),
// batched or not.
//
// The label is claimed on arrival, not at pop. When owner(v) drains the
// visitor from its mailbox, pre_visit writes the candidate level and parent
// if they beat the stored level and otherwise drops the visitor unqueued.
// So at most one queued visitor holds each claimed level of v, and visit()
// expands only if its claim is still current (cur_level == level[v]); a
// claim superseded while queued is skipped at pop. The owner is the only
// writer, at drain and at visit.
//
// Before each push the sender does a relaxed read of the target's level
// (load_label) and skips the push when the stored level is already <= the
// candidate: that visitor would be rejected on arrival. Because queued
// candidates are already claimed, the read sees them too. Levels only
// fall, so a stale read can only let a useless visitor through, never drop
// one that would have won; final levels are unchanged and visits == pushes
// still holds.
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
struct bfs_state {
  const Graph* g = nullptr;
  std::vector<dist_t> level;
  std::vector<typename Graph::vertex_id> parent;
  sharded_counter updates;

  bfs_state(const Graph& graph, std::size_t num_threads)
      : g(&graph),
        level(graph.num_vertices(), infinite_distance<dist_t>),
        parent(graph.num_vertices(),
               invalid_vertex<typename Graph::vertex_id>),
        updates(num_threads) {}
};

template <typename VertexId>
struct bfs_visitor {
  VertexId vtx{};
  VertexId cur_parent{};
  dist_t cur_level = 0;

  VertexId vertex() const noexcept { return vtx; }
  dist_t priority() const noexcept { return cur_level; }

  template <typename State>
  bool pre_visit(State& s) const {
    if (cur_level < load_label(s.level[vtx])) {
      store_label(s.level[vtx], cur_level);
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
    return cur_level == load_label(s.level[vtx]);
  }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (!live(s)) return;  // superseded claim
    s.updates.add(tid);
    telemetry::metric_scope::count_edges(s.g->out_degree(vtx));
    const dist_t next = cur_level + 1;
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
      if (next < load_label(s.level[vj])) {
        q.push(bfs_visitor{vj, vtx, next});
      }
    });
  }
};

/// Session API: submits a BFS job to this engine and returns its handle
/// immediately; the job runs on the engine's pooled workers, concurrently
/// with any other active jobs. See docs/service_api.md.
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_bfs(
    const Graph& g, typename Graph::vertex_id start,
    std::optional<traversal_options> opts) {
  return submit_bfs(g, {.seeds = {{start, start, 0}}, .label = "bfs"},
                   std::move(opts));
}

/// The seeded-run path of every BFS job (see engine.hpp).
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_bfs(
    const Graph& g, seeded_run<bfs_result<typename Graph::vertex_id>> run,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  using state_t = bfs_state<Graph>;
  check_run(g.num_vertices(), run, run.prior.level.size(),
            run.prior.parent.size());
  state_t state(g, resolve_threads(opts));
  if (!run.prior.level.empty()) {
    state.level = std::move(run.prior.level);
    state.parent = std::move(run.prior.parent);
  }
  auto on_abort = checkpoint_on_abort(resolve(opts).checkpoint_path,
                                      checkpoint_kind::bfs, &state_t::level,
                                      run.seeds);
  return submit_run<bfs_visitor<V>>(
      opts, std::move(state), std::move(run),
      [](const label_seed<V>& s) {
        return bfs_visitor<V>{s.vertex, s.from, s.label};
      },
      launch_pushed(), std::move(on_abort));
}

/// One-shot compatibility wrapper: submit to the process-local engine and
/// block for the result — the seed library's exact contract (including
/// traversal_aborted propagation), now served by warm pooled workers.
template <typename Graph>
bfs_result<typename Graph::vertex_id> async_bfs(
    const Graph& g, typename Graph::vertex_id start,
    traversal_options opts = {}) {
  return engine::process_default().submit_bfs(g, start, std::move(opts)).get();
}

/// Resumes a BFS from a checkpoint on the process-local engine (submit +
/// get); see core/checkpoint.hpp.
template <typename Graph>
bfs_result<typename Graph::vertex_id> resume_bfs(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    traversal_options opts = {}) {
  return engine::process_default()
      .submit_bfs(g, resume_run<bfs_result<typename Graph::vertex_id>>(g, cp),
                  std::move(opts))
      .get();
}

}  // namespace asyncgt
