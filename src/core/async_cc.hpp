// Asynchronous Connected Components for undirected graphs (paper
// Algorithms 3 and 4).
//
// Every vertex is seeded with a visitor carrying its own id as candidate
// component id; a visitor relaxes a vertex whenever it brings a smaller id
// and propagates it to all neighbours. "Our approach to CC can be viewed as
// performing parallel BFS starting from every vertex. When two BFSs ...
// merge, the BFS that started from the lowest vertex identifier takes over"
// (§III-C). On completion every vertex holds the smallest vertex id
// reachable from it, so component roots are exactly { v : cc[v] == v }.
//
// The id is claimed on arrival: when owner(v) drains the visitor from its
// mailbox, pre_visit writes the candidate id if it is smaller than the
// stored one and otherwise drops the visitor unqueued. visit() propagates
// only if its claim is still current (cur_ccid == ccid[v]); a claim
// superseded while queued is skipped at pop. The owner is the only writer,
// at drain and at visit.
//
// Before each push the sender does a relaxed read of the neighbour's id
// (load_label) and skips the push when it is already <= the candidate;
// queued candidates are already claimed, so the read sees them. Ids only
// fall during a run, so a stale read is >= the true id: the skipped
// visitor could never have relabelled anything, the final ids are
// unchanged, and visits == pushes still holds. Seeds are not filtered at
// the sender, but a seed whose vertex already holds a smaller id is
// dropped on arrival.
//
// Precondition: the graph must be symmetric (undirected); otherwise labels
// propagate only along edge direction and the result is not the undirected
// CC. graph_stats.hpp's is_symmetric() checks this in tests.
//
// The per-vertex seeding goes through run_seeded(), whose make_visitor
// lambda is invoked as const from every worker concurrently (it must be
// const-callable and thread-safe — the engine enforces the former at
// compile time). Seed pushes ride the same batched outbox delivery as
// visitor pushes, pre-accounted in the termination counter.
#pragma once

#include <cstdint>
#include <utility>

#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "queue/visitor_queue.hpp"
#include "service/engine.hpp"

namespace asyncgt {

template <typename Graph>
struct cc_state {
  const Graph* g = nullptr;
  std::vector<typename Graph::vertex_id> ccid;
  sharded_counter updates;

  cc_state(const Graph& graph, std::size_t num_threads)
      : g(&graph),
        ccid(graph.num_vertices(),
             invalid_vertex<typename Graph::vertex_id>),
        updates(num_threads) {}
};

template <typename VertexId>
struct cc_visitor {
  VertexId vtx{};
  VertexId cur_ccid{};

  VertexId vertex() const noexcept { return vtx; }
  VertexId priority() const noexcept { return cur_ccid; }

  template <typename State>
  bool pre_visit(State& s) const {
    if (cur_ccid < load_label(s.ccid[vtx])) {
      store_label(s.ccid[vtx], cur_ccid);  // relax vertex information
      return true;
    }
    return false;
  }

  /// Whether this visitor still holds v's current claim; a superseded
  /// claim's visit expands nothing. The engine asks before it books the
  /// device read of a semi-external expansion.
  template <typename State>
  bool live(State& s) const {
    return cur_ccid == load_label(s.ccid[vtx]);
  }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t tid) const {
    if (!live(s)) return;  // superseded claim
    s.updates.add(tid);
    telemetry::metric_scope::count_edges(s.g->out_degree(vtx));
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
      if (cur_ccid < load_label(s.ccid[vj])) {
        q.push(cc_visitor{vj, cur_ccid});
      }
    });
  }
};

/// Session API: submits a CC job to this engine; see submit_bfs. Seeding
/// (Algorithm 3: one visitor per vertex, the vertex's own descriptor as the
/// starting component id) happens on the job's pooled workers.
template <typename Graph>
job<cc_result<typename Graph::vertex_id>> engine::submit_cc(
    const Graph& g, std::optional<traversal_options> opts) {
  return submit_cc(g, {.label = "cc"}, std::move(opts));
}

/// The seeded-run path of every CC job (see engine.hpp). With no prior
/// labels every vertex also seeds itself, on the job's workers
/// (Algorithm 3).
template <typename Graph>
job<cc_result<typename Graph::vertex_id>> engine::submit_cc(
    const Graph& g, seeded_run<cc_result<typename Graph::vertex_id>> run,
    std::optional<traversal_options> opts) {
  using V = typename Graph::vertex_id;
  check_run(g.num_vertices(), run, run.prior.component.size(),
            run.prior.component.size());
  const bool fresh = run.prior.component.empty();
  cc_state<Graph> state(g, resolve_threads(opts));
  if (!fresh) state.ccid = std::move(run.prior.component);
  return submit_run<cc_visitor<V>>(
      opts, std::move(state), std::move(run),
      [](const label_seed<V>& s) { return cc_visitor<V>{s.vertex, s.from}; },
      launch_seeded(fresh ? g.num_vertices() : 0,
                    [](V v) { return cc_visitor<V>{v, v}; }));
}

/// One-shot compatibility wrapper over the process-local engine.
template <typename Graph>
cc_result<typename Graph::vertex_id> async_cc(const Graph& g,
                                              traversal_options opts = {}) {
  return engine::process_default().submit_cc(g, std::move(opts)).get();
}

}  // namespace asyncgt
