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
//     still-unvisited candidates' in-edges, one gang on the engine's worker
//     pool (per-lane claim lists, applied between sweeps — no cross-thread
//     writes, so the sweeps are race-free by construction).
//   * The final flip back to top-down seeds "expand" visitors (push your
//     out-edges, relabel nothing) for the last bottom-up wave and runs the
//     queue with an infinite horizon — from an exact frontier, plain
//     asynchronous label correction finishes the traversal and converges
//     to the identical fixed point as the pure-async run. The diff harness
//     (ctest -L diff) asserts bit-identical labels on both IM and SEM
//     backends.
//
// A hybrid run is one engine job (engine::submit_hybrid_bfs/cc): one queue,
// one state, one attribution scope, so it has a job id, a deadline, cancel,
// admission and failure containment like any other. Its phases run one
// after another, each started from the completion callback of the one
// before (detail::hybrid_driver); no thread waits for a phase.
//
// The alpha/beta switch thresholds live in queue/frontier_estimator.hpp
// and come in through traversal_options (--hybrid-alpha / --hybrid-beta).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "queue/frontier_estimator.hpp"
#include "queue/visitor_queue.hpp"
#include "service/engine.hpp"
#include "telemetry/metric_scope.hpp"
#include "util/cache_line.hpp"
#include "util/timer.hpp"

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

namespace detail {

/// One hybrid job's phase chain. At every phase boundary — first on the
/// submitting thread, then on the pool thread that finished the phase —
/// the state's `step(driver)` applies the wave that phase produced and
/// starts the next with run_queue() or sweep(), or ends the job with
/// finish(), so no pool thread ever waits for another gang. Each phase
/// enters `extra.phases` as it starts; its edge count is filled in at its end.
template <typename Visitor, typename State>
class hybrid_driver
    : public std::enable_shared_from_this<hybrid_driver<Visitor, State>> {
 public:
  using done_fn = std::function<void(queue_run_stats, std::exception_ptr)>;

  hybrid_driver(service::worker_pool& pool, visitor_queue<Visitor, State>& q,
                State& s, telemetry::metric_scope& scope, done_fn done)
      : pool_(pool), q_(q), s_(s), scope_(scope), done_(std::move(done)) {}

  queue_run_stats agg;  // queue runs add theirs, sweeps add relabels as visits

  visitor_queue<Visitor, State>& queue() noexcept { return q_; }

  /// Phase boundary. An abort requested on the job's scope, or a failure a
  /// sweep latched, ends the job as traversal_aborted; otherwise the state
  /// applies the finished phase and starts the next, unless it was the last.
  void next() {
    try {
      if (std::exception_ptr error = take_abort()) {
        return done_({}, std::move(error));
      }
      if (!s_.extra.phases.empty()) {
        s_.extra.phases.back().edge_inspections =
            s_.inspected.total() - inspected_before_;
      }
      last_ ? finish() : s_.step(*this);
    } catch (...) {
      latch(0, std::current_exception());
      done_({}, take_abort());
    }
  }

  /// Phase `p`: runs the queue to quiescence over the visitors the state
  /// pushed. A `last` phase ends the job.
  void run_queue(hybrid_phase p, bool last = false) {
    begin(std::move(p));
    last_ = last;
    auto self = this->shared_from_this();
    q_.run_async(pool_, s_, [self](queue_run_stats run, std::exception_ptr e) {
      if (e != nullptr) return self->done_({}, std::move(e));
      self->accumulate(run);
      self->next();
    });
  }

  /// Phase `p`, one sweep: `visit(lane, i)` for every i in [0, n), one
  /// contiguous range per lane, as one gang. `visit` returns the edges it
  /// scanned.
  template <typename Visit>
  void sweep(hybrid_phase p, std::uint64_t n, Visit visit) {
    begin(std::move(p));
    const std::size_t lanes = q_.num_threads();
    const std::uint64_t chunk = (n + lanes - 1) / lanes;
    auto self = this->shared_from_this();
    pool_.submit(
        lanes,
        [self, visit = std::move(visit), n, chunk](std::size_t t) {
          const std::uint64_t b = std::min(n, t * chunk);
          self->sweep_range(visit, t, b, std::min(n, b + chunk));
        },
        [self] { self->next(); });
  }

  /// Delivers the result: `agg` timed over every phase.
  void finish() {
    agg.elapsed_seconds = timer_.elapsed_seconds();
    done_(std::move(agg), nullptr);
  }

 private:
  /// One lane of a sweep, run like a queue worker: attributed to the job,
  /// counting its edges as it goes (so the stall watchdog sees progress),
  /// stopping within 1024 candidates of an abort request or a sibling's
  /// failure, and latching its first exception.
  template <typename Visit>
  void sweep_range(const Visit& visit, std::size_t t, std::uint64_t b,
                   std::uint64_t e) {
    telemetry::metric_scope::attribution attr(&scope_, t);
    scope_.mark_run_start();
    std::uint64_t scanned = 0;
    try {
      for (std::uint64_t i = b; i < e; ++i) {
        if (((i - b) & 0x3FFu) == 0) {
          count(t, scanned);
          if (failed_.load(std::memory_order_relaxed) ||
              telemetry::metric_scope::current_abort_requested()) {
            break;
          }
        }
        scanned += visit(t, i);
      }
    } catch (...) {
      latch(t, std::current_exception());
    }
    count(t, scanned);
  }

  /// Folds one queue run's stats into the whole job's (one queue, so the
  /// per-queue vectors have one length).
  void accumulate(const queue_run_stats& run) {
    agg.visits += run.visits;
    agg.pushes += run.pushes;
    agg.flushes += run.flushes;
    agg.wakeups += run.wakeups;
    agg.max_queue_length = std::max(agg.max_queue_length, run.max_queue_length);
    agg.visits_per_queue.resize(run.visits_per_queue.size());
    for (std::size_t i = 0; i < run.visits_per_queue.size(); ++i) {
      agg.visits_per_queue[i] += run.visits_per_queue[i];
    }
  }

  void begin(hybrid_phase p) {
    inspected_before_ = s_.inspected.total();
    s_.extra.phases.push_back(std::move(p));
  }

  void count(std::size_t t, std::uint64_t& scanned) {
    s_.inspected.add(t, scanned);
    telemetry::metric_scope::count_edges(scanned);
    scanned = 0;
  }

  void latch(std::size_t t, std::exception_ptr error) {
    std::lock_guard lk(mu_);
    if (!error_) {
      error_ = std::move(error);
      error_lane_ = t;
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  /// The traversal_aborted that ends the job at this boundary, or null.
  std::exception_ptr take_abort() {
    const auto reason = static_cast<abort_reason>(scope_.abort_code());
    std::lock_guard lk(mu_);
    if (!error_ && reason == abort_reason::none) return nullptr;
    return std::make_exception_ptr(make_traversal_aborted(
        std::move(error_), error_lane_, false, 0, reason));
  }

  service::worker_pool& pool_;
  visitor_queue<Visitor, State>& q_;
  State& s_;
  telemetry::metric_scope& scope_;
  done_fn done_;
  wall_timer timer_;
  std::uint64_t inspected_before_ = 0;  // at the start of the phase in flight
  bool last_ = false;
  std::mutex mu_;
  std::exception_ptr error_;  // a sweep's first failure (guarded by mu_)
  std::size_t error_lane_ = 0;
  std::atomic<bool> failed_{false};
};

}  // namespace detail

/// Deferred-visitor record; carried in the widest id so the state struct
/// below does not depend on the visitor template.
struct hybrid_bfs_visitor_data {
  std::uint64_t vtx = 0;
  std::uint64_t parent = 0;
  dist_t level = 0;
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
    if (expand ? s.level[vtx] != cur_level : cur_level >= s.level[vtx]) {
      return;
    }
    if (!expand) {
      if (cur_level >= s.horizon) {
        s.deferred[tid].value.push_back(
            {static_cast<std::uint64_t>(vtx),
             static_cast<std::uint64_t>(cur_parent), cur_level});
        return;
      }
      s.level[vtx] = cur_level;
      s.parent[vtx] = cur_parent;
      s.updates.add(tid);
    }
    const std::uint64_t d = s.g->out_degree(vtx);
    s.inspected.add(tid, d);
    telemetry::metric_scope::count_edges(d);
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
      q.push(hybrid_bfs_visitor{vj, vtx, cur_level + 1, false});
    });
  }
};

template <typename Graph>
struct hybrid_bfs_state {
  using V = typename Graph::vertex_id;

  const Graph* g = nullptr;
  std::vector<dist_t> level;
  std::vector<V> parent;
  sharded_counter updates;
  sharded_counter inspected;  // edges scanned, all phases
  /// Visitors at level >= horizon defer instead of relaxing; step() raises
  /// this one level per capped run and sets it to infinite_distance for
  /// the final asynchronous tail.
  dist_t horizon = infinite_distance<dist_t>;
  /// Per-thread deferred-visitor buffers (cache-line padded: workers append
  /// concurrently to their own).
  std::vector<padded<std::vector<hybrid_bfs_visitor_data>>> deferred;

  // The phase chain, read and written only at phase boundaries (and the
  // claim lists, one per lane, by the sweeps).
  frontier_estimator est;
  hybrid_extra extra;
  bool bottom_up = false;  // the direction of the phase in flight
  /// The vertices newly labelled at level `depth`.
  std::vector<V> wave;
  dist_t depth = 0;
  /// m_u: out-edges still owned by unvisited vertices (the alpha test's
  /// denominator); maintained incrementally as waves land.
  std::uint64_t m_u = 0;
  /// Unvisited candidates for bottom-up sweeps; built on first entry,
  /// compacted between sweeps.
  std::vector<V> candidates;
  bool candidates_built = false;
  struct claim {
    V vtx;
    V parent;
  };
  std::vector<padded<std::vector<claim>>> claims;

  /// Level 0 is applied here; step() counts its update.
  hybrid_bfs_state(const Graph& graph, std::size_t num_threads, V start,
                   frontier_estimator e)
      : g(&graph),
        level(graph.num_vertices(), infinite_distance<dist_t>),
        parent(graph.num_vertices(), invalid_vertex<V>),
        updates(num_threads),
        inspected(num_threads),
        deferred(num_threads),
        est(e),
        wave{start},
        m_u(graph.num_edges() - graph.out_degree(start)),
        claims(num_threads) {
    level[start] = 0;
    parent[start] = start;
  }

  /// Phase boundary (see detail::hybrid_driver): lands the wave the
  /// finished phase produced, then picks the direction that computes level
  /// depth+1 and starts it.
  template <typename Driver>
  void step(Driver& d) {
    if (extra.phases.empty()) {
      updates.add(0);  // level 0
    } else {
      land_wave(d);
    }
    if (wave.empty()) return d.finish();
    bool tail = false;
    if (!bottom_up) {
      std::uint64_t m_f = 0;
      for (const V v : wave) m_f += g->out_degree(v);
      bottom_up = est.go_bottom_up(m_f, m_u);
      extra.direction_switches += bottom_up ? 1 : 0;
    } else if (!est.stay_bottom_up(wave.size(), g->num_vertices())) {
      tail = true;
      ++extra.direction_switches;
    }

    if (bottom_up && !tail) {
      // Every unvisited candidate scans its in-edges for a parent at
      // `depth`, stopping (for accounting) at the first hit.
      refresh_candidates();
      d.sweep({"bottom-up", depth + 1}, candidates.size(),
              [this, at = depth](std::size_t lane, std::uint64_t i) {
                const V v = candidates[i];
                std::uint64_t scanned = 0;
                bool claimed = false;
                g->for_each_in_edge(v, [&](V u, weight_t) {
                  if (claimed) return;
                  ++scanned;
                  if (level[u] == at) {
                    claimed = true;
                    claims[lane].value.push_back({v, u});
                  }
                });
                return scanned;
              });
      return;
    }
    // Top-down: one capped run — expanders push the wave's out-edges and
    // every level depth+1 candidate defers itself, so quiescence makes the
    // deferred buffers the complete candidate set. The async tail runs
    // uncapped: from an exact frontier, plain asynchronous label
    // correction finishes the traversal.
    horizon = tail ? infinite_distance<dist_t> : depth + 1;
    for (const V v : wave) {
      d.queue().push(hybrid_bfs_visitor<V>{v, v, depth, true});
    }
    d.run_queue({tail ? "async-tail" : "top-down", depth + 1}, tail);
  }

 private:
  /// Applies the finished capped run's deferred relaxations or the sweep's
  /// claims (first candidate per vertex wins, as in any label-correcting
  /// order); they become the wave at depth+1.
  template <typename Driver>
  void land_wave(Driver& d) {
    std::vector<V> next;
    if (!bottom_up) {
      for (auto& lane : deferred) {
        for (const hybrid_bfs_visitor_data& x : lane.value) {
          const V v = static_cast<V>(x.vtx);
          if (x.level < level[v]) {
            level[v] = x.level;
            parent[v] = static_cast<V>(x.parent);
            updates.add(0);
            next.push_back(v);
          }
        }
        lane.value.clear();
      }
    } else {
      for (auto& lane : claims) {
        for (const claim& c : lane.value) {
          level[c.vtx] = depth + 1;
          parent[c.vtx] = c.parent;
          updates.add(0);
          next.push_back(c.vtx);
        }
        lane.value.clear();
      }
      // Each claim is morally one visit: keep the aggregate work proxies
      // (wasted_visits = visits - updates) non-degenerate.
      d.agg.visits += next.size();
    }
    ++depth;
    for (const V v : next) m_u -= g->out_degree(v);
    extra.phases.back().frontier = next.size();
    wave = std::move(next);
  }

  void refresh_candidates() {
    if (candidates_built) {
      std::erase_if(candidates, [&](const V v) {
        return level[v] != infinite_distance<dist_t>;
      });
      return;
    }
    candidates_built = true;
    const std::uint64_t n = g->num_vertices();
    candidates.reserve(n > wave.size() ? n - wave.size() : 0);
    for (std::uint64_t v = 0; v < n; ++v) {
      if (level[v] == infinite_distance<dist_t>) {
        candidates.push_back(static_cast<V>(v));
      }
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
    if (expand ? s.ccid[vtx] != cur_ccid : cur_ccid >= s.ccid[vtx]) return;
    if (!expand) {
      s.ccid[vtx] = cur_ccid;
      s.updates.add(tid);
    }
    const std::uint64_t d = s.g->out_degree(vtx);
    s.inspected.add(tid, d);
    telemetry::metric_scope::count_edges(d);
    s.g->for_each_out_edge(vtx, [&](VertexId vj, weight_t) {
      q.push(hybrid_cc_visitor{vj, cur_ccid, false});
    });
  }
};

template <typename Graph>
struct hybrid_cc_state {
  using V = typename Graph::vertex_id;

  const Graph* g = nullptr;
  std::vector<V> ccid;
  sharded_counter updates;
  sharded_counter inspected;

  // The phase chain, as in hybrid_bfs_state.
  frontier_estimator est;
  hybrid_extra extra;
  std::vector<V> scratch;  // double buffer for the Jacobi sweeps
  std::vector<padded<std::vector<V>>> changed_lanes;  // one per sweep lane
  std::vector<V> changed_last;  // the last sweep's relabelled vertices
  std::uint64_t changed = 0;
  std::uint64_t sweeps = 0;

  hybrid_cc_state(const Graph& graph, std::size_t num_threads,
                  frontier_estimator e)
      : g(&graph),
        ccid(graph.num_vertices()),
        updates(num_threads),
        inspected(num_threads),
        est(e),
        changed_lanes(num_threads) {
    for (std::uint64_t v = 0; v < graph.num_vertices(); ++v) {
      ccid[v] = static_cast<V>(v);
    }
    scratch = ccid;
  }

  /// Phase boundary: sweeps bottom-up while the per-sweep change count
  /// stays above n/beta, then runs the asynchronous push tail.
  template <typename Driver>
  void step(Driver& d) {
    const std::uint64_t n = g->num_vertices();
    if (extra.phases.empty()) {
      // Initialization to the own id is every vertex's first relaxation
      // (the async seeding does the same against the invalid init label),
      // so the aggregate work proxies stay well-defined: updates >= n, and
      // cc_result::work()'s label_corrections = updates - n never wraps.
      updates.add(0, n);
      d.agg.visits += n;
      changed = n;
    } else {
      land_sweep(d);
    }
    if (changed != 0 && (sweeps == 0 || est.stay_bottom_up(changed, n))) {
      d.sweep({"bottom-up", sweeps + 1}, n,
              [this](std::size_t lane, std::uint64_t v) {
                std::uint64_t scanned = 0;
                V m = ccid[v];
                g->for_each_in_edge(static_cast<V>(v), [&](V u, weight_t) {
                  ++scanned;
                  if (ccid[u] < m) m = ccid[u];
                });
                scratch[v] = m;
                if (m < ccid[v]) {
                  changed_lanes[lane].value.push_back(static_cast<V>(v));
                }
                return scanned;
              });
      return;
    }
    if (changed == 0) return d.finish();
    // Asynchronous push tail from the final sweep's changed set.
    ++extra.direction_switches;
    for (const V v : changed_last) {
      d.queue().push(hybrid_cc_visitor<V>{v, ccid[v], true});
    }
    d.run_queue({"async-tail", sweeps + 1}, true);
  }

 private:
  template <typename Driver>
  void land_sweep(Driver& d) {
    std::swap(ccid, scratch);
    changed_last.clear();
    for (auto& lane : changed_lanes) {
      changed_last.insert(changed_last.end(), lane.value.begin(),
                          lane.value.end());
      lane.value.clear();
    }
    changed = changed_last.size();
    updates.add(0, changed);
    d.agg.visits += changed;
    ++sweeps;
    extra.phases.back().frontier = changed;
  }
};

template <typename Visitor, typename Result, typename State>
job<Result> engine::submit_hybrid(
    const std::optional<traversal_options>& opts, State state,
    hybrid_extra* extra, const char* label) {
  reject_checkpoint_path(opts, label);
  if (!state.g->has_reverse()) {
    throw std::invalid_argument(std::string(label) +
                                ": graph has no reverse view (ensure_reverse "
                                "/ open_reverse first)");
  }
  auto tj = make_typed_job<Visitor>(
      opts, std::move(state),
      [metrics = resolve_metrics(opts), extra, label](State& s,
                                                      queue_run_stats stats) {
        s.extra.edge_inspections = s.inspected.total();
        Result out = Result::finish(s, std::move(stats));
        if (metrics != nullptr) {
          metrics->get_counter("engine.direction_switches")
              .add(0, s.extra.direction_switches);
          metrics->get_counter(std::string(label) + ".edge_inspections")
              .add(0, s.extra.edge_inspections);
          out.work().record(*metrics, label);
        }
        if (extra != nullptr) *extra = std::move(s.extra);
        return out;
      },
      label);
  return start_job(tj, [this, &scope = tj->scope->scope](auto& q, State& s,
                                                         auto done) {
    std::make_shared<detail::hybrid_driver<Visitor, State>>(
        pool_, q, s, scope, std::move(done))
        ->next();
  });
}

/// Session API: submits a hybrid BFS job. Requires a reverse view on `g`
/// (throws std::invalid_argument otherwise); produces exactly async_bfs's
/// labels.
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_hybrid_bfs(
    const Graph& g, typename Graph::vertex_id start,
    std::optional<traversal_options> opts, hybrid_extra* extra) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("hybrid_bfs: start vertex out of range");
  }
  const traversal_options& t = resolve(opts);
  return submit_hybrid<hybrid_bfs_visitor<V>, bfs_result<V>>(
      opts,
      hybrid_bfs_state<Graph>(g, t.queue.num_threads, start,
                              {t.hybrid_alpha, t.hybrid_beta}),
      extra, "hybrid_bfs");
}

/// Session API: submits a hybrid CC job for an undirected (symmetric)
/// graph. Starts bottom-up — every vertex's label is its own id, so the
/// "frontier" is the whole graph and Jacobi pull sweeps over in-edges relax
/// it wholesale — then flips to the asynchronous push tail once the
/// per-sweep change count drops below n/beta. Seeding the tail with only
/// the final sweep's changed vertices is sound: a double-buffered sweep
/// that leaves both endpoints of an edge unchanged has already ordered
/// their labels, so every possible future relaxation traces back to a
/// changed vertex. Produces exactly async_cc's labels (the min reachable id
/// per vertex).
template <typename Graph>
job<cc_result<typename Graph::vertex_id>> engine::submit_hybrid_cc(
    const Graph& g, std::optional<traversal_options> opts,
    hybrid_extra* extra) {
  using V = typename Graph::vertex_id;
  const traversal_options& t = resolve(opts);
  return submit_hybrid<hybrid_cc_visitor<V>, cc_result<V>>(
      opts,
      hybrid_cc_state<Graph>(g, t.queue.num_threads,
                             {t.hybrid_alpha, t.hybrid_beta}),
      extra, "hybrid_cc");
}

/// Hybrid BFS on the process-local engine (submit + get). `extra`, when
/// non-null, receives the per-phase direction/inspection breakdown.
template <typename Graph>
bfs_result<typename Graph::vertex_id> hybrid_bfs(
    const Graph& g, typename Graph::vertex_id start,
    traversal_options opts = {}, hybrid_extra* extra = nullptr) {
  return engine::process_default()
      .submit_hybrid_bfs(g, start, std::move(opts), extra)
      .get();
}

/// Hybrid CC on the process-local engine (submit + get); see
/// engine::submit_hybrid_cc.
template <typename Graph>
cc_result<typename Graph::vertex_id> hybrid_cc(const Graph& g,
                                               traversal_options opts = {},
                                               hybrid_extra* extra = nullptr) {
  return engine::process_default()
      .submit_hybrid_cc(g, std::move(opts), extra)
      .get();
}

}  // namespace asyncgt
