// The multithreaded asynchronous prioritized visitor queue — the paper's
// core contribution (§III-A), as the public facade over a layered engine.
//
// Structure. The queue is a set of per-thread prioritized queues; a hash of
// the vertex id selects the owning queue ("each thread 'owns' a queue and
// the queue is selected based on a hash of the vertex identifier"). This
// yields three properties the paper relies on:
//   1. reduced lock contention versus one shared queue,
//   2. exclusive access: all visitors for vertex v execute on owner(v)'s
//      thread, so per-vertex algorithm state needs no locks or atomics,
//   3. statistical load balance: an avalanching hash spreads hub vertices
//      uniformly across queues.
//
// Layers (docs/visitor_queue.md walks through each):
//   routing_policy.hpp   — vertex id -> owning queue (avalanche / identity)
//   ordering_policy.hpp  — per-worker pop discipline (priority/fifo/lifo),
//                          selected once at construction; the hot loop is
//                          monomorphic, with no per-pop order dispatch
//   mailbox.hpp          — batched cross-thread delivery (per-thread outbox
//                          buffers, flush_batch visitors per mutex
//                          acquisition) and the sleep/wake protocol
//   termination.hpp      — the in-flight counter and its batching-aware
//                          quiescence proof
//   traversal_engine.hpp — the worker loop and the gang-dispatched run
//
// Asynchrony. There are no barriers or level synchronizations anywhere;
// every worker pops its locally-best visitor and runs it immediately.
// Priority ordering is therefore a heuristic (the paper: "we cannot
// guarantee that the absolute shortest-path vertex is visited at each
// step, possibly requiring multiple visits per vertex") — correctness comes
// from label correction in the visitors, not from visit order.
//
// Oversubscription. num_threads is independent of core count; the paper runs
// up to 512 threads on 16 cores both to shrink per-queue contention and, in
// the semi-external setting, to keep enough concurrent reads in flight to
// saturate a flash device.
//
// Observability. The config optionally carries telemetry sinks (see
// docs/observability.md): a metrics_registry that run() flushes its counters
// into, a trace_writer that receives per-visit spans sampled 1-in-64 plus
// worker sleep spans, and a sampler that gets queue-depth / pending probes
// registered for the duration of the run. All sinks default to null and the
// hot loop tests one cached bool per feature, keeping the disabled-sinks
// overhead within the documented <2% budget (bench/micro_primitives).
//
// Visitor concept (see src/core for the algorithm visitors):
//   VertexId vertex() const;                  -- routing key
//   Priority priority() const;                -- smaller visits earlier
//   void visit(State&, Queue&, tid);          -- may push() more visitors
//   bool pre_visit(State&) const;             -- optional: runs on the owner
//                                                when it drains the visitor
//                                                from its mailbox; false
//                                                retires it unqueued
// Visitors must be cheap to move and default-constructible. `Queue` is a
// template parameter: inside a run it is the engine's per-worker handle
// (whose push() appends to thread-local outbox buffers), so visitors must
// not assume it is visitor_queue itself — only that it has push(). `tid` is
// the executing worker's index, usable to index per-thread counters in
// State without contention.
//
// NOTE: this is an internal header. User code includes <asyncgt.hpp> (the
// umbrella) and uses the session API (asyncgt::engine) or the async_* free
// functions; including queue/visitor_queue.hpp — or any other internal
// header — directly from user code is unsupported and may break without
// notice as the layering evolves.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "queue/ordering_policy.hpp"
#include "queue/queue_config.hpp"
#include "queue/queue_stats.hpp"
#include "queue/traversal_engine.hpp"
#include "telemetry/sampler.hpp"

namespace asyncgt {

template <typename Visitor, typename State>
class visitor_queue {
 public:
  using vertex_id = decltype(std::declval<const Visitor&>().vertex());

  explicit visitor_queue(visitor_queue_config cfg) : cfg_(cfg) {
    cfg_.validate();
    // The ordering policy is chosen exactly once; every hot-path call from
    // here on runs inside the matching engine instantiation.
    switch (cfg_.order) {
      case queue_order::priority:
        engine_.template emplace<prio_engine>(cfg_);
        break;
      case queue_order::fifo:
        engine_.template emplace<fifo_engine>(cfg_);
        break;
      case queue_order::lifo:
        engine_.template emplace<lifo_engine>(cfg_);
        break;
    }
  }

  visitor_queue(const visitor_queue&) = delete;
  visitor_queue& operator=(const visitor_queue&) = delete;

  ~visitor_queue() { unregister_probes(); }

  /// Enqueues a visitor. Callable from the outside before/after run();
  /// visitors running inside run() push through the per-worker handle they
  /// receive, not through this method.
  void push(const Visitor& v) { push(Visitor(v)); }

  /// Move overload: visitors constructed in place (the common case in the
  /// algorithm headers) are forwarded without a copy.
  void push(Visitor&& v) {
    with_engine([&](auto& e) { e.push_external(std::move(v)); });
  }

  /// Runs every queued visitor (and all transitively pushed ones) to
  /// quiescence as one gang on cfg.pool, or on a pool the queue starts for
  /// itself once, and returns the stats. `state` is shared mutable algorithm
  /// state; per-vertex entries are only ever touched by their owner thread.
  ///
  /// If a worker's body throws (an io_error from a semi-external read, a
  /// throwing visitor, an allocation failure), every worker is woken and
  /// unwound, queue state is reset, and the first error rethrows here as
  /// traversal_aborted — the queue remains usable for another run.
  queue_run_stats run(State& state) {
    return wait([&](auto done) { run_async(pool(), state, std::move(done)); });
  }

  /// Seeded run for algorithms that start one visitor per vertex (CC,
  /// PageRank, k-core). `make_visitor` is invoked as const from all workers
  /// concurrently — it must be const-callable (mutable functors are
  /// rejected at compile time) and thread-safe; each worker seeds the
  /// contiguous slice [t*n/T, (t+1)*n/T) and then joins processing. See
  /// traversal_engine::run_seeded_async for the pre-accounting argument.
  template <typename MakeVisitor>
  queue_run_stats run_seeded(State& state, std::uint64_t num_vertices,
                             MakeVisitor make_visitor) {
    return wait([&](auto done) {
      run_seeded_async(pool(), state, num_vertices, std::move(make_visitor),
                       std::move(done));
    });
  }

  /// Asynchronous run: dispatches the workers as one gang on `pool` and
  /// returns immediately. `done(stats, error)` is invoked exactly once —
  /// on the pool thread finishing the gang (or inline for an empty
  /// frontier) — with error null on success, else a traversal_aborted
  /// exception_ptr. Sampler probes are registered for the duration and
  /// unregistered before `done` runs, on every path. The caller must keep
  /// `state` and this queue alive until then (asyncgt::engine's job
  /// machinery does; see docs/service_api.md).
  template <typename Done>
  void run_async(service::worker_pool& pool, State& state, Done done) {
    register_probes();
    with_engine([&](auto& e) {
      e.run_async(pool, state, wrap_done(std::move(done)));
    });
  }

  /// Asynchronous seeded run; see run_seeded for the make_visitor contract
  /// (const-callable, thread-safe — it is copied into the gang) and
  /// run_async for the completion contract.
  template <typename MakeVisitor, typename Done>
  void run_seeded_async(service::worker_pool& pool, State& state,
                        std::uint64_t num_vertices, MakeVisitor make_visitor,
                        Done done) {
    register_probes();
    with_engine([&](auto& e) {
      e.run_seeded_async(pool, state, num_vertices, std::move(make_visitor),
                         wrap_done(std::move(done)));
    });
  }

  /// Cooperative cancellation: aborts the current (or next) run promptly;
  /// it completes with traversal_aborted carrying `reason` (first request
  /// wins). Callable from any thread — this is what job::cancel() forwards
  /// to (reason cancelled); the service watchdog and load shedder pass
  /// deadline_exceeded / stalled / shed through the same path.
  void cancel(abort_reason reason = abort_reason::cancelled) {
    with_engine([reason](auto& e) { e.request_cancel(reason); });
  }

  std::size_t num_threads() const noexcept { return cfg_.num_threads; }

  /// In-flight visitor count (the termination counter). Exact at
  /// quiescence; a conservative instantaneous sample while workers run —
  /// this is what the telemetry sampler plots as the frontier size.
  std::int64_t pending() const noexcept {
    return const_cast<visitor_queue*>(this)->with_engine(
        [](auto& e) { return e.pending(); });
  }

  /// Snapshot of every per-thread queue length (locks each mailbox
  /// briefly). Intended for sampler probes and tests, not hot paths.
  std::vector<std::size_t> queue_depths() {
    return with_engine([](auto& e) { return e.queue_depths(); });
  }

 private:
  using prio_engine =
      detail::traversal_engine<Visitor, State, priority_order<Visitor>>;
  using fifo_engine =
      detail::traversal_engine<Visitor, State, fifo_order<Visitor>>;
  using lifo_engine =
      detail::traversal_engine<Visitor, State, lifo_order<Visitor>>;

  /// Single dispatch point from the runtime order to the monomorphic
  /// engine. The monostate alternative only exists so the variant can be
  /// default-constructed before the constructor emplaces the real engine
  /// (the engines hold mutexes and are neither copyable nor movable).
  template <typename F>
  decltype(auto) with_engine(F&& f) {
    switch (engine_.index()) {
      case 1:
        return f(std::get<1>(engine_));
      case 2:
        return f(std::get<2>(engine_));
      default:
        return f(std::get<3>(engine_));
    }
  }

  /// The pool blocking runs use: the configured one, else the queue's own.
  service::worker_pool& pool() {
    if (cfg_.pool != nullptr) return *cfg_.pool;
    if (own_pool_ == nullptr) {
      own_pool_ = std::make_unique<service::worker_pool>(cfg_.num_threads);
    }
    return *own_pool_;
  }

  /// Blocks until the run `start(done)` dispatches delivers its result.
  template <typename Start>
  static queue_run_stats wait(Start start) {
    auto result = std::make_shared<std::promise<queue_run_stats>>();
    std::future<queue_run_stats> f = result->get_future();
    start([result](queue_run_stats stats, std::exception_ptr error) {
      if (error != nullptr) {
        result->set_exception(std::move(error));
      } else {
        result->set_value(std::move(stats));
      }
    });
    return f.get();
  }

  /// Decorates an async completion callback so probes are unregistered
  /// before the caller's `done` observes the result (telemetry teardown is
  /// part of the run on the async path, as on the blocking one).
  template <typename Done>
  auto wrap_done(Done done) {
    return [this, d = std::move(done)](queue_run_stats stats,
                                       std::exception_ptr error) mutable {
      unregister_probes();
      d(std::move(stats), std::move(error));
    };
  }

  void register_probes() {
    if (cfg_.sampler == nullptr || !probe_ids_.empty()) return;
    probe_ids_.push_back(cfg_.sampler->add_probe(
        "queue.pending",
        [this] { return static_cast<double>(pending()); }));
    probe_ids_.push_back(cfg_.sampler->add_probe("queue.depth.total", [this] {
      std::size_t sum = 0;
      for (const std::size_t d : queue_depths()) sum += d;
      return static_cast<double>(sum);
    }));
    probe_ids_.push_back(cfg_.sampler->add_probe("queue.depth.max", [this] {
      std::size_t mx = 0;
      for (const std::size_t d : queue_depths()) mx = std::max(mx, d);
      return static_cast<double>(mx);
    }));
  }

  void unregister_probes() {
    if (cfg_.sampler == nullptr) return;
    for (const auto id : probe_ids_) cfg_.sampler->remove_probe(id);
    probe_ids_.clear();
  }

  visitor_queue_config cfg_;
  std::variant<std::monostate, prio_engine, fifo_engine, lifo_engine>
      engine_;
  std::vector<telemetry::sampler::probe_id> probe_ids_;
  // Declared last, so destroyed first: its threads are joined while the
  // engine they ran is still alive.
  std::unique_ptr<service::worker_pool> own_pool_;
};

}  // namespace asyncgt
