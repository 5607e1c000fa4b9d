// Configuration surface of the layered traversal engine.
//
// Kept in its own header so every layer (routing_policy, ordering_policy,
// mailbox, termination, traversal_engine) can consume the config without
// pulling in the visitor_queue facade. See docs/visitor_queue.md for the
// four-layer architecture this configures.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "telemetry/metric_scope.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace_writer.hpp"

namespace asyncgt {

// Forward-declared so this header stays below the service layer: the engine
// only ever holds a pointer to the pool (src/service/worker_pool.hpp), and
// traversal_engine.hpp includes the full definition.
namespace service {
class worker_pool;
}

/// Visitor pop ordering. `priority` is the paper's design; `fifo` and `lifo`
/// exist for the ablation bench that quantifies what the prioritization buys.
/// The value selects one of three compile-time ordering policies
/// (ordering_policy.hpp) once at queue construction — the hot pop loop runs
/// inside the selected instantiation and pays no per-pop dispatch.
enum class queue_order { priority, fifo, lifo };

struct visitor_queue_config {
  std::size_t num_threads = 4;
  queue_order order = queue_order::priority;
  /// Secondary sort by vertex id within equal priorities — the paper's
  /// semi-external locality optimization (§IV-C). Harmless in-memory.
  bool secondary_vertex_sort = false;
  /// Route with the raw id (v % threads) instead of the avalanching hash;
  /// used by the load-balance ablation.
  bool identity_hash = false;

  /// Cross-thread delivery batch size B (mailbox layer). Pushes from inside
  /// visitors append lock-free to a per-thread outbox buffer per destination
  /// and are delivered — one destination-mutex acquisition plus one batched
  /// termination-counter update — only when the buffer holds B visitors (or
  /// at flush-on-idle / flush-before-sleep, which keep termination exact).
  /// 1 reproduces the seed's per-push delivery; 64 amortizes both per-push
  /// costs ~64x on fan-out-heavy traversals.
  std::size_t flush_batch = 64;

  /// Optional telemetry sinks (all borrowed, all nullable — null means the
  /// corresponding instrumentation compiles to a predictable branch).
  telemetry::metrics_registry* metrics = nullptr;  ///< flushed at end of run
  telemetry::trace_writer* trace = nullptr;  ///< 1-in-64 visit spans
  telemetry::sampler* sampler = nullptr;     ///< depth/pending probes

  /// Per-job attribution scope (borrowed, nullable). When set, the engine
  /// installs it as the calling thread's ambient metric_scope for the
  /// duration of every worker body (telemetry/metric_scope.hpp), marks the
  /// job's run start, and mirrors the end-of-run queue stats into the
  /// scope's hot counters and named deltas — so shared sinks (io_recorder,
  /// the global registry) stay exact while the job gets its own copy.
  /// asyncgt::engine wires one scope per submitted job; null costs nothing.
  telemetry::metric_scope* scope = nullptr;

  /// Borrowed worker pool (nullable) the blocking run()/run_seeded()
  /// dispatch their gang on. asyncgt::engine sets this on every job config
  /// it prepares; null makes the queue start a pool of its own, once, on
  /// its first run.
  service::worker_pool* pool = nullptr;

  void validate() const {
    if (num_threads == 0) {
      throw std::invalid_argument("visitor_queue: need at least one thread");
    }
    if (flush_batch == 0) {
      throw std::invalid_argument("visitor_queue: flush_batch must be >= 1");
    }
  }
};

}  // namespace asyncgt
