// traversal_options — the one per-job configuration surface of the library.
//
// Before this struct, every call site assembled a visitor_queue_config by
// hand and the SEM retry knobs travelled separately: the engine API, the
// async_* free functions, agt_tool, and each bench harness all duplicated
// the "threads / flush-batch / retries / backoff / sinks" plumbing, so
// adding one option meant touching five parsers. traversal_options folds
// all of it into a single struct with a single flag parser
// (`from_flags`): the session API (engine::submit_*), the free-function
// wrappers, and the tools all consume this one type.
//
// It converts implicitly from visitor_queue_config, so pre-existing call
// sites that pass a raw queue config to async_bfs/async_sssp/... keep
// compiling unchanged.
//
// Layering: the I/O retry knobs are carried as plain integers (mirroring
// sem::io_retry_policy's defaults) rather than as the sem type itself, so
// the in-memory algorithm headers do not grow a dependency on the SEM
// layer; SEM call sites build an io_retry_policy via the documented
// correspondence (see agt_tool, bench/ext_concurrent_queries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "queue/queue_config.hpp"
#include "service/admission.hpp"
#include "util/options.hpp"

namespace asyncgt {

struct traversal_options {
  /// Queue/engine knobs: thread count, pop ordering, flush batch, routing,
  /// and the borrowed telemetry sinks (metrics/trace/sampler).
  visitor_queue_config queue;

  /// Transient-I/O retry budget for semi-external runs; mirrors
  /// sem::io_retry_policy{max_retries, backoff_initial_us} defaults.
  /// Ignored by in-memory runs.
  std::uint32_t io_retries = 4;
  std::uint32_t io_backoff_us = 50;

  /// Names the one SEM host read path (sem::io_backend::name). Selects
  /// nothing; kept only because the benchmark's sem-rmat workload
  /// (perfbench/src/sem_rmat.cpp) reports it. Remove it with that call.
  static constexpr const char* io_backend = "block-window";

  /// Simulated page-cache size as a fraction of the graph file's blocks
  /// (sem::sem_config::from_options consumes it). Negative = not specified
  /// on the command line; each tool/bench keeps its own default (agt_tool:
  /// 0.5 in demo mode, 0 with explicit --sem; table4/table5: their
  /// calibrated per-table values). Ignored by in-memory runs.
  double cache_fraction = -1.0;

  /// Direction-switch thresholds of the frontier-adaptive hybrid drivers
  /// (hybrid_bfs / hybrid_cc, docs/hybrid_traversal.md), which need a
  /// reverse view on the graph. They follow Beamer et al.'s
  /// direction-optimizing formulation: go bottom-up when frontier_edges *
  /// alpha > unvisited_edges; stay while frontier_vertices * beta > n.
  double hybrid_alpha = 14.0;
  double hybrid_beta = 24.0;

  /// Robustness knobs (docs/robustness.md). All enforced by the service
  /// engine's watchdog/admission layer; the free-function wrappers route
  /// through the default engine, so they apply there too.
  ///
  /// deadline_ms: wall-clock budget from submit; 0 = none. A job past its
  /// deadline is force-cancelled through the abort broadcast and completes
  /// with traversal_aborted reason deadline_exceeded.
  std::uint32_t deadline_ms = 0;
  /// stall_grace_ms: once the job holds a gang, a frozen progress epoch
  /// (metric_scope::progress_epoch) for this long marks it stalled and
  /// force-cancels it (reason stalled); 0 = stall detection off.
  std::uint32_t stall_grace_ms = 0;
  /// Priority class for admission control (low=-1 / normal=0 / high=1, any
  /// int). Under the shed policy, an arriving job may evict a running job
  /// of strictly lower priority.
  int priority = 0;
  /// Declared resident-memory estimate for the engine's
  /// memory_budget_bytes guardrail; 0 = unaccounted. Callers typically pass
  /// graph.resident_bytes() (+ cache share for SEM runs).
  std::uint64_t memory_estimate_bytes = 0;

  /// Checkpoint on error (docs/robustness.md): a BFS or SSSP job that
  /// aborts writes its partial labels here before the error is delivered.
  /// Empty = off; every other job rejects a path at submit.
  std::string checkpoint_path;

  traversal_options() = default;
  /// Implicit on purpose: every pre-service call site passes a
  /// visitor_queue_config and must keep compiling.
  traversal_options(const visitor_queue_config& cfg) : queue(cfg) {}

  traversal_options& with_threads(std::size_t n) {
    queue.num_threads = n;
    return *this;
  }
  traversal_options& with_flush_batch(std::size_t b) {
    queue.flush_batch = b;
    return *this;
  }
  traversal_options& with_metrics(telemetry::metrics_registry* m) {
    queue.metrics = m;
    return *this;
  }
  traversal_options& with_deadline_ms(std::uint32_t ms) {
    deadline_ms = ms;
    return *this;
  }
  traversal_options& with_stall_grace_ms(std::uint32_t ms) {
    stall_grace_ms = ms;
    return *this;
  }
  traversal_options& with_priority(int p) {
    priority = p;
    return *this;
  }
  traversal_options& with_memory_estimate(std::uint64_t bytes) {
    memory_estimate_bytes = bytes;
    return *this;
  }

  void validate() const { queue.validate(); }

  /// The single flag parser shared by agt_tool and the bench harnesses:
  ///   --threads=N        worker lanes            (default 16)
  ///   --flush-batch=N    delivery batch          (default 64 IM, 1 SEM —
  ///                      batching delay fragments the semi-sorted visit
  ///                      order the SEM block cache depends on, tuning.md)
  ///   --io-retries=N     transient-errno budget  (default 4)
  ///   --io-backoff-us=N  initial retry backoff   (default 50)
  ///   --ordering=NAME    pop order: priority | fifo | lifo
  ///                      (default priority)
  ///   --cache-fraction=F page-cache size as a fraction of the file's
  ///                      blocks (default: tool/bench-specific)
  ///   --hybrid-alpha=X   top-down -> bottom-up threshold (default 14)
  ///   --hybrid-beta=X    bottom-up -> top-down threshold (default 24)
  ///   --deadline-ms=N    per-job wall-clock budget (default 0 = none)
  ///   --stall-grace-ms=N no-progress window before a running job is
  ///                      declared stalled (default 0 = off)
  ///   --priority=P       admission priority: low | normal | high | int
  ///   --checkpoint-on-error=F  BFS/SSSP: snapshot the labels to F on abort
  /// `sem_mode` selects the SEM defaults (flush batch, secondary sort).
  /// The option parser stores any key, so the flags of removed mechanisms
  /// (the hot-block scheduler's --cache-policy, --prefetch-hot and
  /// --hot-threshold; the I/O backend choice's --io-backend and --io-batch)
  /// are rejected by name here rather than silently ignored.
  static traversal_options from_flags(const options& opt,
                                      bool sem_mode = false) {
    for (const char* removed : {"cache-policy", "prefetch-hot",
                                "hot-threshold"}) {
      if (opt.has(removed)) {
        throw std::invalid_argument(
            std::string("--") + removed +
            " was removed with hot-block scheduling; SEM runs use a "
            "plain LRU cache");
      }
    }
    for (const char* removed : {"io-backend", "io-batch"}) {
      if (opt.has(removed)) {
        throw std::invalid_argument(
            std::string("--") + removed +
            " was removed; SEM runs read whole blocks through one "
            "per-thread window");
      }
    }
    traversal_options o;
    o.queue.num_threads =
        static_cast<std::size_t>(opt.get_int("threads", 16));
    o.queue.flush_batch = static_cast<std::size_t>(
        opt.get_int("flush-batch", sem_mode ? 1 : 64));
    o.queue.secondary_vertex_sort = sem_mode;
    o.io_retries = static_cast<std::uint32_t>(
        opt.get_int("io-retries", static_cast<std::int64_t>(o.io_retries)));
    o.io_backoff_us = static_cast<std::uint32_t>(opt.get_int(
        "io-backoff-us", static_cast<std::int64_t>(o.io_backoff_us)));
    const std::string ordering = opt.get_string("ordering", "priority");
    if (ordering == "priority") {
      o.queue.order = queue_order::priority;
    } else if (ordering == "fifo") {
      o.queue.order = queue_order::fifo;
    } else if (ordering == "lifo") {
      o.queue.order = queue_order::lifo;
    } else {
      throw std::invalid_argument("bad --ordering value: " + ordering +
                                  " (expected priority|fifo|lifo)");
    }
    o.cache_fraction = opt.get_double("cache-fraction", o.cache_fraction);
    o.hybrid_alpha = opt.get_double("hybrid-alpha", o.hybrid_alpha);
    o.hybrid_beta = opt.get_double("hybrid-beta", o.hybrid_beta);
    o.deadline_ms = static_cast<std::uint32_t>(
        opt.get_int("deadline-ms", static_cast<std::int64_t>(o.deadline_ms)));
    o.stall_grace_ms = static_cast<std::uint32_t>(opt.get_int(
        "stall-grace-ms", static_cast<std::int64_t>(o.stall_grace_ms)));
    o.checkpoint_path = opt.get_string("checkpoint-on-error", "");
    const std::string prio = opt.get_string("priority", "");
    if (!prio.empty() && !service::parse_priority(prio, o.priority)) {
      throw std::invalid_argument("bad --priority value: " + prio);
    }
    return o;
  }
};

}  // namespace asyncgt
