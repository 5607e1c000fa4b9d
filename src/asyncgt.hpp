// Umbrella header: THE public API of the AsyncGT library.
//
// This is the only header user code is supposed to include. Everything
// under src/ other than this file is an internal header: include paths,
// layering, and contents of queue/, service/, core/, sem/, telemetry/ etc.
// may change without notice between versions — code that includes them
// directly (e.g. "queue/visitor_queue.hpp") is unsupported.
//
// Session API (docs/service_api.md) — the persistent traversal service:
//   asyncgt::engine eng({.pool_threads = 16});
//   auto j1 = eng.submit_bfs(g, 0);          // returns immediately
//   auto j2 = eng.submit_sssp(g, 42);        // concurrent with j1
//   auto bfs = j1.get();                     // bfs_result, or throws
// An engine owns a long-lived worker pool (threads parked between jobs,
// never re-spawned) and admits multiple concurrent traversals over one
// shared in-memory or semi-external graph. Job handles carry per-job stats,
// cooperative cancellation (j.cancel() -> traversal_aborted), and a live
// pending() frontier probe. Per-job options and telemetry sinks travel in
// one traversal_options struct.
//
// One-shot compatibility API — the original free functions, now thin
// submit-and-wait wrappers over a shared process-local engine:
//   async_bfs(graph, start, opts)   -> bfs_result   (levels + parents)
//   async_sssp(graph, start, opts)  -> sssp_result  (distances + parents)
//   async_cc(graph, opts)           -> cc_result    (min-id component labels)
// where `graph` is an in-memory csr_graph<V> or a disk-backed
// sem::sem_csr<V>, and opts is a traversal_options (a visitor_queue_config
// converts implicitly, so pre-service call sites compile unchanged).
//
// See README.md for a walkthrough and examples/ for runnable programs.
#pragma once

#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_kcore.hpp"
#include "core/async_pagerank.hpp"
#include "core/async_sssp.hpp"
#include "core/checkpoint.hpp"
#include "core/graph_metrics.hpp"
#include "core/hybrid_traversal.hpp"
#include "core/incremental.hpp"
#include "core/multi_source_bfs.hpp"
#include "core/traversal_result.hpp"
#include "core/validate.hpp"
#include "gen/grid.hpp"
#include "gen/random_graphs.hpp"
#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "gen/webgen.hpp"
#include "gen/weights.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/delta_overlay.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "graph/text_io.hpp"
#include "graph/types.hpp"
#include "queue/traversal_abort.hpp"
#include "queue/visitor_queue.hpp"
#include "sem/device_presets.hpp"
#include "sem/block_cache.hpp"
#include "sem/block_heat.hpp"
#include "sem/block_index.hpp"
#include "sem/ext_sorter.hpp"
#include "sem/fault_injector.hpp"
#include "sem/io_error.hpp"
#include "sem/ooc_builder.hpp"
#include "sem/sem_compaction.hpp"
#include "sem/sem_config.hpp"
#include "sem/sem_csr.hpp"
#include "sem/ssd_model.hpp"
#include "service/engine.hpp"
#include "service/traversal_options.hpp"
#include "service/worker_pool.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metric_scope.hpp"
#include "telemetry/metrics_json.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/percentiles.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/stats_dump.hpp"
#include "telemetry/trace_writer.hpp"
