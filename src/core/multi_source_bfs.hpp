// Multi-source asynchronous BFS: distance to the *nearest* of a set of
// sources — the landmark/seed-set primitive used for distance sketches,
// closeness approximations, and the double-sweep diameter estimate in
// graph_metrics.hpp.
//
// Implementation: exactly the paper's BFS visitor, seeded from every source
// at level 0; label correction resolves overlaps so each vertex ends with
// min over sources of the hop distance, and parent links form a forest
// rooted at the sources. It is a BFS seeded run: the seeds are pushed
// externally (one termination reservation each) before the run; everything
// after that flows through the engine's batched per-worker delivery.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/async_bfs.hpp"

namespace asyncgt {

/// Session API: submits a multi-source BFS job to this engine, a BFS
/// seeded run with one level-0 seed per source. Like any BFS job it writes
/// its labels to the options' checkpoint_path if it aborts.
template <typename Graph>
job<bfs_result<typename Graph::vertex_id>> engine::submit_multi_source_bfs(
    const Graph& g, const std::vector<typename Graph::vertex_id>& sources,
    std::optional<traversal_options> opts) {
  if (sources.empty()) {
    throw std::invalid_argument("multi_source_bfs: need at least one source");
  }
  seeded_run<bfs_result<typename Graph::vertex_id>> run{.label = "msbfs"};
  for (const auto s : sources) run.seeds.push_back({s, s, 0});
  return submit_bfs(g, std::move(run), std::move(opts));
}

/// One-shot compatibility wrapper over the process-local engine.
template <typename Graph>
bfs_result<typename Graph::vertex_id> async_multi_source_bfs(
    const Graph& g, const std::vector<typename Graph::vertex_id>& sources,
    traversal_options opts = {}) {
  return engine::process_default()
      .submit_multi_source_bfs(g, sources, std::move(opts))
      .get();
}

}  // namespace asyncgt
