// Checkpoint / restart for the asynchronous traversals.
//
// Semi-external traversals over large graphs run for hours (the paper's
// Table V rows reach 10,000+ seconds); a crash should not forfeit the work.
// Label-correcting algorithms make restart unusually clean: a partially
// converged label array is itself a valid intermediate state — labels only
// ever decrease toward the fixed point — so resuming means re-seeding the
// visitor queue from every already-labelled vertex and letting correction
// finish the job. No coordination with the crashed run is needed, and a
// checkpoint taken at ANY moment (even mid-relaxation, or with labels the
// visitors claimed on arrival but never expanded) resumes to the exact same
// fixed point, because the resume pushes along every out-edge of every
// labelled vertex.
//
// File format: header (magic, algorithm tag, vertex count) + label array +
// parent array + CRC-32 of the payload. The CRC turns a torn write from a
// crash during checkpointing into a clean load error instead of silent
// corruption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async_bfs.hpp"
#include "core/async_sssp.hpp"
#include "core/traversal_result.hpp"
#include "graph/types.hpp"
#include "queue/traversal_abort.hpp"
#include "util/crc32.hpp"

namespace asyncgt {

inline constexpr std::uint32_t checkpoint_magic = 0x43504B31;  // "1KPC"

enum class checkpoint_kind : std::uint32_t {
  bfs = 1,
  sssp = 2,
};

namespace detail {

struct checkpoint_header {
  std::uint32_t magic = checkpoint_magic;
  std::uint32_t kind = 0;
  std::uint64_t num_vertices = 0;
  std::uint32_t vertex_width = 0;  // sizeof(VertexId)
  std::uint32_t reserved = 0;
};

struct file_closer {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using file_ptr = std::unique_ptr<std::FILE, file_closer>;

inline void write_all(std::FILE* f, const void* data, std::size_t bytes,
                      const std::string& path) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("checkpoint: short write to '" + path + "'");
  }
}

inline void read_all(std::FILE* f, void* data, std::size_t bytes,
                     const std::string& path) {
  if (bytes != 0 && std::fread(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("checkpoint: short read from '" + path + "'");
  }
}

}  // namespace detail

/// A loaded (or about-to-be-saved) traversal state snapshot.
template <typename VertexId>
struct traversal_checkpoint {
  checkpoint_kind kind = checkpoint_kind::bfs;
  std::vector<dist_t> label;     // level (BFS) or distance (SSSP)
  std::vector<VertexId> parent;
};

/// Writes the snapshot atomically-ish: payload then CRC last, so a torn
/// file fails the CRC on load.
template <typename VertexId>
void save_checkpoint(const std::string& path,
                     const traversal_checkpoint<VertexId>& cp) {
  if (cp.label.size() != cp.parent.size()) {
    throw std::invalid_argument("checkpoint: label/parent size mismatch");
  }
  detail::file_ptr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    throw std::runtime_error("checkpoint: cannot create '" + path + "'");
  }
  detail::checkpoint_header h;
  h.kind = static_cast<std::uint32_t>(cp.kind);
  h.num_vertices = cp.label.size();
  h.vertex_width = sizeof(VertexId);
  detail::write_all(f.get(), &h, sizeof(h), path);
  detail::write_all(f.get(), cp.label.data(),
                    cp.label.size() * sizeof(dist_t), path);
  detail::write_all(f.get(), cp.parent.data(),
                    cp.parent.size() * sizeof(VertexId), path);
  crc32 crc;
  crc.update(&h, sizeof(h));
  crc.update(cp.label.data(), cp.label.size() * sizeof(dist_t));
  crc.update(cp.parent.data(), cp.parent.size() * sizeof(VertexId));
  const std::uint32_t sum = crc.value();
  detail::write_all(f.get(), &sum, sizeof(sum), path);
  if (std::fflush(f.get()) != 0) {
    throw std::runtime_error("checkpoint: flush failed for '" + path + "'");
  }
}

/// Loads and CRC-verifies a snapshot. Throws on mismatch of magic, width,
/// kind, or checksum.
template <typename VertexId>
traversal_checkpoint<VertexId> load_checkpoint(const std::string& path,
                                               checkpoint_kind expected) {
  detail::file_ptr f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  }
  detail::checkpoint_header h;
  detail::read_all(f.get(), &h, sizeof(h), path);
  if (h.magic != checkpoint_magic) {
    throw std::runtime_error("checkpoint: bad magic in '" + path + "'");
  }
  if (h.vertex_width != sizeof(VertexId)) {
    throw std::runtime_error("checkpoint: vertex width mismatch");
  }
  if (h.kind != static_cast<std::uint32_t>(expected)) {
    throw std::runtime_error("checkpoint: algorithm kind mismatch");
  }
  traversal_checkpoint<VertexId> cp;
  cp.kind = expected;
  cp.label.resize(h.num_vertices);
  cp.parent.resize(h.num_vertices);
  detail::read_all(f.get(), cp.label.data(),
                   cp.label.size() * sizeof(dist_t), path);
  detail::read_all(f.get(), cp.parent.data(),
                   cp.parent.size() * sizeof(VertexId), path);
  std::uint32_t stored = 0;
  detail::read_all(f.get(), &stored, sizeof(stored), path);
  crc32 crc;
  crc.update(&h, sizeof(h));
  crc.update(cp.label.data(), cp.label.size() * sizeof(dist_t));
  crc.update(cp.parent.data(), cp.parent.size() * sizeof(VertexId));
  if (crc.value() != stored) {
    throw std::runtime_error("checkpoint: CRC mismatch in '" + path +
                             "' (torn or corrupted file)");
  }
  return cp;
}

/// Resumes an SSSP (or BFS: unit weights) from a snapshot: install the
/// saved labels, then re-seed the queue by re-relaxing every out-edge of
/// every labelled vertex. Because labels are monotone, this converges to
/// the identical fixed point as the uninterrupted run.
template <typename Graph>
sssp_result<typename Graph::vertex_id> resume_sssp(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    traversal_options opts = {}) {
  using V = typename Graph::vertex_id;
  if (cp.label.size() != g.num_vertices()) {
    throw std::invalid_argument("resume_sssp: checkpoint size mismatch");
  }
  const visitor_queue_config cfg =
      engine::process_default().pooled_config(std::move(opts));
  sssp_state<Graph> state(g, cfg.num_threads);
  state.dist = cp.label;
  state.parent = cp.parent;
  visitor_queue<sssp_visitor<V>, sssp_state<Graph>> q(cfg);
  for (V v = 0; v < g.num_vertices(); ++v) {
    if (cp.label[v] == infinite_distance<dist_t>) continue;
    g.for_each_out_edge(v, [&](V vj, weight_t w) {
      q.push(sssp_visitor<V>{vj, v, cp.label[v] + w});
    });
  }
  auto stats = q.run(state);

  sssp_result<V> out;
  out.dist = std::move(state.dist);
  out.parent = std::move(state.parent);
  out.stats = std::move(stats);
  out.updates = state.updates.total();
  return out;
}

/// BFS with graceful degradation: like async_bfs, but if the run aborts
/// (traversal_aborted — e.g. a fatal semi-external I/O error), the partial
/// label state is saved to `checkpoint_path` as an emergency checkpoint
/// before the exception propagates. The snapshot is sound at any abort
/// point. Labels are claimed on arrival, before the adjacency read, so the
/// start vertex is labelled before the first possible I/O fault. A vertex
/// claimed but not yet expanded when the run aborted holds a label whose
/// out-edges were never relaxed; resume re-relaxes the out-edges of every
/// labelled vertex, which covers it, and monotone label correction makes
/// any partial array resume to the identical fixed point (resume_bfs).
template <typename Graph>
bfs_result<typename Graph::vertex_id> async_bfs_checkpointed(
    const Graph& g, typename Graph::vertex_id start,
    const std::string& checkpoint_path, traversal_options opts = {}) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("async_bfs: start vertex out of range");
  }
  const visitor_queue_config cfg =
      engine::process_default().pooled_config(std::move(opts));
  bfs_state<Graph> state(g, cfg.num_threads);
  visitor_queue<bfs_visitor<V>, bfs_state<Graph>> q(cfg);
  q.push(bfs_visitor<V>{start, start, 0});
  queue_run_stats stats;
  try {
    stats = q.run(state);
  } catch (const traversal_aborted&) {
    traversal_checkpoint<V> cp;
    cp.kind = checkpoint_kind::bfs;
    cp.label = state.level;
    cp.parent = state.parent;
    save_checkpoint(checkpoint_path, cp);
    throw;
  }
  bfs_result<V> out;
  out.level = std::move(state.level);
  out.parent = std::move(state.parent);
  out.stats = std::move(stats);
  out.updates = state.updates.total();
  if (cfg.metrics != nullptr) out.work().record(*cfg.metrics, "bfs");
  return out;
}

/// SSSP twin of async_bfs_checkpointed: emergency checkpoint on abort, same
/// resume-to-identical-fixed-point argument (resume_sssp above).
template <typename Graph>
sssp_result<typename Graph::vertex_id> async_sssp_checkpointed(
    const Graph& g, typename Graph::vertex_id start,
    const std::string& checkpoint_path, traversal_options opts = {}) {
  using V = typename Graph::vertex_id;
  if (start >= g.num_vertices()) {
    throw std::out_of_range("async_sssp: start vertex out of range");
  }
  const visitor_queue_config cfg =
      engine::process_default().pooled_config(std::move(opts));
  sssp_state<Graph> state(g, cfg.num_threads);
  visitor_queue<sssp_visitor<V>, sssp_state<Graph>> q(cfg);
  q.push(sssp_visitor<V>{start, start, 0});
  queue_run_stats stats;
  try {
    stats = q.run(state);
  } catch (const traversal_aborted&) {
    traversal_checkpoint<V> cp;
    cp.kind = checkpoint_kind::sssp;
    cp.label = state.dist;
    cp.parent = state.parent;
    save_checkpoint(checkpoint_path, cp);
    throw;
  }
  sssp_result<V> out;
  out.dist = std::move(state.dist);
  out.parent = std::move(state.parent);
  out.stats = std::move(stats);
  out.updates = state.updates.total();
  if (cfg.metrics != nullptr) out.work().record(*cfg.metrics, "sssp");
  return out;
}

/// BFS resume: unit-weight specialization with its own visitor type.
template <typename Graph>
bfs_result<typename Graph::vertex_id> resume_bfs(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp,
    traversal_options opts = {}) {
  using V = typename Graph::vertex_id;
  if (cp.label.size() != g.num_vertices()) {
    throw std::invalid_argument("resume_bfs: checkpoint size mismatch");
  }
  const visitor_queue_config cfg =
      engine::process_default().pooled_config(std::move(opts));
  bfs_state<Graph> state(g, cfg.num_threads);
  state.level = cp.label;
  state.parent = cp.parent;
  visitor_queue<bfs_visitor<V>, bfs_state<Graph>> q(cfg);
  for (V v = 0; v < g.num_vertices(); ++v) {
    if (cp.label[v] == infinite_distance<dist_t>) continue;
    g.for_each_out_edge(v, [&](V vj, weight_t) {
      q.push(bfs_visitor<V>{vj, v, cp.label[v] + 1});
    });
  }
  auto stats = q.run(state);

  bfs_result<V> out;
  out.level = std::move(state.level);
  out.parent = std::move(state.parent);
  out.stats = std::move(stats);
  out.updates = state.updates.total();
  return out;
}

}  // namespace asyncgt
