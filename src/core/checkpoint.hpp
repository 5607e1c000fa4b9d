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
// fixed point, because the resume re-expands every labelled vertex.
//
// Both directions are ordinary engine jobs: a BFS or SSSP job whose options
// name a checkpoint_path writes its labels there when it aborts, and
// resume_run() turns a snapshot into the seeded run engine::submit_bfs /
// submit_sssp start from (resume_bfs / resume_sssp submit it and wait).
//
// File format: header (magic, algorithm tag, vertex count) + label array +
// parent array + CRC-32 of the payload. The CRC turns a torn write from a
// crash during checkpointing into a clean load error instead of silent
// corruption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/traversal_result.hpp"
#include "graph/types.hpp"
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

/// The seeded run that resumes a BFS or SSSP from a snapshot: no labels
/// installed, one seed per labelled vertex carrying its saved label and
/// parent, whose claim on arrival re-expands the vertex (claimed-but-never-
/// expanded ones included). Labels are monotone, so the run converges to
/// the identical fixed point as the uninterrupted run.
template <typename Result, typename Graph>
seeded_run<Result> resume_run(
    const Graph& g, const traversal_checkpoint<typename Graph::vertex_id>& cp) {
  using V = typename Graph::vertex_id;
  constexpr bool bfs = std::is_same_v<Result, bfs_result<V>>;
  if (cp.kind != (bfs ? checkpoint_kind::bfs : checkpoint_kind::sssp)) {
    throw std::invalid_argument("resume: checkpoint kind mismatch");
  }
  if (cp.label.size() != g.num_vertices() ||
      cp.parent.size() != g.num_vertices()) {
    throw std::invalid_argument("resume: checkpoint size mismatch");
  }
  seeded_run<Result> run;
  run.label = bfs ? "resume_bfs" : "resume_sssp";
  for (V v = 0; v < g.num_vertices(); ++v) {
    if (cp.label[v] == infinite_distance<dist_t>) continue;
    run.seeds.push_back({v, cp.parent[v], cp.label[v]});
  }
  return run;
}

/// The abort hook of a BFS or SSSP job that checkpoints to `path` (empty:
/// none). It saves the labels with the run's `seeds` applied: a seed is
/// labelled only when a worker claims it, and a job can abort before any
/// worker does. Sound at any abort point; see resume_run.
template <typename State, typename VertexId>
std::function<void(State&)> checkpoint_on_abort(
    const std::string& path, checkpoint_kind kind,
    std::vector<dist_t> State::*label,
    const std::vector<label_seed<VertexId>>& seeds) {
  if (path.empty()) return {};
  return [path, kind, label, seeds](State& s) {
    std::vector<dist_t>& l = s.*label;
    for (const auto& seed : seeds) {
      if (seed.label < l[seed.vertex]) {
        l[seed.vertex] = seed.label;
        s.parent[seed.vertex] = seed.from;
      }
    }
    save_checkpoint(path, traversal_checkpoint<VertexId>{
                              kind, std::move(l), std::move(s.parent)});
  };
}

}  // namespace asyncgt
