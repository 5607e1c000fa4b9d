// Binary CSR file format (".agt" files).
//
// Layout (little-endian):
//   header      : magic "AGT1", u32 flags (bit0 = weighted, bit1 = 64-bit
//                 ids), u64 num_vertices, u64 num_edges
//   offsets     : (num_vertices+1) * u64
//   targets     : num_edges * sizeof(VertexId)
//   weights     : num_edges * u32 when weighted
//
// The same layout is what sem::sem_csr maps from disk — the offsets section
// is loaded into memory and the targets/weights sections are pread() on
// demand — so a graph written here can be traversed either fully in-memory
// or semi-externally without conversion.
//
// Reverse edge files. A graph may carry an on-disk reverse view: a second,
// ordinary .agt file at reverse_path_for(path) ("<path>.rev") holding the
// transpose (its out-edges are the main graph's in-edges). write_graph_with_
// reverse emits both; sem_csr::open_reverse serves the reverse file through
// the same io_backend / block_cache / block_heat path as the main one, and
// the in-memory readers rehydrate it via read_graph_with_reverse without
// recomputing the transpose.
#pragma once

#include <cstdint>
#include <string>

#include "graph/csr_graph.hpp"

namespace asyncgt {

inline constexpr std::uint32_t agt_magic = 0x31544741;  // "AGT1"

struct agt_header {
  std::uint32_t magic = agt_magic;
  std::uint32_t flags = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;

  bool weighted() const noexcept { return (flags & 1u) != 0; }
  bool wide_ids() const noexcept { return (flags & 2u) != 0; }
};

inline constexpr std::uint64_t agt_offsets_pos = sizeof(agt_header);

template <typename VertexId>
std::uint64_t agt_targets_pos(std::uint64_t num_vertices) {
  return agt_offsets_pos + (num_vertices + 1) * sizeof(std::uint64_t);
}

template <typename VertexId>
std::uint64_t agt_weights_pos(std::uint64_t num_vertices,
                              std::uint64_t num_edges) {
  return agt_targets_pos<VertexId>(num_vertices) +
         num_edges * sizeof(VertexId);
}

/// Writes `g` to `path`. Throws std::runtime_error on I/O failure.
void write_graph(const std::string& path, const csr_graph<vertex32>& g);
void write_graph(const std::string& path, const csr_graph<vertex64>& g);

/// Reads only the header (for format dispatch / validation).
agt_header read_graph_header(const std::string& path);

/// Loads a full in-memory CSR. Throws on bad magic or id-width mismatch.
csr_graph<vertex32> read_graph32(const std::string& path);
csr_graph<vertex64> read_graph64(const std::string& path);

/// On-disk location of `path`'s reverse edge file (the "<path>.rev"
/// convention shared by the writers, the readers, and sem_csr).
std::string reverse_path_for(const std::string& path);

/// True iff `path` has a companion reverse edge file on disk.
bool has_reverse_file(const std::string& path);

/// Writes `g` to `path` and its transpose to reverse_path_for(path). The
/// reverse file is an ordinary .agt (readable on its own); g's in-memory
/// reverse view is reused when present, else a transient transpose is built.
void write_graph_with_reverse(const std::string& path,
                              const csr_graph<vertex32>& g);
void write_graph_with_reverse(const std::string& path,
                              const csr_graph<vertex64>& g);

/// Loads a full in-memory CSR and, when reverse_path_for(path) exists,
/// adopts it as the reverse view (validated against the forward shape).
csr_graph<vertex32> read_graph32_with_reverse(const std::string& path);
csr_graph<vertex64> read_graph64_with_reverse(const std::string& path);

}  // namespace asyncgt
