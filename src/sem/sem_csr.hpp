// Semi-external CSR graph storage (paper §IV-C).
//
// "We define a semi-external graph as having enough memory to store
// algorithmic information about the vertices but not edges. The entire
// graph structure is stored on the persistent storage device, and the
// visitor queues and the output of the algorithm are stored in main memory."
//
// Concretely: the O(V) offset index is loaded into RAM at open time; every
// adjacency access pread()s the O(E) target (and weight) sections of the
// .agt file written by graph_io. Reads are charged to an attached ssd_model,
// which blocks the calling thread for the simulated device latency — this is
// where thread oversubscription converts into I/O concurrency. A caller can
// instead book the charge ahead (charge_ahead) and keep several reads in
// flight from one thread; the traversal engine's lanes do.
//
// The class models the same GraphStorage concept as csr_graph, so async_bfs
// / async_sssp / async_cc instantiate over it unchanged.
//
// Reverse view. A SEM graph can carry an on-disk reverse edge file (the
// transpose, written by write_graph_with_reverse or ooc_builder's
// emit_reverse at reverse_path_for(path)): open_reverse() nests a second
// sem_csr over it sharing this graph's simulated device, so in-edge reads
// go through the identical io_backend/block_cache/block_heat path as
// out-edge reads. The reverse
// file is a separate byte space, so it takes its own (optional) block cache
// and heat recorder rather than colliding with the main file's block ids.
// This extends the concept with has_reverse() / in_degree(v) /
// for_each_in_edge(v, f) exactly like csr_graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph_io.hpp"
#include "graph/types.hpp"
#include "sem/block_cache.hpp"
#include "sem/block_heat.hpp"
#include "sem/block_index.hpp"
#include "sem/edge_file.hpp"
#include "sem/io_backend.hpp"
#include "sem/ssd_model.hpp"

namespace asyncgt::sem {

template <typename VertexId>
class sem_csr {
 public:
  using vertex_id = VertexId;

  /// Opens an .agt graph written by write_graph(). `device` may be null to
  /// read at raw host speed; when set, every adjacency read blocks for the
  /// simulated service time. `cache` (optional) simulates the OS page cache:
  /// blocks that hit it are not charged to the device, which is how the
  /// semi-sort locality optimization and the paper's partial-caching regime
  /// become measurable. Both are borrowed, not owned, so graphs can share a
  /// device/cache and benches can swap them per run.
  explicit sem_csr(const std::string& path, ssd_model* device = nullptr,
                   block_cache* cache = nullptr)
      : file_(path), device_(device), cache_(cache) {
    const agt_header h = read_graph_header(path);
    if (h.wide_ids() != (sizeof(VertexId) == 8)) {
      throw std::runtime_error("sem_csr: vertex id width mismatch in '" +
                               path + "'");
    }
    // Validate the header against the actual file size BEFORE sizing the
    // in-memory index: a truncated or malformed header must produce a clean
    // error here, not a multi-GB allocation or out-of-range preads during
    // the traversal. The budget walk mirrors graph_io's reader and cannot
    // overflow (each section is bounded by what remains of the real file).
    std::uint64_t remaining = file_.size();
    if (remaining < sizeof(agt_header) || h.num_vertices == ~std::uint64_t{0}) {
      throw std::runtime_error("sem_csr: malformed header in '" + path + "'");
    }
    remaining -= sizeof(agt_header);
    const std::uint64_t nv1 = h.num_vertices + 1;
    if (nv1 > remaining / sizeof(std::uint64_t)) {
      throw std::runtime_error("sem_csr: '" + path +
                               "' is truncated (offset index exceeds file)");
    }
    remaining -= nv1 * sizeof(std::uint64_t);
    if (h.num_edges > remaining / sizeof(VertexId)) {
      throw std::runtime_error("sem_csr: '" + path +
                               "' is truncated (edge section exceeds file)");
    }
    remaining -= h.num_edges * sizeof(VertexId);
    if (h.weighted() && h.num_edges > remaining / sizeof(weight_t)) {
      throw std::runtime_error("sem_csr: '" + path +
                               "' is truncated (weight section exceeds file)");
    }
    header_ = h;
    offsets_.resize(nv1);
    file_.read_at(agt_offsets_pos, offsets_.data(),
                  offsets_.size() * sizeof(std::uint64_t));
    if (offsets_.front() != 0 || offsets_.back() != h.num_edges) {
      throw std::runtime_error("sem_csr: corrupt offset index in '" + path +
                               "' (bounds disagree with header)");
    }
    for (std::size_t v = 1; v < offsets_.size(); ++v) {
      if (offsets_[v] < offsets_[v - 1]) {
        throw std::runtime_error("sem_csr: corrupt offset index in '" + path +
                                 "' (offsets not monotone)");
      }
    }
    targets_pos_ = agt_targets_pos<VertexId>(h.num_vertices);
    weights_pos_ = agt_weights_pos<VertexId>(h.num_vertices, h.num_edges);
    backend_ = std::make_unique<io_backend>(
        file_, device_ != nullptr ? device_->params().block_bytes
                                  : default_block_bytes);
  }

  // The backend holds a pointer to file_ and windows of its bytes, so moves
  // give the destination a fresh one over its own file instead of the
  // stale one. The nested reverse graph rebinds itself through its own
  // move, so its unique_ptr just transfers.
  sem_csr(sem_csr&& other)
      : file_(std::move(other.file_)),
        device_(other.device_),
        cache_(other.cache_),
        heat_(other.heat_),
        header_(other.header_),
        offsets_(std::move(other.offsets_)),
        targets_pos_(other.targets_pos_),
        weights_pos_(other.weights_pos_),
        backend_(std::make_unique<io_backend>(
            file_, other.backend_->block_bytes())),
        reverse_(std::move(other.reverse_)) {}

  sem_csr& operator=(sem_csr&& other) {
    if (this != &other) {
      backend_.reset();
      file_ = std::move(other.file_);
      device_ = other.device_;
      cache_ = other.cache_;
      heat_ = other.heat_;
      header_ = other.header_;
      offsets_ = std::move(other.offsets_);
      targets_pos_ = other.targets_pos_;
      weights_pos_ = other.weights_pos_;
      reverse_ = std::move(other.reverse_);
      backend_ = std::make_unique<io_backend>(
          file_, other.backend_->block_bytes());
    }
    return *this;
  }

  std::uint64_t num_vertices() const noexcept { return header_.num_vertices; }
  std::uint64_t num_edges() const noexcept { return header_.num_edges; }
  bool is_weighted() const noexcept { return header_.weighted(); }
  ssd_model* device() const noexcept { return device_; }
  block_cache* cache() const noexcept { return cache_; }

  // ---- Piecewise wiring setters ----
  //
  // DEPRECATED as a construction surface: new code builds a fully wired
  // graph (device, cache, heat, retries, faults, recorder)
  // through the sem_config builder (sem/sem_config.hpp) in one
  // declaration. These setters remain as the thin primitives the builder —
  // and existing tests — compose from, and keep their exact semantics;
  // they are not going away, but call sites wiring five of them by hand
  // should migrate.

  /// Attaches a telemetry I/O recorder (borrowed, nullable) to the
  /// underlying edge file — and the reverse one, when open: every adjacency
  /// pread then reports bytes and host-side latency into its log2 histogram.
  void set_io_recorder(telemetry::io_recorder* recorder) noexcept {
    file_.set_recorder(recorder);
    if (reverse_) reverse_->set_io_recorder(recorder);
  }

  /// Attaches a fault injector (borrowed, nullable) to the underlying edge
  /// file (and the reverse one, when open): every adjacency pread then draws
  /// a fault plan first. Used by the fault-tolerance suite and the
  /// `--inject=` bench flag.
  void set_fault_injector(fault_injector* injector) noexcept {
    file_.set_fault_injector(injector);
    if (reverse_) reverse_->set_fault_injector(injector);
  }

  /// Replaces the transient-failure retry policy of the underlying file(s).
  void set_retry_policy(const io_retry_policy& policy) {
    file_.set_retry_policy(policy);
    if (reverse_) reverse_->set_retry_policy(policy);
  }

  /// Attaches a block-heat recorder (borrowed, nullable): every adjacency
  /// read then records the touched device blocks and whether each touch
  /// missed the cache. Block granularity follows the attached ssd_model
  /// when one is set, else the recorder's own block_bytes — size the
  /// recorder with heat_blocks_for(). With heat attached but no device, the
  /// charge walk still runs (to classify hits/misses) but charges nothing.
  /// When a cache is attached, recording lives inside the cache's own probe
  /// (block_cache::set_block_heat), so heat misses
  /// agree with the cache's miss counters by construction.
  void set_block_heat(block_heat* heat) noexcept {
    heat_ = heat;
    if (cache_ != nullptr) cache_->set_block_heat(heat);
  }
  block_heat* heat() const noexcept { return heat_; }

  /// The block granularity every charge/heat derivation on this
  /// graph uses: the attached device's block_bytes, else the heat
  /// recorder's, else the 4 KiB default (block_index.hpp).
  std::uint64_t charge_block_bytes() const noexcept {
    if (device_ != nullptr) return device_->params().block_bytes;
    if (heat_ != nullptr) return heat_->block_bytes();
    return default_block_bytes;
  }

  /// Blocks needed to cover this file at the granularity charge_device will
  /// use — pass to block_heat's constructor.
  std::uint64_t heat_blocks_for(std::uint64_t block_bytes = 4096) const {
    const std::uint64_t bs =
        device_ != nullptr ? device_->params().block_bytes : block_bytes;
    return blocks_covering(file_.size(), bs);
  }

  /// The host read path every adjacency read goes through: one instance
  /// serves all jobs traversing this graph, with per-thread windows inside.
  io_backend& backend() const noexcept { return *backend_; }

  // ---- Reverse (transpose) view ----

  /// Opens the on-disk reverse edge file (reverse_path_for(path), written
  /// by write_graph_with_reverse or ooc_builder's emit_reverse) as a nested
  /// sem_csr sharing this graph's simulated device. The reverse file is its
  /// own byte space, so it takes its own optional block cache / heat
  /// recorder instead of aliasing the main file's block ids. It inherits
  /// this file's retry policy, so set_retry_policy before or after opening
  /// governs both. Throws if the file is missing or does not transpose this
  /// graph. Idempotent; call before traversals start.
  void open_reverse(block_cache* reverse_cache = nullptr,
                    block_heat* reverse_heat = nullptr) {
    if (reverse_) return;
    auto rev = std::make_unique<sem_csr>(reverse_path_for(file_.path()),
                                         device_, reverse_cache);
    if (rev->num_vertices() != num_vertices() ||
        rev->num_edges() != num_edges()) {
      throw std::runtime_error(
          "sem_csr: '" + reverse_path_for(file_.path()) +
          "' does not transpose '" + file_.path() +
          "' (vertex/edge counts disagree)");
    }
    rev->set_block_heat(reverse_heat);
    rev->set_retry_policy(file_.retry_policy());
    reverse_ = std::move(rev);
  }

  bool has_reverse() const noexcept { return reverse_ != nullptr; }

  /// The nested reverse graph (its out-edges are this graph's in-edges).
  /// Requires has_reverse().
  sem_csr& reverse() noexcept { return *reverse_; }
  const sem_csr& reverse() const noexcept { return *reverse_; }

  /// In-degree of v. Requires has_reverse().
  std::uint64_t in_degree(VertexId v) const noexcept {
    return reverse_->out_degree(v);
  }

  /// Reads v's in-adjacency from the reverse file and invokes
  /// f(source, weight) per in-edge — same I/O charging as out-edge reads,
  /// against the reverse file's own cache/heat. Requires has_reverse().
  template <typename F>
  void for_each_in_edge(VertexId v, F&& f) const {
    reverse_->for_each_out_edge(v, std::forward<F>(f));
  }

  std::uint64_t out_degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Reads the adjacency list of v from disk and invokes f(target, weight)
  /// per edge. One random read for targets plus, on weighted graphs, one for
  /// weights; the thread blocks for the simulated device time of each —
  /// unless this thread booked them already through charge_ahead(v), in
  /// which case the blocks are neither probed nor charged again.
  template <typename F>
  void for_each_out_edge(VertexId v, F&& f) const {
    const std::uint64_t begin = offsets_[v];
    const std::uint64_t end = offsets_[v + 1];
    const std::uint64_t degree = end - begin;
    if (degree == 0) return;

    thread_local std::vector<VertexId> targets;
    thread_local std::vector<weight_t> weights;
    targets.resize(degree);
    const std::uint64_t tbytes = degree * sizeof(VertexId);
    const std::uint64_t tpos = targets_pos_ + begin * sizeof(VertexId);
    const std::uint64_t wbytes = degree * sizeof(weight_t);
    const std::uint64_t wpos = weights_pos_ + begin * sizeof(weight_t);
    // Device/cache charging is per logical request, whatever the host read
    // finds in the calling thread's window.
    if (!take_ahead_mark(v)) {
      charge_device(tpos, tbytes);
      if (header_.weighted()) charge_device(wpos, wbytes);
    }
    if (header_.weighted()) {
      weights.resize(degree);
      backend_->read({tpos, tbytes, targets.data(), 0});
      backend_->read({wpos, wbytes, weights.data(), 1});
      for (std::uint64_t i = 0; i < degree; ++i) f(targets[i], weights[i]);
    } else {
      backend_->read({tpos, tbytes, targets.data(), 0});
      for (std::uint64_t i = 0; i < degree; ++i) f(targets[i], weight_t{1});
    }
  }

  // ---- Charge-ahead: several device reads in flight from one thread ----

  /// A device charge booked ahead of an expansion: when v's adjacency is in
  /// memory on the simulated clock, and how many device reads the booking
  /// issued (0 when every block hit the cache, or when an earlier booking
  /// of the same adjacency is still unexpanded on this thread). The caller
  /// waits until `ready`, then hands the ticket back to end_charge.
  struct charge_ticket {
    ssd_model::clock::time_point ready{};
    std::uint32_t reads = 0;
  };

  /// Probes the cache for v's targets (and, on weighted graphs, weights)
  /// range and issues the device reads for the blocks that miss, without
  /// waiting for them. The calling thread's next for_each_out_edge(v) then
  /// skips the probe and the charge, so each expansion is still probed and
  /// charged exactly once. Host reads are unaffected: they happen in
  /// for_each_out_edge as always.
  charge_ticket charge_ahead(VertexId v) const {
    const std::uint64_t begin = offsets_[v];
    const std::uint64_t degree = offsets_[v + 1] - begin;
    if (degree == 0) return {};
    std::vector<ahead_mark>& marks = ahead_marks();
    for (const ahead_mark& m : marks) {
      if (m.graph == this && m.v == v) return {m.ready, 0};
    }
    charge_ticket t;
    const auto issue = [&](std::uint64_t pos, std::uint64_t bytes) {
      const std::uint64_t missing = probe(pos, bytes);
      if (device_ == nullptr || missing == 0) return;
      t.ready = std::max(t.ready, device_->begin_read(missing));
      ++t.reads;
    };
    issue(targets_pos_ + begin * sizeof(VertexId), degree * sizeof(VertexId));
    if (header_.weighted()) {
      issue(weights_pos_ + begin * sizeof(weight_t),
            degree * sizeof(weight_t));
    }
    marks.push_back({this, v, t.ready});
    return t;
  }

  /// Retires the device reads a charge_ahead ticket issued. Call once the
  /// ticket is ready, or when giving it up.
  void end_charge(const charge_ticket& t) const noexcept {
    for (std::uint32_t i = 0; i < t.reads; ++i) device_->end_read();
  }

  /// Forgets this thread's unexpanded charge_ahead bookings on this graph,
  /// for a caller that abandons them (an aborted traversal lane).
  void drop_charge_marks() const noexcept {
    std::vector<ahead_mark>& marks = ahead_marks();
    std::erase_if(marks,
                  [this](const ahead_mark& m) { return m.graph == this; });
  }

  /// The attached device's channel count, 0 without a device: how many
  /// reads are worth keeping in flight through charge_ahead.
  std::uint32_t io_channels() const noexcept {
    return device_ != nullptr ? device_->params().channels : 0;
  }

  /// In-memory bytes held by this storage: the vertex index only — the
  /// "semi" in semi-external — doubled when the reverse view is open.
  std::uint64_t memory_bytes() const noexcept {
    return offsets_.size() * sizeof(std::uint64_t) +
           (reverse_ ? reverse_->memory_bytes() : 0);
  }

  /// On-device bytes (the paper's "Size on EM device" column).
  std::uint64_t device_bytes() const noexcept {
    return file_.size() + (reverse_ ? reverse_->device_bytes() : 0);
  }

  /// Resident heap footprint for the service engine's memory-budget
  /// admission guardrail: the in-memory vertex index (memory_bytes) plus
  /// the attached block cache's modeled page-cache share when this storage
  /// owns one. Alias of the budget convention csr_graph::resident_bytes
  /// established for the in-memory backend.
  std::uint64_t resident_bytes() const noexcept {
    const std::uint64_t bs =
        device_ != nullptr ? device_->params().block_bytes : 4096;
    return memory_bytes() +
           (cache_ != nullptr ? cache_->resident_bytes(bs) : 0);
  }

 private:
  /// Probes the simulated page cache for the blocks of [pos, pos+bytes)
  /// and returns the bytes to charge the device: the missing blocks, all of
  /// them when no cache is attached, 0 when nothing would be charged. Heat
  /// recording rides the cache's own probe when a cache is attached (the
  /// probe that decides the charge is the probe that is recorded —
  /// block_cache::set_block_heat — so heat misses agree
  /// exactly with the cache's miss counters); with heat but no cache, every
  /// touch records as a miss here, matching the full charge.
  std::uint64_t probe(std::uint64_t pos, std::uint64_t bytes) const {
    // Without heat, no device means no cache probes at all.
    if (heat_ == nullptr && device_ == nullptr) return 0;
    const std::uint64_t bs = charge_block_bytes();
    const std::uint64_t first = block_index_of(pos, bs);
    const std::uint64_t last = block_index_of_last(pos, bytes, bs);
    if (cache_ == nullptr) {
      if (heat_ != nullptr) {
        for (std::uint64_t b = first; b <= last; ++b) heat_->record(b, true);
      }
      // Raw bytes, not whole blocks: attaching heat never changes
      // simulated-device time.
      return bytes;
    }
    std::uint64_t missing = 0;
    for (std::uint64_t b = first; b <= last; ++b) {
      missing += cache_->access(b) ? 0 : 1;  // the cache records heat
    }
    return missing * bs;
  }

  /// Blocking charge: probe, then sleep for the missing bytes' device time.
  void charge_device(std::uint64_t pos, std::uint64_t bytes) const {
    const std::uint64_t missing = probe(pos, bytes);
    if (device_ != nullptr && missing > 0) device_->read(missing);
  }

  /// A charge_ahead booking not yet consumed by for_each_out_edge. Kept
  /// per thread, so only the booking thread's expansion skips the charge.
  struct ahead_mark {
    const sem_csr* graph;
    VertexId v;
    ssd_model::clock::time_point ready;
  };

  static std::vector<ahead_mark>& ahead_marks() noexcept {
    thread_local std::vector<ahead_mark> marks;
    return marks;
  }

  /// Consumes this thread's charge_ahead mark for v, if any.
  bool take_ahead_mark(VertexId v) const noexcept {
    std::vector<ahead_mark>& marks = ahead_marks();
    for (std::size_t i = 0; i < marks.size(); ++i) {
      if (marks[i].graph == this && marks[i].v == v) {
        marks[i] = marks.back();
        marks.pop_back();
        return true;
      }
    }
    return false;
  }

  edge_file file_;
  ssd_model* device_;
  block_cache* cache_ = nullptr;
  block_heat* heat_ = nullptr;
  agt_header header_;
  std::vector<std::uint64_t> offsets_;
  std::uint64_t targets_pos_ = 0;
  std::uint64_t weights_pos_ = 0;
  std::unique_ptr<io_backend> backend_;
  std::unique_ptr<sem_csr> reverse_;  // open_reverse(); null = no view
};

using sem_csr32 = sem_csr<vertex32>;
using sem_csr64 = sem_csr<vertex64>;

}  // namespace asyncgt::sem
