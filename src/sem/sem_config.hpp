// sem_config — the one-declaration construction surface for semi-external
// graphs.
//
// Before this builder, every SEM call site wired sem_csr by hand through
// independent setters (cache, heat, fault injector, retries).
// sem_config folds the whole arrangement into one struct with fluent with_*
// setters; open<VertexId>() materializes a sem_bundle that OWNS every piece
// in destruction-safe order, so a call site is:
//
//   auto scfg = sem::sem_config(path)
//                   .with_device(&dev)
//                   .with_cache_fraction(0.25);
//   auto bundle = scfg.open<vertex32>();
//   run(*bundle.graph, topt);
//
// from_options() bridges from traversal_options (duck-typed, so this header
// never includes the service layer): the --cache-fraction= / --io-retries=
// flags parsed by traversal_options::from_flags land here
// without further plumbing.
//
// The old sem_csr setters remain as the thin primitives this builder
// composes from (see the deprecation note in sem_csr.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "queue/queue_config.hpp"
#include "sem/block_cache.hpp"
#include "sem/block_heat.hpp"
#include "sem/block_index.hpp"
#include "sem/fault_injector.hpp"
#include "sem/sem_csr.hpp"
#include "sem/ssd_model.hpp"

namespace asyncgt::sem {

/// Everything sem_config::open() built, ownership included. Member order is
/// destruction order in reverse: the graph goes first, before the heat
/// recorders and caches it borrows.
template <typename VertexId>
struct sem_bundle {
  std::unique_ptr<block_cache> cache;  // destroyed last
  std::unique_ptr<block_cache> reverse_cache;
  std::unique_ptr<block_heat> heat;
  std::unique_ptr<block_heat> reverse_heat;
  std::unique_ptr<sem_csr<VertexId>> graph;  // destroyed first

  /// Does nothing: a SEM graph needs no queue wiring. Kept only because the
  /// benchmark's sem-rmat workload (perfbench/src/sem_rmat.cpp) still calls
  /// it; remove it together with that call.
  void wire_queue(visitor_queue_config&) const {}
};

class sem_config {
 public:
  sem_config() = default;
  explicit sem_config(std::string path) : path_(std::move(path)) {}

  // ---- Fluent setters (each returns *this) ----

  sem_config& with_path(std::string path) {
    path_ = std::move(path);
    return *this;
  }
  /// Simulated device (borrowed, nullable = raw host speed).
  sem_config& with_device(ssd_model* device) {
    device_ = device;
    return *this;
  }
  /// Page-cache size as a fraction of the graph file's blocks (0 = no
  /// cache). Overridden by an explicit with_cache_blocks.
  sem_config& with_cache_fraction(double fraction) {
    cache_fraction_ = fraction;
    return *this;
  }
  /// Explicit page-cache capacity in blocks (0 = derive from the fraction).
  sem_config& with_cache_blocks(std::uint64_t blocks) {
    cache_blocks_ = blocks;
    return *this;
  }
  /// Transient-I/O retry budget (io_retry_policy correspondence).
  sem_config& with_retries(std::uint32_t max_retries,
                           std::uint32_t backoff_initial_us) {
    io_retries_ = max_retries;
    io_backoff_us_ = backoff_initial_us;
    return *this;
  }
  /// Attach a block_heat recorder sized to the file.
  sem_config& with_heat(bool on = true) {
    heat_ = on;
    return *this;
  }
  /// Open the on-disk reverse (transpose) view, with its own cache/heat
  /// sized like the forward ones.
  sem_config& with_reverse(bool on = true) {
    open_reverse_ = on;
    return *this;
  }
  /// Borrowed fault injector (nullable).
  sem_config& with_fault_injector(fault_injector* injector) {
    injector_ = injector;
    return *this;
  }
  /// Borrowed telemetry I/O recorder (nullable).
  sem_config& with_io_recorder(telemetry::io_recorder* recorder) {
    recorder_ = recorder;
    return *this;
  }

  // ---- Accessors (benches echo these into their reports) ----

  const std::string& path() const noexcept { return path_; }
  ssd_model* device() const noexcept { return device_; }
  double cache_fraction() const noexcept { return cache_fraction_; }

  /// Bridge from traversal_options (or anything shaped like it — duck
  /// typed so sem never includes the service layer). Picks up the retry
  /// knobs and cache_fraction; a caller that needs the reverse view
  /// asks for it with with_reverse. A negative cache_fraction means "caller
  /// decides" and leaves the builder's current value alone.
  template <typename Topt>
  static sem_config from_options(const Topt& t, std::string path) {
    sem_config c(std::move(path));
    c.with_retries(t.io_retries, t.io_backoff_us);
    if (t.cache_fraction >= 0.0) c.with_cache_fraction(t.cache_fraction);
    return c;
  }

  /// Materializes the whole arrangement. Throws on a missing/corrupt graph
  /// file, or a missing reverse file
  /// when with_reverse was requested.
  template <typename VertexId>
  sem_bundle<VertexId> open() const {
    sem_bundle<VertexId> b;
    const std::uint64_t bs = device_ != nullptr
                                 ? device_->params().block_bytes
                                 : default_block_bytes;
    const std::uint64_t file_bytes = std::filesystem::file_size(path_);
    // Seed-compatible sizing (file/bs + 1, not a strict ceil): agt_tool and
    // the tables have always sized caches this way, and the bench shape
    // checks are calibrated against it.
    const std::uint64_t file_blocks = file_bytes / bs + 1;
    const std::uint64_t cap = cache_capacity(file_blocks);
    if (cap > 0) b.cache = std::make_unique<block_cache>(cap);
    b.graph = std::make_unique<sem_csr<VertexId>>(path_, device_,
                                                  b.cache.get());
    io_retry_policy retry;
    retry.max_retries = io_retries_;
    retry.backoff_initial_us = io_backoff_us_;
    b.graph->set_retry_policy(retry);
    if (heat_) {
      b.heat = std::make_unique<block_heat>(b.graph->heat_blocks_for(bs), bs);
      b.graph->set_block_heat(b.heat.get());
    }
    if (open_reverse_) {
      const std::string rpath = reverse_path_for(path_);
      const std::uint64_t rblocks =
          std::filesystem::file_size(rpath) / bs + 1;
      const std::uint64_t rcap = cache_capacity(rblocks);
      // The reverse file is its own byte space with its own cache.
      if (rcap > 0) b.reverse_cache = std::make_unique<block_cache>(rcap);
      if (heat_) {
        b.reverse_heat = std::make_unique<block_heat>(
            blocks_covering(std::filesystem::file_size(rpath), bs), bs);
      }
      b.graph->open_reverse(b.reverse_cache.get(), b.reverse_heat.get());
    }
    b.graph->set_io_recorder(recorder_);
    b.graph->set_fault_injector(injector_);
    return b;
  }

 private:
  std::uint64_t cache_capacity(std::uint64_t file_blocks) const {
    if (cache_blocks_ > 0) return cache_blocks_;
    if (cache_fraction_ <= 0.0) return 0;
    const auto cap = static_cast<std::uint64_t>(
        cache_fraction_ * static_cast<double>(file_blocks));
    return cap > 0 ? cap : 1;
  }

  std::string path_;
  ssd_model* device_ = nullptr;
  double cache_fraction_ = 0.0;
  std::uint64_t cache_blocks_ = 0;
  std::uint32_t io_retries_ = 4;
  std::uint32_t io_backoff_us_ = 50;
  bool heat_ = false;
  bool open_reverse_ = false;
  fault_injector* injector_ = nullptr;
  telemetry::io_recorder* recorder_ = nullptr;
};

}  // namespace asyncgt::sem
