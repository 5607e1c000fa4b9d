// LRU block cache — the stand-in for the OS page cache over
// the graph file.
//
// The paper's SEM machine had 16 GB of RAM under graphs of 9-136 GB, so a
// significant fraction of adjacency reads were served from the page cache
// rather than flash; the semi-sorted visitor ordering (§IV-C, "increases
// access locality to the storage devices") exists precisely to concentrate
// accesses so consecutive adjacency lists share 4 KiB blocks. This cache
// makes both effects measurable: sem_csr charges the ssd_model only for
// blocks that miss here.
//
// Implementation: hash-map + doubly-linked recency list guarded by one
// mutex; a miss in a full cache evicts the recency tail. The cache stores
// presence only (the real bytes always come from the file — the host
// filesystem is fast; only the simulated device time matters), so capacity
// costs ~48 bytes per tracked block regardless of block size.
//
// The cache is also where per-block heat is recorded when a block_heat is
// attached (the probe that decides the charge is the probe that is
// recorded).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "sem/block_heat.hpp"

namespace asyncgt::sem {

struct cache_counters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  // misses that displaced a block

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class block_cache {
 public:
  /// `capacity_blocks` = number of device blocks the "page cache" can hold.
  explicit block_cache(std::uint64_t capacity_blocks);

  block_cache(const block_cache&) = delete;
  block_cache& operator=(const block_cache&) = delete;

  /// Touches `block`: returns true on hit (and refreshes recency); on miss,
  /// inserts it as most recent, evicting the least recent block if full.
  bool access(std::uint64_t block);

  /// Non-mutating residency probe: true iff `block` is currently tracked.
  /// Does not refresh recency and does not count as a hit or miss — used by
  /// the coalescing io_backend to trim speculative readahead at blocks the
  /// simulated page cache would serve cheaply anyway.
  bool contains(std::uint64_t block) const;

  /// Attaches a block-heat recorder (borrowed, nullable): every demand
  /// access then records the block and whether it missed — the same probe
  /// that decides the device charge. sem_csr::set_block_heat forwards here
  /// when a cache is attached.
  void set_block_heat(block_heat* heat) noexcept;

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t size() const;

  /// Resident footprint this cache models when full: the page-cache bytes
  /// the simulated device blocks would occupy (capacity × block_bytes).
  /// Callers fold this into traversal_options::memory_estimate_bytes for
  /// the engine's memory_budget_bytes admission guardrail — the cache is
  /// shared, so charge it once per engine, not once per job.
  std::uint64_t resident_bytes(std::uint64_t block_bytes = 4096) const noexcept {
    return capacity_ * block_bytes;
  }
  cache_counters counters() const;
  void reset_counters();
  void clear();

 private:
  const std::uint64_t capacity_;
  mutable std::mutex mu_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  block_heat* heat_ = nullptr;
  cache_counters counters_;
};

}  // namespace asyncgt::sem
