// Simulated NAND-flash storage device.
//
// Substitution for the paper's physical SSD testbeds (4x FusionIO SLC PCI-E,
// 4x Intel X25-M, 4x Corsair P128 — §IV-C). The paper's semi-external result
// rests on two device behaviours:
//   1. each random read has a fixed service latency (tens–hundreds of µs,
//      vs. ~10 ms for rotating disks), and
//   2. the device services a bounded number of requests concurrently
//      (channel/NCQ parallelism), so aggregate IOPS grows with the number of
//      requesting threads until it plateaus at concurrency/latency — the
//      curve of the paper's Figure 1.
//
// The model implements exactly that: `channels` independent service lines,
// each serializing its requests. A request reserves the next free slot on a
// round-robin channel — deadline = max(now, channel_free_at) + service_time —
// then sleeps until its deadline. Because deadlines accumulate on the
// channel clock, throughput converges to channels/latency even if the OS
// oversleeps individual waits, and a single requester sees the pure service
// latency. Multi-block requests pay the random-read latency once plus a
// (cheaper) sequential transfer per additional block, and writes pay a
// configurable multiple of the read latency (flash write asymmetry, §II-D).
//
// A requester can also keep several reads outstanding without a thread per
// read: begin_read books the slot and returns the deadline, and the caller
// sleeps until it on its own schedule, then calls end_read. This is how one
// traversal lane keeps several channels busy (sem_csr::charge_ahead).
//
// `time_scale` shrinks all latencies by a constant factor so the benches
// finish quickly on small graphs; every ratio the experiments report
// (device A vs device B, SEM vs in-memory baseline measured on the same
// scale) is invariant to it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/cache_line.hpp"

namespace asyncgt::sem {

struct ssd_params {
  std::string name = "null";
  double read_latency_us = 100.0;   // random-read service time per request
  double write_latency_us = 300.0;  // write asymmetry (§II-D)
  double seq_block_us = 2.0;        // each extra contiguous block in a request
  std::uint32_t channels = 8;       // internal parallelism (plateau = ch/lat)
  std::uint32_t block_bytes = 4096; // device read granularity
  double time_scale = 1.0;          // global latency multiplier

  /// The saturated random-read throughput this device converges to.
  double plateau_iops() const {
    return static_cast<double>(channels) * 1e6 /
           (read_latency_us * time_scale);
  }
};

struct ssd_counters {
  std::uint64_t reads = 0;        // read requests
  std::uint64_t writes = 0;       // write requests
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t read_blocks = 0;  // device blocks transferred by reads
  std::uint64_t max_inflight = 0; // peak simultaneous requests (queue depth)
};

class ssd_model {
 public:
  using clock = std::chrono::steady_clock;

  explicit ssd_model(ssd_params params);

  ssd_model(const ssd_model&) = delete;
  ssd_model& operator=(const ssd_model&) = delete;

  /// Blocks the calling thread for the simulated duration of a random read
  /// of `bytes` bytes. Call around (or instead of) the real pread. Same as
  /// begin_read, sleep until the returned deadline, end_read.
  void read(std::uint64_t bytes);

  /// Issues a random read of `bytes` bytes without waiting for it: reserves
  /// its channel slot, counts it in flight and books the read counters.
  /// Returns the time at which the read completes. Every begin_read must be
  /// matched by one end_read, once the caller has waited for the deadline
  /// or given the read up.
  clock::time_point begin_read(std::uint64_t bytes);

  /// Retires one read issued by begin_read from the in-flight count.
  void end_read() noexcept {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Simulated write (used by the on-disk graph builder accounting).
  void write(std::uint64_t bytes);

  const ssd_params& params() const noexcept { return params_; }
  ssd_counters counters() const;
  void reset_counters();

  /// Requests currently queued or in service (issued and not yet ended) —
  /// the simulated device queue depth. The telemetry sampler plots this to
  /// show whether the outstanding requests keep the device saturated
  /// (paper Fig. 1).
  std::uint64_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  struct channel {
    std::mutex mu;
    clock::time_point free_at{};
  };

  /// Books one request: in-flight count, channel slot and counters.
  clock::time_point issue(std::uint64_t bytes, bool is_write);

  ssd_params params_;
  std::vector<std::unique_ptr<channel>> channels_;
  std::atomic<std::uint64_t> next_channel_{0};
  alignas(cache_line_size) std::atomic<std::uint64_t> inflight_{0};
  mutable std::mutex counter_mu_;
  ssd_counters counters_;
};

}  // namespace asyncgt::sem
