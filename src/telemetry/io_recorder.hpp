// Lock-free I/O accounting attached to sem::edge_file.
//
// Hundreds of oversubscribed threads pread() from one descriptor
// concurrently, so the recorder is all relaxed atomics: operation and byte
// totals plus a log2 latency histogram (microsecond buckets). When no
// recorder is attached, edge_file skips the timing entirely — the recorder
// costs nothing unless observability is requested.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "telemetry/metric_scope.hpp"

namespace asyncgt::telemetry {

struct io_snapshot {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t total_latency_us = 0;
  std::uint64_t max_latency_us = 0;
  std::uint64_t retries = 0;   // transient failures re-attempted
  std::uint64_t gave_up = 0;   // reads that failed permanently
  std::uint64_t batches = 0;           // preads the SEM read path issued
  std::uint64_t coalesced_ranges = 0;  // requests served from a window
  std::uint64_t inflight_peak = 0;     // max concurrent preads
  std::vector<std::uint64_t> latency_buckets;  // log2 µs buckets

  double mean_latency_us() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(total_latency_us) /
                          static_cast<double>(ops);
  }
};

class io_recorder {
 public:
  static constexpr std::size_t num_buckets = 48;

  void record(std::uint64_t bytes, std::uint64_t latency_us) noexcept {
    // Per-job attribution rides the same call: when the calling thread runs
    // on behalf of a job (metric_scope::attribution installed by the
    // traversal engine), the job's scope gets the identical op/byte counts,
    // so per-job io sums stay conserved against this recorder's snapshot.
    metric_scope::count_io(bytes);
    ops_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    total_us_.fetch_add(latency_us, std::memory_order_relaxed);
    std::size_t b = 0;
    for (std::uint64_t v = latency_us; v >>= 1;) ++b;
    buckets_[b < num_buckets ? b : num_buckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    std::uint64_t cur = max_us_.load(std::memory_order_relaxed);
    while (latency_us > cur && !max_us_.compare_exchange_weak(
                                   cur, latency_us,
                                   std::memory_order_relaxed)) {
    }
  }

  /// One transient failure was retried (edge_file retry policy).
  void record_retry() noexcept {
    metric_scope::count_io_retry();
    retries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One read failed permanently (fatal errno or retry budget exhausted).
  void record_gave_up() noexcept {
    gave_up_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The SEM read path (sem::io_backend) completed one pread: a block
  /// window, or the exact request after a failed window.
  void record_batch() noexcept {
    batches_.fetch_add(1, std::memory_order_relaxed);
  }

  /// `n` logical requests were served from a block window without a
  /// pread.
  void record_coalesced(std::uint64_t n = 1) noexcept {
    coalesced_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Brackets one pread of the SEM read path; maintains the concurrent
  /// peak that surfaces as io.inflight_peak. Call end exactly once per
  /// begin.
  void inflight_begin() noexcept {
    const std::uint64_t cur =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = inflight_peak_.load(std::memory_order_relaxed);
    while (cur > peak && !inflight_peak_.compare_exchange_weak(
                             peak, cur, std::memory_order_relaxed)) {
    }
  }
  void inflight_end() noexcept {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  io_snapshot snapshot() const {
    io_snapshot s;
    s.ops = ops_.load(std::memory_order_relaxed);
    s.bytes = bytes_.load(std::memory_order_relaxed);
    s.total_latency_us = total_us_.load(std::memory_order_relaxed);
    s.max_latency_us = max_us_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.gave_up = gave_up_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.coalesced_ranges = coalesced_.load(std::memory_order_relaxed);
    s.inflight_peak = inflight_peak_.load(std::memory_order_relaxed);
    s.latency_buckets.reserve(num_buckets);
    for (const auto& b : buckets_) {
      s.latency_buckets.push_back(b.load(std::memory_order_relaxed));
    }
    return s;
  }

  void reset() noexcept {
    ops_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    total_us_.store(0, std::memory_order_relaxed);
    max_us_.store(0, std::memory_order_relaxed);
    retries_.store(0, std::memory_order_relaxed);
    gave_up_.store(0, std::memory_order_relaxed);
    batches_.store(0, std::memory_order_relaxed);
    coalesced_.store(0, std::memory_order_relaxed);
    inflight_.store(0, std::memory_order_relaxed);
    inflight_peak_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> total_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> gave_up_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> inflight_peak_{0};
  std::atomic<std::uint64_t> buckets_[num_buckets] = {};
};

}  // namespace asyncgt::telemetry
