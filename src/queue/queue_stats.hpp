// Per-run statistics emitted by the visitor queue.
//
// These are the machine-independent metrics the benches report next to wall
// time: total visitor executions (a proxy for work, including re-visits from
// label correction), pushes, and the load-balance spread across queues.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace asyncgt {

struct queue_run_stats {
  std::uint64_t visits = 0;          // visitors executed (incl. no-op visits)
  std::uint64_t pushes = 0;          // visitors enqueued
  std::uint64_t flushes = 0;         // batched deliveries (mailbox-mutex
                                     // acquisitions on the push side);
                                     // pushes/flushes ≈ realized batch size
  std::uint64_t wakeups = 0;         // worker sleep→wake transitions
  std::uint64_t max_queue_length = 0;  // max over all per-thread queues
  double elapsed_seconds = 0.0;

  /// Per-queue visit counts, for load-balance analysis (hash ablation).
  std::vector<std::uint64_t> visits_per_queue;

  /// Coefficient of variation of visits across queues: 0 = perfectly even.
  /// An empty or single-queue run has no spread to measure, so it reports
  /// 0.0 rather than leaning on summary_stats' degenerate-input behaviour.
  double load_imbalance_cv() const {
    if (visits_per_queue.size() <= 1) return 0.0;
    summary_stats s;
    for (const auto v : visits_per_queue) s.add(static_cast<double>(v));
    return s.cv();
  }

  /// Smallest per-queue visit count (0 when no queues reported).
  std::uint64_t min_queue_visits() const {
    if (visits_per_queue.empty()) return 0;
    std::uint64_t m = visits_per_queue.front();
    for (const auto v : visits_per_queue) m = std::min(m, v);
    return m;
  }

  /// Largest per-queue visit count (0 when no queues reported).
  std::uint64_t max_queue_visits() const {
    std::uint64_t m = 0;
    for (const auto v : visits_per_queue) m = std::max(m, v);
    return m;
  }

  std::string to_string() const {
    char elapsed[32];
    std::snprintf(elapsed, sizeof elapsed, "%.6f", elapsed_seconds);
    return "visits=" + std::to_string(visits) +
           " pushes=" + std::to_string(pushes) +
           " flushes=" + std::to_string(flushes) +
           " wakeups=" + std::to_string(wakeups) +
           " max_qlen=" + std::to_string(max_queue_length) +
           " elapsed_s=" + elapsed +
           " queue_visits_min=" + std::to_string(min_queue_visits()) +
           " queue_visits_max=" + std::to_string(max_queue_visits()) +
           " imbalance_cv=" + std::to_string(load_imbalance_cv());
  }
};

}  // namespace asyncgt
