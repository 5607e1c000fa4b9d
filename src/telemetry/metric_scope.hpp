// Per-job metric attribution over the shared metrics_registry.
//
// PR 4 made the engine a persistent multi-job service, but the registry
// model stayed global: when J concurrent jobs share one block_cache and one
// io_backend, every counter is pooled and per-job cost is unobservable. A
// metric_scope is the fix: one scope per submitted job, layering *deltas*
// over whatever shared registry the job also writes — the shared registry
// keeps its exact pre-existing totals, and the scope accumulates the same
// events keyed by job, so per-job sums are conserved against the global
// deltas (tests/service/job_stats_test.cpp asserts this with J parallel
// jobs under tsan).
//
// Two layers, matching the two write rates:
//
//   * Hot counters — a fixed enum of per-thread padded atomic slots
//     (visits, edge inspections, io ops/bytes/retries, ...). Instrumented
//     hot paths attribute through thread-local *ambient* attribution: the
//     traversal engine installs the running job's scope in TLS for the
//     duration of each worker body (metric_scope::attribution), and shared
//     components (io_recorder, the algorithm visitors) call the static
//     count_* helpers — one TLS read and a relaxed add when a scope is
//     installed, a predictable branch when not. This is what makes
//     attribution work across components *shared* by jobs: the recorder
//     doesn't know about jobs, the TLS does.
//
//   * Named deltas — a private metrics_registry holding the job's copy of
//     the named counters the run records at completion (queue.*, <algo>.*).
//     Written only at end-of-run / finalize time, never on the hot path.
//
// Lifecycle timestamps ride along (submit, first worker body, finish), so
// the scope is also the source of queue-wait/run/total latencies for the
// engine's lifecycle histograms and Chrome-trace job spans.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics_registry.hpp"
#include "util/cache_line.hpp"

namespace asyncgt::telemetry {

class metric_scope;

namespace detail {
// Ambient attribution state: the scope (and shard) the current thread's
// work is charged to. Installed by metric_scope::attribution; read by the
// static count_* helpers below. constinit: both are constant-initialized,
// so other translation units read them directly instead of through a
// TLS-init wrapper call (which UBSan flagged as a null load).
extern constinit thread_local metric_scope* tls_scope;
extern constinit thread_local std::size_t tls_shard;
}  // namespace detail

class metric_scope {
 public:
  /// The fixed hot-counter set. Kept to what per-job introspection needs —
  /// anything colder goes through the named deltas() registry.
  enum class hot : std::size_t {
    visits = 0,
    pushes,
    flushes,
    wakeups,
    edge_inspections,
    io_ops,
    io_bytes,
    io_retries,
    count  // sentinel
  };
  static constexpr std::size_t num_hot = static_cast<std::size_t>(hot::count);

  /// `shards` bounds contention-free writer slots; size it to the job's
  /// worker thread count. The submit timestamp is taken here.
  metric_scope(std::uint64_t job_id, std::string label, std::size_t shards);

  metric_scope(const metric_scope&) = delete;
  metric_scope& operator=(const metric_scope&) = delete;

  std::uint64_t job_id() const noexcept { return job_id_; }
  const std::string& label() const noexcept { return label_; }

  // ---- Hot counters ----

  void add(hot c, std::size_t shard, std::uint64_t n = 1) noexcept {
    shards_[shard % shards_.size()]
        .value[static_cast<std::size_t>(c)]
        .fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t total(hot c) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& sh : shards_) {
      sum += sh.value[static_cast<std::size_t>(c)].load(
          std::memory_order_relaxed);
    }
    return sum;
  }

  std::array<std::uint64_t, num_hot> totals() const noexcept {
    std::array<std::uint64_t, num_hot> out{};
    for (std::size_t c = 0; c < num_hot; ++c) {
      out[c] = total(static_cast<hot>(c));
    }
    return out;
  }

  /// Monotone progress epoch: the sum of every hot counter. The service
  /// watchdog samples this to detect stalled jobs — any visit, push, edge
  /// inspection, or I/O the job performs advances the epoch, so a job whose
  /// epoch is frozen for stall_grace_ms while running is wedged (blocked in
  /// a read, deadlocked, or spinning without touching the graph).
  std::uint64_t progress_epoch() const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < num_hot; ++c) {
      sum += total(static_cast<hot>(c));
    }
    return sum;
  }

  // ---- Named deltas ----

  /// The job-private registry holding this job's copy of the named counters
  /// recorded at end-of-run (queue.*, <algo>.*). Same sharding as the hot
  /// counters.
  metrics_registry& deltas() noexcept { return deltas_; }
  const metrics_registry& deltas() const noexcept { return deltas_; }

  /// Snapshot-on-completion of the named deltas.
  metrics_snapshot delta_snapshot() const { return deltas_.scrape(); }

  // ---- Lifecycle timestamps ----

  /// Marks the first worker body executing on behalf of this job; first
  /// caller wins (the gang's workers all pass through here). The interval
  /// submit -> run start is the job's queue wait (FIFO admission delay).
  void mark_run_start() noexcept {
    std::int64_t expected = -1;
    (void)run_start_ns_.compare_exchange_strong(
        expected, ns_since_submit(), std::memory_order_relaxed);
  }

  /// Marks completion (result or error delivered). Idempotent.
  void mark_finished() noexcept {
    std::int64_t expected = -1;
    (void)end_ns_.compare_exchange_strong(expected, ns_since_submit(),
                                          std::memory_order_relaxed);
  }

  bool finished() const noexcept {
    return end_ns_.load(std::memory_order_relaxed) >= 0;
  }

  /// True once any worker body started on behalf of this job (the job is
  /// holding a gang). The watchdog only arms stall detection past here: a
  /// job waiting in FIFO admission is queued, not stalled.
  bool run_started() const noexcept {
    return run_start_ns_.load(std::memory_order_relaxed) >= 0;
  }

  std::chrono::steady_clock::time_point submit_time() const noexcept {
    return submit_tp_;
  }

  /// Wall-clock point the first worker body started; only meaningful when
  /// run_started().
  std::chrono::steady_clock::time_point run_start_time() const noexcept {
    const std::int64_t ns = run_start_ns_.load(std::memory_order_relaxed);
    return submit_tp_ + std::chrono::nanoseconds(ns >= 0 ? ns : 0);
  }

  // ---- Cooperative cancellation hint ----
  //
  // The scope doubles as the per-job cancellation seam for components that
  // can block indefinitely (the fault injector's `stall` mode): the
  // engine's cancel path raises the flag here alongside the queue-level
  // abort broadcast, and blocking primitives poll it through the same TLS
  // ambient attribution the counters use, throwing operation_cancelled
  // (util/cancellation.hpp) to unwind. The reason code is latched
  // first-wins so a watchdog deadline fire followed by a late user cancel
  // keeps reporting deadline_exceeded.

  /// Raises the abort hint with a nonzero reason code (the service layer
  /// passes static_cast<uint32>(abort_reason)). First caller's code wins.
  void request_abort(std::uint32_t reason_code) noexcept {
    std::uint32_t expected = 0;
    (void)abort_code_.compare_exchange_strong(expected, reason_code,
                                              std::memory_order_relaxed);
  }

  bool abort_requested() const noexcept {
    return abort_code_.load(std::memory_order_relaxed) != 0;
  }

  /// The first-latched reason code (0 = no abort requested).
  std::uint32_t abort_code() const noexcept {
    return abort_code_.load(std::memory_order_relaxed);
  }

  /// Cancellation-point probe: true when the calling thread's ambient job
  /// has an abort pending. One TLS read + one relaxed load — cheap enough
  /// for a polling loop's every iteration.
  static bool current_abort_requested() noexcept {
    return detail::tls_scope != nullptr &&
           detail::tls_scope->abort_requested();
  }

  /// Submit -> first worker body. Falls back to "so far" while the job is
  /// still queued, and to the total time if the job never ran (cancelled
  /// before admission).
  double queue_wait_seconds() const noexcept;
  /// First worker body -> completion (0 if the job never ran); "so far"
  /// while running.
  double run_seconds() const noexcept;
  /// Submit -> completion; "so far" until finished.
  double total_seconds() const noexcept;

  // ---- Ambient thread-local attribution ----

  /// The scope the calling thread's work is currently charged to (null when
  /// no attribution is installed).
  static metric_scope* current() noexcept { return detail::tls_scope; }
  static std::size_t current_shard() noexcept { return detail::tls_shard; }

  /// One adjacency scan of `n` edges on the current thread. Called by the
  /// algorithm visitors per relaxed vertex — one TLS read per scan, far off
  /// the per-edge path.
  static void count_edges(std::uint64_t n) noexcept {
    if (detail::tls_scope != nullptr) {
      detail::tls_scope->add(hot::edge_inspections, detail::tls_shard, n);
    }
  }

  /// One I/O operation of `bytes` on the current thread (io_recorder calls
  /// this alongside its own global accounting, so per-job io sums stay
  /// conserved against the recorder snapshot).
  static void count_io(std::uint64_t bytes) noexcept {
    if (detail::tls_scope != nullptr) {
      detail::tls_scope->add(hot::io_ops, detail::tls_shard);
      detail::tls_scope->add(hot::io_bytes, detail::tls_shard, bytes);
    }
  }

  static void count_io_retry() noexcept {
    if (detail::tls_scope != nullptr) {
      detail::tls_scope->add(hot::io_retries, detail::tls_shard);
    }
  }

  /// RAII attribution: installs `scope` (nullable — a null install is a
  /// no-op that still restores correctly) as the current thread's charge
  /// target, saving and restoring whatever was installed before, so scoped
  /// sections nest.
  class attribution {
   public:
    attribution(metric_scope* scope, std::size_t shard) noexcept
        : prev_scope_(detail::tls_scope), prev_shard_(detail::tls_shard) {
      if (scope != nullptr) {
        detail::tls_scope = scope;
        detail::tls_shard = shard;
      }
    }
    ~attribution() {
      detail::tls_scope = prev_scope_;
      detail::tls_shard = prev_shard_;
    }
    attribution(const attribution&) = delete;
    attribution& operator=(const attribution&) = delete;

   private:
    metric_scope* prev_scope_;
    std::size_t prev_shard_;
  };

 private:
  std::int64_t ns_since_submit() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - submit_tp_)
        .count();
  }

  const std::uint64_t job_id_;
  const std::string label_;
  const std::chrono::steady_clock::time_point submit_tp_;
  // Nanoseconds since submit; -1 = not yet.
  std::atomic<std::int64_t> run_start_ns_{-1};
  std::atomic<std::int64_t> end_ns_{-1};
  // Cooperative-abort hint: first-latched nonzero reason code (see
  // request_abort above). 0 = no abort requested.
  std::atomic<std::uint32_t> abort_code_{0};

  struct hot_slots {
    std::atomic<std::uint64_t> value[num_hot] = {};
    std::atomic<std::uint64_t>& operator[](std::size_t i) noexcept {
      return value[i];
    }
    const std::atomic<std::uint64_t>& operator[](std::size_t i) const noexcept {
      return value[i];
    }
  };
  std::vector<padded<hot_slots>> shards_;
  metrics_registry deltas_;
};

}  // namespace asyncgt::telemetry
