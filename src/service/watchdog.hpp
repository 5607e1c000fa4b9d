// Deadline and stall watchdog for the traversal service.
//
// One lazily-started monitor thread per engine, sampling every registered
// job at a fixed interval (config.sample_interval_ms, default 10ms) and
// force-cancelling through the job's own abort broadcast when either
// trigger fires:
//
//   * deadline — the job's wall-clock age (steady_clock since submit)
//     exceeds deadline_ms. Checked whether or not the job has started
//     running: a job that spent its whole budget queued behind other gangs
//     is just as over-deadline as one that spent it traversing.
//
//   * stall — the job holds a gang (scope.run_started()) but its progress
//     epoch (metric_scope::progress_epoch — the sum of every hot counter,
//     so any visit, push, edge inspection, or I/O advances it) has been
//     frozen for stall_grace_ms. This catches jobs wedged where the abort
//     broadcast alone can't reach promptly: a read blocked in the kernel
//     (or in the fault injector's `stall` mode), which only unwinds when
//     its cancellation point polls the scope's abort hint.
//
// The fire path is the same one job::cancel() uses — the engine hands the
// watchdog a cancel callback that raises the scope abort hint and the
// queue-level abort broadcast with the matching abort_reason — so the
// watchdog never races the completion latch: classification happens from
// the *delivered* traversal_aborted, and a job that completes in the same
// instant its deadline fires reports `completed` (the cancel lands on a
// finished queue and is a no-op for the next run, cleared at consume time).
//
// Each entry fires at most once; finished jobs are swept from the watch
// list on the next sample. The thread starts on first watch() and is
// joined by the destructor (the engine destroys the watchdog after
// wait_idle, so no entry outlives its scope).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "queue/traversal_abort.hpp"
#include "service/job_stats.hpp"

namespace asyncgt::service {

class watchdog {
 public:
  struct config {
    /// Sampling period. The detection latency bound is one period: a job is
    /// cancelled within sample_interval_ms of crossing its deadline or
    /// completing its stall window.
    std::uint32_t sample_interval_ms = 10;
  };

  watchdog();
  explicit watchdog(config cfg);
  ~watchdog();

  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  /// Registers a job for monitoring. `cancel` is invoked (outside the
  /// watchdog lock, at most once per job) with deadline_exceeded or stalled
  /// when a trigger fires; it must be safe to call concurrently with the
  /// job completing — the engine's cancel path is. deadline_ms and
  /// stall_grace_ms of 0 disable the respective trigger; callers should
  /// skip watch() entirely when both are 0.
  void watch(std::shared_ptr<job_scope_state> state,
             std::function<void(abort_reason)> cancel, std::uint32_t deadline_ms,
             std::uint32_t stall_grace_ms);

  /// Lifetime trigger counters (monotone). A fire is counted after its
  /// cancel callback returns, so a non-zero count means the reason is
  /// already latched.
  std::uint64_t deadline_fires() const noexcept {
    return deadline_fires_.load(std::memory_order_acquire);
  }
  std::uint64_t stall_fires() const noexcept {
    return stall_fires_.load(std::memory_order_acquire);
  }

  /// Jobs currently on the watch list (for tests/introspection).
  std::size_t watched() const;

 private:
  struct entry {
    std::shared_ptr<job_scope_state> state;
    std::function<void(abort_reason)> cancel;
    std::chrono::steady_clock::time_point deadline_at;  // max() = no deadline
    std::chrono::milliseconds stall_grace{0};           // 0 = no stall check
    std::uint64_t last_epoch = 0;
    std::chrono::steady_clock::time_point last_progress_at;
    bool run_seen = false;  // stall window arms at first run_started sample
    bool fired = false;
  };

  void monitor_main();
  /// Returns the reason to fire for `e` at time `now`, or none.
  abort_reason check(entry& e, std::chrono::steady_clock::time_point now);

  const config cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<entry> entries_;
  std::thread thread_;
  bool started_ = false;
  bool stop_ = false;
  std::atomic<std::uint64_t> deadline_fires_{0};
  std::atomic<std::uint64_t> stall_fires_{0};
};

}  // namespace asyncgt::service
