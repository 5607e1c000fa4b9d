#include "service/watchdog.hpp"

#include <utility>

namespace asyncgt::service {

watchdog::watchdog() : watchdog(config{}) {}

watchdog::watchdog(config cfg) : cfg_(cfg) {}

watchdog::~watchdog() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void watchdog::watch(std::shared_ptr<job_scope_state> state,
                     std::function<void(abort_reason)> cancel,
                     std::uint32_t deadline_ms, std::uint32_t stall_grace_ms) {
  entry e;
  e.deadline_at = deadline_ms > 0
                      ? state->scope.submit_time() +
                            std::chrono::milliseconds(deadline_ms)
                      : std::chrono::steady_clock::time_point::max();
  e.stall_grace = std::chrono::milliseconds(stall_grace_ms);
  e.state = std::move(state);
  e.cancel = std::move(cancel);
  {
    std::lock_guard lk(mu_);
    entries_.push_back(std::move(e));
    if (!started_) {
      started_ = true;
      thread_ = std::thread([this] { monitor_main(); });
    }
  }
  cv_.notify_all();
}

std::size_t watchdog::watched() const {
  std::lock_guard lk(mu_);
  return entries_.size();
}

abort_reason watchdog::check(entry& e,
                             std::chrono::steady_clock::time_point now) {
  if (now >= e.deadline_at) return abort_reason::deadline_exceeded;
  if (e.stall_grace.count() == 0) return abort_reason::none;
  // Stall detection arms only once the job holds a gang: a job queued
  // behind other gangs is waiting, not wedged (its deadline still covers
  // unbounded queueing). The window starts at the first sample that sees
  // the run started, so a grace period shorter than the sample interval
  // still gets one full window.
  if (!e.state->scope.run_started()) return abort_reason::none;
  const std::uint64_t epoch = e.state->scope.progress_epoch();
  if (!e.run_seen || epoch != e.last_epoch) {
    e.run_seen = true;
    e.last_epoch = epoch;
    e.last_progress_at = now;
    return abort_reason::none;
  }
  if (now - e.last_progress_at >= e.stall_grace) return abort_reason::stalled;
  return abort_reason::none;
}

void watchdog::monitor_main() {
  std::unique_lock lk(mu_);
  while (!stop_) {
    // Sweep finished jobs, sample live ones, and collect due fires. The
    // cancel callbacks run outside the lock: they take engine/queue locks
    // of their own, and a fire racing job completion must not deadlock
    // against the completion path reading watchdog state.
    std::vector<std::pair<std::function<void(abort_reason)>, abort_reason>>
        fires;
    const auto now = std::chrono::steady_clock::now();
    std::size_t w = 0;
    for (std::size_t r = 0; r < entries_.size(); ++r) {
      entry& e = entries_[r];
      if (e.state->scope.finished() || e.fired) continue;  // swept
      const abort_reason reason = check(e, now);
      if (reason != abort_reason::none) {
        e.fired = true;
        fires.emplace_back(e.cancel, reason);
        continue;  // fired entries are swept too
      }
      if (w != r) entries_[w] = std::move(entries_[r]);
      ++w;
    }
    entries_.resize(w);
    if (!fires.empty()) {
      lk.unlock();
      // A fire counts only once its cancel has latched the reason: a caller
      // that sees the counter move (acquire) also sees the latch, so its own
      // late cancel cannot win the first-reason race.
      for (auto& [fn, reason] : fires) {
        fn(reason);
        (reason == abort_reason::deadline_exceeded ? deadline_fires_
                                                   : stall_fires_)
            .fetch_add(1, std::memory_order_release);
      }
      lk.lock();
      continue;  // re-sample immediately: stop_ may have flipped meanwhile
    }
    if (entries_.empty()) {
      // Nothing to monitor: park until the next watch() or shutdown.
      cv_.wait(lk, [this] { return stop_ || !entries_.empty(); });
    } else {
      cv_.wait_for(lk, std::chrono::milliseconds(cfg_.sample_interval_ms),
                   [this] { return stop_; });
    }
  }
}

}  // namespace asyncgt::service
