// Per-job statistics surface of the traversal service.
//
// Every job the engine admits carries a job_scope_state: the job's
// metric_scope (telemetry/metric_scope.hpp — hot counters, named deltas,
// lifecycle timestamps) plus the terminal flags and the telemetry sinks the
// job resolved at submit time. job<Result>::stats() snapshots it into a
// plain job_stats value — readable while the job runs (counters are "so
// far") and stable after completion. The engine also keeps a ring of
// completed snapshots (engine::recent_jobs) so short-lived jobs remain
// introspectable after their handles are gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "telemetry/metric_scope.hpp"

namespace asyncgt {

namespace telemetry {
class trace_writer;
}

namespace service {

/// Plain-value snapshot of one job's attribution and lifecycle. The counter
/// fields mirror metric_scope's hot set; the seconds are derived from its
/// submit/run-start/finish timestamps.
struct job_stats {
  std::uint64_t job_id = 0;
  std::string label;

  // Exactly one of these is true for a terminal job, all false while it
  // runs — the completion path latches the outcome once from the delivered
  // result/error, so a late cancel() on an already-successful job or a real
  // worker failure racing a cancel request cannot misattribute the state.
  // `cancelled` covers every cooperative termination (user cancel, watchdog
  // deadline/stall kill, load shed); `outcome` names the specific one.
  bool completed = false;  // finished without error
  bool failed = false;     // finished with a non-cancellation error
  bool cancelled = false;  // finished via cooperative cancellation

  /// The precise terminal state: "running" / "completed" / "failed" /
  /// "cancelled" / "deadline_exceeded" / "stalled" / "shed" (bench schema
  /// v3's per-job `outcome` field).
  std::string outcome = "running";

  /// The deadline this job ran under (0 = none), for report correlation.
  std::uint32_t deadline_ms = 0;
  /// Admission priority class the job was submitted with.
  int priority = 0;
  /// Overlay epoch an incremental repair job ran against (0 for full
  /// traversals over static snapshots — epoch 0 is the pristine base).
  std::uint64_t delta_epoch = 0;

  std::uint64_t visits = 0;
  std::uint64_t pushes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t edge_inspections = 0;
  std::uint64_t io_ops = 0;
  std::uint64_t io_bytes = 0;
  std::uint64_t io_retries = 0;

  double queue_wait_seconds = 0.0;  // submit -> first worker body
  double run_seconds = 0.0;         // first worker body -> finish
  double total_seconds = 0.0;       // submit -> finish
};

/// How a job ended. Latched exactly once by the engine's completion path
/// (from the delivered result or error — a cooperative termination is the
/// traversal_aborted whose reason() is non-none, mapped 1:1 onto the
/// specific outcomes below), never derived from the racy "was cancel()
/// ever requested" flag: a genuine worker failure that raced a cancel
/// request is a failure, and a job that completed just before a late
/// cancel() stays completed — even when that late cancel is a watchdog
/// deadline fire.
enum class job_outcome : int {
  running = 0,
  completed,
  failed,
  cancelled,          // explicit job::cancel()
  deadline_exceeded,  // watchdog: deadline_ms elapsed
  stalled,            // watchdog: no progress for stall_grace_ms
  shed,               // admission control evicted it under overload
};

inline const char* job_outcome_name(job_outcome o) noexcept {
  switch (o) {
    case job_outcome::running: return "running";
    case job_outcome::completed: return "completed";
    case job_outcome::failed: return "failed";
    case job_outcome::cancelled: return "cancelled";
    case job_outcome::deadline_exceeded: return "deadline_exceeded";
    case job_outcome::stalled: return "stalled";
    case job_outcome::shed: return "shed";
  }
  return "running";
}

/// The live per-job state shared between the engine, the job handle's
/// control block, and the queue config's scope pointer. The engine keeps it
/// alive (shared_ptr) for as long as anything can still read it.
struct job_scope_state {
  telemetry::metric_scope scope;
  std::atomic<int> outcome{static_cast<int>(job_outcome::running)};
  // The sinks this job resolved at submit time (borrowed, nullable); the
  // completion path uses them for lifecycle accounting and span emission.
  telemetry::metrics_registry* metrics = nullptr;
  telemetry::trace_writer* trace = nullptr;

  // Robustness parameters fixed at submit time (plain fields: written once
  // before the job is visible to any other thread). The watchdog reads the
  // deadline/stall windows; admission reads priority and the memory
  // estimate.
  std::uint32_t deadline_ms = 0;
  std::uint32_t stall_grace_ms = 0;
  int priority = 0;
  std::uint64_t memory_estimate_bytes = 0;
  // Overlay epoch for incremental repair jobs; copied from
  // seeded_run::delta_epoch between make_typed_job and job launch (same
  // written-once-before-visible discipline as the fields above).
  std::uint64_t delta_epoch = 0;

  job_scope_state(std::uint64_t job_id, std::string label, std::size_t shards)
      : scope(job_id, std::move(label), shards) {}

  /// One-shot terminal-state latch; paired with the acquire in snapshot()
  /// so a reader that sees the outcome also sees the finish timestamp and
  /// counter totals written before it.
  void latch_outcome(job_outcome out) noexcept {
    outcome.store(static_cast<int>(out), std::memory_order_release);
  }

  job_stats snapshot() const {
    job_stats s;
    s.job_id = scope.job_id();
    s.label = scope.label();
    const auto out = static_cast<job_outcome>(
        outcome.load(std::memory_order_acquire));
    s.completed = out == job_outcome::completed;
    s.failed = out == job_outcome::failed;
    s.cancelled = out == job_outcome::cancelled ||
                  out == job_outcome::deadline_exceeded ||
                  out == job_outcome::stalled || out == job_outcome::shed;
    s.outcome = job_outcome_name(out);
    s.deadline_ms = deadline_ms;
    s.priority = priority;
    s.delta_epoch = delta_epoch;
    using hot = telemetry::metric_scope::hot;
    s.visits = scope.total(hot::visits);
    s.pushes = scope.total(hot::pushes);
    s.flushes = scope.total(hot::flushes);
    s.wakeups = scope.total(hot::wakeups);
    s.edge_inspections = scope.total(hot::edge_inspections);
    s.io_ops = scope.total(hot::io_ops);
    s.io_bytes = scope.total(hot::io_bytes);
    s.io_retries = scope.total(hot::io_retries);
    s.queue_wait_seconds = scope.queue_wait_seconds();
    s.run_seconds = scope.run_seconds();
    s.total_seconds = scope.total_seconds();
    return s;
  }
};

}  // namespace service
}  // namespace asyncgt
