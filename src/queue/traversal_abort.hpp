// The engine's failure-containment contract, as seen by callers.
//
// Before this layer existed, an exception escaping a worker thread (one
// transient EIO in the SEM read path, a bad_alloc in a drain) hit the
// std::thread boundary and std::terminate'd the process — forfeiting a
// traversal the paper budgets 10,000+ seconds for. Now every worker runs
// under a catch-all: the first error is latched with its thread and vertex
// context, a cancellation flag wakes and unwinds every other worker
// (termination.hpp), the engine joins cleanly and resets its queue state,
// and the error re-emerges on the *calling* thread as this exception — the
// identical contract for in-memory and semi-external runs.
//
// The partially computed algorithm state survives the abort untouched: for
// label-correcting traversals it is a valid intermediate state, which is
// what makes the emergency-checkpoint / resume path in core/checkpoint.hpp
// sound (docs/robustness.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/cancellation.hpp"

namespace asyncgt {

/// Why a cooperative abort was requested. `none` means the abort was a
/// worker failure, not a request; the service layer's watchdog and load
/// shedder raise the other reasons through the same broadcast job::cancel
/// uses, and the engine reports the first-latched reason on the resulting
/// traversal_aborted so callers can tell a user cancel from a blown
/// deadline, a stalled job, or an overload shed (docs/robustness.md).
enum class abort_reason : int {
  none = 0,
  cancelled,          ///< explicit job::cancel() / request_cancel()
  deadline_exceeded,  ///< watchdog: traversal_options::deadline_ms elapsed
  stalled,            ///< watchdog: no progress for stall_grace_ms
  shed,               ///< admission control evicted the job under overload
};

inline const char* abort_reason_name(abort_reason r) noexcept {
  switch (r) {
    case abort_reason::none: return "none";
    case abort_reason::cancelled: return "cancelled";
    case abort_reason::deadline_exceeded: return "deadline_exceeded";
    case abort_reason::stalled: return "stalled";
    case abort_reason::shed: return "shed";
  }
  return "none";
}

class traversal_aborted : public std::runtime_error {
 public:
  traversal_aborted(const std::string& what, std::size_t worker,
                    bool has_vertex, std::uint64_t vertex,
                    std::exception_ptr cause,
                    abort_reason reason = abort_reason::none)
      : std::runtime_error(what),
        worker_(worker),
        has_vertex_(has_vertex),
        vertex_(vertex),
        cause_(std::move(cause)),
        reason_(reason) {}

  /// Index of the worker whose exception aborted the run.
  std::size_t worker() const noexcept { return worker_; }

  /// True when the failure happened inside a visit (vertex() is then the
  /// vertex being visited); false for failures outside any visit (seeding,
  /// delivery, drain).
  bool has_vertex() const noexcept { return has_vertex_; }
  std::uint64_t vertex() const noexcept { return vertex_; }

  /// The original exception (io_error, bad_alloc, ...), rethrowable via
  /// std::rethrow_exception for callers that dispatch on the cause.
  const std::exception_ptr& cause() const noexcept { return cause_; }

  /// True when the abort was cooperative — a cancel request, a watchdog
  /// deadline/stall kill, or a load shed — rather than a worker failure. A
  /// run that both got cancelled and latched a real (non-cancellation-point)
  /// error reports the error, so this stays false — the service layer
  /// classifies terminal job state from it.
  bool cancelled() const noexcept { return reason_ != abort_reason::none; }

  /// The first-latched cooperative abort reason (`none` for a worker
  /// failure). job-outcome classification in the engine maps this to
  /// cancelled / deadline_exceeded / stalled / shed.
  abort_reason reason() const noexcept { return reason_; }

 private:
  std::size_t worker_ = 0;
  bool has_vertex_ = false;
  std::uint64_t vertex_ = 0;
  std::exception_ptr cause_;
  abort_reason reason_ = abort_reason::none;
};

/// Packages how a run ended into the traversal_aborted it reports. `error`
/// is the first exception a worker latched (null if none) and `reason` the
/// requested abort reason (none if no abort was requested). A latched
/// operation_cancelled is a cancellation point unwinding on request, so it
/// is cooperative like a bare request: the run reports the requested
/// reason (cancelled if none), with the thrown exception kept as cause().
/// Any other error is a worker failure and wins over a racing request.
inline traversal_aborted make_traversal_aborted(std::exception_ptr error,
                                                std::size_t worker,
                                                bool has_vertex,
                                                std::uint64_t vertex,
                                                abort_reason reason) {
  bool cooperative = !error;
  std::string cause;
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const operation_cancelled&) {
      cooperative = true;
    } catch (const std::exception& e) {
      cause = e.what();
    } catch (...) {
      cause = "non-standard exception";
    }
  }
  if (cooperative) {
    const abort_reason r =
        reason != abort_reason::none ? reason : abort_reason::cancelled;
    return traversal_aborted(
        std::string("traversal aborted: ") + abort_reason_name(r), worker,
        has_vertex, vertex, std::move(error), r);
  }
  std::string what =
      "traversal aborted: worker " + std::to_string(worker) + " failed";
  if (has_vertex) what += " at vertex " + std::to_string(vertex);
  what += ": " + cause;
  return traversal_aborted(what, worker, has_vertex, vertex, std::move(error));
}

}  // namespace asyncgt
