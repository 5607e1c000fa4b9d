#include "telemetry/metric_scope.hpp"

namespace asyncgt::telemetry {

namespace detail {
constinit thread_local metric_scope* tls_scope = nullptr;
constinit thread_local std::size_t tls_shard = 0;
}  // namespace detail

metric_scope::metric_scope(std::uint64_t job_id, std::string label,
                           std::size_t shards)
    : job_id_(job_id),
      label_(std::move(label)),
      submit_tp_(std::chrono::steady_clock::now()),
      shards_(shards ? shards : 1),
      deltas_(shards ? shards : 1) {}

double metric_scope::queue_wait_seconds() const noexcept {
  const std::int64_t run = run_start_ns_.load(std::memory_order_relaxed);
  if (run >= 0) return static_cast<double>(run) * 1e-9;
  // Never ran: waited the whole life of the job (so far, or to the end).
  const std::int64_t end = end_ns_.load(std::memory_order_relaxed);
  if (end >= 0) return static_cast<double>(end) * 1e-9;
  return static_cast<double>(ns_since_submit()) * 1e-9;
}

double metric_scope::run_seconds() const noexcept {
  const std::int64_t run = run_start_ns_.load(std::memory_order_relaxed);
  if (run < 0) return 0.0;
  const std::int64_t end = end_ns_.load(std::memory_order_relaxed);
  const std::int64_t until = end >= 0 ? end : ns_since_submit();
  return until > run ? static_cast<double>(until - run) * 1e-9 : 0.0;
}

double metric_scope::total_seconds() const noexcept {
  const std::int64_t end = end_ns_.load(std::memory_order_relaxed);
  return static_cast<double>(end >= 0 ? end : ns_since_submit()) * 1e-9;
}

}  // namespace asyncgt::telemetry
