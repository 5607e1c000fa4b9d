// Positional (pread) file access for semi-external storage.
//
// The paper's SEM implementation uses "explicit POSIX standard I/O access";
// this wrapper is the thread-safe primitive under sem_csr: pread has no file
// cursor, so hundreds of oversubscribed threads can read adjacency lists
// from one descriptor concurrently without locking.
//
// Failure model (docs/robustness.md): every read is bounds-checked against
// the file size up front, transient errnos (EIO/EAGAIN/...) are retried
// under a configurable bounded-backoff policy, and permanent failures
// surface as io_error with full context (path, offset, bytes, errno,
// retries burned). An optional fault_injector manufactures those failures
// deterministically for tests and `--inject=` bench runs.
#pragma once

#include <cstdint>
#include <string>

#include "sem/io_error.hpp"
#include "telemetry/io_recorder.hpp"

namespace asyncgt::sem {

class fault_injector;

class edge_file {
 public:
  edge_file() = default;
  /// Opens `path` read-only. Throws std::runtime_error on failure.
  explicit edge_file(const std::string& path);
  ~edge_file();

  edge_file(const edge_file&) = delete;
  edge_file& operator=(const edge_file&) = delete;
  edge_file(edge_file&& other) noexcept;
  edge_file& operator=(edge_file&& other) noexcept;

  bool is_open() const noexcept { return fd_ >= 0; }
  std::uint64_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

  /// Reads exactly `bytes` at `offset` into `dst` (loops over short reads,
  /// retries transient errnos per the retry policy). Throws io_error when
  /// the request exceeds the file size, on a fatal errno, or when the
  /// retry budget runs out.
  void read_at(std::uint64_t offset, void* dst, std::uint64_t bytes) const;

  /// Attaches a telemetry recorder (borrowed, nullable): every read_at then
  /// reports its byte count and host-side pread latency, plus retry /
  /// gave-up events. With no recorder attached, read_at does not even
  /// sample the clock.
  void set_recorder(telemetry::io_recorder* recorder) noexcept {
    recorder_ = recorder;
  }
  telemetry::io_recorder* recorder() const noexcept { return recorder_; }

  /// Replaces the transient-failure retry policy (validated here). The
  /// default retries 4 times with 50 µs..10 ms jittered backoff.
  void set_retry_policy(const io_retry_policy& policy) {
    policy.validate();
    retry_ = policy;
  }
  const io_retry_policy& retry_policy() const noexcept { return retry_; }

  /// Attaches a fault injector (borrowed, nullable): every read then draws
  /// a fault plan before touching the descriptor. Null disables injection.
  void set_fault_injector(fault_injector* injector) noexcept {
    injector_ = injector;
  }
  fault_injector* injector() const noexcept { return injector_; }

 private:
  void close() noexcept;
  void read_at_raw(std::uint64_t offset, void* dst,
                   std::uint64_t bytes) const;

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
  telemetry::io_recorder* recorder_ = nullptr;
  fault_injector* injector_ = nullptr;
  io_retry_policy retry_;
};

}  // namespace asyncgt::sem
