#include "sem/edge_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sem/fault_injector.hpp"
#include "telemetry/metric_scope.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace asyncgt::sem {

namespace {

/// Jittered backoff sleep for the n-th consecutive transient failure.
/// Jitter draws from a per-thread stream so oversubscribed readers spread
/// out instead of re-hitting a recovering device in lockstep; determinism
/// is not needed here (the backoff duration never changes what is read).
void backoff_sleep(const io_retry_policy& policy, std::uint32_t n) {
  thread_local xoshiro256ss rng(
      splitmix64(std::hash<std::thread::id>{}(std::this_thread::get_id()))
          .next());
  double us = policy.backoff_us(n);
  if (policy.jitter > 0.0) {
    us *= 1.0 + policy.jitter * (2.0 * rng.next_double() - 1.0);
  }
  if (us >= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(us)));
  }
}

std::string errno_text(int err) {
  return err == 0 ? std::string("unexpected EOF") : std::strerror(err);
}

/// An injected stall: the read blocks as if the device hung, parked in a
/// polling loop that is also a *cancellation point* — the only way a thread
/// stuck here can unwind is the injector's release_stalls() latch (device
/// recovered: the read then proceeds normally) or the ambient job's abort
/// hint (watchdog deadline/stall fire, user cancel), which throws
/// operation_cancelled so the engine classifies the unwind as cooperative.
void stall_until_released(const fault_injector& injector,
                          const std::string& path, std::uint64_t offset) {
  while (!injector.stalls_released()) {
    if (telemetry::metric_scope::current_abort_requested()) {
      throw operation_cancelled("edge_file: stalled pread '" + path +
                                "' at offset " + std::to_string(offset) +
                                " cancelled");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace

edge_file::edge_file(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw std::runtime_error("edge_file: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("edge_file: fstat '" + path +
                             "': " + std::strerror(err));
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

edge_file::~edge_file() { close(); }

edge_file::edge_file(edge_file&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)),
      recorder_(std::exchange(other.recorder_, nullptr)),
      injector_(std::exchange(other.injector_, nullptr)),
      retry_(other.retry_) {}

edge_file& edge_file::operator=(edge_file&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
    recorder_ = std::exchange(other.recorder_, nullptr);
    injector_ = std::exchange(other.injector_, nullptr);
    retry_ = other.retry_;
  }
  return *this;
}

void edge_file::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void edge_file::read_at(std::uint64_t offset, void* dst,
                        std::uint64_t bytes) const {
  // Fail fast with context instead of letting an out-of-range request limp
  // into a mid-loop "unexpected EOF": a bad offset is a caller bug (or a
  // corrupted index), and no amount of retrying changes the file size.
  if (bytes > size_ || offset > size_ - bytes) {
    throw io_error("edge_file: read out of range in '" + path_ + "': [" +
                       std::to_string(offset) + ", " +
                       std::to_string(offset + bytes) + ") exceeds size " +
                       std::to_string(size_),
                   path_, offset, bytes, 0, 0);
  }
  if (recorder_ != nullptr) {
    wall_timer t;
    read_at_raw(offset, dst, bytes);
    recorder_->record(bytes, t.elapsed_us());
    return;
  }
  read_at_raw(offset, dst, bytes);
}

void edge_file::read_at_raw(std::uint64_t offset, void* dst,
                            std::uint64_t bytes) const {
  fault_plan plan;
  if (injector_ != nullptr) {
    plan = injector_->plan(offset, bytes);
    if (plan.delay_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(plan.delay_us));
    }
    if (plan.stall) stall_until_released(*injector_, path_, offset);
  }

  auto* out = static_cast<char*>(dst);
  std::uint64_t done = 0;
  std::uint32_t failures = 0;  // transient failures burned on this request
  bool short_pending = plan.short_len != 0;

  // The message spells out both the failing position and the original
  // request [offset, +bytes): a failed block-window read is retried over
  // the exact request, and debugging it needs the request geometry, not
  // just "N bytes failed".
  const auto give_up = [&](int err) -> io_error {
    if (recorder_ != nullptr) recorder_->record_gave_up();
    return io_error("edge_file: pread '" + path_ + "' at offset " +
                        std::to_string(offset + done) + " (request [" +
                        std::to_string(offset) + ", +" +
                        std::to_string(bytes) + ")) failed after " +
                        std::to_string(failures) + " retries: " +
                        errno_text(err),
                    path_, offset, bytes, err, failures);
  };

  while (done < bytes) {
    int err = 0;
    ssize_t got;
    if (failures < plan.fail_attempts) {
      // Injected failure: the descriptor is never touched, exactly as if
      // the kernel had returned the planned errno.
      got = -1;
      err = plan.err;
    } else {
      std::uint64_t want = bytes - done;
      if (short_pending) {
        want = std::min<std::uint64_t>(want, plan.short_len);
      }
      got = ::pread(fd_, out + done, want,
                    static_cast<off_t>(offset + done));
      err = got < 0 ? errno : 0;
      if (err == EINTR) continue;  // free re-issue; not an I/O failure
      if (got > 0) short_pending = false;
    }
    if (got < 0) {
      const bool injected = failures < plan.fail_attempts;
      const bool transient =
          is_transient_errno(err) && !(injected && plan.fatal);
      if (!transient || failures >= retry_.max_retries) throw give_up(err);
      ++failures;
      if (recorder_ != nullptr) recorder_->record_retry();
      backoff_sleep(retry_, failures);
      continue;
    }
    if (got == 0) {
      // Bounds were checked, so EOF here means the file shrank under us —
      // a permanent storage-level failure, not a retry candidate.
      throw give_up(0);
    }
    done += static_cast<std::uint64_t>(got);
  }
}

}  // namespace asyncgt::sem
