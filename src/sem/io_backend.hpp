// The semi-external host read path: one block window per thread.
//
// The paper reads every adjacency list with its own blocking pread. The
// semi-sorted SEM visit order (§IV-C) makes a thread's consecutive
// adjacency reads adjacent on disk, so this path reads whole device blocks
// instead: a request the calling thread's window already holds is a memcpy,
// and any other request preads the block-aligned range covering it, which
// becomes the new window. Out-of-core systems read storage in whole blocks
// the same way (ACGraph, PAPERS.md).
//
// Only host syscalls depend on this class. The simulated device charge and
// the block-cache probe are booked per logical request by sem_csr
// (charge_ahead / charge_device), whatever the window holds.
//
// Failure model (docs/robustness.md): each window pread goes through
// edge_file's retry/backoff loop and draws one fault plan. If it fails for
// good, the request is read again over exactly its own bytes, so a bad
// sector fails only the requests that overlap it.
//
// Threading: one instance lives per sem_csr and is shared by every job
// traversing it. Windows live in per-thread lanes indexed by a process-wide
// thread index; counters are relaxed atomics. No locks on the read path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sem/edge_file.hpp"

namespace asyncgt::sem {

/// One logical read: `bytes` at `offset` into `dst`. `stream` picks the
/// window (0 = targets section, 1 = weights section), so a weighted
/// traversal's alternating target and weight reads keep one window each.
struct io_request {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  void* dst = nullptr;
  std::uint32_t stream = 0;
};

struct io_backend_counters {
  std::uint64_t requests = 0;      ///< logical reads
  std::uint64_t batches = 0;       ///< preads that completed
  std::uint64_t bytes_issued = 0;  ///< bytes those preads read
  std::uint64_t window_hits = 0;   ///< requests served without a pread
  std::uint64_t fallbacks = 0;     ///< window preads retried as the request
};

class io_backend {
 public:
  /// The name reports and the benchmark print for the one read path.
  static constexpr const char* name = "block-window";

  /// Reads `file` through windows of whole `block_bytes` blocks.
  io_backend(const edge_file& file, std::uint64_t block_bytes);
  ~io_backend();

  io_backend(const io_backend&) = delete;
  io_backend& operator=(const io_backend&) = delete;

  /// Blocking read of one range; the data is in `req.dst` on return.
  /// Throws io_error exactly when the requested bytes cannot be read.
  void read(const io_request& req);

  io_backend_counters counters() const noexcept;

  std::uint64_t block_bytes() const noexcept { return block_bytes_; }

 private:
  /// A filled stretch of the file, valid while `len` > 0.
  struct window {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::vector<char> buf;
  };
  /// Only the thread that owns a lane's index touches it.
  struct lane {
    window win[2];
  };

  lane& my_lane();
  /// One pread through edge_file, counted as a batch once it completes.
  void issue(std::uint64_t offset, void* dst, std::uint64_t bytes);

  const edge_file* file_;
  const std::uint64_t block_bytes_;

  // Lanes live in a fixed two-level table indexed by a process-wide thread
  // index: lock-free lookup, and memory bounded by the threads that touch
  // this instance (chunks allocate on first use).
  static constexpr std::size_t kChunkSize = 64;
  static constexpr std::size_t kChunks = 256;  // 16384 threads before overflow
  struct chunk {
    lane lanes[kChunkSize];
  };
  std::array<std::atomic<chunk*>, kChunks> chunks_{};
  std::mutex overflow_mu_;
  std::unordered_map<std::uint32_t, std::unique_ptr<lane>> overflow_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> bytes_issued_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace asyncgt::sem
