// Fork-join helpers for the set-up kernels: the CSR build
// (graph/builder.hpp), the in-memory transpose (csr_graph::ensure_reverse)
// and parallel RMAT generation (gen/rmat.hpp). Each splits its work into
// `threads` contiguous parts and runs them with run_parts; the two counting
// sorts size their part count with build_threads and share the prefix sum
// of their per-part histograms.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace asyncgt::detail {

/// Slots (edges to place) from which a counting sort runs its passes on
/// several threads (build_threads). Below it they run on the caller, so
/// building many tiny graphs spawns no threads.
inline constexpr std::uint64_t parallel_build_threshold = 1ull << 16;

/// run_parts with each helper thread started by start(part, t), which
/// returns a std::thread running part(t) or throws std::system_error, as
/// std::thread's constructor does when the system is out of threads.
template <typename F, typename Start>
void run_parts_with(std::size_t threads, const F& f, const Start& start) {
  if (threads <= 1) {
    f(std::size_t{0});
    return;
  }
  std::exception_ptr error;
  std::mutex mu;
  const auto part = [&](std::size_t t) {
    try {
      f(t);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  std::size_t spawned = 1;
  try {
    for (; spawned < threads; ++spawned) {
      pool.push_back(start(part, spawned));
    }
  } catch (const std::system_error&) {
    // Out of threads: the caller runs the parts that did not start.
  }
  for (std::size_t t = spawned; t < threads; ++t) part(t);
  part(0);
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

/// Runs f(t) for every t in [0, threads): t = 0 on the caller, the rest on
/// their own std::threads (or on the caller, for parts whose thread could
/// not be started). The first exception a part throws is rethrown once all
/// have finished.
template <typename F>
void run_parts(std::size_t threads, const F& f) {
  run_parts_with(threads, f, [](const auto& part, std::size_t t) {
    return std::thread(part, t);
  });
}

/// The prefix sum of a counting sort's per-part histograms: `hist` holds
/// `threads` rows of n cells, row t counting the keys of part t. Each cell
/// becomes part t's first slot for its key, in (key, part) order, so part
/// t's slots for a key follow part t-1's and the parts' scatters stay
/// stable. Key ranges are summed in parallel, their bases serially.
/// Returns the number of slots.
template <typename Count>
std::uint64_t histogram_cursors(std::size_t threads, std::uint64_t n,
                                std::vector<Count>& hist) {
  const auto key_range = [&](std::size_t r) {
    return std::pair<std::uint64_t, std::uint64_t>{n * r / threads,
                                                   n * (r + 1) / threads};
  };
  std::vector<std::uint64_t> range_base(threads + 1, 0);
  run_parts(threads, [&](std::size_t r) {
    const auto [lo, hi] = key_range(r);
    std::uint64_t sum = 0;
    for (std::uint64_t v = lo; v < hi; ++v) {
      for (std::size_t t = 0; t < threads; ++t) sum += hist[t * n + v];
    }
    range_base[r + 1] = sum;
  });
  std::partial_sum(range_base.begin(), range_base.end(), range_base.begin());
  run_parts(threads, [&](std::size_t r) {
    const auto [lo, hi] = key_range(r);
    auto running = static_cast<Count>(range_base[r]);
    for (std::uint64_t v = lo; v < hi; ++v) {
      for (std::size_t t = 0; t < threads; ++t) {
        const Count c = hist[t * n + v];
        hist[t * n + v] = running;
        running += c;
      }
    }
  });
  return range_base[threads];
}

/// Width of a counting sort's histogram cells: 32 bits whenever every slot
/// index fits, which halves the histograms.
inline std::size_t count_bytes(std::uint64_t slots) {
  return slots <= UINT32_MAX ? 4 : 8;
}

/// Threads for a counting sort of `slots` slots over `n` keys: one below
/// the threshold; otherwise hardware_concurrency(), capped twice. The
/// per-thread histograms (threads x n cells) hold at most a quarter of a
/// cell per slot, so zeroing and summing them stays cheap next to the
/// edges, and take no more memory than the offsets and cursor arrays (two
/// 64-bit words per key) of a serial placement, so a build's peak memory
/// does not grow with the host's core count.
inline std::size_t build_threads(std::uint64_t slots, std::uint64_t n) {
  if (slots < parallel_build_threshold) return 1;
  const std::uint64_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t memory_cap = 16 / count_bytes(slots);
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(
      std::min(slots / (4 * (n + 1)), memory_cap), 1, hw));
}

}  // namespace asyncgt::detail
