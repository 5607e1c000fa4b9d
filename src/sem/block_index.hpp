// Centralized block-id math for the semi-external layer.
//
// The block cache and the block-heat recorder both key their state by
// device block index. Before this helper each of them derived the index
// locally (pos / bs with a locally-chosen bs), and they disagreed when
// weighted edges changed the byte stride of an adjacency list: heat sized
// its table from its own block_bytes while the charge walk used the
// device's, so the same logical block landed on different ids. Every
// byte-position -> block-id conversion now goes through block_index_of()
// with ONE granularity chosen by the caller that owns the device (sem_csr
// prefers the attached ssd_model's block_bytes, falling back to the 4 KiB
// NAND page every preset uses).
#pragma once

#include <cstdint>

namespace asyncgt::sem {

/// The default granularity when no ssd_model supplies one (the 4 KiB NAND
/// page size every device preset uses).
inline constexpr std::uint64_t default_block_bytes = 4096;

/// Block index containing byte position `pos` at `block_bytes` granularity.
/// A zero granularity is treated as the default rather than dividing by
/// zero — callers pass through whatever the device/heat recorder carries.
constexpr std::uint64_t block_index_of(std::uint64_t pos,
                                       std::uint64_t block_bytes) noexcept {
  return pos / (block_bytes == 0 ? default_block_bytes : block_bytes);
}

/// Last block index touched by the byte range [pos, pos + bytes).
/// Requires bytes >= 1 (a zero-length read touches no block; callers guard).
constexpr std::uint64_t block_index_of_last(
    std::uint64_t pos, std::uint64_t bytes,
    std::uint64_t block_bytes) noexcept {
  return block_index_of(pos + bytes - 1, block_bytes);
}

/// Blocks needed to cover `file_bytes` at `block_bytes` granularity.
constexpr std::uint64_t blocks_covering(std::uint64_t file_bytes,
                                        std::uint64_t block_bytes) noexcept {
  const std::uint64_t bs =
      block_bytes == 0 ? default_block_bytes : block_bytes;
  return (file_bytes + bs - 1) / bs;
}

}  // namespace asyncgt::sem
