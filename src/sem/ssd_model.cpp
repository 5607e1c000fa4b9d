#include "sem/ssd_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace asyncgt::sem {

ssd_model::ssd_model(ssd_params params) : params_(std::move(params)) {
  if (params_.channels == 0) {
    throw std::invalid_argument("ssd_model: need at least one channel");
  }
  if (params_.read_latency_us <= 0 || params_.write_latency_us <= 0 ||
      params_.time_scale <= 0) {
    throw std::invalid_argument("ssd_model: latencies must be positive");
  }
  if (params_.block_bytes == 0) {
    throw std::invalid_argument("ssd_model: block size must be positive");
  }
  channels_.reserve(params_.channels);
  for (std::uint32_t i = 0; i < params_.channels; ++i) {
    channels_.push_back(std::make_unique<channel>());
  }
}

ssd_model::clock::time_point ssd_model::issue(std::uint64_t bytes,
                                              bool is_write) {
  const std::uint64_t blocks =
      bytes == 0 ? 1 : (bytes + params_.block_bytes - 1) / params_.block_bytes;
  const double service_us =
      (is_write ? params_.write_latency_us : params_.read_latency_us) +
      static_cast<double>(blocks - 1) * params_.seq_block_us;
  const std::uint64_t depth =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t idx =
      next_channel_.fetch_add(1, std::memory_order_relaxed) % channels_.size();
  channel& ch = *channels_[idx];
  const auto service = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double, std::micro>(service_us *
                                                params_.time_scale));
  clock::time_point deadline;
  {
    std::lock_guard lk(ch.mu);
    const auto now = clock::now();
    ch.free_at = (ch.free_at > now ? ch.free_at : now) + service;
    deadline = ch.free_at;
  }
  std::lock_guard lk(counter_mu_);
  if (is_write) {
    ++counters_.writes;
    counters_.write_bytes += bytes;
  } else {
    ++counters_.reads;
    counters_.read_bytes += bytes;
    counters_.read_blocks += blocks;
  }
  counters_.max_inflight = std::max(counters_.max_inflight, depth);
  return deadline;
}

ssd_model::clock::time_point ssd_model::begin_read(std::uint64_t bytes) {
  return issue(bytes, false);
}

void ssd_model::read(std::uint64_t bytes) {
  std::this_thread::sleep_until(begin_read(bytes));
  end_read();
}

void ssd_model::write(std::uint64_t bytes) {
  std::this_thread::sleep_until(issue(bytes, true));
  end_read();
}

ssd_counters ssd_model::counters() const {
  std::lock_guard lk(counter_mu_);
  return counters_;
}

void ssd_model::reset_counters() {
  std::lock_guard lk(counter_mu_);
  counters_ = ssd_counters{};
}

}  // namespace asyncgt::sem
