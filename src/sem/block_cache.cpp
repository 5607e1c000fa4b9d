#include "sem/block_cache.hpp"

#include <stdexcept>

namespace asyncgt::sem {

block_cache::block_cache(std::uint64_t capacity_blocks)
    : capacity_(capacity_blocks) {
  if (capacity_blocks == 0) {
    throw std::invalid_argument("block_cache: capacity must be positive");
  }
}

bool block_cache::access(std::uint64_t block) {
  std::lock_guard lk(mu_);
  const auto it = map_.find(block);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    ++counters_.hits;
    if (heat_ != nullptr) heat_->record(block, false);
    return true;
  }
  ++counters_.misses;
  if (heat_ != nullptr) heat_->record(block, true);
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(block);
  map_[block] = lru_.begin();
  return false;
}

bool block_cache::contains(std::uint64_t block) const {
  std::lock_guard lk(mu_);
  return map_.find(block) != map_.end();
}

void block_cache::set_block_heat(block_heat* heat) noexcept {
  std::lock_guard lk(mu_);
  heat_ = heat;
}

std::uint64_t block_cache::size() const {
  std::lock_guard lk(mu_);
  return map_.size();
}

cache_counters block_cache::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

void block_cache::reset_counters() {
  std::lock_guard lk(mu_);
  counters_ = cache_counters{};
}

void block_cache::clear() {
  std::lock_guard lk(mu_);
  map_.clear();
  lru_.clear();
  counters_ = cache_counters{};
}

}  // namespace asyncgt::sem
