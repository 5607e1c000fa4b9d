#include "sem/block_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace asyncgt::sem {
namespace {

/// Straight-line reference LRU: std::list recency + map.
class reference_lru {
 public:
  explicit reference_lru(std::uint64_t capacity) : capacity_(capacity) {}

  bool access(std::uint64_t block) {
    auto it = map_.find(block);
    if (it != map_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second);
      return true;
    }
    if (recency_.size() >= capacity_) {
      ++evictions_;
      map_.erase(recency_.back());
      recency_.pop_back();
    }
    recency_.push_front(block);
    map_[block] = recency_.begin();
    return false;
  }

  std::uint64_t evictions() const { return evictions_; }

 private:
  std::uint64_t capacity_;
  std::list<std::uint64_t> recency_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::uint64_t evictions_ = 0;
};

TEST(BlockCache, ZeroCapacityRejected) {
  EXPECT_THROW(block_cache{0}, std::invalid_argument);
}

TEST(BlockCache, FirstAccessMissesSecondHits) {
  block_cache c(4);
  EXPECT_FALSE(c.access(7));
  EXPECT_TRUE(c.access(7));
  EXPECT_EQ(c.counters().hits, 1u);
  EXPECT_EQ(c.counters().misses, 1u);
}

TEST(BlockCache, EvictsLeastRecentlyUsed) {
  block_cache c(2);
  c.access(1);
  c.access(2);
  c.access(1);      // refresh 1; LRU is now 2
  c.access(3);      // evicts 2
  EXPECT_TRUE(c.access(1));
  EXPECT_TRUE(c.access(3));
  EXPECT_FALSE(c.access(2));  // was evicted
  EXPECT_EQ(c.size(), 2u);
}

TEST(BlockCache, SizeNeverExceedsCapacity) {
  block_cache c(8);
  for (std::uint64_t b = 0; b < 100; ++b) c.access(b);
  EXPECT_EQ(c.size(), 8u);
}

TEST(BlockCache, HitRateComputation) {
  block_cache c(16);
  EXPECT_EQ(c.counters().hit_rate(), 0.0);
  c.access(1);       // miss
  c.access(1);       // hit
  c.access(1);       // hit
  c.access(2);       // miss
  EXPECT_DOUBLE_EQ(c.counters().hit_rate(), 0.5);
}

TEST(BlockCache, ResetAndClear) {
  block_cache c(4);
  c.access(1);
  c.access(1);
  c.reset_counters();
  EXPECT_EQ(c.counters().hits, 0u);
  EXPECT_TRUE(c.access(1));  // contents survived reset_counters
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.access(1));  // contents gone after clear
}

TEST(BlockCache, SequentialScanWithCapacityHasHighHitRateOnSecondPass) {
  block_cache c(64);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t b = 0; b < 64; ++b) c.access(b);
  }
  EXPECT_DOUBLE_EQ(c.counters().hit_rate(), 0.5);  // 64 misses, 64 hits
}

TEST(BlockCache, CountsEvictions) {
  block_cache c(2);
  c.access(1);
  c.access(2);
  EXPECT_EQ(c.counters().evictions, 0u);  // fills, nothing displaced yet
  c.access(3);  // evicts 1
  c.access(4);  // evicts 2
  EXPECT_EQ(c.counters().evictions, 2u);
  c.access(4);  // hit — no eviction
  EXPECT_EQ(c.counters().evictions, 2u);
  c.reset_counters();
  EXPECT_EQ(c.counters().evictions, 0u);
}

TEST(BlockCache, EvictionInvariantUnderChurn) {
  block_cache c(8);
  for (std::uint64_t b = 0; b < 100; ++b) c.access(b);
  const auto counters = c.counters();
  // Every miss either fills a free slot or evicts: misses == evictions +
  // resident blocks.
  EXPECT_EQ(counters.misses, counters.evictions + c.size());
}

TEST(BlockCache, ThreadSafetyUnderConcurrentAccess) {
  block_cache c(128);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 5000; ++i) {
        c.access((i + static_cast<std::uint64_t>(t) * 13) % 256);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto counters = c.counters();
  EXPECT_EQ(counters.hits + counters.misses, 8u * 5000u);
  EXPECT_LE(c.size(), 128u);
}

TEST(BlockCache, LruReplaysIdenticallyToReference) {
  constexpr std::uint64_t kCapacity = 16;
  block_cache cache(kCapacity);
  reference_lru ref(kCapacity);

  xoshiro256ss rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Skewed trace: small working set with a long uniform tail, so hits,
    // misses, and evictions all occur in volume.
    const std::uint64_t block =
        (rng() % 4 == 0) ? rng.next_below(128) : rng.next_below(12);
    ASSERT_EQ(cache.access(block), ref.access(block)) << "op " << i;
  }
  EXPECT_EQ(cache.counters().evictions, ref.evictions());
}

}  // namespace
}  // namespace asyncgt::sem
