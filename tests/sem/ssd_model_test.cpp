#include "sem/ssd_model.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "sem/device_presets.hpp"
#include "util/timer.hpp"

namespace asyncgt::sem {
namespace {

ssd_params fast_test_device(std::uint32_t channels, double latency_us) {
  ssd_params p;
  p.name = "test";
  p.read_latency_us = latency_us;
  p.write_latency_us = latency_us * 3;
  p.channels = channels;
  return p;
}

/// One read through begin_read, waited out and ended. Returns the booked
/// deadline minus the clock just before and just after the call: on a free
/// channel the service time lies between the two, however late the host
/// runs this thread.
struct booked_read {
  ssd_model::clock::duration upper, lower;
};
booked_read book_one_read(ssd_model& dev) {
  const auto before = ssd_model::clock::now();
  const auto deadline = dev.begin_read(64);
  const auto after = ssd_model::clock::now();
  std::this_thread::sleep_until(deadline);
  dev.end_read();
  return {deadline - before, deadline - after};
}

TEST(SsdModel, InvalidParamsRejected) {
  ssd_params p = fast_test_device(0, 10);
  EXPECT_THROW(ssd_model{p}, std::invalid_argument);
  p = fast_test_device(1, -5);
  EXPECT_THROW(ssd_model{p}, std::invalid_argument);
  p = fast_test_device(1, 10);
  p.block_bytes = 0;
  EXPECT_THROW(ssd_model{p}, std::invalid_argument);
  p = fast_test_device(1, 10);
  p.time_scale = 0;
  EXPECT_THROW(ssd_model{p}, std::invalid_argument);
}

TEST(SsdModel, CountsRequests) {
  ssd_model dev(fast_test_device(4, 1.0));
  dev.read(100);
  dev.read(5000);
  dev.write(100);
  const ssd_counters c = dev.counters();
  EXPECT_EQ(c.reads, 2u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.read_bytes, 5100u);
  EXPECT_EQ(c.write_bytes, 100u);
  // 100 bytes = 1 block, 5000 bytes = 2 blocks of 4096.
  EXPECT_EQ(c.read_blocks, 3u);
  dev.reset_counters();
  EXPECT_EQ(dev.counters().reads, 0u);
}

TEST(SsdModel, SingleThreadSeesServiceLatency) {
  constexpr double kLatencyUs = 2000.0;
  constexpr auto kService = std::chrono::microseconds(2000);
  constexpr int kReads = 10;
  ssd_model dev(fast_test_device(8, kLatencyUs));
  // The booked deadlines carry the exact service time.
  for (int i = 0; i < kReads; ++i) {
    const booked_read b = book_one_read(dev);
    EXPECT_GE(b.upper, kService);
    EXPECT_LE(b.lower, kService);
  }
  // One thread cannot exploit channel parallelism: read() really waits at
  // least the service time each call. Only a lower bound holds on a loaded
  // host.
  wall_timer t;
  for (int i = 0; i < kReads; ++i) dev.read(64);
  const double per_read_us = t.elapsed_seconds() * 1e6 / kReads;
  EXPECT_GE(per_read_us, kLatencyUs * 0.95);
}

TEST(SsdModel, ThroughputScalesWithThreadsUntilChannelLimit) {
  // The Figure 1 property: aggregate IOPS grows with requester count and
  // plateaus at channels/latency.
  constexpr double kLatencyUs = 2000.0;
  constexpr std::uint32_t kChannels = 4;
  const auto measure = [&](int threads, int reads_per_thread) {
    ssd_model dev(fast_test_device(kChannels, kLatencyUs));
    wall_timer t;
    std::vector<std::thread> ts;
    for (int i = 0; i < threads; ++i) {
      ts.emplace_back([&] {
        for (int r = 0; r < reads_per_thread; ++r) dev.read(64);
      });
    }
    for (auto& th : ts) th.join();
    return static_cast<double>(threads) * reads_per_thread /
           t.elapsed_seconds();
  };
  const double iops1 = measure(1, 20);
  const double iops4 = measure(4, 20);
  const double iops16 = measure(16, 10);
  EXPECT_GT(iops4, iops1 * 2.5);       // scaling region
  EXPECT_GT(iops16, iops4 * 0.7);      // no collapse past the knee
  // Plateau: within 40% of channels/latency (generous for CI jitter).
  const double plateau = kChannels * 1e6 / kLatencyUs;
  EXPECT_LT(iops16, plateau * 1.4);
  EXPECT_GT(iops16, plateau * 0.5);
}

TEST(SsdModel, WritesSlowerThanReads) {
  constexpr int kOps = 5;
  constexpr auto kReadService = std::chrono::microseconds(1500);
  ssd_model dev(fast_test_device(1, 1500.0));
  // Reads: the booked service times, summed from below.
  ssd_model::clock::duration read_time{};
  for (int i = 0; i < kOps; ++i) {
    const booked_read b = book_one_read(dev);
    EXPECT_GE(b.upper, kReadService);
    EXPECT_LE(b.lower, kReadService);
    read_time += b.lower;
  }
  // Writes: wall time, which the host can only stretch, never shorten.
  wall_timer t;
  for (int i = 0; i < kOps; ++i) dev.write(64);
  const double write_s = t.elapsed_seconds();
  const double read_s = std::chrono::duration<double>(read_time).count();
  EXPECT_GT(write_s, read_s * 1.5);  // 3x asymmetry configured
}

TEST(SsdModel, TimeScaleCompressesLatency) {
  ssd_params slow = fast_test_device(1, 4000.0);
  ssd_params fast = slow;
  fast.time_scale = 0.25;
  EXPECT_DOUBLE_EQ(ssd_model(fast).params().plateau_iops(),
                   ssd_model(slow).params().plateau_iops() * 4.0);
  ssd_model dev_fast(fast);
  ssd_model dev_slow(slow);
  // Booked service times: 4 ms unscaled, 1 ms at time scale 0.25.
  const booked_read s = book_one_read(dev_slow);
  EXPECT_GE(s.upper, std::chrono::microseconds(4000));
  EXPECT_LE(s.lower, std::chrono::microseconds(4000));
  const booked_read f = book_one_read(dev_fast);
  EXPECT_GE(f.upper, std::chrono::microseconds(1000));
  EXPECT_LE(f.lower, std::chrono::microseconds(1000));
  // The scaled device's read() still waits out its (shorter) service time.
  wall_timer t;
  dev_fast.read(64);
  EXPECT_GE(t.elapsed_seconds(), 1000e-6 * 0.95);
}

TEST(DevicePresets, PlateausMatchPaperFigure1) {
  EXPECT_NEAR(fusionio_params().plateau_iops(), 200000.0, 5000.0);
  EXPECT_NEAR(intel_params().plateau_iops(), 60000.0, 3000.0);
  EXPECT_NEAR(corsair_params().plateau_iops(), 30000.0, 2000.0);
}

TEST(DevicePresets, OrderingFusionFastest) {
  // The paper's device ranking: FusionIO > Intel > Corsair.
  EXPECT_GT(fusionio_params().plateau_iops(), intel_params().plateau_iops());
  EXPECT_GT(intel_params().plateau_iops(), corsair_params().plateau_iops());
}

TEST(DevicePresets, LookupByName) {
  EXPECT_EQ(device_preset_by_name("fusionio").name, "fusionio");
  EXPECT_EQ(device_preset_by_name("intel").name, "intel");
  EXPECT_EQ(device_preset_by_name("corsair").name, "corsair");
  EXPECT_THROW(device_preset_by_name("floppy"), std::invalid_argument);
}

TEST(DevicePresets, TimeScalePropagates) {
  EXPECT_DOUBLE_EQ(device_preset_by_name("intel", 0.1).time_scale, 0.1);
  EXPECT_EQ(all_device_presets(0.5).size(), 3u);
  for (const auto& p : all_device_presets(0.5)) {
    EXPECT_DOUBLE_EQ(p.time_scale, 0.5);
  }
}

}  // namespace
}  // namespace asyncgt::sem
