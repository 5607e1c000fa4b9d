#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

namespace asyncgt {
namespace {

TEST(RunParts, EveryPartRunsOnce) {
  for (std::size_t threads = 0; threads <= 5; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::atomic<int>> runs(std::max<std::size_t>(threads, 1));
    detail::run_parts(threads, [&](std::size_t t) { ++runs[t]; });
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
}

// A starter that fails like std::thread's constructor once the system has
// no threads left: parts 1 and 2 get threads, the rest must run on the
// caller, and every part still runs once.
TEST(RunParts, PartsWhoseThreadCannotStartRunOnTheCaller) {
  constexpr std::size_t threads = 5;
  std::vector<std::thread::id> ran_on(threads);
  std::vector<std::atomic<int>> runs(threads);
  std::size_t started = 0;
  const auto start = [&](const auto& part, std::size_t t) {
    if (started == 2) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again));
    }
    ++started;
    return std::thread(part, t);
  };
  detail::run_parts_with(
      threads,
      [&](std::size_t t) {
        ran_on[t] = std::this_thread::get_id();
        ++runs[t];
      },
      start);
  const auto caller = std::this_thread::get_id();
  for (std::size_t t = 0; t < threads; ++t) {
    SCOPED_TRACE("part " + std::to_string(t));
    EXPECT_EQ(runs[t].load(), 1);
    EXPECT_EQ(ran_on[t] == caller, t == 0 || t >= 3);
  }
}

TEST(RunParts, AnErrorIsRethrownOnceEveryPartHasRun) {
  std::atomic<int> runs{0};
  const auto throw_in_two = [&](std::size_t t) {
    ++runs;
    if (t == 2) throw std::runtime_error("part 2");
  };
  EXPECT_THROW(detail::run_parts(4, throw_in_two), std::runtime_error);
  EXPECT_EQ(runs.load(), 4);
  runs = 0;
  // ...also when the failing part runs on the caller's fallback path.
  EXPECT_THROW(detail::run_parts_with(
                   4, throw_in_two,
                   [](const auto&, std::size_t) -> std::thread {
                     throw std::system_error(std::make_error_code(
                         std::errc::resource_unavailable_try_again));
                   }),
               std::runtime_error);
  EXPECT_EQ(runs.load(), 4);
}

}  // namespace
}  // namespace asyncgt
