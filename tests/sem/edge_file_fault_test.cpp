// Fault-path coverage for edge_file: the up-front bounds check, the
// transient-errno retry loop (recovery, budget exhaustion, fatal
// classification, short reads), the io_error context it surfaces, and the
// retry/gave-up telemetry it feeds the io_recorder. All failures are
// manufactured by the deterministic injector — no real device misbehaviour
// required.
#include "sem/edge_file.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "queue/traversal_abort.hpp"
#include "sem/fault_injector.hpp"
#include "telemetry/io_recorder.hpp"
#include "telemetry/metric_scope.hpp"
#include "util/cancellation.hpp"

namespace asyncgt::sem {
namespace {

class EdgeFileFault : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_ef_fault_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "data.bin").string();
    payload_.resize(4096);
    for (std::size_t i = 0; i < payload_.size(); ++i) {
      payload_[i] = static_cast<char>(i * 131 + 7);
    }
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(payload_.data(), 1, payload_.size(), f),
              payload_.size());
    std::fclose(f);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Microsecond-scale backoff so exhaustion tests stay instantaneous.
  static io_retry_policy fast_retry(std::uint32_t max_retries) {
    io_retry_policy p;
    p.max_retries = max_retries;
    p.backoff_initial_us = 1;
    p.backoff_max_us = 10;
    return p;
  }

  std::filesystem::path dir_;
  std::string path_;
  std::vector<char> payload_;
};

TEST_F(EdgeFileFault, OutOfRangeReadFailsFastWithContext) {
  edge_file f(path_);
  std::vector<char> buf(128);
  try {
    f.read_at(4096 - 64, buf.data(), 128);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_EQ(e.path(), path_);
    EXPECT_EQ(e.offset(), 4096u - 64u);
    EXPECT_EQ(e.bytes(), 128u);
    EXPECT_EQ(e.error_code(), 0);
    EXPECT_EQ(e.retries(), 0u);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST_F(EdgeFileFault, HugeOffsetDoesNotOverflowBoundsCheck) {
  edge_file f(path_);
  char b = 0;
  // offset + bytes would wrap a naive u64 sum; the subtract-form check
  // must still reject it.
  EXPECT_THROW(f.read_at(~std::uint64_t{0} - 1, &b, 8), io_error);
  EXPECT_THROW(f.read_at(0, &b, ~std::uint64_t{0}), io_error);
}

TEST_F(EdgeFileFault, TransientFaultsAreRetriedToSuccess) {
  fault_config cfg;
  cfg.p_eio = 1.0;  // every read faults...
  cfg.fail_attempts = 2;  // ...twice, then the pread goes through
  fault_injector inj(cfg);
  telemetry::io_recorder rec;
  edge_file f(path_);
  f.set_retry_policy(fast_retry(4));
  f.set_fault_injector(&inj);
  f.set_recorder(&rec);

  std::vector<char> buf(512);
  for (std::uint64_t off = 0; off + 512 <= 4096; off += 512) {
    f.read_at(off, buf.data(), 512);
    EXPECT_EQ(std::memcmp(buf.data(), payload_.data() + off, 512), 0);
  }
  const auto io = rec.snapshot();
  EXPECT_EQ(io.ops, 8u);
  EXPECT_EQ(io.retries, 16u);  // 2 per read, deterministic
  EXPECT_EQ(io.gave_up, 0u);
}

TEST_F(EdgeFileFault, RetryBudgetExhaustionGivesUpWithErrno) {
  fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fail_attempts = 10;  // outlasts the budget
  fault_injector inj(cfg);
  telemetry::io_recorder rec;
  edge_file f(path_);
  f.set_retry_policy(fast_retry(2));
  f.set_fault_injector(&inj);
  f.set_recorder(&rec);

  std::vector<char> buf(64);
  try {
    f.read_at(0, buf.data(), 64);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_EQ(e.retries(), 2u);
  }
  const auto io = rec.snapshot();
  EXPECT_EQ(io.retries, 2u);
  EXPECT_EQ(io.gave_up, 1u);
}

TEST_F(EdgeFileFault, FatalInjectionSkipsRetries) {
  fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fatal = true;
  fault_injector inj(cfg);
  telemetry::io_recorder rec;
  edge_file f(path_);
  f.set_retry_policy(fast_retry(8));
  f.set_fault_injector(&inj);
  f.set_recorder(&rec);

  char b = 0;
  try {
    f.read_at(0, &b, 1);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_EQ(e.retries(), 0u);  // fatal means no budget burned
  }
  EXPECT_EQ(rec.snapshot().retries, 0u);
  EXPECT_EQ(rec.snapshot().gave_up, 1u);
}

TEST_F(EdgeFileFault, ShortReadsStillAssembleTheFullBuffer) {
  fault_config cfg;
  cfg.p_short = 1.0;
  cfg.seed = 11;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_fault_injector(&inj);

  std::vector<char> buf(1024);
  f.read_at(512, buf.data(), 1024);
  EXPECT_EQ(std::memcmp(buf.data(), payload_.data() + 512, 1024), 0);
  EXPECT_GT(inj.counters().shorts, 0u);
}

TEST_F(EdgeFileFault, BadSectorRangeExhaustsBudgetOnlyThere) {
  fault_config cfg;
  cfg.bad_begin = 1024;
  cfg.bad_end = 2048;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_retry_policy(fast_retry(2));
  f.set_fault_injector(&inj);

  std::vector<char> buf(512);
  f.read_at(0, buf.data(), 512);  // clean region unaffected
  EXPECT_EQ(std::memcmp(buf.data(), payload_.data(), 512), 0);
  EXPECT_THROW(f.read_at(1024, buf.data(), 512), io_error);
  f.read_at(2048, buf.data(), 512);  // past the range: clean again
  EXPECT_EQ(std::memcmp(buf.data(), payload_.data() + 2048, 512), 0);
}

TEST_F(EdgeFileFault, ZeroRetryPolicyRestoresFailFast) {
  fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fail_attempts = 1;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_retry_policy(fast_retry(0));
  f.set_fault_injector(&inj);
  char b = 0;
  try {
    f.read_at(0, &b, 1);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    EXPECT_EQ(e.retries(), 0u);
  }
}

TEST_F(EdgeFileFault, MoveCarriesInjectorAndPolicy) {
  fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fail_attempts = 1;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_retry_policy(fast_retry(4));
  f.set_fault_injector(&inj);
  edge_file moved(std::move(f));
  EXPECT_EQ(moved.injector(), &inj);
  EXPECT_EQ(moved.retry_policy().max_retries, 4u);
  char b = 0;
  moved.read_at(0, &b, 1);  // retried through the moved-to file
  EXPECT_GT(inj.counters().errors, 0u);
}

TEST_F(EdgeFileFault, GiveUpMessageCarriesOffsetAndRequestGeometry) {
  // Regression: short-read/give-up messages once said only "N bytes
  // failed"; debugging a failed read needs the failing position AND the
  // original request range.
  fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fail_attempts = 10;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_retry_policy(fast_retry(1));
  f.set_fault_injector(&inj);
  std::vector<char> buf(512);
  try {
    f.read_at(1024, buf.data(), 512);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at offset 1024"), std::string::npos) << what;
    EXPECT_NE(what.find("(request [1024, +512))"), std::string::npos) << what;
    EXPECT_NE(what.find(path_), std::string::npos) << what;
  }
}

TEST_F(EdgeFileFault, FileShrankMidReadReportsTheFailingPosition) {
  edge_file f(path_);
  // Shrink the file under the open descriptor: the bounds check passed at
  // the original size, so pread hits EOF mid-request — a permanent failure
  // whose message must pinpoint where the data ran out.
  std::filesystem::resize_file(path_, 2048);
  std::vector<char> buf(1024);
  try {
    f.read_at(1536, buf.data(), 1024);
    FAIL() << "expected io_error";
  } catch (const io_error& e) {
    const std::string what = e.what();
    // 512 bytes arrive before EOF: the failing position is 1536 + 512.
    EXPECT_NE(what.find("at offset 2048"), std::string::npos) << what;
    EXPECT_NE(what.find("(request [1536, +1024))"), std::string::npos)
        << what;
    EXPECT_EQ(e.offset(), 1536u);
    EXPECT_EQ(e.bytes(), 1024u);
  }
}

// ---- stall mode (docs/robustness.md) ------------------------------------

TEST_F(EdgeFileFault, StalledReadBlocksUntilStallsAreReleased) {
  fault_config cfg;
  cfg.p_stall = 1.0;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_fault_injector(&inj);

  std::atomic<bool> done{false};
  std::vector<char> buf(512);
  std::thread reader([&] {
    f.read_at(0, buf.data(), 512);
    done.store(true, std::memory_order_release);
  });
  // The read must be wedged, not failing: give it time to prove it.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  inj.release_stalls();
  reader.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  // The stalled read still delivered the right bytes once released.
  EXPECT_EQ(std::memcmp(buf.data(), payload_.data(), 512), 0);
  EXPECT_EQ(inj.counters().stalls, 1u);
}

TEST_F(EdgeFileFault, StalledReadUnwindsAtTheAmbientAbortHint) {
  fault_config cfg;
  cfg.p_stall = 1.0;
  fault_injector inj(cfg);
  edge_file f(path_);
  f.set_fault_injector(&inj);

  // The reading thread carries a job's ambient attribution — exactly how a
  // pool worker blocked in a stalled pread sees the watchdog's cancel.
  telemetry::metric_scope scope(1, "stall-test", 1);
  std::atomic<bool> cancelled{false};
  std::thread reader([&] {
    telemetry::metric_scope::attribution attr(&scope, 0);
    char b = 0;
    try {
      f.read_at(0, &b, 1);
    } catch (const operation_cancelled&) {
      cancelled.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(cancelled.load(std::memory_order_acquire));
  scope.request_abort(
      static_cast<std::uint32_t>(abort_reason::deadline_exceeded));
  reader.join();
  EXPECT_TRUE(cancelled.load(std::memory_order_acquire))
      << "the stall loop must poll the scope hint and unwind cooperatively";
}

TEST(IoRetryPolicy, BackoffGrowsGeometricallyAndCaps) {
  io_retry_policy p;
  p.backoff_initial_us = 50;
  p.backoff_multiplier = 2.0;
  p.backoff_max_us = 300;
  EXPECT_DOUBLE_EQ(p.backoff_us(1), 50.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(2), 100.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(3), 200.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(4), 300.0);   // capped
  EXPECT_DOUBLE_EQ(p.backoff_us(40), 300.0);  // stays capped, no overflow
}

TEST(IoRetryPolicy, ValidateRejectsBadKnobs) {
  io_retry_policy shrink;
  shrink.backoff_multiplier = 0.5;
  EXPECT_THROW(shrink.validate(), std::invalid_argument);
  io_retry_policy jitter;
  jitter.jitter = 1.5;
  EXPECT_THROW(jitter.validate(), std::invalid_argument);
}

TEST(IoErrorClassification, TransientVsFatal) {
  EXPECT_TRUE(is_transient_errno(EIO));
  EXPECT_TRUE(is_transient_errno(EAGAIN));
  EXPECT_TRUE(is_transient_errno(EINTR));
  EXPECT_TRUE(is_transient_errno(EBUSY));
  EXPECT_TRUE(is_transient_errno(ETIMEDOUT));
  EXPECT_FALSE(is_transient_errno(EBADF));
  EXPECT_FALSE(is_transient_errno(EINVAL));
  EXPECT_FALSE(is_transient_errno(EFAULT));
  EXPECT_FALSE(is_transient_errno(0));
}

}  // namespace
}  // namespace asyncgt::sem
