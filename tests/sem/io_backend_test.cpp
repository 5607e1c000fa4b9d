// Unit coverage for the SEM host read path (sem::io_backend): the
// per-thread block window (hits, refills, requests spanning blocks, the end
// of the file, one window per stream), its counters, its fault handling
// (a transient fault is retried, a permanent one fails only the requests
// that overlap it), and that a reopened graph never serves an old window.
// The traversal-level identity properties live in backend_identity_test.cpp.
#include "sem/io_backend.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph_io.hpp"
#include "sem/edge_file.hpp"
#include "sem/fault_injector.hpp"
#include "sem/sem_csr.hpp"

namespace asyncgt::sem {
namespace {

class IoBackend : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kFileBytes = 64 * 1024;
  static constexpr std::uint64_t kBlock = 4096;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_iob_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "data.bin").string();
    payload_.resize(kFileBytes);
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

  void expect_payload(const std::vector<char>& buf, std::uint64_t off,
                      std::uint64_t len = 0) {
    if (len == 0) len = buf.size();
    ASSERT_LE(off + len, payload_.size());
    EXPECT_EQ(std::memcmp(buf.data(), payload_.data() + off, len), 0)
        << "offset " << off;
  }

  static io_retry_policy fast_retry(std::uint32_t max_retries) {
    io_retry_policy p;
    p.max_retries = max_retries;
    p.backoff_initial_us = 1;
    p.backoff_max_us = 5;
    return p;
  }

  std::filesystem::path dir_;
  std::string path_;
  std::vector<char> payload_;
};

TEST_F(IoBackend, ZeroByteReadIsANoOp) {
  edge_file f(path_);
  io_backend b(f, kBlock);
  b.read({0, 0, nullptr, 0});
  EXPECT_EQ(b.counters().requests, 1u);
  EXPECT_EQ(b.counters().batches, 0u);
}

TEST_F(IoBackend, CoalescingWindowTurnsSequentialReadsIntoMemcpys) {
  edge_file f(path_);
  io_backend b(f, kBlock);
  std::vector<char> buf(64);
  const std::uint64_t n = kFileBytes / 64;
  for (std::uint64_t i = 0; i < n; ++i) {
    b.read({i * 64, 64, buf.data(), 0});
    expect_payload(buf, i * 64);
  }
  const auto c = b.counters();
  EXPECT_EQ(c.requests, n);
  // 64 KiB of 64-byte reads over one-block windows: one pread per block,
  // 64x fewer preads than requests.
  EXPECT_EQ(c.batches, kFileBytes / kBlock);
  EXPECT_EQ(c.window_hits, n - kFileBytes / kBlock);
  EXPECT_EQ(c.bytes_issued, kFileBytes);
  EXPECT_EQ(c.fallbacks, 0u);
}

TEST_F(IoBackend, CoalescingServesBackwardJumpsWithinTheWindow) {
  edge_file f(path_);
  io_backend b(f, kBlock);
  std::vector<char> buf(128);
  b.read({4096 + 1024, 128, buf.data(), 0});  // window [4096, 8192)
  expect_payload(buf, 4096 + 1024);
  b.read({4096 + 3000, 128, buf.data(), 0});
  expect_payload(buf, 4096 + 3000);
  b.read({4096, 100, buf.data(), 0});  // before the first read
  expect_payload(buf, 4096, 100);
  EXPECT_EQ(b.counters().batches, 1u);
  EXPECT_EQ(b.counters().window_hits, 2u);
}

TEST_F(IoBackend, CoalescingRejectsRequestsPastTheWindow) {
  edge_file f(path_);
  io_backend b(f, kBlock);
  std::vector<char> buf(256);
  b.read({0, 256, buf.data(), 0});  // window [0, 4096)
  expect_payload(buf, 0);
  // Starts beyond the window end: must refill, not memcpy stale bytes
  // (regression: an unsigned-underflow containment check once accepted
  // these and read past the window buffer).
  b.read({3 * 4096, 256, buf.data(), 0});
  expect_payload(buf, 3 * 4096);
  b.read({8192 - 4, 256, buf.data(), 0});  // straddles a block end
  expect_payload(buf, 8192 - 4);
  EXPECT_EQ(b.counters().window_hits, 0u);
  EXPECT_EQ(b.counters().batches, 3u);
}

TEST_F(IoBackend, ReadSpanningTwoBlocksPreadsBoth) {
  edge_file f(path_);
  io_backend b(f, kBlock);
  std::vector<char> buf(200);
  b.read({4096 - 100, 200, buf.data(), 0});
  expect_payload(buf, 4096 - 100);
  EXPECT_EQ(b.counters().batches, 1u);
  EXPECT_EQ(b.counters().bytes_issued, 2 * kBlock);
  // Both blocks are now in the window.
  b.read({10, 100, buf.data(), 0});
  expect_payload(buf, 10, 100);
  b.read({8192 - 150, 150, buf.data(), 0});
  expect_payload(buf, 8192 - 150, 150);
  EXPECT_EQ(b.counters().batches, 1u);
  EXPECT_EQ(b.counters().window_hits, 2u);
}

TEST_F(IoBackend, WindowStopsAtTheEndOfTheFile) {
  edge_file f(path_);
  // 3000-byte blocks do not divide the 64 KiB file: the last block is cut.
  io_backend b(f, 3000);
  std::vector<char> buf(100);
  b.read({kFileBytes - 100, 100, buf.data(), 0});
  expect_payload(buf, kFileBytes - 100);
  EXPECT_EQ(b.counters().bytes_issued, kFileBytes - kFileBytes / 3000 * 3000);
  // A request past the end is an error, whatever the window.
  EXPECT_THROW(b.read({kFileBytes - 50, 100, buf.data(), 0}), io_error);
}

TEST_F(IoBackend, EachStreamKeepsItsOwnWindow) {
  edge_file f(path_);
  io_backend b(f, kBlock);
  std::vector<char> buf(64);
  // Alternating target (stream 0) and weight (stream 1) reads far apart in
  // the file: each stream keeps refilling only its own window.
  for (std::uint64_t i = 0; i < 8; ++i) {
    b.read({i * 64, 64, buf.data(), 0});
    expect_payload(buf, i * 64);
    b.read({32768 + i * 64, 64, buf.data(), 1});
    expect_payload(buf, 32768 + i * 64);
  }
  EXPECT_EQ(b.counters().batches, 2u);
  EXPECT_EQ(b.counters().window_hits, 14u);
}

TEST_F(IoBackend, TransientFaultsInsideAMergedBatchAreInvisible) {
  fault_config fc;
  fc.p_eio = 1.0;  // every window pread faults once, then succeeds
  fc.fail_attempts = 1;
  fault_injector inj(fc);
  edge_file f(path_);
  f.set_retry_policy(fast_retry(3));
  f.set_fault_injector(&inj);

  io_backend b(f, kBlock);
  std::vector<char> buf(1024);
  for (std::uint64_t off = 0; off < 4 * kBlock; off += 1024) {
    b.read({off, 1024, buf.data(), 0});
    expect_payload(buf, off);
  }
  const auto c = b.counters();
  EXPECT_EQ(c.batches, 4u);
  EXPECT_EQ(c.fallbacks, 0u);
  // One fault plan per pread, and every pread drew a fault.
  EXPECT_EQ(inj.counters().ops, c.batches);
  EXPECT_EQ(inj.counters().errors, c.batches);
}

TEST_F(IoBackend, TornBatchIsolatesThePermanentlyBadSlice) {
  // Block 2 holds four 1 KiB requests; only the second sits on a
  // permanently bad sector range. The block's window pread fails, and each
  // request falls back to reading exactly its own bytes: three succeed and
  // the bad one fails with its own byte range.
  fault_config fc;
  fc.bad_begin = 2 * kBlock + 1024;
  fc.bad_end = 2 * kBlock + 2048;
  fault_injector inj(fc);
  edge_file f(path_);
  f.set_retry_policy(fast_retry(1));
  f.set_fault_injector(&inj);

  io_backend b(f, kBlock);
  std::vector<std::vector<char>> bufs(4, std::vector<char>(1024));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t off = 2 * kBlock + i * 1024;
    if (i != 1) {
      b.read({off, 1024, bufs[i].data(), 0});
      expect_payload(bufs[i], off);
      continue;
    }
    try {
      b.read({off, 1024, bufs[i].data(), 0});
      FAIL() << "expected io_error from the bad slice";
    } catch (const io_error& e) {
      EXPECT_EQ(e.offset(), off);
      EXPECT_EQ(e.bytes(), 1024u);
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(off)), std::string::npos) << what;
    }
  }
  const auto c = b.counters();
  EXPECT_EQ(c.fallbacks, 4u);
  EXPECT_EQ(c.batches, 3u);  // the three healthy exact reads
  EXPECT_EQ(c.window_hits, 0u);
}

TEST_F(IoBackend, ReopenedGraphNeverGetsTheOldWindowsBytes) {
  // Two graphs with the same shape and different targets, written in turn
  // to one path. The second graph is opened in the same storage, on the
  // same thread, after the first one read the same adjacency: it must read
  // its own file, not a window left behind by the first.
  const std::string path = (dir_ / "g.agt").string();
  const auto make = [](vertex32 shift) {
    std::vector<edge<vertex32>> edges;
    for (vertex32 v = 0; v < 64; ++v) {
      for (vertex32 k = 1; k <= 4; ++k) {
        edges.push_back({v, static_cast<vertex32>((v + k + shift) % 64), 1});
      }
    }
    return build_csr<vertex32>(64, edges);
  };
  const auto neighbours = [](const sem_csr32& g, vertex32 v) {
    std::vector<vertex32> out;
    g.for_each_out_edge(v, [&](vertex32 t, weight_t) { out.push_back(t); });
    return out;
  };
  std::optional<sem_csr32> g;
  for (const vertex32 shift : {0u, 7u, 0u}) {
    const csr32 mem = make(shift);
    write_graph(path, mem);
    g.emplace(path);
    for (const vertex32 v : {0u, 1u, 33u}) {
      std::vector<vertex32> want;
      mem.for_each_out_edge(v, [&](vertex32 t, weight_t) { want.push_back(t); });
      EXPECT_EQ(neighbours(*g, v), want) << "shift=" << shift << " v=" << v;
    }
    EXPECT_GT(g->backend().counters().window_hits, 0u);
    g.reset();
  }
}

}  // namespace
}  // namespace asyncgt::sem
