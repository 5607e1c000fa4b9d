#include "sem/io_backend.hpp"

#include <algorithm>
#include <cstring>

namespace asyncgt::sem {

namespace {

constexpr auto relaxed = std::memory_order_relaxed;

/// Small dense process-wide thread index: lanes live in flat tables instead
/// of hash maps keyed by std::thread::id, and the index stays valid for the
/// life of the thread regardless of how many instances it touches.
std::uint32_t this_thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx = next.fetch_add(1, relaxed);
  return idx;
}

}  // namespace

io_backend::io_backend(const edge_file& file, std::uint64_t block_bytes)
    : file_(&file), block_bytes_(block_bytes) {}

io_backend::~io_backend() {
  for (auto& slot : chunks_) delete slot.load(relaxed);
}

io_backend_counters io_backend::counters() const noexcept {
  io_backend_counters c;
  c.requests = requests_.load(relaxed);
  c.batches = batches_.load(relaxed);
  c.bytes_issued = bytes_issued_.load(relaxed);
  c.window_hits = hits_.load(relaxed);
  c.fallbacks = fallbacks_.load(relaxed);
  return c;
}

io_backend::lane& io_backend::my_lane() {
  const std::uint32_t idx = this_thread_index();
  if (idx < kChunks * kChunkSize) {
    auto& slot = chunks_[idx / kChunkSize];
    chunk* c = slot.load(std::memory_order_acquire);
    if (c == nullptr) {
      auto* fresh = new chunk();
      if (slot.compare_exchange_strong(c, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        c = fresh;
      } else {
        delete fresh;  // lost the race; c now holds the winner
      }
    }
    return c->lanes[idx % kChunkSize];
  }
  std::lock_guard lk(overflow_mu_);
  auto& slot = overflow_[idx];
  if (slot == nullptr) slot = std::make_unique<lane>();
  return *slot;
}

void io_backend::issue(std::uint64_t offset, void* dst, std::uint64_t bytes) {
  telemetry::io_recorder* rec = file_->recorder();
  if (rec == nullptr) {
    file_->read_at(offset, dst, bytes);
  } else {
    rec->inflight_begin();
    try {
      file_->read_at(offset, dst, bytes);
    } catch (...) {
      rec->inflight_end();
      throw;
    }
    rec->inflight_end();
    rec->record_batch();
  }
  batches_.fetch_add(1, relaxed);
  bytes_issued_.fetch_add(bytes, relaxed);
}

void io_backend::read(const io_request& req) {
  requests_.fetch_add(1, relaxed);
  if (req.bytes == 0) return;
  window& w = my_lane().win[req.stream == 0 ? 0 : 1];
  if (req.offset >= w.off && req.offset - w.off < w.len &&
      req.bytes <= w.len - (req.offset - w.off)) {
    std::memcpy(req.dst, w.buf.data() + (req.offset - w.off),
                static_cast<std::size_t>(req.bytes));
    hits_.fetch_add(1, relaxed);
    if (auto* rec = file_->recorder()) rec->record_coalesced();
    return;
  }

  // The whole blocks covering the request, cut at the end of the file but
  // never short of the request (an out-of-range request then gets
  // edge_file's own range error from the exact read below).
  const std::uint64_t bb = block_bytes_;
  const std::uint64_t end = req.offset + req.bytes;
  const std::uint64_t start = req.offset / bb * bb;
  const std::uint64_t tail =
      std::max(std::min((end + bb - 1) / bb * bb, file_->size()), end);
  w.len = 0;  // invalid while refilling
  if (w.buf.size() < tail - start) {
    w.buf.resize(static_cast<std::size_t>(tail - start));
  }
  try {
    issue(start, w.buf.data(), tail - start);
  } catch (const io_error&) {
    // The window failed for good: read exactly the request, so only its own
    // bytes decide whether it fails. A window that is the request already
    // failed on exactly those bytes.
    if (start == req.offset && tail == end) throw;
    fallbacks_.fetch_add(1, relaxed);
    issue(req.offset, req.dst, req.bytes);
    return;
  }
  w.off = start;
  w.len = tail - start;
  std::memcpy(req.dst, w.buf.data() + (req.offset - start),
              static_cast<std::size_t>(req.bytes));
}

}  // namespace asyncgt::sem
