// Persistent worker pool for the traversal service (docs/service_api.md).
//
// The paper's engine oversubscribes aggressively — up to 512 threads on 16
// cores — but the seed spawned and joined that whole complement for every
// single traversal. A production service answering a stream of queries pays
// that thread-lifecycle cost (plus cold stacks and cold scheduler state) per
// query. This pool inverts the lifecycle: threads are spawned once, parked
// on a condition variable between jobs, and a traversal run becomes an
// acquire/release of `num_threads` pooled workers instead of a spawn/join.
//
// Scheduling model: a *gang* is a block of `count` work items body(0),
// body(1), ..., body(count-1) — one item per traversal worker lane. Gangs
// are dispatched strictly FIFO at item granularity: no item of gang k+1
// starts before every item of gang k has started. Combined with
// `ensure_threads(count)` at submit time (the pool always holds at least as
// many threads as the widest gang), this guarantees progress for gangs whose
// items block on each other — a traversal worker parked on its mailbox
// waiting for a sibling lane can rely on that sibling's item being
// dispatched before any younger job's items. Multiple gangs run
// concurrently whenever the pool has threads to spare; when it does not,
// they serialize in submission order. This FIFO block dispatch *is* the
// service's job scheduler.
//
// The pool knows nothing about visitors, queues, or telemetry sinks — it
// sits below the queue layer (traversal_engine dispatches every run's worker
// bodies here, and hybrid jobs their bottom-up sweeps) and above nothing. The
// lifetime spawn counter (`threads_spawned`) is what the service layer
// exports as the `service.pool.spawned_threads` metric: a warm pool serving
// back-to-back equal-width jobs must show the counter frozen at the pool
// width.
//
// Shutdown drains: the destructor stops accepting submissions, lets the
// workers finish every already-queued gang (undispatched items of a live
// gang must still run or sibling lanes would park forever), then joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace asyncgt::service {

class worker_pool {
 public:
  /// One submitted block of work items. Created by submit(); opaque to
  /// callers except as a ticket for wait().
  class gang {
   public:
    gang() = default;
    gang(const gang&) = delete;
    gang& operator=(const gang&) = delete;

   private:
    friend class worker_pool;
    std::function<void(std::size_t)> body;  // invoked concurrently per slot
    std::function<void()> on_complete;      // run once, by the last finisher
    std::size_t count = 0;
    std::size_t next = 0;    // next slot to dispatch      (guarded by mu_)
    std::size_t active = 0;  // dispatched, not finished   (guarded by mu_)
    bool done = false;       // on_complete ran            (guarded by mu_)
  };
  using ticket = std::shared_ptr<gang>;

  /// `initial_threads` pre-warms the pool; submit() grows it on demand, so
  /// 0 is a valid start for callers that do not know their widest job yet.
  /// Pre-size to the widest expected job to guarantee zero spawns at
  /// submit time (the warm-engine property the service tests assert).
  explicit worker_pool(std::size_t initial_threads = 0) {
    ensure_threads(initial_threads);
  }

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  ~worker_pool() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Enqueues a gang of `count` items as one contiguous FIFO block and
  /// returns immediately. `body(slot)` is invoked once per slot in
  /// [0, count), concurrently from up to `count` pool threads — the callable
  /// is shared, so it must be safe to invoke concurrently (the traversal
  /// engine's worker bodies are, by construction: each slot touches only its
  /// own lane). `on_complete`, if given, runs exactly once on the pool
  /// thread that finishes the gang's last item, before wait() returns.
  ///
  /// Grows the pool to at least `count` threads first — the FIFO progress
  /// guarantee (header comment) requires it.
  ticket submit(std::size_t count, std::function<void(std::size_t)> body,
                std::function<void()> on_complete = nullptr) {
    if (count == 0) {
      throw std::invalid_argument("worker_pool: gang needs at least one slot");
    }
    ensure_threads(count);
    auto g = std::make_shared<gang>();
    g->body = std::move(body);
    g->on_complete = std::move(on_complete);
    g->count = count;
    {
      std::lock_guard lk(mu_);
      if (stop_) {
        throw std::runtime_error("worker_pool: submit after shutdown");
      }
      queue_.push_back(g);
    }
    work_cv_.notify_all();
    return g;
  }

  /// Blocks until the gang's every item finished and its on_complete (if
  /// any) returned.
  void wait(const ticket& t) {
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [&] { return t->done; });
  }

  /// Grows the pool to at least `n` threads (never shrinks). Each growth
  /// increments the lifetime spawn counter — a warm pool shows this frozen.
  void ensure_threads(std::size_t n) {
    std::lock_guard lk(mu_);
    if (stop_) {
      throw std::runtime_error("worker_pool: ensure_threads after shutdown");
    }
    while (threads_.size() < n) {
      threads_.emplace_back([this] { worker_main(); });
      spawned_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return threads_.size();
  }

  /// Lifetime count of OS threads this pool ever spawned. The service layer
  /// exports this as the `service.pool.spawned_threads` gauge; the
  /// warm-engine acceptance test pins it across back-to-back jobs.
  std::uint64_t threads_spawned() const noexcept {
    return spawned_.load(std::memory_order_relaxed);
  }

  /// Lifetime count of completed gangs (≈ traversal runs served).
  std::uint64_t gangs_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Gangs with undispatched items still queued (instantaneous). The
  /// overload tests use gangs_completed()/queued_gangs() to assert no gang
  /// leaked: a drained engine must show zero queued gangs.
  std::size_t queued_gangs() const {
    std::lock_guard lk(mu_);
    return queue_.size();
  }

 private:
  void worker_main() {
    std::unique_lock lk(mu_);
    for (;;) {
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      // FIFO block dispatch: always the oldest gang with undispatched
      // items — it sits at the front because fully-dispatched gangs are
      // popped eagerly.
      ticket g = queue_.front();
      const std::size_t slot = g->next++;
      ++g->active;
      if (g->next == g->count) queue_.pop_front();
      lk.unlock();
      g->body(slot);
      lk.lock();
      --g->active;
      if (g->next == g->count && g->active == 0) {
        // Last item of the gang: completion runs outside the lock (it may
        // finalize stats, fulfill a promise, take the failure latch), then
        // the done broadcast under the lock so wait()'s predicate cannot
        // miss it.
        lk.unlock();
        if (g->on_complete) g->on_complete();
        lk.lock();
        g->done = true;
        completed_.fetch_add(1, std::memory_order_relaxed);
        done_cv_.notify_all();
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers park here between gangs
  std::condition_variable done_cv_;  // wait() parks here
  std::deque<ticket> queue_;         // gangs with undispatched items, FIFO
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> completed_{0};
};

}  // namespace asyncgt::service
