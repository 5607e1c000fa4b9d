// The layered traversal engine: routing + ordering + mailbox + termination
// composed into the worker loop and a single run driver.
//
// This is the machinery behind visitor_queue (the public facade keeps the
// paper-facing documentation; see also docs/visitor_queue.md). The engine is
// templated on the ordering policy so the hot loop is monomorphic — the
// facade picks one of three instantiations at construction time from the
// runtime `queue_order` config.
//
// Data flow per worker ("lane"):
//
//   visit() ── push ──▶ outbox[dest] (thread-local, lock-free append)
//                          │ batch of flush_batch, or flush-on-idle
//                          ▼ reserve(m) then mailbox[dest].deliver (mutex)
//                       inbox slab ── drain (swap under mutex) ──▶
//                       private ordering structure ── try_pop (no lock) ──▶
//                       visit() ...
//
// A visitor that defines `bool pre_visit(State&) const` claims its label on
// arrival: drain() calls it on the owner lane for each visitor it moves from
// the slab into the ordering structure, and a visitor that returns false is
// retired there — counted as a visit and a completion, never queued. Visitors
// without the hook are queued unconditionally (concept detection below).
//
// Reads ahead. When the visitor can tell whether a visit will expand
// (`bool live(State&) const`) and the state's graph books device reads
// without waiting for them (sem_csr::charge_ahead), a lane does not sleep in
// the device for each popped visitor. It books the visitor's adjacency read,
// parks the visitor in a small per-lane pending set and pops the next one;
// a visitor whose blocks hit the cache is visited at once. Once the set
// holds depth = ceil(2 x device channels / lanes) visitors, or the lane has
// nothing else to pop, it sleeps until the earliest read completes and
// visits that visitor. Two reads per channel keep each channel busy through
// the lag between a read completing and its lane noticing; the total stays
// about 2 x channels however many lanes run. A pending visitor is in-flight
// work: the lane never flushes, commits or parks while it holds one, and an
// abort ends its reads. Other visitors and in-memory graphs compile to the
// plain loop.
//
// Compared to the seed's monolith, a visitor crossing threads costs
// 1/flush_batch mutex acquisitions and 1/flush_batch termination-counter
// updates instead of one of each, and popping the local best visitor takes
// no lock at all. Termination stays exact through the reserve-then-deliver
// / flush-before-commit discipline proved in termination.hpp.
//
// Failure containment. Every worker body runs under a catch-all: the first
// exception (an io_error from a SEM read, a bad_alloc, a throwing visitor)
// is latched with its thread/vertex context, the termination layer's abort
// flag is raised and broadcast through the parking protocol (wake_all), so
// every worker — including ones asleep on their mailbox — unwinds promptly.
// When the gang finishes, the engine resets all queue state (mailbox slabs,
// private ordering structures, outboxes, the in-flight counter) and hands
// the latched error to the completion callback as traversal_aborted. The
// queue is reusable afterwards, and the algorithm state the visitors were
// mutating is quiescent and internally consistent (per-vertex entries are
// only ever written by their owner, and every owner has finished).
// Cooperative cancellation (request_cancel, used by the service layer's job
// handles) rides the same abort broadcast and containment machinery.
//
// Execution substrate. A run is one gang of `num_threads` items on a
// service::worker_pool (parked, reused threads): run_async/run_seeded_async
// return at once and deliver the stats or the failure to a completion
// callback on the pool thread that finishes the gang. The blocking
// visitor_queue::run/run_seeded are waits over these entry points.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "queue/mailbox.hpp"
#include "queue/ordering_policy.hpp"
#include "queue/queue_config.hpp"
#include "queue/queue_stats.hpp"
#include "queue/routing_policy.hpp"
#include "queue/termination.hpp"
#include "queue/traversal_abort.hpp"
#include "service/worker_pool.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/cache_line.hpp"
#include "util/timer.hpp"

namespace asyncgt::detail {

/// Visitors that claim their label when their owner drains them from the
/// mailbox (see drain()); false means the arrival is already dominated.
template <typename Visitor, typename State>
concept claims_on_arrival = requires(const Visitor& v, State& s) {
  { v.pre_visit(s) } -> std::convertible_to<bool>;
};

/// Visitors that can tell before their visit whether it will expand:
/// live(state) is the visit's own superseded-claim test.
template <typename Visitor, typename State>
concept knows_liveness = requires(const Visitor& v, State& s) {
  { v.live(s) } -> std::convertible_to<bool>;
};

/// Graphs, reached through the state's `g`, that book a vertex's device
/// reads without waiting for them (sem::sem_csr::charge_ahead).
template <typename State, typename VertexId>
concept charges_ahead = requires(State& s, VertexId v) {
  { s.g->charge_ahead(v).ready };
  { s.g->charge_ahead(v).reads };
  s.g->end_charge(s.g->charge_ahead(v));
  s.g->drop_charge_marks();
  { s.g->io_channels() } -> std::convertible_to<std::size_t>;
};

template <typename State, typename VertexId>
struct charge_ticket_of {
  using type = std::monostate;  // unused: no reads ahead
};
template <typename State, typename VertexId>
  requires charges_ahead<State, VertexId>
struct charge_ticket_of<State, VertexId> {
  using type = decltype(std::declval<State&>().g->charge_ahead(
      std::declval<VertexId>()));
};

template <typename Visitor, typename State, typename Ordering>
class traversal_engine {
 public:
  using vertex_id = decltype(std::declval<const Visitor&>().vertex());
  static constexpr bool reads_ahead =
      knows_liveness<Visitor, State> && charges_ahead<State, vertex_id>;
  /// A traced worker records a span for 1 visit in this many (tracing every
  /// visit on large graphs produces multi-GB traces).
  static constexpr std::uint32_t trace_sample_every = 64;

  explicit traversal_engine(const visitor_queue_config& cfg)
      : cfg_(cfg),
        route_(cfg),
        boxes_(cfg.num_threads),
        lanes_(cfg.num_threads) {
    for (auto& ln : lanes_) {
      ln.local.configure(cfg);
      ln.outbox.resize(cfg.num_threads);
    }
  }

  traversal_engine(const traversal_engine&) = delete;
  traversal_engine& operator=(const traversal_engine&) = delete;

  /// External (non-worker) enqueue: callable between runs. Counts as
  /// one push and one flush — there is no outbox to amortize through.
  void push_external(Visitor&& v) {
    term_.reserve(1);
    ext_pushes_.fetch_add(1, std::memory_order_relaxed);
    ext_flushes_.fetch_add(1, std::memory_order_relaxed);
    boxes_[route_(v.vertex())].deliver_one(std::move(v));
  }

  /// Runs until quiescent over whatever was pushed externally: dispatches
  /// the workers as one gang on `pool` and returns immediately.
  /// `done(stats, error)` runs exactly once, on the pool thread that
  /// finishes the gang (or inline here for an empty frontier): error is
  /// null on a clean run, otherwise a traversal_aborted exception_ptr
  /// carrying the first worker failure or the cancel reason — stats are
  /// the post-reset zeros in that case, and the engine is reusable. The
  /// caller must keep `state` and this engine alive until `done` has been
  /// invoked.
  template <typename Done>
  void run_async(service::worker_pool& pool, State& state, Done done) {
    wall_timer timer;
    arm();
    if (term_.pending() == 0 && !term_.abort_requested()) {
      finish_async(timer, done);
      return;
    }
    dispatch_async(pool, state, [](std::size_t) {}, std::move(done), timer);
  }

  /// Seeded run: one visitor per vertex in [0, num_vertices) (CC, paper
  /// Algorithm 3: "for all v in g.vertex_list() parallel do push"). All
  /// num_vertices visitors are pre-accounted in the termination counter
  /// before any worker starts, so a fast worker cannot drive the counter to
  /// zero while another worker is still seeding its slice. Each worker
  /// seeds the contiguous slice [t*n/T, (t+1)*n/T) — through its own outbox
  /// buffers, so seeding enjoys the same batched delivery — and then joins
  /// processing. See run_async for the completion contract.
  ///
  /// `make_visitor` is copied into the gang and invoked as const from all
  /// workers concurrently; it must be const-callable and thread-safe (a
  /// mutable functor is rejected at compile time rather than racing
  /// silently).
  template <typename MakeVisitor, typename Done>
  void run_seeded_async(service::worker_pool& pool, State& state,
                        std::uint64_t num_vertices, MakeVisitor make_visitor,
                        Done done) {
    wall_timer timer;
    term_.reserve(static_cast<std::int64_t>(num_vertices));
    arm();
    // Visitors pushed before the run count too: with no per-vertex seeds
    // this is run_async.
    if (term_.pending() == 0 && !term_.abort_requested()) {
      finish_async(timer, done);
      return;
    }
    auto make = std::make_shared<const MakeVisitor>(std::move(make_visitor));
    dispatch_async(
        pool, state,
        [this, make, num_vertices](std::size_t t) {
          seed_slice(*make, num_vertices, t);
        },
        std::move(done), timer);
  }

  /// Cooperative cancellation: raises the abort flag and wakes every parked
  /// worker, exactly as a worker failure would, so the run unwinds promptly
  /// and surfaces as traversal_aborted carrying `reason` ("cancelled" by
  /// default; the service watchdog passes deadline_exceeded/stalled and the
  /// load shedder passes shed) when no worker actually failed. Callable from
  /// any thread, before or during a run; a cancel raised before the next run
  /// aborts that run at its first abort check. The reason is latched
  /// first-wins: a user cancel() arriving after a watchdog deadline fire
  /// does not rewrite the reported reason.
  void request_cancel(abort_reason reason = abort_reason::cancelled) {
    int expected = 0;
    (void)cancel_reason_.compare_exchange_strong(
        expected, static_cast<int>(reason), std::memory_order_relaxed);
    term_.request_abort();
    wake_all(boxes_);
  }

  std::size_t num_threads() const noexcept { return cfg_.num_threads; }

  /// In-flight visitor count (termination counter); see
  /// termination_detector::pending for the exactness caveat.
  std::int64_t pending() const noexcept { return term_.pending(); }

  /// Snapshot of every per-worker queue length (locks each mailbox
  /// briefly). Intended for sampler probes and tests, not hot paths.
  std::vector<std::size_t> queue_depths() {
    std::vector<std::size_t> out;
    out.reserve(boxes_.size());
    for (auto& b : boxes_) out.push_back(b.depth());
    return out;
  }

 private:
  /// A popped visitor waiting for the device read booked for it.
  struct pending_read {
    Visitor v;
    typename charge_ticket_of<State, vertex_id>::type ticket;
  };

  /// Per-worker private context: the ordering structure, the outbox buffers
  /// (one per destination), the deferred-completion tally, and hot stats —
  /// all touched only by the owning thread during a run.
  struct alignas(cache_line_size) lane {
    Ordering local;                            // private pop structure
    std::vector<std::vector<Visitor>> outbox;  // per-destination buffers
    std::vector<Visitor> scratch;              // drain target (recycled)
    // Reads ahead (see top). Absent from the other instantiations: the
    // extra member alone slowed in-memory BFS by ~10% (lane layout).
    [[no_unique_address]] std::conditional_t<
        reads_ahead, std::vector<pending_read>, std::monostate>
        pending;
    std::uint64_t completed = 0;  // visits not yet committed to the counter
    bool seeding = false;         // outbox contents already pre-accounted
    // Failure context: maintained by the owning thread around each visit and
    // read back by record_failure on that same thread (from the catch in
    // run_worker), so no synchronization is needed.
    std::uint64_t cur_vertex = 0;
    bool visiting = false;
    std::uint64_t visits = 0;
    std::uint64_t pushes = 0;
    std::uint64_t flushes = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t max_len = 0;
  };

  /// The `Queue&` visitors see: pushes route into the owning lane's
  /// outboxes, which is what makes the push path lock- and atomic-free.
  struct lane_handle {
    traversal_engine& eng;
    lane& me;
    void push(Visitor&& v) { eng.lane_push(me, std::move(v)); }
    void push(const Visitor& v) { eng.lane_push(me, Visitor(v)); }
    std::size_t num_threads() const noexcept { return eng.num_threads(); }
  };

  /// Re-arms the termination detector for the next run. reset_done() also
  /// clears the abort flag, so a cancel raised before the run (the service
  /// API allows cancelling a job that has not started yet) must be
  /// re-asserted afterwards or it would be silently swallowed.
  void arm() {
    term_.reset_done();
    if (cancel_reason_.load(std::memory_order_relaxed) != 0) {
      term_.request_abort();
    }
  }

  /// One worker's whole run: per-thread seed hook, worker loop, catch-all
  /// at the boundary — an escaping exception would std::terminate the
  /// pool thread; latch it and unwind everyone instead.
  template <typename SeedSlice>
  void run_worker(State& state, const SeedSlice& seed, std::size_t t) {
    // Ambient per-job attribution: everything this worker does — including
    // I/O recorded deep inside shared components — is charged to the job's
    // scope through TLS for the duration of the body. The first worker in
    // also stamps the job's queue-wait -> run transition.
    telemetry::metric_scope::attribution attr(cfg_.scope, t);
    if (cfg_.scope != nullptr) cfg_.scope->mark_run_start();
    try {
      seed(t);
      worker_loop(state, t);
    } catch (...) {
      record_failure(t, std::current_exception());
    }
    if constexpr (reads_ahead) drop_pending(state, lanes_[t]);
  }

  /// Ends the device reads of the visitors an aborted lane still holds and
  /// forgets this thread's bookings, on the lane's own thread (the bookings
  /// are per thread). A lane that finished cleanly holds none.
  void drop_pending(State& state, lane& me) noexcept {
    for (const pending_read& p : me.pending) state.g->end_charge(p.ticket);
    me.pending.clear();
    state.g->drop_charge_marks();
  }

  /// Seeds the contiguous slice [t*n/T, (t+1)*n/T) through lane t's own
  /// outbox buffers (batched delivery), then returns to join processing.
  template <typename Make>
  void seed_slice(const Make& make, std::uint64_t num_vertices,
                  std::size_t t) {
    lane& me = lanes_[t];
    const std::size_t T = cfg_.num_threads;
    const std::uint64_t lo = num_vertices * t / T;
    const std::uint64_t hi = num_vertices * (t + 1) / T;
    me.seeding = true;  // seeds are pre-accounted: flushes must not reserve
    for (std::uint64_t v = lo; v < hi; ++v) {
      // A failed worker cannot reach quiescence, so a long seeding slice
      // must notice the abort itself (checked at outbox-batch granularity
      // to keep the common path branch-cheap).
      if ((v & 0x3FFu) == 0 && term_.abort_requested()) {
        me.seeding = false;
        return;
      }
      lane_push(me, make(static_cast<vertex_id>(v)));
    }
    flush_all(me);
    me.seeding = false;
  }

  /// Common tail of the async entry points: one gang whose completion hook
  /// collects the failure latch, finalizes stats, and invokes `done`.
  template <typename SeedSlice, typename Done>
  void dispatch_async(service::worker_pool& pool, State& state,
                      SeedSlice seed, Done done, const wall_timer& timer) {
    auto done_fn = std::make_shared<Done>(std::move(done));
    pool.submit(
        cfg_.num_threads,
        [this, &state, seed = std::move(seed)](std::size_t t) {
          run_worker(state, seed, t);
        },
        [this, timer, done_fn] { finish_async(timer, *done_fn); });
  }

  template <typename Done>
  void finish_async(const wall_timer& timer, Done& done) {
    std::exception_ptr error = take_failure();
    done(finalize_stats(timer.elapsed_seconds()), std::move(error));
  }

  void lane_push(lane& me, Visitor&& v) {
    ++me.pushes;
    const std::size_t dest = route_(v.vertex());
    auto& buf = me.outbox[dest];
    buf.push_back(std::move(v));
    // Batch while the destination is busy (amortizes its mailbox mutex),
    // ship immediately while it is starving. Without the starvation bypass,
    // oversubscribed SEM runs lose their latency hiding: visitors sit in
    // the origin's outbox while the origin blocks in I/O, so the threads
    // that should be issuing concurrent preads sleep instead.
    if (buf.size() >= cfg_.flush_batch || starving(dest)) flush_one(me, dest);
  }

  /// Relaxed hint that the destination worker has nothing to work on: no
  /// undrained mail and an empty private structure. Stale reads only cost
  /// an early (or missed-early) flush, never correctness.
  bool starving(std::size_t dest) const noexcept {
    const mailbox<Visitor>& box = boxes_[dest];
    return !box.has_mail.load(std::memory_order_relaxed) &&
           box.local_len.load(std::memory_order_relaxed) == 0;
  }

  /// Delivers one destination's buffered visitors: one batched counter
  /// reservation (reserve-then-deliver; skipped while seeding, which
  /// pre-accounted) and one mailbox mutex acquisition for the whole batch.
  void flush_one(lane& me, std::size_t dest) {
    auto& buf = me.outbox[dest];
    if (buf.empty()) return;
    if (!me.seeding) term_.reserve(static_cast<std::int64_t>(buf.size()));
    boxes_[dest].deliver(buf);
    buf.clear();
    ++me.flushes;
  }

  void flush_all(lane& me) {
    for (std::size_t d = 0; d < me.outbox.size(); ++d) flush_one(me, d);
  }

  /// Merges freshly delivered visitors into the private ordering structure.
  /// A visitor whose pre_visit rejects the arrival is retired here instead:
  /// it is counted as a visit and a completion, so visits == pushes and the
  /// termination ledger balances exactly as if it had popped.
  bool drain(State& state, lane& me, mailbox<Visitor>& inbox) {
    me.scratch.clear();
    if (!inbox.drain(me.scratch)) return false;
    for (auto& v : me.scratch) {
      if constexpr (claims_on_arrival<Visitor, State>) {
        if (!v.pre_visit(state)) {
          retire(me);
          continue;
        }
      }
      me.local.push(std::move(v));
    }
    me.scratch.clear();
    const std::size_t len = me.local.size();
    inbox.local_len.store(len, std::memory_order_relaxed);
    me.max_len = std::max<std::uint64_t>(me.max_len, len);
    return true;
  }

  /// Books one finished visitor: a visit and a completion deferred to the
  /// next commit point.
  static void retire(lane& me) {
    ++me.visits;
    ++me.completed;
  }

  /// Commits the deferred completion tally. Precondition: the lane's
  /// outboxes were flushed (flush-before-commit, see termination.hpp).
  /// Returns true iff this commit detected global quiescence.
  bool commit(lane& me) {
    const auto n = static_cast<std::int64_t>(me.completed);
    me.completed = 0;
    return term_.complete(n);
  }

  void worker_loop(State& state, std::size_t tid) {
    lane& me = lanes_[tid];
    mailbox<Visitor>& inbox = boxes_[tid];
    // Tracing state is resolved once per worker: the hot loop pays one
    // pointer test per visit when tracing is off. Scoped (service) jobs get
    // per-job worker rows — concurrent gangs must never share a
    // trace_stream, which is single-writer (telemetry/span.hpp).
    telemetry::trace_stream* ts = nullptr;
    if (cfg_.trace != nullptr) {
      if (cfg_.scope != nullptr) {
        const std::uint64_t jid = cfg_.scope->job_id();
        ts = &cfg_.trace->stream(
            telemetry::span_track::worker_tid(jid, tid),
            "job-" + std::to_string(jid) + " worker-" + std::to_string(tid));
      } else {
        ts = &cfg_.trace->stream(static_cast<std::uint32_t>(tid) + 1,
                                 "worker-" + std::to_string(tid));
      }
    }
    std::uint32_t until_sample = 1;  // trace the first visit of each worker
    lane_handle handle{*this, me};
    const auto visit_now = [&](const Visitor& x) {
      me.cur_vertex = static_cast<std::uint64_t>(x.vertex());
      me.visiting = true;
      if (ts != nullptr && --until_sample == 0) {
        until_sample = trace_sample_every;
        const std::uint64_t start = ts->now_us();
        x.visit(state, handle, tid);
        ts->complete("visit", start, ts->now_us() - start, "vertex",
                     static_cast<std::uint64_t>(x.vertex()));
      } else {
        x.visit(state, handle, tid);
      }
      me.visiting = false;
      retire(me);
    };
    [[maybe_unused]] std::size_t depth = 0;  // pending-set capacity
    if constexpr (reads_ahead) {
      // Two reads per channel across the lanes: one in service, one queued
      // behind it to cover the owning lane's lag in noticing completions.
      const std::size_t reads = 2 * state.g->io_channels();
      depth = (reads + cfg_.num_threads - 1) / cfg_.num_threads;
      me.pending.reserve(depth);
    }
    Visitor v{};
    for (;;) {
      // A failed worker raised the abort flag: unwind without flushing or
      // committing — the engine resets all queue state after the gang.
      if (term_.abort_requested()) return;
      // Merge arrivals at batch granularity: one relaxed load per pop, a
      // lock only when a sender actually delivered.
      if (inbox.has_mail.load(std::memory_order_relaxed)) {
        drain(state, me, inbox);
      }
      if constexpr (reads_ahead) {
        if (depth > 0 && step_ahead(state, me, inbox, depth, visit_now)) {
          continue;
        }
      }
      // Inline, not through visit_now: the call slowed in-memory BFS ~10%.
      if (me.local.try_pop(v)) {
        inbox.local_len.store(me.local.size(), std::memory_order_relaxed);
        me.cur_vertex = static_cast<std::uint64_t>(v.vertex());
        me.visiting = true;
        if (ts != nullptr && --until_sample == 0) {
          until_sample = trace_sample_every;
          const std::uint64_t start = ts->now_us();
          v.visit(state, handle, tid);
          ts->complete("visit", start, ts->now_us() - start, "vertex",
                       static_cast<std::uint64_t>(v.vertex()));
        } else {
          v.visit(state, handle, tid);
        }
        me.visiting = false;
        retire(me);
        continue;
      }
      // Local structure empty: drain the inbox; failing that, flush our
      // outboxes (flush-on-idle) and commit the completion tally — the only
      // point where the termination counter can legitimately reach zero.
      if (drain(state, me, inbox)) continue;
      flush_all(me);
      if (commit(me)) {
        announce_done();
        return;
      }
      if (drain(state, me, inbox)) continue;  // self-flush or a racing delivery
      // Park until a sender delivers or the run ends. Outboxes are empty
      // and the tally is committed (flush-before-sleep), so this worker
      // holds no work hostage while asleep.
      std::unique_lock lk(inbox.mu);
      if (term_.stopped()) return;
      if (!inbox.slab.empty()) continue;  // raced with a delivery
      inbox.sleeping = true;
      const std::uint64_t sleep_start = ts != nullptr ? ts->now_us() : 0;
      // Stopping covers completion AND abort: record_failure raises the
      // abort flag and then wake_all's, taking this mutex, so the flag
      // cannot slip between this predicate check and the wait (the same
      // lost-wakeup argument as the done broadcast).
      inbox.cv.wait(lk, [&] {
        return !inbox.slab.empty() || term_.stopped();
      });
      inbox.sleeping = false;
      if (ts != nullptr) {
        ts->complete("sleep", sleep_start, ts->now_us() - sleep_start);
      }
      if (term_.stopped()) return;
      // Counted only here — after the done check — so the final shutdown
      // broadcast does not inflate the idle-transition metric by up to
      // num_threads.
      ++me.wakeups;
    }
  }

  /// One step of the reads-ahead loop: visit the earliest pending visitor
  /// if its read is done or the set is full; else pop and book the next
  /// visitor (visiting it at once when no read is outstanding for it); else
  /// sleep until the earliest read completes and visit that visitor.
  /// Returns false only when the lane holds no work at all, so the idle
  /// path (flush, commit, park) never runs with visitors pending. Finished
  /// reads are ended before more are booked, so ssd_model::inflight()
  /// measures the device queue.
  template <typename VisitNow>
  bool step_ahead(State& state, lane& me, mailbox<Visitor>& inbox,
                  std::size_t depth, const VisitNow& visit_now) {
    using clock = decltype(std::declval<pending_read&>().ticket.ready)::clock;
    auto& pend = me.pending;
    const auto earliest = [&] {
      return std::min_element(
          pend.begin(), pend.end(), [](const auto& a, const auto& b) {
            return a.ticket.ready < b.ticket.ready;
          });
    };
    const auto finish = [&](auto it) {
      std::this_thread::sleep_until(it->ticket.ready);
      state.g->end_charge(it->ticket);
      Visitor x = std::move(it->v);
      if (it != pend.end() - 1) *it = std::move(pend.back());
      pend.pop_back();
      visit_now(x);
    };
    if (!pend.empty()) {
      const auto it = earliest();
      if (pend.size() >= depth || it->ticket.ready <= clock::now()) {
        finish(it);
        return true;
      }
    }
    Visitor x{};
    if (me.local.try_pop(x)) {
      inbox.local_len.store(me.local.size(), std::memory_order_relaxed);
      if (!x.live(state)) {  // superseded claim: the visit expands nothing
        visit_now(x);
        return true;
      }
      const auto ticket = state.g->charge_ahead(x.vertex());
      if (ticket.reads == 0 && ticket.ready <= clock::now()) {
        visit_now(x);
      } else {
        pend.push_back({std::move(x), ticket});
      }
      return true;
    }
    if (pend.empty()) return false;
    finish(earliest());
    return true;
  }

  void announce_done() {
    term_.set_done();
    // wake_all takes each mailbox's mutex so the flag write cannot slip
    // between a worker's predicate check and its wait (no lost wakeups).
    wake_all(boxes_);
  }

  /// Called on the failing worker's own thread (from the catch in
  /// run_worker): latches the FIRST error with its thread/vertex context,
  /// then raises the abort flag and broadcasts it so parked workers wake
  /// and unwind.
  void record_failure(std::size_t tid, std::exception_ptr ep) {
    {
      std::lock_guard lk(fail_mu_);
      if (!fail_.error) {
        fail_.error = std::move(ep);
        fail_.thread = tid;
        fail_.has_vertex = lanes_[tid].visiting;
        fail_.vertex = lanes_[tid].cur_vertex;
      }
    }
    term_.request_abort();
    wake_all(boxes_);
  }

  /// After the gang: if the run aborted — a worker failed or a cancel was
  /// requested — discard all queue state (every structure a worker
  /// abandoned mid-run) and return the latched error and reason packaged
  /// by make_traversal_aborted; null on a clean run. Consuming the failure
  /// re-arms the queue for the next run (the reason latch is cleared too).
  std::exception_ptr take_failure() {
    failure f;
    const auto reason = static_cast<abort_reason>(
        cancel_reason_.exchange(0, std::memory_order_relaxed));
    {
      std::lock_guard lk(fail_mu_);
      if (!fail_.error && reason == abort_reason::none) return nullptr;
      f = std::move(fail_);
      fail_ = failure{};
    }
    reset_after_abort();
    traversal_aborted aborted = make_traversal_aborted(
        std::move(f.error), f.thread, f.has_vertex, f.vertex, reason);
    note_abort_trace(aborted.what());
    return std::make_exception_ptr(std::move(aborted));
  }

  /// Terminal trace marker for a run that ends in traversal_aborted, plus a
  /// best-effort flush to the writer's configured path — so the spans
  /// leading up to a failure or cancellation survive even when the process
  /// never reaches its orderly end-of-run trace write.
  void note_abort_trace(const std::string& what) {
    if (cfg_.trace == nullptr) return;
    cfg_.trace->instant_global(what);
    (void)cfg_.trace->flush();
  }

  /// Restores the engine to its post-construction state after an abort left
  /// visitors stranded in mailboxes, outboxes, and private structures. Only
  /// called after every worker finished, so plain writes suffice for lane
  /// state; mailbox slabs are cleared under their own mutex for the atomics'
  /// sake (external observers may still call queue_depths()).
  void reset_after_abort() {
    for (auto& ln : lanes_) {
      ln.local.clear();
      for (auto& buf : ln.outbox) buf.clear();
      ln.scratch.clear();
      if constexpr (reads_ahead) ln.pending.clear();  // reads already ended
      ln.completed = 0;
      ln.seeding = false;
      ln.visiting = false;
      ln.cur_vertex = 0;
      ln.visits = ln.pushes = ln.flushes = ln.wakeups = ln.max_len = 0;
    }
    for (auto& box : boxes_) {
      std::lock_guard lk(box.mu);
      box.slab.clear();
      box.has_mail.store(false, std::memory_order_relaxed);
      box.local_len.store(0, std::memory_order_relaxed);
    }
    term_.reset_pending();
    term_.reset_done();
    ext_pushes_.store(0, std::memory_order_relaxed);
    ext_flushes_.store(0, std::memory_order_relaxed);
  }

  queue_run_stats finalize_stats(double elapsed) {
    queue_run_stats s;
    s.elapsed_seconds = elapsed;
    s.visits_per_queue.reserve(lanes_.size());
    for (auto& ln : lanes_) {
      s.visits += ln.visits;
      s.pushes += ln.pushes;
      s.flushes += ln.flushes;
      s.wakeups += ln.wakeups;
      s.max_queue_length = std::max(s.max_queue_length, ln.max_len);
      s.visits_per_queue.push_back(ln.visits);
      ln.visits = ln.pushes = ln.flushes = ln.wakeups = ln.max_len = 0;
      ln.completed = 0;
    }
    s.pushes += ext_pushes_.exchange(0, std::memory_order_relaxed);
    s.flushes += ext_flushes_.exchange(0, std::memory_order_relaxed);
    if (cfg_.scope != nullptr) {
      // The job's private copy: hot counters for cheap stats() reads plus
      // the same named records the shared registry gets, so per-job deltas
      // sum exactly to the global ones.
      using hot = telemetry::metric_scope::hot;
      telemetry::metric_scope& sc = *cfg_.scope;
      sc.add(hot::visits, 0, s.visits);
      sc.add(hot::pushes, 0, s.pushes);
      sc.add(hot::flushes, 0, s.flushes);
      sc.add(hot::wakeups, 0, s.wakeups);
      record_metrics(sc.deltas(), s);
    }
    if (cfg_.metrics != nullptr) record_metrics(*cfg_.metrics, s);
    return s;
  }

  static void record_metrics(telemetry::metrics_registry& reg,
                             const queue_run_stats& s) {
    reg.get_counter("queue.runs").add(0);
    reg.get_counter("queue.visits").add(0, s.visits);
    reg.get_counter("queue.pushes").add(0, s.pushes);
    reg.get_counter("queue.flushes").add(0, s.flushes);
    reg.get_counter("queue.wakeups").add(0, s.wakeups);
    reg.get_gauge("queue.max_queue_length")
        .record_max(static_cast<std::int64_t>(s.max_queue_length));
    telemetry::histogram& h = reg.get_histogram("queue.visits_per_queue");
    for (const auto visits : s.visits_per_queue) h.record(0, visits);
  }

  /// First-error latch, written once per aborted run under fail_mu_.
  struct failure {
    std::exception_ptr error;
    std::size_t thread = 0;
    bool has_vertex = false;
    std::uint64_t vertex = 0;
  };

  visitor_queue_config cfg_;
  vertex_router route_;
  std::vector<mailbox<Visitor>> boxes_;
  std::vector<lane> lanes_;
  termination_detector term_;
  std::mutex fail_mu_;
  failure fail_;
  /// First-wins abort_reason latch (0 = none), set by request_cancel and
  /// consumed (cleared) by take_failure. Survives arm()'s reset_done so a
  /// cancel raised before the run still aborts it.
  std::atomic<int> cancel_reason_{0};
  // External pushes arrive outside any lane; relaxed atomics in case a
  // caller pushes from several threads between runs.
  std::atomic<std::uint64_t> ext_pushes_{0};
  std::atomic<std::uint64_t> ext_flushes_{0};
};

}  // namespace asyncgt::detail
