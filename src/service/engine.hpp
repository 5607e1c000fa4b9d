// asyncgt::engine — the session-based public API of the traversal service.
//
// The seed library answered one query per call: every async_* free function
// built a fresh visitor_queue, spawned its full thread complement, joined
// it, and threw everything away. This header turns that into a persistent
// service: an engine owns a long-lived worker_pool (threads parked between
// jobs, never re-spawned — see service/worker_pool.hpp for the gang
// scheduler that doubles as the job admission policy), and queries become
// *jobs*:
//
//   asyncgt::engine eng({.pool_threads = 16});
//   auto j1 = eng.submit_bfs(g, 0);
//   auto j2 = eng.submit_sssp(g, 42);   // concurrent with j1 over the same g
//   auto bfs = j1.get();                // bfs_result, or throws
//
// Concurrency model. Each job gets its own queue lanes, termination
// counter, and algorithm state (per-job isolation — a job failing or being
// cancelled aborts only itself), while the *graph* and, for semi-external
// runs, the block_cache and ssd_model behind it are shared: concurrent SEM
// queries keep one device at its IOPS plateau and enjoy each other's cache
// residency (bench/ext_concurrent_queries measures exactly that). Jobs
// whose combined width exceeds the pool serialize FIFO; otherwise they
// genuinely overlap.
//
// Job handles carry the whole per-job surface: a future (get/wait),
// cooperative cancellation (cancel() reuses the PR-3 abort broadcast, so a
// cancelled job unwinds promptly and surfaces traversal_aborted), a live
// pending() frontier probe, and per-job stats in the result. Telemetry
// sinks resolve per job: options attached to the submit win, engine
// defaults fill the gaps, and the engine stamps the service.jobs counter
// and service.pool.spawned_threads gauge into whichever registry the job
// carries — a warm engine shows the gauge frozen at the pool width.
//
// The async_* free functions remain as one-shot wrappers over
// engine::process_default() — submit + get — so all pre-service call sites
// keep their exact signatures and exception contracts while transparently
// sharing the process-wide pool.
//
// Layering: this header sits between the queue layer and the algorithm
// headers. engine::submit_bfs/sssp/cc/... are declared here but *defined*
// in the matching core/*.hpp (which include this header first), so the
// service knows nothing about any particular visitor, and new algorithms
// register themselves by defining another submit_* out of class — or by
// calling the generic submit_traversal/submit_seeded directly.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "queue/queue_stats.hpp"
#include "queue/traversal_abort.hpp"
#include "queue/visitor_queue.hpp"
#include "service/admission.hpp"
#include "service/job_stats.hpp"
#include "service/traversal_options.hpp"
#include "service/watchdog.hpp"
#include "service/worker_pool.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span.hpp"
#include "util/stats.hpp"

namespace asyncgt {

// Result types owned by the algorithm headers; only named here so the
// submit_* declarations below can spell their return types.
template <typename VertexId> struct bfs_result;
template <typename VertexId> struct sssp_result;
template <typename VertexId> struct cc_result;
template <typename VertexId> struct pagerank_result;
template <typename VertexId> struct kcore_result;
template <typename Result> struct seeded_run;
struct pagerank_options;

// Dynamic-graph and hybrid types owned by graph/delta_overlay.hpp,
// core/incremental.hpp and core/hybrid_traversal.hpp; named here so the
// submit_incremental_* / submit_hybrid_* declarations can spell their
// parameters.
template <typename VertexId> struct delta_batch;
template <typename Graph> class overlay_view;
struct incremental_extra;
struct hybrid_extra;

namespace service {

/// Type-erased control block shared between a job handle and the engine:
/// keeps cancellation and the pending-probe callable alive independently of
/// the typed job state.
struct job_control {
  /// Reason-carrying force-cancel: raises the job scope's abort hint (so
  /// blocking cancellation points unwind) and the queue-level abort
  /// broadcast. job::cancel() passes `cancelled`; the watchdog passes
  /// deadline_exceeded/stalled, the load shedder shed.
  std::function<void(abort_reason)> cancel;
  std::function<std::int64_t()> pending;
  std::atomic<bool> finished{false};
  /// The job's attribution scope and terminal flags; lives as long as any
  /// handle does, so stats() stays readable after the engine forgot the job.
  std::shared_ptr<job_scope_state> scope;
};

}  // namespace service

/// Handle to one submitted traversal. Movable, future-like. get() returns
/// the algorithm result (with per-job queue stats inside) or rethrows the
/// job's failure — traversal_aborted for worker faults and cancellations,
/// exactly the free-function contract.
template <typename Result>
class job {
 public:
  job() = default;

  /// Blocks until the job finishes; returns the result or rethrows the
  /// job's error. Consumes the handle's future (one get() per job).
  Result get() { return future_.get(); }

  void wait() const { future_.wait(); }
  bool valid() const noexcept { return future_.valid(); }

  /// True once the job is terminal: flips only after the finish timestamp,
  /// terminal flags, and lifecycle accounting landed, immediately before
  /// the promise is fulfilled — so done() == true implies stats() returns
  /// the final snapshot, and get() no longer blocks on traversal work.
  /// Non-blocking; implied by wait()/get() returning.
  bool done() const noexcept {
    return control_ != nullptr &&
           control_->finished.load(std::memory_order_acquire);
  }

  /// Cooperative cancellation: raises the job's abort flag and wakes every
  /// parked worker (the PR-3 failure-containment broadcast). The job's
  /// workers unwind at their next abort check and get() throws
  /// traversal_aborted. Idempotent; a no-op after completion.
  void cancel() {
    if (control_ != nullptr) control_->cancel(abort_reason::cancelled);
  }

  /// Live in-flight visitor count of this job (conservative sample while
  /// running, 0 at quiescence) — the per-job frontier probe.
  std::int64_t pending() const {
    return control_ != nullptr ? control_->pending() : 0;
  }

  /// Engine-assigned job id (1-based, unique per engine); 0 for a
  /// default-constructed handle.
  std::uint64_t id() const noexcept {
    return control_ != nullptr && control_->scope != nullptr
               ? control_->scope->scope.job_id()
               : 0;
  }

  /// Per-job attribution snapshot: visits, edge inspections, io
  /// bytes/retries, queue flushes, and queue-wait/run/total wall time.
  /// Readable at any time — counters are "so far" while the job runs and
  /// final once done() — and stays valid after get().
  service::job_stats stats() const {
    return control_ != nullptr && control_->scope != nullptr
               ? control_->scope->snapshot()
               : service::job_stats{};
  }

 private:
  friend class engine;
  job(std::future<Result> f, std::shared_ptr<service::job_control> c)
      : future_(std::move(f)), control_(std::move(c)) {}

  std::future<Result> future_;
  std::shared_ptr<service::job_control> control_;
};

class engine {
 public:
  struct config {
    /// Pre-warmed pool width. Jobs wider than the current pool grow it (and
    /// bump the spawn counter); pre-size to the widest expected job for the
    /// zero-spawns-after-warm-up guarantee.
    std::size_t pool_threads = 0;
    /// Per-job defaults: applied whole when a submit passes no options, and
    /// its telemetry sinks fill any the submit's options leave null.
    traversal_options defaults{};
    /// Completed-job summaries retained for recent_jobs() (0 disables).
    std::size_t completed_ring = 64;

    // ---- Admission control (docs/service_api.md) ----
    /// Bound on jobs admitted-but-not-terminal; 0 = unbounded (admission
    /// control off unless the memory budget engages).
    std::size_t max_pending_jobs = 0;
    /// What a submit does when the bound (or memory budget) is hit.
    service::admission_policy admission = service::admission_policy::block;
    /// Bound on a `block` policy wait; 0 = wait indefinitely.
    std::uint32_t admission_timeout_ms = 0;
    /// Engine-wide resident-memory budget; a submit whose declared
    /// memory_estimate_bytes does not fit the uncommitted remainder is
    /// refused at admission (never OOM-killed mid-flight). 0 = off.
    std::uint64_t memory_budget_bytes = 0;
    /// Watchdog sampling period for deadline/stall enforcement.
    std::uint32_t watchdog_sample_interval_ms = 10;
  };

  engine() : engine(config{}) {}
  explicit engine(config c)
      : defaults_(std::move(c.defaults)),
        completed_ring_(c.completed_ring),
        max_pending_jobs_(c.max_pending_jobs),
        admission_(c.admission),
        admission_timeout_ms_(c.admission_timeout_ms),
        memory_budget_bytes_(c.memory_budget_bytes),
        pool_(c.pool_threads),
        watchdog_({.sample_interval_ms = c.watchdog_sample_interval_ms}) {}

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  /// Waits for every outstanding job, then parks and joins the pool.
  ~engine() { wait_idle(); }

  // ---- The session API (defined out of class in core/*.hpp) ----

  template <typename Graph>
  job<bfs_result<typename Graph::vertex_id>> submit_bfs(
      const Graph& g, typename Graph::vertex_id start,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<sssp_result<typename Graph::vertex_id>> submit_sssp(
      const Graph& g, typename Graph::vertex_id start,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<cc_result<typename Graph::vertex_id>> submit_cc(
      const Graph& g, std::optional<traversal_options> opts = std::nullopt);

  // The seeded run every BFS, SSSP and CC job takes: fresh, resumed
  // (core/checkpoint.hpp resume_run) or incremental. See submit_run.

  template <typename Graph>
  job<bfs_result<typename Graph::vertex_id>> submit_bfs(
      const Graph& g, seeded_run<bfs_result<typename Graph::vertex_id>> run,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<sssp_result<typename Graph::vertex_id>> submit_sssp(
      const Graph& g, seeded_run<sssp_result<typename Graph::vertex_id>> run,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<cc_result<typename Graph::vertex_id>> submit_cc(
      const Graph& g, seeded_run<cc_result<typename Graph::vertex_id>> run,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<bfs_result<typename Graph::vertex_id>> submit_multi_source_bfs(
      const Graph& g,
      const std::vector<typename Graph::vertex_id>& sources,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<pagerank_result<typename Graph::vertex_id>> submit_pagerank(
      const Graph& g, pagerank_options popt,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<kcore_result<typename Graph::vertex_id>> submit_kcore(
      const Graph& g, std::optional<traversal_options> opts = std::nullopt);

  // Incremental repair entry points (core/incremental.hpp): given the
  // prior labels of a full traversal and the delta batch just applied to
  // the overlay behind `g`, repair the labels to the fixed point of g's
  // pinned epoch instead of recomputing from scratch. `prior` is consumed;
  // the repaired arrays come back through the job handle. `extra` (may be
  // null) receives the affected/reseeded accounting synchronously at
  // submit and repair_visits before the result is delivered.

  template <typename Graph>
  job<bfs_result<typename Graph::vertex_id>> submit_incremental_bfs(
      const overlay_view<Graph>& g,
      const delta_batch<typename Graph::vertex_id>& delta,
      bfs_result<typename Graph::vertex_id> prior,
      incremental_extra* extra = nullptr,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<sssp_result<typename Graph::vertex_id>> submit_incremental_sssp(
      const overlay_view<Graph>& g,
      const delta_batch<typename Graph::vertex_id>& delta,
      sssp_result<typename Graph::vertex_id> prior,
      incremental_extra* extra = nullptr,
      std::optional<traversal_options> opts = std::nullopt);

  template <typename Graph>
  job<cc_result<typename Graph::vertex_id>> submit_incremental_cc(
      const overlay_view<Graph>& g,
      const delta_batch<typename Graph::vertex_id>& delta,
      cc_result<typename Graph::vertex_id> prior,
      incremental_extra* extra = nullptr,
      std::optional<traversal_options> opts = std::nullopt);

  // Frontier-adaptive hybrid jobs (core/hybrid_traversal.hpp): the phases
  // run one after another on the pool as one job. The graph needs a
  // reverse view; `extra` (nullable) receives the per-phase breakdown.
  template <typename Graph>
  job<bfs_result<typename Graph::vertex_id>> submit_hybrid_bfs(
      const Graph& g, typename Graph::vertex_id start,
      std::optional<traversal_options> opts = std::nullopt,
      hybrid_extra* extra = nullptr);

  template <typename Graph>
  job<cc_result<typename Graph::vertex_id>> submit_hybrid_cc(
      const Graph& g, std::optional<traversal_options> opts = std::nullopt,
      hybrid_extra* extra = nullptr);

  // ---- Generic submission (what the named submits are built from) ----

  /// Submits an externally-seeded traversal. `state` is moved into the job;
  /// `prepare(queue, state)` runs synchronously on the submitting thread to
  /// push the seed visitors; `finalize(state, stats)` runs on the pool
  /// thread that completes the job and produces the result delivered
  /// through the handle. On failure or cancellation finalize is skipped and
  /// the handle carries the error instead. It rejects a checkpoint_path.
  template <typename Visitor, typename State, typename Prepare,
            typename Finalize>
  auto submit_traversal(std::optional<traversal_options> opts, State state,
                        Prepare prepare, Finalize finalize,
                        const char* label = "traversal")
      -> job<std::invoke_result_t<Finalize&, State&, queue_run_stats>> {
    reject_checkpoint_path(opts, label);
    auto tj = make_typed_job<Visitor>(opts, std::move(state),
                                      std::move(finalize), label);
    prepare(tj->queue, tj->state);
    return start_job(tj, launch_pushed());
  }

  /// Seeded flavour: one visitor per vertex in [0, num_vertices), built by
  /// `make_visitor` on the job's own workers (paper Algorithm 3 seeding).
  /// make_visitor must be const-callable and thread-safe, as for
  /// visitor_queue::run_seeded.
  template <typename Visitor, typename State, typename MakeVisitor,
            typename Finalize>
  auto submit_seeded(std::optional<traversal_options> opts, State state,
                     std::uint64_t num_vertices, MakeVisitor make_visitor,
                     Finalize finalize, const char* label = "traversal")
      -> job<std::invoke_result_t<Finalize&, State&, queue_run_stats>> {
    reject_checkpoint_path(opts, label);
    auto tj = make_typed_job<Visitor>(opts, std::move(state),
                                      std::move(finalize), label);
    return start_job(tj, launch_seeded(num_vertices, std::move(make_visitor)));
  }

  // ---- Introspection / lifecycle ----

  service::worker_pool& pool() noexcept { return pool_; }
  const traversal_options& defaults() const noexcept { return defaults_; }

  /// Jobs submitted but not yet completed (delivered or failed).
  std::size_t active_jobs() const {
    std::lock_guard lk(jobs_mu_);
    return active_;
  }

  std::uint64_t jobs_submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }

  std::uint64_t jobs_completed() const {
    std::lock_guard lk(jobs_mu_);
    return jobs_completed_;
  }

  /// Service-level accounting snapshot for overload introspection. The
  /// conservation invariant — every submit attempt is accounted exactly
  /// once — holds at any quiescent instant (no submit mid-admission):
  ///
  ///   submitted == rejected + active
  ///             + completed + failed + cancelled
  ///             + deadline_exceeded + stalled + shed
  ///
  /// tools/overload_soak.sh asserts it after each round.
  struct service_counters {
    std::uint64_t submitted = 0;  ///< submit attempts (incl. rejected)
    std::uint64_t admitted = 0;   ///< attempts that passed admission
    std::uint64_t rejected = 0;   ///< admission_rejected thrown
    std::uint64_t shed_requests = 0;  ///< victims evicted by shed policy
    std::uint64_t active = 0;     ///< admitted, not yet terminal
    // Terminal outcomes of admitted jobs:
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t stalled = 0;
    std::uint64_t shed = 0;
    std::uint64_t memory_committed_bytes = 0;
  };

  service_counters counters() const {
    std::lock_guard lk(jobs_mu_);
    service_counters c;
    c.submitted = submitted_.load(std::memory_order_relaxed);
    c.admitted = admitted_;
    c.rejected = rejected_;
    c.shed_requests = shed_requests_;
    c.active = active_;
    c.completed = n_completed_;
    c.failed = n_failed_;
    c.cancelled = n_cancelled_;
    c.deadline_exceeded = n_deadline_;
    c.stalled = n_stalled_;
    c.shed = n_shed_;
    c.memory_committed_bytes = mem_committed_;
    return c;
  }

  /// Watchdog trigger counters (monotone over the engine's lifetime).
  std::uint64_t watchdog_deadline_fires() const noexcept {
    return watchdog_.deadline_fires();
  }
  std::uint64_t watchdog_stall_fires() const noexcept {
    return watchdog_.stall_fires();
  }

  /// Snapshots of the most recently completed jobs (newest last), up to the
  /// configured ring size. Jobs still running are not listed — read their
  /// handles' stats() instead.
  std::vector<service::job_stats> recent_jobs() const {
    std::lock_guard lk(jobs_mu_);
    return {recent_.begin(), recent_.end()};
  }

  /// Engine-lifetime job lifecycle latency distributions (microseconds),
  /// one sample per completed job.
  struct lifecycle_latencies {
    log2_histogram queue_wait_us;
    log2_histogram run_us;
    log2_histogram total_us;
  };

  lifecycle_latencies lifecycle() const {
    std::lock_guard lk(jobs_mu_);
    return lifecycle_;
  }

  /// Blocks until every outstanding job delivered its result or error.
  void wait_idle() {
    std::unique_lock lk(jobs_mu_);
    idle_cv_.wait(lk, [&] { return active_ == 0; });
  }

  /// The process-local engine behind the async_* free functions. Its pool
  /// grows on demand to the widest job ever requested and survives until
  /// process exit, so back-to-back free-function calls reuse warm workers.
  static engine& process_default() {
    static engine instance;
    return instance;
  }

 private:
  // Option resolution visible to the out-of-class submit_* definitions in
  // core/*.hpp: the thread count sizes the per-job state shards, and the
  // resolved metrics sink lets finalize record per-algorithm work counters
  // with the same opts-win-defaults-fill rule prepare_config applies.
  const traversal_options& resolve(
      const std::optional<traversal_options>& opts) const noexcept {
    return opts.has_value() ? *opts : defaults_;
  }

  std::size_t resolve_threads(
      const std::optional<traversal_options>& opts) const noexcept {
    return resolve(opts).queue.num_threads;
  }

  telemetry::metrics_registry* resolve_metrics(
      const std::optional<traversal_options>& opts) const noexcept {
    telemetry::metrics_registry* m = resolve(opts).queue.metrics;
    return m != nullptr ? m : defaults_.queue.metrics;
  }

  template <typename Visitor, typename State, typename Finalize>
  struct typed_job {
    using result_type =
        std::invoke_result_t<Finalize&, State&, queue_run_stats>;
    // The scope must outlive the queue (whose config points at it), so it
    // is declared — and therefore destroyed — after the queue.
    std::shared_ptr<service::job_scope_state> scope;
    State state;
    visitor_queue<Visitor, State> queue;
    Finalize finalize;
    /// Sees an aborted run's state before the error is delivered.
    std::function<void(State&)> on_abort;
    std::promise<result_type> promise;

    typed_job(std::shared_ptr<service::job_scope_state> sc, State&& st,
              const visitor_queue_config& cfg, Finalize&& fin)
        : scope(std::move(sc)),
          state(std::move(st)),
          queue(cfg),
          finalize(std::move(fin)) {}
  };

  /// Resolves options against engine defaults, checks them, pins the job to
  /// this engine's pool, grows the pool to the job's width, and stamps the
  /// service metrics into the job's registry (if any).
  visitor_queue_config prepare_config(
      const std::optional<traversal_options>& opts) {
    const traversal_options& t = resolve(opts);
    t.validate();
    visitor_queue_config cfg = t.queue;
    if (cfg.metrics == nullptr) cfg.metrics = defaults_.queue.metrics;
    if (cfg.trace == nullptr) cfg.trace = defaults_.queue.trace;
    if (cfg.sampler == nullptr) cfg.sampler = defaults_.queue.sampler;
    cfg.pool = &pool_;
    pool_.ensure_threads(cfg.num_threads);
    if (cfg.metrics != nullptr) {
      cfg.metrics->get_counter("service.jobs").add(0);
      cfg.metrics->get_gauge("service.pool.spawned_threads")
          .record_max(static_cast<std::int64_t>(pool_.threads_spawned()));
    }
    return cfg;
  }

  /// Submit-time checks of a seeded run over `n` vertices: its prior
  /// labels and parents are both empty (a fresh run) or both sized n, and
  /// every seed lies inside the graph.
  template <typename Run>
  static void check_run(std::uint64_t n, const Run& run,
                        std::size_t labels, std::size_t parents) {
    if ((labels != 0 || parents != 0) && (labels != n || parents != n)) {
      throw std::invalid_argument(std::string(run.label) +
                                  ": prior labels sized for a different graph");
    }
    for (const auto& seed : run.seeds) {
      if (seed.vertex >= n) {
        throw std::out_of_range(std::string(run.label) +
                                ": seed vertex out of range");
      }
    }
  }

  /// Refuses a checkpoint path before the job is admitted.
  void reject_checkpoint_path(const std::optional<traversal_options>& opts,
                              const char* what) const {
    if (!resolve(opts).checkpoint_path.empty()) {
      throw std::invalid_argument(
          std::string(what) +
          ": checkpoint_path is only supported by BFS and SSSP jobs");
    }
  }

  /// Launchers for start_job: run over the externally pushed seeds, or
  /// seed one visitor per vertex on the job's workers (Algorithm 3).
  auto launch_pushed() {
    return [this](auto& jq, auto& jstate, auto done) {
      jq.run_async(pool_, jstate, std::move(done));
    };
  }

  template <typename MakeVisitor>
  auto launch_seeded(std::uint64_t num_vertices, MakeVisitor make_visitor) {
    return [this, num_vertices, mv = std::move(make_visitor)](
               auto& jq, auto& jstate, auto done) mutable {
      jq.run_seeded_async(pool_, jstate, num_vertices, std::move(mv),
                          std::move(done));
    };
  }

  /// The seeded-run path behind submit_bfs/sssp/cc: `state` already holds
  /// the run's prior labels. The job is labelled and epoch-stamped from
  /// `run`, pushes `to_visitor(seed)` for each seed, and is started by
  /// `launch`. Its finalize hands the stats to `run.on_done`, builds the
  /// result (Result::finish) and records its work counters under
  /// `run.label`; an aborted run's state goes to `on_abort` instead (BFS
  /// and SSSP write their checkpoint there; a run with none refuses one).
  template <typename Visitor, typename State, typename Result,
            typename ToVisitor, typename Launch>
  job<Result> submit_run(const std::optional<traversal_options>& opts,
                         State state, seeded_run<Result> run,
                         ToVisitor to_visitor, Launch launch,
                         std::function<void(State&)> on_abort = {}) {
    if (!on_abort) reject_checkpoint_path(opts, run.label);
    auto tj = make_typed_job<Visitor>(
        opts, std::move(state),
        [metrics = resolve_metrics(opts), label = run.label,
         on_done = std::move(run.on_done)](State& s, queue_run_stats stats) {
          if (on_done) on_done(stats);
          Result out = Result::finish(s, std::move(stats));
          if (metrics != nullptr) out.work().record(*metrics, label);
          return out;
        },
        run.label);
    tj->scope->delta_epoch = run.delta_epoch;
    tj->on_abort = std::move(on_abort);
    for (const auto& seed : run.seeds) tj->queue.push(to_visitor(seed));
    return start_job(tj, std::move(launch));
  }

  /// The job path behind submit_hybrid_*, defined with them.
  template <typename Visitor, typename Result, typename State>
  job<Result> submit_hybrid(const std::optional<traversal_options>& opts,
                            State state, hybrid_extra* extra,
                            const char* label);

  template <typename Visitor, typename State, typename Finalize>
  auto make_typed_job(const std::optional<traversal_options>& opts,
                      State state, Finalize finalize, const char* label) {
    visitor_queue_config cfg = prepare_config(opts);
    // One attribution scope per job, installed into the config BEFORE the
    // queue is built so every worker body and end-of-run stats mirror runs
    // against it (queue/traversal_engine.hpp).
    auto scope = std::make_shared<service::job_scope_state>(
        next_job_id_.fetch_add(1, std::memory_order_relaxed), label,
        cfg.num_threads);
    scope->metrics = cfg.metrics;
    scope->trace = cfg.trace;
    // Robustness parameters are fixed here, before the job is visible to
    // the admission layer or watchdog.
    const traversal_options& t = resolve(opts);
    scope->deadline_ms = t.deadline_ms;
    scope->stall_grace_ms = t.stall_grace_ms;
    scope->priority = t.priority;
    scope->memory_estimate_bytes = t.memory_estimate_bytes;
    cfg.scope = &scope->scope;
    return std::make_shared<typed_job<Visitor, State, Finalize>>(
        std::move(scope), std::move(state), cfg, std::move(finalize));
  }

  /// Common tail of both submit flavours: admission decision first (may
  /// block, throw admission_rejected, or shed a victim — the job holds no
  /// slot or memory before this passes), then wire the control block,
  /// register the watchdog, launch via `run` (run_async, run_seeded_async,
  /// or a hybrid job's phase chain), and deliver the result or error through
  /// the promise from the completing pool thread.
  template <typename TypedJob, typename Run>
  auto start_job(std::shared_ptr<TypedJob> tj, Run run)
      -> job<typename TypedJob::result_type> {
    using Result = typename TypedJob::result_type;
    auto control = std::make_shared<service::job_control>();
    control->scope = tj->scope;
    control->cancel = [tj](abort_reason r) {
      // Scope hint first: a worker blocked in a cancellation point (the
      // fault injector's stall mode) only unwinds by polling it, and the
      // queue broadcast alone cannot reach a thread stuck in a read.
      tj->scope->scope.request_abort(static_cast<std::uint32_t>(r));
      tj->queue.cancel(r);
    };
    control->pending = [tj] { return tj->queue.pending(); };
    submitted_.fetch_add(1, std::memory_order_relaxed);
    admit(tj->scope, control->cancel);  // throws admission_rejected
    job<Result> handle(tj->promise.get_future(), control);
    if (tj->scope->deadline_ms > 0 || tj->scope->stall_grace_ms > 0) {
      watchdog_.watch(tj->scope, control->cancel, tj->scope->deadline_ms,
                      tj->scope->stall_grace_ms);
    }
    run(tj->queue, tj->state,
        [this, tj, control](queue_run_stats stats, std::exception_ptr error) {
          std::optional<Result> result;
          if (error == nullptr) {
            try {
              // Finalize runs attributed to the job so the per-algorithm
              // work counters it records mirror into the job's deltas.
              telemetry::metric_scope::attribution attr(&tj->scope->scope, 0);
              result.emplace(tj->finalize(tj->state, std::move(stats)));
            } catch (...) {
              error = std::current_exception();
            }
          } else if (tj->on_abort) {
            // A hook that fails (say, an unwritable checkpoint path)
            // replaces the abort: the caller must not assume it ran.
            try {
              tj->on_abort(tj->state);
            } catch (...) {
              error = std::current_exception();
            }
          }
          // All job-state mutation happens BEFORE done() flips and the
          // promise is fulfilled: a caller that observed done() == true (or
          // whose wait()/get() returned) must see the terminal snapshot —
          // outcome latched, finish timestamp stamped, lifecycle accounting
          // done — never a job that is still "running". The terminal
          // counter bump and the active_/slot release happen in ONE
          // jobs_mu_ critical section (inside finish_job_accounting): a
          // concurrent counters() snapshot must never see a job counted
          // both active and terminal, or neither — the conservation law is
          // an invariant of every snapshot, not just of quiescence.
          const service::job_outcome out = classify_outcome(error);
          tj->scope->scope.mark_finished();
          tj->scope->latch_outcome(out);
          finish_job_accounting(*tj->scope, out);
          control->finished.store(true, std::memory_order_release);
          // Promise last, touching only tj/control (shared): once the
          // slot release above woke wait_idle(), the engine may already be
          // tearing down (the pool dtor still joins this thread).
          if (error != nullptr) {
            tj->promise.set_exception(std::move(error));
          } else {
            tj->promise.set_value(std::move(*result));
          }
        });
    return handle;
  }

  /// The admission decision (tentpole part 2+3). Runs on the submitting
  /// thread, before the job holds any slot, memory, or gang. Throws
  /// admission_rejected (kind queue_full / timeout / memory_budget /
  /// no_shed_victim) when the configured policy refuses; on return the job
  /// is committed — counted in active_, its estimate folded into
  /// mem_committed_, and its cancel registered as a shed target.
  void admit(const std::shared_ptr<service::job_scope_state>& scope,
             const std::function<void(abort_reason)>& cancel) {
    const std::uint64_t est = scope->memory_estimate_bytes;
    std::unique_lock lk(jobs_mu_);
    // An estimate that can never fit is refused under every policy:
    // blocking or shedding cannot make the budget bigger.
    if (memory_budget_bytes_ > 0 && est > memory_budget_bytes_) {
      reject_locked(*scope, service::admission_rejected::kind::memory_budget,
                    "memory estimate " + std::to_string(est) +
                        " exceeds engine budget " +
                        std::to_string(memory_budget_bytes_));
    }
    auto fits = [&] {
      return (max_pending_jobs_ == 0 || active_ < max_pending_jobs_) &&
             (memory_budget_bytes_ == 0 ||
              mem_committed_ + est <= memory_budget_bytes_);
    };
    if (!fits()) {
      switch (admission_) {
        case service::admission_policy::block: {
          const bool ok =
              admission_timeout_ms_ == 0
                  ? (idle_cv_.wait(lk, fits), true)
                  : idle_cv_.wait_for(
                        lk, std::chrono::milliseconds(admission_timeout_ms_),
                        fits);
          if (!ok) {
            reject_locked(*scope, service::admission_rejected::kind::timeout,
                          "no admission slot within " +
                              std::to_string(admission_timeout_ms_) + "ms");
          }
          break;
        }
        case service::admission_policy::reject:
          reject_locked(
              *scope,
              memory_budget_bytes_ > 0 &&
                      mem_committed_ + est > memory_budget_bytes_
                  ? service::admission_rejected::kind::memory_budget
                  : service::admission_rejected::kind::queue_full,
              "admission bound hit (" + std::to_string(active_) +
                  " active jobs)");
          break;
        case service::admission_policy::shed_lowest_priority: {
          // Evict the lowest-priority job strictly below the newcomer, so
          // equal-priority traffic can never cascade-shed itself. The
          // newcomer is admitted immediately (transient overshoot of the
          // bound by one while the victim unwinds) — waiting for the
          // victim to finish would reintroduce the unbounded block this
          // policy exists to avoid.
          active_rec* victim = nullptr;
          for (auto& r : active_recs_) {
            if (r.shed_requested || r.priority >= scope->priority) continue;
            if (victim == nullptr || r.priority < victim->priority) {
              victim = &r;
            }
          }
          if (victim == nullptr) {
            reject_locked(*scope,
                          service::admission_rejected::kind::no_shed_victim,
                          "no running job with priority below " +
                              std::to_string(scope->priority));
          }
          victim->shed_requested = true;
          shed_requests_++;
          auto vcancel = victim->cancel;
          if (scope->metrics != nullptr) {
            scope->metrics->get_counter("service.shed").add(0);
          }
          lk.unlock();
          vcancel(abort_reason::shed);
          lk.lock();
          break;
        }
      }
    }
    ++active_;
    ++admitted_;
    mem_committed_ += est;
    active_recs_.push_back(active_rec{scope->scope.job_id(), scope->priority,
                                      est, cancel, false});
  }

  /// Counts and throws an admission refusal. Caller holds jobs_mu_ (the
  /// count must be consistent with the conservation check); the throw
  /// releases it via unique_lock unwinding in admit's caller frame.
  [[noreturn]] void reject_locked(service::job_scope_state& scope,
                                  service::admission_rejected::kind k,
                                  const std::string& detail) {
    ++rejected_;
    if (scope.metrics != nullptr) {
      scope.metrics->get_counter("service.rejected").add(0);
    }
    throw service::admission_rejected(
        k, std::string("admission rejected (") +
               service::admission_rejected::kind_name(k) + "): " + detail);
  }

  /// Maps the job's delivered error (or lack of one) to its terminal
  /// state: null -> completed, a cooperative traversal_aborted -> the
  /// outcome matching its latched abort_reason (cancelled /
  /// deadline_exceeded / stalled / shed), anything else -> failed. This is
  /// the single source of the terminal flags — classified from what the
  /// job actually delivered, not from whether a cancel was ever requested:
  /// a job that completed in the same instant its deadline fired delivers
  /// a result and stays completed.
  static service::job_outcome classify_outcome(
      const std::exception_ptr& error) noexcept {
    if (error == nullptr) return service::job_outcome::completed;
    try {
      std::rethrow_exception(error);
    } catch (const traversal_aborted& a) {
      switch (a.reason()) {
        case abort_reason::none: break;  // worker failure
        case abort_reason::cancelled: return service::job_outcome::cancelled;
        case abort_reason::deadline_exceeded:
          return service::job_outcome::deadline_exceeded;
        case abort_reason::stalled: return service::job_outcome::stalled;
        case abort_reason::shed: return service::job_outcome::shed;
      }
    } catch (...) {
    }
    return service::job_outcome::failed;
  }

  /// Completion-side accounting, invoked once per job from the pool thread
  /// that delivered its result or error: lifecycle histograms + ring entry
  /// under jobs_mu_, service.* lifecycle metrics into the job's registry,
  /// and the Chrome-trace lifecycle spans into its writer.
  void finish_job_accounting(service::job_scope_state& st,
                             service::job_outcome out) {
    const service::job_stats snap = st.snapshot();
    const auto us = [](double seconds) {
      return seconds <= 0.0 ? std::uint64_t{0}
                            : static_cast<std::uint64_t>(seconds * 1e6);
    };
    // External sinks (metrics, trace) are stamped BEFORE the locked block:
    // the moment that block releases the job's admission slot and notifies
    // idle_cv_, a wait_idle() caller may begin tearing the engine down, so
    // nothing after it may touch engine state.
    stamp_completion_metrics(st, snap, out, us);
    emit_job_spans(st, snap);
    {
      // One critical section for the whole terminal transition: the
      // outcome bump, the lifecycle/ring records, the active_ decrement,
      // the slot + memory release, and the idle notification. counters()
      // snapshots are taken under the same mutex, so conservation
      // (submitted == rejected + active + terminal outcomes) holds at
      // every instant, not just at quiescence. Notifying under the lock
      // also means the notify completes before any waiter can observe
      // active_ == 0 and destroy the condvar.
      std::lock_guard lk(jobs_mu_);
      ++jobs_completed_;
      switch (out) {
        case service::job_outcome::completed: ++n_completed_; break;
        case service::job_outcome::failed: ++n_failed_; break;
        case service::job_outcome::cancelled: ++n_cancelled_; break;
        case service::job_outcome::deadline_exceeded: ++n_deadline_; break;
        case service::job_outcome::stalled: ++n_stalled_; break;
        case service::job_outcome::shed: ++n_shed_; break;
        case service::job_outcome::running: break;  // unreachable
      }
      lifecycle_.queue_wait_us.add(us(snap.queue_wait_seconds));
      lifecycle_.run_us.add(us(snap.run_seconds));
      lifecycle_.total_us.add(us(snap.total_seconds));
      if (completed_ring_ > 0) {
        recent_.push_back(snap);
        while (recent_.size() > completed_ring_) recent_.pop_front();
      }
      --active_;
      mem_committed_ -= st.memory_estimate_bytes;
      const std::uint64_t jid = st.scope.job_id();
      for (std::size_t i = 0; i < active_recs_.size(); ++i) {
        if (active_recs_[i].job_id == jid) {
          active_recs_.erase(active_recs_.begin() +
                             static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      idle_cv_.notify_all();
    }
  }

  template <typename UsFn>
  void stamp_completion_metrics(service::job_scope_state& st,
                                const service::job_stats& snap,
                                service::job_outcome out, UsFn us) {
    if (st.metrics != nullptr) {
      st.metrics->get_counter("service.jobs.completed").add(0);
      // The service.* robustness metric family (schema v3's service
      // section mirrors these).
      switch (out) {
        case service::job_outcome::deadline_exceeded:
          st.metrics->get_counter("service.deadline_exceeded").add(0);
          break;
        case service::job_outcome::stalled:
          st.metrics->get_counter("service.stalled").add(0);
          break;
        case service::job_outcome::shed:
          st.metrics->get_counter("service.shed_completed").add(0);
          break;
        default: break;
      }
      st.metrics->get_histogram("service.job.queue_wait_us")
          .record(0, us(snap.queue_wait_seconds));
      st.metrics->get_histogram("service.job.run_us")
          .record(0, us(snap.run_seconds));
      st.metrics->get_histogram("service.job.total_us")
          .record(0, us(snap.total_seconds));
    }
  }

  /// Renders the job's lifecycle as one named row in the Chrome trace:
  /// a parent span covering submit -> finish, with admit (queue wait),
  /// gang-run, and terminate children, plus an instant marker when the job
  /// ended in cancellation or failure. Emitted retroactively from the one
  /// completing thread — the trace format orders by timestamp, so this is
  /// race-free against the per-lane worker streams.
  void emit_job_spans(service::job_scope_state& st,
                      const service::job_stats& snap) {
    telemetry::trace_writer* tw = st.trace;
    if (tw == nullptr) return;
    using track_t = telemetry::span_track;
    const std::uint32_t tid =
        track_t::job_track_base +
        static_cast<std::uint32_t>(snap.job_id % track_t::job_track_span);
    track_t track(tw, tid,
                  "job-" + std::to_string(snap.job_id) + " (" + snap.label +
                      ")");
    // The job may have been submitted before the writer existed; clamp.
    const auto raw_t0 = std::chrono::duration_cast<std::chrono::microseconds>(
                            st.scope.submit_time() - tw->origin())
                            .count();
    const std::uint64_t t0 =
        raw_t0 > 0 ? static_cast<std::uint64_t>(raw_t0) : 0;
    const auto us = [](double seconds) {
      return seconds <= 0.0 ? std::uint64_t{0}
                            : static_cast<std::uint64_t>(seconds * 1e6);
    };
    const std::uint64_t t_run = t0 + us(snap.queue_wait_seconds);
    const std::uint64_t t_run_end = t_run + us(snap.run_seconds);
    const std::uint64_t t_end = t0 + us(snap.total_seconds);
    const std::uint64_t parent = track.emit(
        snap.label + " #" + std::to_string(snap.job_id), t0, t_end);
    track.emit("admit", t0, t_run, parent);
    if (t_run_end > t_run) track.emit("gang-run", t_run, t_run_end, parent);
    if (t_end > t_run_end) track.emit("terminate", t_run_end, t_end, parent);
    if (snap.cancelled) {
      track.instant("cancelled", t_end);
    } else if (snap.failed) {
      track.instant("abort", t_end);
    }
  }

  /// One admitted-but-not-terminal job, as the admission layer sees it:
  /// the shed policy's victim table. Guarded by jobs_mu_.
  struct active_rec {
    std::uint64_t job_id = 0;
    int priority = 0;
    std::uint64_t memory_estimate_bytes = 0;
    std::function<void(abort_reason)> cancel;
    bool shed_requested = false;  // at most one shed per job
  };

  traversal_options defaults_;
  std::size_t completed_ring_;
  // Admission configuration (immutable after construction).
  std::size_t max_pending_jobs_;
  service::admission_policy admission_;
  std::uint32_t admission_timeout_ms_;
  std::uint64_t memory_budget_bytes_;
  service::worker_pool pool_;
  mutable std::mutex jobs_mu_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;  // guarded by jobs_mu_
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> next_job_id_{1};
  // Admission/outcome accounting, all guarded by jobs_mu_.
  std::vector<active_rec> active_recs_;
  std::uint64_t mem_committed_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t n_completed_ = 0;
  std::uint64_t n_failed_ = 0;
  std::uint64_t n_cancelled_ = 0;
  std::uint64_t n_deadline_ = 0;
  std::uint64_t n_stalled_ = 0;
  std::uint64_t n_shed_ = 0;
  // Completed-job introspection, all guarded by jobs_mu_.
  std::uint64_t jobs_completed_ = 0;
  std::deque<service::job_stats> recent_;
  lifecycle_latencies lifecycle_;
  // Declared last: destroyed first, so the monitor thread is joined while
  // every other member it can reach is still alive (~engine wait_idle()s
  // before members are destroyed, so no live entries remain by then).
  service::watchdog watchdog_;
};

}  // namespace asyncgt
