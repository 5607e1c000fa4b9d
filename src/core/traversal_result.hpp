// Result types returned by the asynchronous traversals, plus shared
// per-thread counter plumbing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "queue/queue_stats.hpp"
#include "telemetry/metric_scope.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/cache_line.hpp"

namespace asyncgt {

/// 64-bit path lengths: edge weights are 32-bit but paths sum many of them.
using dist_t = std::uint64_t;

/// Relaxed access to one label slot (level/dist/ccid) of a running
/// label-correcting traversal. owner(v) is the only writer of slot v;
/// senders on other threads read it to skip pushes the target would reject.
/// Labels only fall during a run, so a stale read returns a value >= the
/// true label: a skipped push could never have won, and a stale "not
/// dominated" only costs one wasted visit. Every access during a run goes
/// through these two calls; set-up and result hand-off stay plain.
template <typename T>
T load_label(T& slot) noexcept {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  return std::atomic_ref<T>(slot).load(std::memory_order_relaxed);
}

template <typename T>
void store_label(T& slot, T value) noexcept {
  std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
}

/// Per-thread contention-free counters, summed after the run.
class sharded_counter {
 public:
  explicit sharded_counter(std::size_t shards) : shards_(shards) {}

  void add(std::size_t shard, std::uint64_t n = 1) noexcept {
    shards_[shard].value += n;
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.value;
    return sum;
  }

 private:
  std::vector<padded<std::uint64_t>> shards_;
};

/// Work-proxy metrics shared by the label-correcting traversals. These are
/// the paper's machine-independent cost measures, all derived from counters
/// the runs maintain anyway:
///   updates                expansions: visits whose claimed label was
///                          still current at pop;
///   wasted_visits          visits whose candidate label lost the race — the
///                          price of asynchrony ("possibly requiring
///                          multiple visits per vertex"): arrivals dropped
///                          by pre_visit plus claims superseded before pop.
///                          Pushes the sender-side label check skipped
///                          never become visits;
///   label_corrections      expansions beyond one per labelled vertex — the
///                          aggregate label-correction depth. Saturates at
///                          zero: a repair job's labelled set includes the
///                          prior labels it never expanded.
struct traversal_work {
  std::uint64_t visits = 0;
  std::uint64_t pushes = 0;
  std::uint64_t updates = 0;
  std::uint64_t relaxed_vertices = 0;
  std::uint64_t wasted_visits = 0;
  std::uint64_t label_corrections = 0;

  /// Records the work proxies as "<algo>.*" counters (shard 0; called once
  /// per run from the driver, never from the hot path). When the calling
  /// thread carries an ambient metric_scope (the service engine wraps job
  /// finalizers in one), the same counters land in the job's named deltas,
  /// so per-job <algo>.* sums conserve against the shared registry.
  void record(telemetry::metrics_registry& reg, const char* algo) const {
    record_into(reg, algo);
    if (telemetry::metric_scope* sc = telemetry::metric_scope::current()) {
      record_into(sc->deltas(), algo);
    }
  }

  /// Fills the counters derived from visits, updates and relaxed_vertices.
  void derive() noexcept {
    wasted_visits = visits - updates;
    label_corrections =
        updates > relaxed_vertices ? updates - relaxed_vertices : 0;
  }

  void record_into(telemetry::metrics_registry& reg, const char* algo) const {
    const std::string p(algo);
    reg.get_counter(p + ".visits").add(0, visits);
    reg.get_counter(p + ".updates").add(0, updates);
    reg.get_counter(p + ".relaxed_vertices").add(0, relaxed_vertices);
    reg.get_counter(p + ".wasted_visits").add(0, wasted_visits);
    reg.get_counter(p + ".label_corrections").add(0, label_corrections);
  }
};

template <typename VertexId>
struct bfs_result {
  using vertex_id = VertexId;
  std::vector<dist_t> level;     // infinite_distance<dist_t> = unreached
  std::vector<VertexId> parent;  // invalid_vertex = none
  queue_run_stats stats;
  std::uint64_t updates = 0;  // successful label corrections

  /// The one place a BFS result is built, from a finished run's state.
  template <typename State>
  static bfs_result finish(State& s, queue_run_stats stats) {
    return {std::move(s.level), std::move(s.parent), std::move(stats),
            s.updates.total()};
  }

  std::uint64_t visited_count() const {
    std::uint64_t n = 0;
    for (const auto l : level) n += (l != infinite_distance<dist_t>);
    return n;
  }

  /// Largest finite level (the number of BFS levels, paper Table I "# levs").
  dist_t max_level() const {
    dist_t m = 0;
    for (const auto l : level) {
      if (l != infinite_distance<dist_t> && l > m) m = l;
    }
    return m;
  }

  traversal_work work() const {
    traversal_work w;
    w.visits = stats.visits;
    w.pushes = stats.pushes;
    w.updates = updates;
    w.relaxed_vertices = visited_count();
    w.derive();
    return w;
  }
};

template <typename VertexId>
struct sssp_result {
  using vertex_id = VertexId;
  std::vector<dist_t> dist;
  std::vector<VertexId> parent;
  queue_run_stats stats;
  std::uint64_t updates = 0;

  /// The one place an SSSP result is built, from a finished run's state.
  template <typename State>
  static sssp_result finish(State& s, queue_run_stats stats) {
    return {std::move(s.dist), std::move(s.parent), std::move(stats),
            s.updates.total()};
  }

  std::uint64_t visited_count() const {
    std::uint64_t n = 0;
    for (const auto d : dist) n += (d != infinite_distance<dist_t>);
    return n;
  }

  traversal_work work() const {
    traversal_work w;
    w.visits = stats.visits;
    w.pushes = stats.pushes;
    w.updates = updates;
    w.relaxed_vertices = visited_count();
    w.derive();
    return w;
  }
};

template <typename VertexId>
struct cc_result {
  using vertex_id = VertexId;
  std::vector<VertexId> component;  // smallest reachable vertex id
  queue_run_stats stats;
  std::uint64_t updates = 0;

  /// The one place a CC result is built, from a finished run's state.
  template <typename State>
  static cc_result finish(State& s, queue_run_stats stats) {
    return {std::move(s.ccid), std::move(stats), s.updates.total()};
  }

  /// Number of distinct components (paper Table III "# CCs"). A vertex is a
  /// component root iff component[v] == v.
  std::uint64_t num_components() const {
    std::uint64_t n = 0;
    for (std::size_t v = 0; v < component.size(); ++v) {
      n += (component[v] == static_cast<VertexId>(v));
    }
    return n;
  }

  /// Size of the largest component.
  std::uint64_t largest_component_size() const {
    std::vector<std::uint64_t> sizes(component.size(), 0);
    for (const auto c : component) ++sizes[c];
    std::uint64_t best = 0;
    for (const auto s : sizes) best = std::max(best, s);
    return best;
  }

  traversal_work work() const {
    traversal_work w;
    w.visits = stats.visits;
    w.pushes = stats.pushes;
    w.updates = updates;
    // Every vertex is seeded with its own id against an invalid (maximal)
    // initial label, so each one relaxes at least once.
    w.relaxed_vertices = component.size();
    w.derive();
    return w;
  }
};

/// One seed visitor of a label-correcting run: a candidate `label` for
/// `vertex`, reached from `from`. BFS and SSSP read `from` as the parent and
/// `label` as the level or distance; CC reads `from` as the candidate
/// component id and ignores `label`.
template <typename VertexId>
struct label_seed {
  VertexId vertex{};
  VertexId from{};
  dist_t label = 0;
};

/// What a BFS, SSSP or CC job starts from (engine::submit_bfs/sssp/cc).
/// Labels only fall toward one fixed point, so a fresh run, a resume from a
/// checkpoint and an incremental repair are the same operation: install
/// labels, push seeds, run to quiescence.
template <typename Result>
struct seeded_run {
  using vertex_id = typename Result::vertex_id;
  /// Labels installed before the run; left empty, every vertex starts
  /// unlabelled (a CC run then seeds every vertex with its own id).
  Result prior{};
  /// Seed visitors, pushed on the submitting thread.
  std::vector<label_seed<vertex_id>> seeds{};
  /// The job's label in job_stats, and the prefix of its work counters.
  const char* label = "traversal";
  /// Overlay epoch an incremental repair runs against (job_stats).
  std::uint64_t delta_epoch = 0;
  /// Runs on the completing worker before the result is built, when the
  /// run reached quiescence.
  std::function<void(const queue_run_stats&)> on_done{};
};

}  // namespace asyncgt
