// The single-client closed loop shared by im-rmat and sem-rmat: BFS, SSSP
// and CC jobs, one at a time through one engine, from pinned roots, each
// checked against the serial reference computed in set-up.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "asyncgt.hpp"
#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "common.hpp"

namespace perfbench {

using asyncgt::vertex32;

enum job_kind : int { k_bfs = 0, k_sssp = 1, k_cc = 2 };
inline const char* kind_name(int k) {
  return k == k_bfs ? "bfs" : k == k_sssp ? "sssp" : "cc";
}

/// Serial reference labels, computed once in set-up.
struct references {
  std::vector<vertex32> roots;
  std::vector<std::vector<asyncgt::dist_t>> bfs_level;  // per root
  std::vector<std::vector<asyncgt::dist_t>> sssp_dist;  // per root
  std::vector<vertex32> cc;
  std::vector<double> bfs_s, sssp_s;  // serial reference times per root
  double cc_s = 0.0;
};

/// Pinned roots: the `k` highest-out-degree vertices (ties to the lower id),
/// so every root sits in the giant component whatever the seed.
template <typename Graph>
std::vector<vertex32> pinned_roots(const Graph& g, std::size_t k) {
  std::vector<vertex32> all(g.num_vertices());
  for (vertex32 v = 0; v < all.size(); ++v) all[v] = v;
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [&](vertex32 a, vertex32 b) {
                      const auto da = g.out_degree(a), db = g.out_degree(b);
                      return da != db ? da > db : a < b;
                    });
  all.resize(k);
  return all;
}

/// Serial references over the directed (BFS/SSSP) and undirected (CC)
/// in-memory graphs, timed into the baselines layer.
template <typename Directed, typename Undirected>
references compute_references(const Directed& d, const Undirected& u,
                              std::vector<vertex32> roots, bool sssp,
                              tracer& tr) {
  references r;
  r.roots = std::move(roots);
  const std::uint64_t req = tr.next_request();
  for (const vertex32 root : r.roots) {
    double t = tr.now();
    auto t0 = clock_type::now();
    r.bfs_level.push_back(asyncgt::serial_bfs(d, root).level);
    r.bfs_s.push_back(seconds_since(t0));
    tr.add("baselines.serial_bfs", "baselines", req, -1, t, tr.now());
    if (!sssp) continue;
    t = tr.now();
    t0 = clock_type::now();
    r.sssp_dist.push_back(asyncgt::dijkstra_sssp(d, root).dist);
    r.sssp_s.push_back(seconds_since(t0));
    tr.add("baselines.serial_sssp", "baselines", req, -1, t, tr.now());
  }
  const double t = tr.now();
  const auto t0 = clock_type::now();
  r.cc = asyncgt::serial_cc(u).component;
  r.cc_s = seconds_since(t0);
  tr.add("baselines.serial_cc", "baselines", req, -1, t, tr.now());
  return r;
}

/// Everything the loop measured. Latencies are seconds, per job kind, kept
/// apart for jobs that ran with bench-side spans on and off.
struct loop_samples {
  std::array<std::vector<double>, 3> latency;         // untraced jobs
  std::array<std::vector<double>, 3> latency_traced;  // traced jobs
  std::vector<double> all_latency;
  std::vector<double> submit_us, queue_wait_ms, run_ms, inspections;
  std::vector<double> max_queue, load_cv;
  std::uint64_t visits = 0, pushes = 0, flushes = 0, wakeups = 0;
  std::uint64_t wasted = 0, updates = 0, reached = 0, edges = 0;
  std::uint64_t io_retries = 0, jobs = 0;
  /// Wall time of each whole cycle of the job mix (closed loops only).
  std::vector<double> cycle_s;
  std::size_t jobs_per_cycle = 0;

  /// Completed queries per second: jobs in a cycle over the median cycle
  /// time, so one slow stretch of a run moves it as little as it moves the
  /// per-kind medians.
  double queries_per_s() const {
    const double c = median_or_zero(cycle_s);
    return c == 0.0 ? 0.0 : static_cast<double>(jobs_per_cycle) / c;
  }
};

/// Adds one finished job's public counters to the loop's sums.
template <typename Result>
void account(loop_samples& s, const Result& res,
             const asyncgt::service::job_stats& st, std::uint64_t edges,
             std::uint64_t reached) {
  const auto w = res.work();
  s.visits += res.stats.visits;
  s.pushes += res.stats.pushes;
  s.flushes += res.stats.flushes;
  s.wakeups += res.stats.wakeups;
  s.wasted += w.wasted_visits;
  s.updates += w.updates;
  s.reached += reached;
  s.edges += edges;
  s.io_retries += st.io_retries;
  s.max_queue.push_back(static_cast<double>(res.stats.max_queue_length));
  s.load_cv.push_back(res.stats.load_imbalance_cv());
  s.queue_wait_ms.push_back(st.queue_wait_seconds * 1e3);
  s.run_ms.push_back(st.run_seconds * 1e3);
  s.inspections.push_back(static_cast<double>(st.edge_inspections));
}

/// Checks a job's service-level invariants: completed, visits == pushes.
inline void check_job(gate& g, const asyncgt::service::job_stats& st,
                      const std::string& what) {
  g.check(st.completed, what + ": job outcome " + st.outcome);
  g.check(st.visits == st.pushes,
          what + ": visits " + std::to_string(st.visits) + " != pushes " +
              std::to_string(st.pushes));
}

/// Records the spans of one finished job: the client's root span, the
/// submit call, the blocking get() and, inside it, the job's run interval
/// from its public stats (queue + core work: nothing separates them from
/// outside the library).
inline void trace_job(tracer& tr, std::uint64_t req, const std::string& name,
                      std::int64_t parent, double ts0,
                      clock_type::time_point t1, clock_type::time_point t2,
                      double run_seconds,
                      const char* submit_name = "service.submit",
                      const char* submit_layer = "service") {
  const auto root = tr.add(name, "bench", req, parent, ts0, tr.now());
  tr.add(submit_name, submit_layer, req, root, ts0, tr.at(t1));
  const auto get = tr.add("service.get", "service", req, root, tr.at(t1),
                          tr.at(t2));
  tr.add("queue.run", "queue", req, get,
         std::max(tr.at(t1), tr.at(t2) - run_seconds), tr.at(t2));
}

/// Submits one query, waits for it, hands its label array to
/// `verify(kind, labels)`, checks the job's invariants and records its
/// latency and counters into `s`. Failures land in the gate.
template <typename Directed, typename Undirected, typename Verify>
void run_query(asyncgt::engine& eng, const Directed& d, const Undirected& u,
               int kind, vertex32 root,
               const asyncgt::traversal_options& opts, bool traced,
               loop_samples& s, gate& g, tracer& tr, Verify&& verify) {
  const std::string what = std::string(kind_name(kind)) + " query root " +
                           std::to_string(root);
  const std::uint64_t req = traced ? tr.next_request() : 0;
  const double ts0 = tr.now();
  const auto t0 = clock_type::now();
  try {
    asyncgt::service::job_stats st;
    clock_type::time_point t1, t2;
    auto finish = [&](auto& j, auto& res, auto& labels, std::uint64_t edges,
                      std::uint64_t reached) {
      st = j.stats();
      verify(kind, labels);
      account(s, res, st, edges, reached);
    };
    if (kind == k_bfs) {
      auto j = eng.submit_bfs(d, root, opts);
      t1 = clock_type::now();
      auto res = j.get();
      t2 = clock_type::now();
      finish(j, res, res.level, d.num_edges(), res.visited_count());
    } else if (kind == k_sssp) {
      auto j = eng.submit_sssp(d, root, opts);
      t1 = clock_type::now();
      auto res = j.get();
      t2 = clock_type::now();
      finish(j, res, res.dist, d.num_edges(), res.visited_count());
    } else {
      auto j = eng.submit_cc(u, opts);
      t1 = clock_type::now();
      auto res = j.get();
      t2 = clock_type::now();
      finish(j, res, res.component, u.num_edges(), u.num_vertices());
    }
    check_job(g, st, what);
    const double lat = std::chrono::duration<double>(t2 - t0).count();
    (traced ? s.latency_traced : s.latency)[kind].push_back(lat);
    s.all_latency.push_back(lat);
    s.submit_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++s.jobs;
    if (traced) {
      trace_job(tr, req, std::string("query.") + kind_name(kind), -1, ts0, t1,
                t2, st.run_seconds);
    }
  } catch (const std::exception& e) {
    g.attempt();
    g.fail(what + ": threw " + e.what());
  }
}

/// Runs the closed loop for `seconds`, stopping on a whole cycle (every
/// kind in `kinds` from every root once). In a traced run, cycles alternate
/// between traced and untraced so the same run yields the tracing overhead.
template <typename Directed, typename Undirected>
loop_samples closed_loop(asyncgt::engine& eng, const Directed& d,
                         const Undirected& u, const references& ref,
                         const std::vector<int>& kinds,
                         const asyncgt::traversal_options& opts,
                         double seconds, gate& g, tracer& tr,
                         corruptor& corrupt) {
  loop_samples s;
  const std::size_t cycle = kinds.size() * ref.roots.size();
  const std::size_t period = tr.enabled() ? 2 * cycle : cycle;
  s.jobs_per_cycle = cycle;
  const auto start = clock_type::now();
  auto cycle_start = start;
  for (std::size_t i = 0;; ++i) {
    if (i % cycle == 0 && i > 0) {
      const auto now = clock_type::now();
      s.cycle_s.push_back(std::chrono::duration<double>(now - cycle_start)
                              .count());
      cycle_start = now;
    }
    if (i % period == 0 && i > 0 && seconds_since(start) >= seconds) break;
    const int kind = kinds[i % kinds.size()];
    const std::size_t ri = (i / kinds.size()) % ref.roots.size();
    const bool traced = tr.enabled() && (i / cycle) % 2 == 0;
    run_query(eng, d, u, kind, ref.roots[ri], opts, traced, s, g, tr,
              [&](int k, auto& labels) {
                corrupt.maybe_corrupt(labels);
                std::uint64_t bad = 0;
                if constexpr (std::is_same_v<std::decay_t<decltype(labels)>,
                                             std::vector<vertex32>>) {
                  bad = count_mismatches(labels, ref.cc);
                } else {
                  bad = count_mismatches(labels, k == k_bfs
                                                     ? ref.bfs_level[ri]
                                                     : ref.sssp_dist[ri]);
                }
                g.check(bad == 0, std::string(kind_name(k)) + " job " +
                                      std::to_string(i) + ": " +
                                      std::to_string(bad) +
                                      " labels differ from the serial "
                                      "reference");
              });
  }
  return s;
}

/// Service conservation law over the engine's lifetime, plus the number of
/// jobs this run saw complete.
inline void check_conservation(gate& g, const asyncgt::engine& eng,
                               std::uint64_t expected_completed) {
  const auto c = eng.counters();
  g.check(c.submitted == c.rejected + c.active + c.completed + c.failed +
                             c.cancelled + c.deadline_exceeded + c.stalled +
                             c.shed,
          "service conservation law broken");
  g.check(c.completed == expected_completed,
          "service completed " + std::to_string(c.completed) +
              " jobs, expected " + std::to_string(expected_completed));
}

/// Per-layer figures every closed-loop workload derives the same way.
inline void loop_layer_metrics(std::map<std::string, double>& m,
                               const loop_samples& s) {
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  m["queue.visits_per_edge"] = ratio(s.visits, s.edges);
  m["queue.pushes_per_flush"] = ratio(s.pushes, s.flushes);
  m["queue.wakeups_per_kvisit"] = ratio(1e3 * s.wakeups, s.visits);
  m["queue.max_queue_length"] = median_or_zero(s.max_queue);
  m["queue.load_cv"] = median_or_zero(s.load_cv);
  m["core.wasted_visit_frac"] = ratio(s.wasted, s.visits);
  m["core.updates_per_vertex"] = ratio(s.updates, s.reached);
  m["service.submit_us"] = median_or_zero(s.submit_us);
  m["service.queue_wait_ms_p50"] = median_or_zero(s.queue_wait_ms);
  m["service.queue_wait_ms_tail"] = highest_tail(s.queue_wait_ms, 0.95).value;
  m["service.run_ms"] = median_or_zero(s.run_ms);
  m["service.edge_inspections_per_job"] = median_or_zero(s.inspections);
  m["sem.io_retries"] = static_cast<double>(s.io_retries);
  std::vector<double> lat_ms;
  for (const double x : s.all_latency) lat_ms.push_back(x * 1e3);
  m["query_p50_ms"] = median_or_zero(lat_ms);
  const reported_tail tail = highest_tail(lat_ms, 0.95);
  m["query_tail_ms"] = tail.value;
  m["query_tail_pct"] = tail.pct;
  m["query_tail_samples_beyond"] = static_cast<double>(tail.beyond);
  // Tracing overhead: traced vs untraced medians of the same job mix.
  double traced = 0.0, untraced = 0.0;
  for (int k = 0; k < 3; ++k) {
    if (s.latency[k].empty() || s.latency_traced[k].empty()) continue;
    traced += median(s.latency_traced[k]);
    untraced += median(s.latency[k]);
  }
  m["telemetry.trace_overhead_frac"] =
      untraced == 0.0 ? 0.0 : traced / untraced - 1.0;
}

/// Median latency of one job kind over every job of the run.
inline double kind_median(const loop_samples& s, int kind) {
  std::vector<double> all = s.latency[kind];
  all.insert(all.end(), s.latency_traced[kind].begin(),
             s.latency_traced[kind].end());
  return median_or_zero(all);
}

}  // namespace perfbench
