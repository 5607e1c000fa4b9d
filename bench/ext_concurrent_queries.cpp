// Concurrent semi-external queries through the persistent traversal
// service (docs/service_api.md) — the scenario the engine exists for.
//
// The ROADMAP north star is a service answering many concurrent
// BFS/SSSP/CC queries over one shared disk-resident graph. This bench
// runs a MIXED workload — J jobs cycling bfs/sssp/cc — and measures the
// effects the service design predicts, plus the job-scoped telemetry the
// observability layer (docs/observability.md) promises:
//
//   1. Shared cache residency. J concurrent jobs read the same .agt file
//      through ONE block_cache and ONE ssd_model: every block one job
//      faults in is a hit for the others, so the aggregate hit rate of the
//      concurrent phase must be at least the single-job baseline (both
//      phases start from a cold, equally-sized cache). The default cache
//      holds the whole file; pass --cache-fraction < 1 to re-add LRU
//      capacity churn and watch the two effects fight.
//   2. Warm pool reuse. All phases run on one asyncgt::engine — the pool
//      spawn counter must not move after warm-up.
//   3. Attribution conservation. Each job's stats() snapshot is a slice of
//      the shared telemetry: summed over the J concurrent jobs, per-job
//      visits must equal the registry's queue.visits delta EXACTLY, and
//      per-job io_bytes the io_recorder's byte delta — nothing lost,
//      nothing double-counted, even with all jobs interleaving on one
//      cache/device/recorder.
//   4. Block heat. The shared sem_csr carries a block_heat; after the
//      concurrent phase its top-K hot-block table must be non-empty (the
//      SEM path actually touched blocks) and is emitted in the report.
//
// Correctness rides along: every concurrent job's labels are compared
// against the serial baseline for its kind (serial_bfs / dijkstra_sssp /
// serial_cc) — label correction must stay exact under job interleaving.
//
// The JSON report (schema v2) carries a "jobs" array (one entry per
// concurrent job: counters, flags, lifecycle latencies), a "job_latency"
// percentile block over the J job latencies, the "block_heat" section,
// and the conservation sums — tools/check_bench_json.py validates the
// shape, tools/compare_bench_json.py diffs two runs.
//
//   ./ext_concurrent_queries [--scale=15] [--jobs=4] [--threads=32]
//                            [--time-scale=4] [--cache-fraction=1.0]
//                            [--device=intel] [--flush-batch=1]
//                            [--json=F] [--trace=F] [--stats-dump=N]
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "baselines/serial_cc.hpp"
#include "baselines/serial_sssp.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "gen/weights.hpp"
#include "sem/block_cache.hpp"
#include "sem/block_heat.hpp"
#include "sem/device_presets.hpp"
#include "sem/sem_config.hpp"
#include "sem/sem_csr.hpp"
#include "service/engine.hpp"
#include "telemetry/io_recorder.hpp"
#include "util/stats.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

/// The `jobs` highest-degree vertices, one start per concurrent query.
std::vector<vertex32> pick_starts(const csr32& g, std::size_t jobs) {
  std::vector<vertex32> order(g.num_vertices());
  for (vertex32 v = 0; v < g.num_vertices(); ++v) order[v] = v;
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(jobs),
                    order.end(), [&](vertex32 a, vertex32 b) {
                      return g.out_degree(a) > g.out_degree(b);
                    });
  order.resize(jobs);
  return order;
}

json_value cache_section(const sem::block_cache& cache, double elapsed) {
  json_value out = json_value::object();
  out.set("cache", bench::to_json(cache.counters()));
  out.set("elapsed_seconds", elapsed);
  return out;
}

/// Type-erased handle over job<bfs_result>/job<sssp_result>/job<cc_result>
/// so one vector can hold the mixed in-flight workload.
struct running_job {
  std::string kind;
  std::function<bool()> wait_and_check;          // get() + labels vs baseline
  std::function<service::job_stats()> stats;     // handle.stats() snapshot
};

json_value latency_percentiles(std::vector<double> samples) {
  const double mx = samples.empty()
                        ? 0.0
                        : *std::max_element(samples.begin(), samples.end());
  json_value out = json_value::object();
  out.set("p50", percentile(samples, 50.0));
  out.set("p95", percentile(samples, 95.0));
  out.set("p99", percentile(samples, 99.0));
  out.set("max", mx);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 15));
  const auto jobs = static_cast<std::size_t>(opt.get_int("jobs", 4));
  traversal_options topt = traversal_options::from_flags(opt, true);
  if (!opt.has("threads")) topt.queue.num_threads = 32;
  const double time_scale = opt.get_double("time-scale", 4.0);
  // --cache-fraction flows through the shared parser; this bench's default
  // is a cache big enough to hold the file (the shared-cache effect is the
  // point), and an explicit 0 degrades to the 1-block floor as before.
  const double cache_fraction =
      topt.cache_fraction >= 0.0 ? topt.cache_fraction : 1.0;

  banner("Concurrent mixed SEM queries over one shared graph + cache",
         "service API (docs/service_api.md), job-scoped telemetry "
         "(docs/observability.md)");

  bench_report rep(opt, "ext_concurrent_queries");
  rep.attach(topt.queue);
  // The conservation checks below need the registry even without --json,
  // so wire it unconditionally (attach() is a no-op when nothing was
  // requested on the command line).
  topt.queue.metrics = &rep.metrics();

  // Weighted so the SSSP jobs are non-trivial and comparable to Dijkstra.
  const csr32 g = add_weights(rmat_graph_undirected<vertex32>(rmat_a(scale, 42)),
                              weight_scheme::uniform, 7);
  const auto tmp =
      std::filesystem::temp_directory_path() / "asyncgt_concurrent";
  std::filesystem::create_directories(tmp);
  const std::string path = (tmp / "graph.agt").string();
  write_graph(path, g);

  const auto params = sem::device_preset_by_name(
      opt.get_string("device", "intel"), time_scale);
  sem::ssd_model dev(params);
  // Job-scoped observability around the shared graph: one io_recorder and
  // one block_heat for every job; per-job slices come from metric_scope.
  telemetry::io_recorder rec;
  sem::sem_config scfg = sem::sem_config::from_options(topt, path);
  scfg.with_device(&dev).with_heat().with_io_recorder(&rec);
  if (cache_fraction > 0.0) {
    scfg.with_cache_fraction(cache_fraction);
  } else {
    scfg.with_cache_blocks(1);
  }
  auto bundle = scfg.open<vertex32>();
  sem::sem_csr32& sg = *bundle.graph;
  sem::block_cache& cache = *bundle.cache;
  sem::block_heat& heat = *bundle.heat;

  const std::vector<vertex32> starts = pick_starts(g, jobs);
  std::vector<bfs_result<vertex32>> expected_bfs;
  std::vector<sssp_result<vertex32>> expected_sssp;
  for (const vertex32 s : starts) {
    expected_bfs.push_back(serial_bfs(g, s));
    expected_sssp.push_back(dijkstra_sssp(g, s));
  }
  const cc_result<vertex32> expected_cc = serial_cc(g);

  // One engine for the whole bench, pre-sized so all J jobs genuinely
  // overlap (each job takes num_threads pool slots; a narrower pool would
  // FIFO-serialize the gangs instead of interleaving them).
  engine eng({.pool_threads = topt.queue.num_threads * jobs, .defaults = topt});

  bool ok = true;
  text_table table;
  table.header({"phase", "jobs", "reads", "cache hit", "evict", "sec"});

  // Submits job j of the mixed workload (kind cycles bfs/sssp/cc) and
  // wraps it behind the type-erased running_job surface.
  const auto submit_mixed = [&](std::size_t j) -> running_job {
    const vertex32 s = starts[j];
    switch (j % 3) {
      case 0: {
        auto h = std::make_shared<job<bfs_result<vertex32>>>(
            eng.submit_bfs(sg, s));
        return {"bfs",
                [h, j, &expected_bfs] {
                  return h->get().level == expected_bfs[j].level;
                },
                [h] { return h->stats(); }};
      }
      case 1: {
        auto h = std::make_shared<job<sssp_result<vertex32>>>(
            eng.submit_sssp(sg, s));
        return {"sssp",
                [h, j, &expected_sssp] {
                  return h->get().dist == expected_sssp[j].dist;
                },
                [h] { return h->stats(); }};
      }
      default: {
        auto h = std::make_shared<job<cc_result<vertex32>>>(eng.submit_cc(sg));
        return {"cc",
                [h, &expected_cc] {
                  return h->get().component == expected_cc.component;
                },
                [h] { return h->stats(); }};
      }
    }
  };

  // ---- Phase 1: single-job baseline, cold cache ----
  cache.clear();
  cache.reset_counters();
  double t_single = 0.0;
  {
    wall_timer t;
    auto r = eng.submit_bfs(sg, starts[0]).get();
    t_single = t.elapsed_seconds();
    ok &= shape_check(r.level == expected_bfs[0].level,
                      "single SEM job matches serial BFS");
  }
  const double hit_single = cache.counters().hit_rate();
  table.row({"single", "1", fmt_count(dev.counters().reads),
             fmt_ratio(hit_single), fmt_count(cache.counters().evictions),
             fmt_seconds(t_single)});
  if (rep.json_enabled()) {
    rep.section("single") = cache_section(cache, t_single);
  }

  // ---- Phase 2: J mixed concurrent jobs, cold cache, shared everything ----
  cache.clear();
  cache.reset_counters();
  heat.reset();
  const std::uint64_t spawned_before = eng.pool().threads_spawned();
  // Bracket the phase in the shared sinks for the conservation checks.
  const std::uint64_t visits_before =
      rep.metrics().get_counter("queue.visits").total();
  const telemetry::io_snapshot io_before = rec.snapshot();

  double t_conc = 0.0;
  std::vector<service::job_stats> job_stats;
  {
    wall_timer t;
    std::vector<running_job> handles;
    handles.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) handles.push_back(submit_mixed(j));
    for (std::size_t j = 0; j < jobs; ++j) {
      ok &= shape_check(handles[j].wait_and_check(),
                        "concurrent SEM " + handles[j].kind + " job " +
                            std::to_string(j) + " matches serial baseline");
    }
    t_conc = t.elapsed_seconds();
    for (auto& h : handles) job_stats.push_back(h.stats());
  }
  const std::uint64_t visits_after =
      rep.metrics().get_counter("queue.visits").total();
  const telemetry::io_snapshot io_after = rec.snapshot();
  const double hit_conc = cache.counters().hit_rate();
  table.row({"concurrent", std::to_string(jobs),
             fmt_count(dev.counters().reads), fmt_ratio(hit_conc),
             fmt_count(cache.counters().evictions), fmt_seconds(t_conc)});
  if (rep.json_enabled()) {
    json_value s = cache_section(cache, t_conc);
    s.set("jobs", static_cast<std::uint64_t>(jobs));
    rep.section("concurrent") = std::move(s);
  }

  // ---- Round 2 of phase 2: the pool must already be fully warm ----
  cache.reset_counters();
  {
    std::vector<running_job> handles;
    for (std::size_t j = 0; j < jobs; ++j) handles.push_back(submit_mixed(j));
    for (auto& h : handles) ok &= shape_check(h.wait_and_check(),
                                              "warm-round job matches");
  }
  const std::uint64_t spawned_after = eng.pool().threads_spawned();

  std::printf("%s\n", table.render().c_str());

  // ---- Checks ----
  // Shared-cache effect: concurrent jobs sharing one block cache see a hit
  // rate at least as good as a single job over the same cold cache.
  ok &= shape_check(hit_conc >= hit_single,
                    "shared-cache hit rate of concurrent jobs >= single-job "
                    "baseline");
  ok &= shape_check(spawned_after == spawned_before &&
                        spawned_before ==
                            static_cast<std::uint64_t>(
                                topt.queue.num_threads * jobs),
                    "warm engine spawned zero threads across all rounds");

  // Attribution conservation: the J per-job slices sum EXACTLY to the
  // shared sinks' deltas across the concurrent phase.
  std::uint64_t sum_visits = 0;
  std::uint64_t sum_io_bytes = 0;
  std::uint64_t sum_io_ops = 0;
  for (const auto& js : job_stats) {
    sum_visits += js.visits;
    sum_io_bytes += js.io_bytes;
    sum_io_ops += js.io_ops;
    ok &= shape_check(js.completed && !js.failed && !js.cancelled,
                      "job " + std::to_string(js.job_id) +
                          " snapshot says completed");
    ok &= shape_check(js.total_seconds >= js.queue_wait_seconds &&
                          js.total_seconds >= js.run_seconds,
                      "job lifecycle latencies are consistent");
  }
  const std::uint64_t visits_delta = visits_after - visits_before;
  const std::uint64_t io_bytes_delta = io_after.bytes - io_before.bytes;
  const std::uint64_t io_ops_delta = io_after.ops - io_before.ops;
  ok &= shape_check(sum_visits == visits_delta,
                    "per-job visit sum == global queue.visits delta (" +
                        std::to_string(sum_visits) + " vs " +
                        std::to_string(visits_delta) + ")");
  ok &= shape_check(sum_io_bytes == io_bytes_delta,
                    "per-job io byte sum == io_recorder delta (" +
                        std::to_string(sum_io_bytes) + " vs " +
                        std::to_string(io_bytes_delta) + ")");
  ok &= shape_check(sum_io_ops == io_ops_delta,
                    "per-job io op sum == io_recorder delta");

  // Block heat: the SEM path must have touched blocks; the hottest-block
  // table is the report's locality lens.
  const auto hot = heat.top_k(10);
  ok &= shape_check(!hot.empty() && hot[0].accesses > 0,
                    "block-heat top-K is non-empty after the SEM phase");
  ok &= shape_check(heat.total_accesses() >= heat.total_misses(),
                    "block-heat misses <= accesses");

  // ---- Report ----
  if (rep.json_enabled()) {
    // Full admission/outcome counters (schema v3 — the conservation law
    // checked by tools/check_bench_json.py), plus this bench's extras.
    json_value& s = rep.section("service");
    s = bench::to_json(eng.counters());
    s.set("pool_threads_spawned", spawned_after);
    s.set("jobs_submitted", eng.jobs_submitted());
    s.set("jobs_completed", eng.jobs_completed());
    s.set("hit_rate_single", hit_single);
    s.set("hit_rate_concurrent", hit_conc);

    std::vector<double> lat_total, lat_wait, lat_run;
    for (const auto& js : job_stats) {
      rep.add_job(bench::to_json(js));
      lat_total.push_back(js.total_seconds);
      lat_wait.push_back(js.queue_wait_seconds);
      lat_run.push_back(js.run_seconds);
    }
    json_value& lat = rep.section("job_latency");
    lat.set("jobs", static_cast<std::uint64_t>(job_stats.size()));
    lat.set("total_seconds", latency_percentiles(lat_total));
    lat.set("queue_wait_seconds", latency_percentiles(lat_wait));
    lat.set("run_seconds", latency_percentiles(lat_run));

    rep.section("block_heat") = bench::to_json(heat, 10);
    rep.section("io") = telemetry::to_json(rec.snapshot());

    json_value& cons = rep.section("conservation");
    cons.set("sum_job_visits", sum_visits);
    cons.set("global_visits_delta", visits_delta);
    cons.set("sum_job_io_bytes", sum_io_bytes);
    cons.set("global_io_bytes_delta", io_bytes_delta);
    cons.set("exact", sum_visits == visits_delta &&
                          sum_io_bytes == io_bytes_delta);
  }
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();

  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  return ok ? 0 : 1;
}
