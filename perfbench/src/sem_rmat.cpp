// sem-rmat: the im-rmat generator at scale 16, written to .agt files and
// opened through sem_config on the simulated `intel` device with a 10%
// block cache, using the SEM defaults the tools apply (sync backend, LRU,
// priority order, per-push delivery, secondary sort). BFS and CC repeat one
// at a time with lanes = nproc - 1, over unweighted files as in the paper's
// SEM tables. Time goes to device wait, cache probes and the I/O backend;
// the queue does the same kind of work as in im-rmat, so a change that
// costs semi-sort locality shows here only.
//
// Hot ordering, pressure eviction, prefetch, hybrid, io_uring and fault
// injection stay off because they are off by default.
#include <filesystem>
#include <memory>
#include <optional>
#include <unistd.h>

#include "closed_loop.hpp"
#include "im_setup.hpp"

namespace perfbench {

namespace {

constexpr unsigned default_scale = 16;
constexpr double cache_fraction = 0.10;
// The preset's own latencies (200 us reads). Shorter simulated reads drown
// in the host's sleep granularity (~60 us oversleep per read), so device
// wait would measure timer noise instead of the model.
constexpr double time_scale = 1.0;

struct sem_graphs {
  asyncgt::sem::sem_bundle<vertex32> directed;
  asyncgt::sem::sem_bundle<vertex32> undirected;
};

sem_graphs open_both(const std::string& dir, asyncgt::sem::ssd_model& dev,
                     const asyncgt::traversal_options& opts) {
  auto open = [&](const std::string& path) {
    return asyncgt::sem::sem_config::from_options(opts, path)
        .with_device(&dev)
        .with_cache_fraction(cache_fraction)
        .open<vertex32>();
  };
  return {open(dir + "/directed.agt"), open(dir + "/undirected.agt")};
}

/// Cache counters summed over both graphs' caches.
asyncgt::sem::cache_counters cache_totals(const sem_graphs& s) {
  asyncgt::sem::cache_counters c;
  for (const auto* b : {&s.directed, &s.undirected}) {
    const auto x = b->cache->counters();
    c.hits += x.hits;
    c.misses += x.misses;
    c.evictions += x.evictions;
  }
  return c;
}

asyncgt::sem::io_backend_counters backend_totals(const sem_graphs& s) {
  asyncgt::sem::io_backend_counters c;
  for (const auto* b : {&s.directed, &s.undirected}) {
    const auto x = b->graph->backend().counters();
    c.requests += x.requests;
    c.batches += x.batches;
  }
  return c;
}

}  // namespace

workload_result run_sem_rmat(const run_args& a, gate& g, tracer& tr) {
  const unsigned scale = a.scale != 0 ? a.scale : default_scale;
  const std::size_t lanes = bench_lanes();
  asyncgt::traversal_options opts = tool_options(lanes, true);
  const std::string dir =
      a.out_dir + "/sem-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct cleanup {
    std::string dir;
    ~cleanup() { std::filesystem::remove_all(dir); }
  } cleanup_dir{dir};

  asyncgt::sem::ssd_model dev(asyncgt::sem::intel_params(time_scale));

  // Set-up, repeated: generate, build, write both .agt files, open them
  // through sem_config, start the engine and warm it with one BFS. The
  // last repetition's graphs and engine are kept; the in-memory pair stays
  // only to compute the serial references.
  setup_timings times;
  std::optional<rmat_pair> mem;
  std::optional<sem_graphs> sem;
  std::unique_ptr<asyncgt::engine> eng;
  std::vector<vertex32> roots;
  for (unsigned rep = 0; rep < setup_reps; ++rep) {
    eng.reset();
    sem.reset();
    mem.reset();
    const std::uint64_t req = tr.next_request();
    const auto t0 = clock_type::now();
    const auto setup_span = tr.open("setup", "bench", req);
    mem.emplace(build_rmat_pair(scale, a.seed, false, lanes, times, tr,
                                req, setup_span));
    roots = pinned_roots(mem->directed, 2);
    timed(times.write_s, tr, "graph.write_graph", "graph", req, setup_span,
          [&] {
            asyncgt::write_graph(dir + "/directed.agt", mem->directed);
            asyncgt::write_graph(dir + "/undirected.agt", mem->undirected);
            return 0;
          });
    sem.emplace(timed(times.open_s, tr, "sem.sem_config_open", "sem", req,
                      setup_span, [&] { return open_both(dir, dev, opts); }));
    sem->directed.wire_queue(opts.queue);
    eng = start_engine(lanes, opts, *sem->directed.graph, roots.front(), tr,
                       req, setup_span);
    tr.close(setup_span);
    times.setup_s.push_back(seconds_since(t0));
  }
  const std::uint64_t spawned_warm = eng->pool().threads_spawned();

  const references ref =
      compute_references(mem->directed, mem->undirected, roots, false,
                         tr);

  const auto dev0 = dev.counters();
  const auto cache0 = cache_totals(*sem);
  const auto io0 = backend_totals(*sem);
  probe_sampler inflight([&dev] { return dev.inflight(); },
                         std::chrono::microseconds(200));
  corruptor corrupt(a.corrupt_labels);
  const loop_samples s =
      closed_loop(*eng, *sem->directed.graph, *sem->undirected.graph, ref,
                  {k_bfs, k_cc}, opts, a.seconds, g, tr, corrupt);
  inflight.stop();
  check_conservation(g, *eng, 1 + s.jobs);  // warm-up + timed jobs
  const auto dev1 = dev.counters();
  const auto cache1 = cache_totals(*sem);
  const auto io1 = backend_totals(*sem);

  const double read_bytes =
      static_cast<double>(dev1.read_bytes - dev0.read_bytes);
  const double bytes_per_visit =
      s.visits == 0 ? 0.0 : read_bytes / static_cast<double>(s.visits);
  workload_result r;
  r.end_to_end = {
      {"setup_s", median(times.setup_s), "s"},
      {"bfs_s", kind_median(s, k_bfs), "s"},
      {"cc_s", kind_median(s, k_cc), "s"},
      {"queries_per_s", s.queries_per_s(), "1/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  r.report_only = {
      {"device_bytes_per_visit", bytes_per_visit, "B"},
      {"graph.write_s", median(times.write_s), "s"},
      {"sem.open_s", median(times.open_s), "s"},
      {"jobs", static_cast<double>(s.jobs), "count"},
  };
  auto& m = r.per_layer;
  times.fill(m);
  loop_layer_metrics(m, s);
  const std::uint64_t hits = cache1.hits - cache0.hits;
  const std::uint64_t probes = hits + cache1.misses - cache0.misses;
  m["sem.cache_hit_rate"] =
      probes == 0 ? 0.0 : static_cast<double>(hits) / probes;
  m["sem.cache_evictions"] =
      static_cast<double>(cache1.evictions - cache0.evictions);
  m["sem.device_reads"] = static_cast<double>(dev1.reads - dev0.reads);
  m["sem.device_read_bytes"] = read_bytes;
  m["sem.device_inflight_mean"] = inflight.mean();
  m["sem.device_inflight_peak"] =
      std::max(inflight.peak(), static_cast<double>(dev1.max_inflight));
  const std::uint64_t batches = io1.batches - io0.batches;
  m["sem.io_requests_per_batch"] =
      batches == 0 ? 0.0
                   : static_cast<double>(io1.requests - io0.requests) /
                         static_cast<double>(batches);
  m["sem.device_bytes_per_visit"] = bytes_per_visit;
  m["graph.write_share"] = median(times.write_s) / median(times.setup_s);
  m["sem.open_share"] = median(times.open_s) / median(times.setup_s);
  m["service.spawned_after_warmup"] =
      static_cast<double>(eng->pool().threads_spawned() - spawned_warm);
  m["baselines.serial_bfs_s"] = median(ref.bfs_s);
  m["baselines.serial_cc_s"] = ref.cc_s;

  r.info.set("lanes", std::to_string(lanes));
  r.info.set("device_preset", "intel");
  r.info.set("time_scale", time_scale);
  r.info.set("cache_fraction", cache_fraction);
  r.info.set("io_backend", opts.io_backend);
  describe_graph(r.info, "directed", mem->directed);
  describe_graph(r.info, "undirected", mem->undirected);
  return r;
}

}  // namespace perfbench
