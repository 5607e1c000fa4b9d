// im-rmat: one in-memory RMAT-A graph (UW weights) plus its undirected copy
// for CC; BFS, SSSP and CC jobs one at a time through one engine with
// lanes = nproc - 1 (bench_lanes). Time goes to the queue and core layers;
// sem, the overlay and admission do no work here.
#include <memory>
#include <optional>

#include "closed_loop.hpp"
#include "im_setup.hpp"

namespace perfbench {

workload_result run_im_rmat(const run_args& a, gate& g, tracer& tr) {
  const unsigned scale = a.scale != 0 ? a.scale : 15;
  const std::size_t lanes = bench_lanes();
  const asyncgt::traversal_options opts = tool_options(lanes, false);

  // Set-up, repeated: generate, build, weight, start the engine and warm it
  // with one BFS. The last repetition's graphs and engine are kept.
  setup_timings times;
  std::optional<rmat_pair> graphs;
  std::unique_ptr<asyncgt::engine> eng;
  std::vector<vertex32> roots;
  for (unsigned rep = 0; rep < setup_reps; ++rep) {
    eng.reset();
    graphs.reset();
    const std::uint64_t req = tr.next_request();
    const auto t0 = clock_type::now();
    const auto setup_span = tr.open("setup", "bench", req);
    graphs.emplace(build_rmat_pair(scale, a.seed, true, lanes, times, tr,
                                   req, setup_span));
    roots = pinned_roots(graphs->directed, 2);
    eng = start_engine(lanes, opts, graphs->directed, roots.front(), tr, req,
                       setup_span);
    tr.close(setup_span);
    times.setup_s.push_back(seconds_since(t0));
  }
  const std::uint64_t spawned_warm = eng->pool().threads_spawned();

  const references ref =
      compute_references(graphs->directed, graphs->undirected, roots,
                         true, tr);

  corruptor corrupt(a.corrupt_labels);
  const loop_samples s =
      closed_loop(*eng, graphs->directed, graphs->undirected, ref,
                  {k_bfs, k_sssp, k_cc}, opts, a.seconds, g, tr, corrupt);
  check_conservation(g, *eng, 1 + s.jobs);  // warm-up + timed jobs

  workload_result r;
  r.end_to_end = {
      {"setup_s", median(times.setup_s), "s"},
      {"bfs_s", kind_median(s, k_bfs), "s"},
      {"cc_s", kind_median(s, k_cc), "s"},
      {"queries_per_s", s.queries_per_s(), "1/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  r.report_only = {
      {"sssp_s", kind_median(s, k_sssp), "s"},
      {"baselines.serial_sssp_s", median(ref.sssp_s), "s"},
      {"jobs", static_cast<double>(s.jobs), "count"},
  };
  auto& m = r.per_layer;
  times.fill(m);
  loop_layer_metrics(m, s);
  m["service.spawned_after_warmup"] =
      static_cast<double>(eng->pool().threads_spawned() - spawned_warm);
  m["baselines.serial_bfs_s"] = median(ref.bfs_s);
  m["baselines.serial_cc_s"] = ref.cc_s;

  r.info.set("lanes", std::to_string(lanes));
  describe_graph(r.info, "directed", graphs->directed);
  describe_graph(r.info, "undirected", graphs->undirected);
  return r;
}

}  // namespace perfbench
