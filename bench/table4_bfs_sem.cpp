// Table IV: "Performance comparison of Semi-External Memory Breadth First
// Search (BFS) on three FLASH memory configurations".
//
// Builds the RMAT graphs as on-disk .agt files, traverses them with the
// asynchronous BFS over sem_csr storage at --threads oversubscribed threads on
// each simulated device (FusionIO / Intel / Corsair), and compares against
// the in-memory serial baseline — the paper's "Speedup IM BGL" column.
//
// Calibration note (documented substitution, see EXPERIMENTS.md): the
// paper's testbed is simulated end-to-end on a slowed clock. The device
// models keep the paper's IOPS in *simulated* seconds; --time-scale
// stretches every simulated latency so that device service time dominates
// this host's CPU-side costs (our scaled-down graphs fit in cache and the
// CPU work per edge is negligible next to 2010 hardware — without the
// stretch every device would finish at host-CPU speed and the devices would
// be indistinguishable). The in-memory serial baseline is calibrated on the
// same clock: the paper's BGL rows imply ~7.4 M traversed edges/second
// (Table I, RMAT-A 2^27: 2^31 edges / 292 s), so
//   t_BGL = edges_touched / --bgl-edge-rate * --time-scale.
// The table reports speedup against both that calibrated baseline (the
// paper's "Speedup IM BGL" column) and the raw measured serial time on this
// host (expected << 1 at these scales — modern cached traversal is fast).
// Shape checks assert the hardware-independent claims: latency hiding by
// outstanding device requests, device ordering, and the calibrated speedup
// landing in the paper's band (Corsair ~0.7-2.1x, FusionIO ~1.7-3.0x).
//
//   ./table4_bfs_sem [--scales=15,16] [--threads=128] [--time-scale=16]
//                    [--cache-fraction=0.65] [--bgl-edge-rate=7.4e6]
//                    [--flush-batch=1] [--inject=eio=0.01,seed=7]
//
// --inject threads a deterministic fault injector through every SEM read
// (docs/robustness.md): the correctness check then doubles as the
// fault-tolerance acceptance test — injected transient faults must not
// change a single BFS label, only add io.retries to the report.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/serial_bfs.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_bfs.hpp"
#include "gen/weights.hpp"
#include "graph/graph_io.hpp"
#include "sem/block_cache.hpp"
#include "sem/device_presets.hpp"
#include "sem/fault_injector.hpp"
#include "sem/sem_config.hpp"
#include "sem/sem_csr.hpp"
#include "telemetry/io_recorder.hpp"
#include "telemetry/metrics_json.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

vertex32 pick_start(const csr32& g) {
  vertex32 best = 0;
  for (vertex32 v = 1; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scales = opt.get_int_list("scales", {15, 16});
  // Shared traversal flag parser (threads / flush-batch / retries /
  // backoff, SEM defaults: per-push delivery + secondary vertex sort — see
  // service/traversal_options.hpp and docs/tuning.md); this bench
  // oversubscribes harder than the parser's default thread count.
  traversal_options topt = traversal_options::from_flags(opt, true);
  if (!opt.has("threads")) topt.queue.num_threads = 128;
  const std::size_t sem_threads = topt.queue.num_threads;
  const double time_scale = opt.get_double("time-scale", 16.0);
  // --cache-fraction flows through the shared parser now; this table keeps
  // its calibrated 0.65 default when the flag is absent.
  const double cache_fraction =
      topt.cache_fraction >= 0.0 ? topt.cache_fraction : 0.65;
  const double bgl_edge_rate = opt.get_double("bgl-edge-rate", 7.4e6);
  const std::string inject_spec = opt.get_string("inject", "");
  std::unique_ptr<sem::fault_injector> injector;
  if (!inject_spec.empty()) {
    injector = std::make_unique<sem::fault_injector>(
        sem::parse_fault_config(inject_spec));
  }
  telemetry::io_recorder io_rec;  // accumulates across all SEM runs

  banner("Semi-External Memory Breadth First Search", "paper Table IV");

  bench_report rep(opt, "table4_bfs_sem");

  const auto tmp = std::filesystem::temp_directory_path() / "asyncgt_table4";
  std::filesystem::create_directories(tmp);

  text_table table;
  table.header({"graph", "EM size", "device",
                "semN (s) N=" + std::to_string(sem_threads), "sem1 (s)",
                "IOPS seen", "reads", "in service", "cache hit", "evict",
                "speedup(meas)", "speedup(BGL)"});

  bool ok = true;
  // speed[device] -> list over graphs of sem time, for ordering checks.
  std::vector<std::vector<double>> dev_time(3);
  // The single-lane run: its peak device queue and mean reads in service.
  std::uint64_t one_lane_peak = 0;
  std::uint32_t one_lane_channels = 0;
  double one_lane_in_service = 0.0;
  std::vector<double> bgl_speedups_fusion, bgl_speedups_corsair;

  for (const std::string preset : {std::string("a"), std::string("b")}) {
    for (const auto scale : scales) {
      const csr32 g = rmat_graph<vertex32>(
          rmat_preset(preset, static_cast<unsigned>(scale)));
      const vertex32 start = pick_start(g);
      const std::string path =
          (tmp / (preset + std::to_string(scale) + ".agt")).string();
      write_graph(path, g);

      bfs_result<vertex32> im_r;
      const double t_im = time_seconds([&] { im_r = serial_bfs(g, start); });
      // Calibrated 2010-hardware serial baseline on the same simulated
      // clock as the devices: edges touched / rate, stretched by the
      // time-scale factor.
      const double t_bgl =
          static_cast<double>(g.num_edges()) *
          (static_cast<double>(im_r.visited_count()) /
           static_cast<double>(g.num_vertices())) /
          bgl_edge_rate * time_scale;

      const auto devices = sem::all_device_presets(time_scale);
      for (std::size_t d = 0; d < devices.size(); ++d) {
        sem::ssd_model dev(devices[d]);
        // One builder per device row: cache and retries arrive through
        // the shared parser.
        sem::sem_config scfg = sem::sem_config::from_options(topt, path);
        scfg.with_device(&dev).with_cache_fraction(cache_fraction);
        if (injector != nullptr) {
          scfg.with_fault_injector(injector.get()).with_io_recorder(&io_rec);
        }
        auto bundle = scfg.open<vertex32>();
        sem::sem_csr32& sg = *bundle.graph;

        visitor_queue_config cfg = topt.queue;
        rep.attach(cfg);
        bfs_result<vertex32> sem_r;
        const double t_sem =
            time_seconds([&] { sem_r = async_bfs(sg, start, cfg); });
        if (sem_r.level != im_r.level) {
          ok &= shape_check(false, "SEM BFS matches in-memory BFS");
        }
        const double iops =
            static_cast<double>(dev.counters().reads) / std::max(t_sem, 1e-9);
        const auto cache_c = bundle.cache != nullptr
                                 ? bundle.cache->counters()
                                 : sem::cache_counters{};
        const double hit_rate = cache_c.hit_rate();

        // Single-lane SEM run (fresh cache): one lane must hide the device
        // latency by itself, reading ahead. Only on the fastest device at
        // the smallest scale, to keep the bench short.
        double t_sem1 = -1.0;
        if (scale == scales.front() && devices[d].name == "fusionio") {
          sem::ssd_model dev1(devices[d]);
          sem::sem_config scfg1 = scfg;
          auto bundle1 = scfg1.with_device(&dev1).open<vertex32>();
          visitor_queue_config cfg1 = cfg;
          cfg1.num_threads = 1;
          t_sem1 = time_seconds([&] { async_bfs(*bundle1.graph, start, cfg1); });
          one_lane_peak = dev1.counters().max_inflight;
          one_lane_channels = devices[d].channels;
          one_lane_in_service =
              mean_reads_in_service(devices[d], dev1.counters(), t_sem1);
        }

        dev_time[d].push_back(t_sem);
        const double sp_bgl = t_bgl / t_sem;
        if (devices[d].name == "fusionio") {
          bgl_speedups_fusion.push_back(sp_bgl);
        }
        if (devices[d].name == "corsair") {
          bgl_speedups_corsair.push_back(sp_bgl);
        }
        table.row({rmat_label(preset, static_cast<unsigned>(scale)),
                   fmt_count(std::filesystem::file_size(path) >> 20) + " MiB",
                   devices[d].name, fmt_seconds(t_sem), fmt_seconds(t_sem1),
                   fmt_count(static_cast<std::uint64_t>(iops)),
                   fmt_count(dev.counters().reads),
                   fmt_ratio(mean_reads_in_service(devices[d], dev.counters(),
                                                   t_sem)),
                   fmt_ratio(hit_rate), fmt_count(cache_c.evictions),
                   fmt_ratio(t_im / t_sem), fmt_ratio(sp_bgl)});
      }
      table.rule();
    }
  }

  std::printf("%s\n", table.render().c_str());

  // Latency hiding (the mechanism behind the whole SEM result) comes from
  // outstanding device requests: the paper's 128+ blocking threads, or one
  // lane reading ahead. A lane that blocks in every read keeps one request
  // in flight and at most one in service on average.
  ok &= shape_check(
      one_lane_peak >= one_lane_channels && one_lane_in_service >= 3.0,
      "outstanding requests hide I/O latency: one lane keeps >= one read "
      "per channel in flight and >= 3 in service on average (>= 3x over "
      "blocking reads)");
  // Device ordering on every graph: fusionio <= intel <= corsair time.
  bool ordering = true;
  for (std::size_t i = 0; i < dev_time[0].size(); ++i) {
    ordering &= dev_time[0][i] <= dev_time[1][i] * 1.25;  // jitter slack
    ordering &= dev_time[1][i] <= dev_time[2][i] * 1.25;
  }
  ok &= shape_check(ordering,
                    "device ranking holds: FusionIO fastest, Corsair "
                    "slowest (paper: 'the FusionIO drive ... typically "
                    "outperforms other SSDs')");
  // Calibrated comparison lands in the paper's band.
  double fusion_min = 1e9, corsair_min = 1e9;
  for (const double s : bgl_speedups_fusion) {
    fusion_min = std::min(fusion_min, s);
  }
  for (const double s : bgl_speedups_corsair) {
    corsair_min = std::min(corsair_min, s);
  }
  ok &= shape_check(fusion_min > 1.0,
                    "FusionIO SEM beats the calibrated in-memory serial "
                    "baseline (paper Table IV: speedups 1.7-3.0)");
  ok &= shape_check(corsair_min > 0.4,
                    "even the slowest SSD stays comparable to the "
                    "calibrated baseline (paper: 0.7-2.1)");
  if (injector != nullptr) {
    // Fault-tolerance acceptance: every per-run label check above already
    // ran under injection, so here only the retry accounting remains.
    const auto fc = injector->counters();
    const auto io = io_rec.snapshot();
    std::printf("fault injection: %llu injected errors over %llu reads, "
                "%llu retries, %llu gave up\n",
                static_cast<unsigned long long>(fc.errors),
                static_cast<unsigned long long>(fc.ops),
                static_cast<unsigned long long>(io.retries),
                static_cast<unsigned long long>(io.gave_up));
    ok &= shape_check(io.gave_up == 0,
                      "retry policy absorbed every injected transient fault");
    if (rep.json_enabled()) {
      auto& fj = rep.section("faults");
      fj.set("spec", inject_spec);
      fj.set("ops", fc.ops);
      fj.set("errors", fc.errors);
      fj.set("io", telemetry::to_json(io));
    }
  }
  rep.add_table(table);
  if (rep.json_enabled()) rep.section("result").set("ok", ok);
  rep.finish();
  return ok ? 0 : 1;
}