// Table V: "Performance comparison of Semi-External Memory Connected
// Components (CC) on three FLASH memory configurations".
//
// Same harness structure as table4_bfs_sem, for undirected graphs: RMAT-A /
// RMAT-B plus the web-graph stand-ins for the paper's sk-2005 and uk-union
// rows. The baseline-calibration note from table4_bfs_sem.cpp applies (the
// paper's in-memory serial CC sustained roughly 6M traversed edges/second);
// see EXPERIMENTS.md.
//
//   ./table5_cc_sem [--scales=15,16] [--threads=128] [--time-scale=16]
//                   [--cache-fraction=0.65] [--bgl-edge-rate=7.4e6]
//                   [--web-hosts=250] [--inject=eio=0.01,seed=7]
//
// --inject runs every SEM traversal under deterministic transient-fault
// injection (docs/robustness.md); the per-row label comparison then checks
// that the retry policy is invisible to the result.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/serial_cc.hpp"
#include "bench_common.hpp"
#include "bench_report.hpp"
#include "core/async_cc.hpp"
#include "gen/webgen.hpp"
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

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto scales = opt.get_int_list("scales", {15, 16});
  // Shared traversal flag parser (SEM defaults: per-push delivery +
  // secondary vertex sort; see the flush-batch note in table4_bfs_sem.cpp).
  traversal_options topt = traversal_options::from_flags(opt, true);
  if (!opt.has("threads")) topt.queue.num_threads = 128;
  const double time_scale = opt.get_double("time-scale", 16.0);
  // --cache-fraction flows through the shared parser; calibrated 0.65
  // default when absent (same convention as table4_bfs_sem).
  const double cache_fraction =
      topt.cache_fraction >= 0.0 ? topt.cache_fraction : 0.65;
  const double bgl_edge_rate = opt.get_double("bgl-edge-rate", 7.4e6);
  const auto web_hosts =
      static_cast<std::uint64_t>(opt.get_int("web-hosts", 600));
  const std::string inject_spec = opt.get_string("inject", "");
  std::unique_ptr<sem::fault_injector> injector;
  if (!inject_spec.empty()) {
    injector = std::make_unique<sem::fault_injector>(
        sem::parse_fault_config(inject_spec));
  }
  telemetry::io_recorder io_rec;  // accumulates across all SEM runs

  banner("Semi-External Memory Connected Components", "paper Table V");

  bench_report rep(opt, "table5_cc_sem");

  const auto tmp = std::filesystem::temp_directory_path() / "asyncgt_table5";
  std::filesystem::create_directories(tmp);

  struct workload {
    std::string name;
    csr32 graph;
  };
  std::vector<workload> workloads;
  for (const std::string preset : {std::string("a"), std::string("b")}) {
    for (const auto scale : scales) {
      workloads.push_back(
          {rmat_label(preset, static_cast<unsigned>(scale)) + " und",
           rmat_graph_undirected<vertex32>(
               rmat_preset(preset, static_cast<unsigned>(scale)))});
    }
  }
  webgen_params wp;
  wp.num_hosts = web_hosts;
  wp.isolated_host_fraction = 0.05;
  wp.seed = 21;
  workloads.push_back({"web (sk-2005-like)", webgen_graph<vertex32>(wp)});
  wp.isolated_host_fraction = 0.25;
  wp.seed = 22;
  workloads.push_back({"web (uk-union-like)", webgen_graph<vertex32>(wp)});

  text_table table;
  table.header({"graph", "# verts", "# CCs", "EM size", "device",
                "semN (s)", "cache hit", "evict", "speedup(meas)",
                "speedup(BGL)"});

  bool ok = true;
  std::vector<std::vector<double>> dev_time(3);
  std::vector<double> bgl_speedups_fusion;

  std::size_t wi = 0;
  for (const auto& w : workloads) {
    const csr32& g = w.graph;
    const std::string path = (tmp / (std::to_string(wi++) + ".agt")).string();
    write_graph(path, g);

    cc_result<vertex32> im_r;
    const double t_im = time_seconds([&] { im_r = serial_cc(g); });
    const double t_bgl =
        static_cast<double>(g.num_edges()) / bgl_edge_rate * time_scale;

    const auto devices = sem::all_device_presets(time_scale);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      sem::ssd_model dev(devices[d]);
      // One builder per device row (see table4_bfs_sem.cpp): --io-backend
      // routes every adjacency read, and the per-run label check doubles as
      // the backend acceptance test.
      sem::sem_config scfg = sem::sem_config::from_options(topt, path);
      scfg.with_device(&dev).with_cache_fraction(cache_fraction);
      if (injector != nullptr) {
        scfg.with_fault_injector(injector.get()).with_io_recorder(&io_rec);
      }
      auto bundle = scfg.open<vertex32>();
      sem::sem_csr32& sg = *bundle.graph;

      visitor_queue_config cfg = topt.queue;
      rep.attach(cfg);
      cc_result<vertex32> sem_r;
      const double t_sem = time_seconds([&] { sem_r = async_cc(sg, cfg); });
      if (sem_r.component != im_r.component) {
        ok &= shape_check(false, w.name + ": SEM CC matches in-memory CC");
      }

      dev_time[d].push_back(t_sem);
      const double sp_bgl = t_bgl / t_sem;
      if (devices[d].name == "fusionio") {
        bgl_speedups_fusion.push_back(sp_bgl);
      }
      const auto cache_c = bundle.cache != nullptr
                               ? bundle.cache->counters()
                               : sem::cache_counters{};
      table.row({w.name, fmt_count(g.num_vertices()),
                 fmt_count(im_r.num_components()),
                 fmt_count(std::filesystem::file_size(path) >> 20) + " MiB",
                 devices[d].name, fmt_seconds(t_sem),
                 fmt_ratio(cache_c.hit_rate()),
                 fmt_count(cache_c.evictions),
                 fmt_ratio(t_im / t_sem), fmt_ratio(sp_bgl)});
    }
    table.rule();
  }

  std::printf("%s\n", table.render().c_str());

  // Per-row device ordering is noisy for CC even in the paper (its Table V
  // has Corsair beating FusionIO on RMAT-B 2^27, and Intel beating FusionIO
  // elsewhere — hence the paper's hedge "typically offers the highest
  // performance"). Gate on the aggregate: the slowest array must be slowest
  // overall; FusionIO-vs-Intel is advisory.
  double sum_time[3] = {0, 0, 0};
  for (std::size_t d = 0; d < 3; ++d) {
    for (const double t : dev_time[d]) sum_time[d] += t;
  }
  ok &= shape_check(sum_time[2] > sum_time[0] && sum_time[2] > sum_time[1],
                    "Corsair (slowest array) is slowest on CC in aggregate");
  shape_check(sum_time[0] <= sum_time[1] * 1.25,
              "FusionIO at least matches Intel on CC in aggregate "
              "(advisory — 'typically' fastest in the paper)");
  double fusion_min = 1e9;
  for (const double s : bgl_speedups_fusion) {
    fusion_min = std::min(fusion_min, s);
  }
  ok &= shape_check(fusion_min > 1.0,
                    "FusionIO SEM CC beats the calibrated in-memory serial "
                    "baseline (paper Table V: speedups 1.3-3.9)");
  if (injector != nullptr) {
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