// Figure 1: "Multithreaded random read I/O performance for three NAND Flash
// configurations" — IOPS versus number of requesting threads, for the
// FusionIO / Intel / Corsair device models.
//
// The paper's claim this regenerates: "for all configurations tested,
// significant improvements in I/O per second (IOPS) is seen as an increasing
// number of threads issue read requests", plateauing near 200k / 60k / 30k
// IOPS respectively. Shape checks verify monotone scaling to the plateau
// and the device ordering.
//
// The plateau is checked over the schedule the device books, not over
// wall-clock IOPS: at 80 µs a FusionIO read is close to the host's sleep
// overshoot, and hundreds of requesters need a wakeup per read, so a busy
// host measures the plateau low. Each read's booked service interval is
// [deadline - service, deadline]. The most intervals that overlap is the
// number of channels the requesters kept busy at once, and the device
// cannot serve faster than that many reads per service time. The deadlines
// themselves give the rate the device served at: with every channel
// backlogged it is channels / service, and a device that books its reads
// late or slow serves below it.
//
//   ./fig1_ssd_iops [--threads=1,2,4,...,256] [--window=0.25]
//                   [--time-scale=1.0]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "sem/device_presets.hpp"
#include "sem/ssd_model.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace asyncgt;
using namespace asyncgt::bench;

namespace {

struct iops_sample {
  double wall_iops = 0;      // completed reads per wall-clock second
  std::uint64_t booked = 0;  // reads whose deadlines were recorded
  std::uint64_t reads = 0;   // reads the device counted
  double booked_iops = 0;    // peak overlapping service intervals / service
  double served_iops = 0;    // booked completions per second (served_rate)
};

/// Most booked service intervals [deadline - service, deadline] that
/// overlap at one instant. An interval ending where another starts (the
/// next read on the same channel) does not overlap it.
std::uint64_t peak_in_service(
    const std::vector<sem::ssd_model::clock::time_point>& deadlines,
    sem::ssd_model::clock::duration service) {
  std::vector<std::pair<sem::ssd_model::clock::time_point, int>> edges;
  edges.reserve(2 * deadlines.size());
  for (const auto d : deadlines) {
    edges.emplace_back(d - service, +1);
    edges.emplace_back(d, -1);
  }
  std::sort(edges.begin(), edges.end());  // ends (-1) before starts (+1)
  std::int64_t open = 0, peak = 0;
  for (const auto& e : edges) peak = std::max(peak, open += e.second);
  return static_cast<std::uint64_t>(peak);
}

/// Reads per second over the middle 80% of the sorted booked deadlines,
/// which leaves out the ramp while requesters are still being spawned.
double served_rate(
    const std::vector<sem::ssd_model::clock::time_point>& sorted) {
  const std::size_t lo = sorted.size() / 10;
  const std::size_t hi = sorted.size() - 1 - sorted.size() / 10;
  if (hi <= lo) return 0;
  return static_cast<double>(hi - lo) /
         std::chrono::duration<double>(sorted[hi] - sorted[lo]).count();
}

iops_sample measure_iops(const sem::ssd_params& params, std::size_t threads,
                         double window_seconds) {
  using clock = sem::ssd_model::clock;
  sem::ssd_model dev(params);
  std::atomic<bool> stop{false};
  std::vector<std::vector<clock::time_point>> booked(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  // Timed from before the first spawn: workers read while later ones are
  // still being created, and those reads count.
  wall_timer timer;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto deadline = dev.begin_read(4096);  // = dev.read(4096)
        std::this_thread::sleep_until(deadline);
        dev.end_read();
        booked[t].push_back(deadline);
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double>(window_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed = timer.elapsed_seconds();

  std::vector<clock::time_point> all;
  for (const auto& b : booked) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  // The service time ssd_model books for a one-block read.
  const auto service = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double, std::micro>(params.read_latency_us *
                                                params.time_scale));
  iops_sample out;
  out.reads = dev.counters().reads;
  out.wall_iops = static_cast<double>(out.reads) / elapsed;
  out.booked = all.size();
  out.booked_iops = static_cast<double>(peak_in_service(all, service)) /
                    std::chrono::duration<double>(service).count();
  out.served_iops = served_rate(all);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt(argc, argv);
  const auto thread_counts =
      opt.get_int_list("threads", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  const double window = opt.get_double("window", 0.25);
  const double time_scale = opt.get_double("time-scale", 1.0);

  banner("Multithreaded random read IOPS on simulated NAND flash",
         "paper Figure 1");

  const auto devices = sem::all_device_presets(time_scale);
  text_table table;
  table.header({"threads", "FusionIO (IOPS)", "Intel (IOPS)",
                "Corsair (IOPS)"});

  // iops[device][thread_index] (wall clock); at_max[device] is the sample
  // at the largest thread count.
  std::vector<std::vector<double>> iops(devices.size());
  std::vector<iops_sample> at_max(devices.size());
  for (const auto t : thread_counts) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const iops_sample v =
          measure_iops(devices[d], static_cast<std::size_t>(t), window);
      iops[d].push_back(v.wall_iops);
      at_max[d] = v;
      row.push_back(fmt_count(static_cast<std::uint64_t>(v.wall_iops)));
    }
    table.row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());

  bool ok = true;
  // Scaling region: IOPS at max threads far exceeds single-thread IOPS.
  for (std::size_t d = 0; d < devices.size(); ++d) {
    ok &= shape_check(iops[d].back() > 4.0 * iops[d].front(),
                      devices[d].name +
                          ": multithreading lifts IOPS well above the "
                          "single-thread rate (paper: 'significant "
                          "improvements ... as an increasing number of "
                          "threads issue read requests')");
  }
  // Plateau, over the booked schedule at the most threads: the requesters
  // keep every channel busy at once and never more, and each channel
  // serves one read per latency back to back, so both the peak overlap and
  // the served rate are channels / latency, within 5% (the service time is
  // rounded to clock ticks). Wall-clock IOPS can only fall short of it.
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const double plateau = devices[d].plateau_iops();
    const iops_sample& m = at_max[d];
    std::printf("%s at %lld threads: booked plateau %s IOPS, served %s "
                "IOPS, wall %s IOPS\n",
                devices[d].name.c_str(),
                static_cast<long long>(thread_counts.back()),
                fmt_count(static_cast<std::uint64_t>(m.booked_iops)).c_str(),
                fmt_count(static_cast<std::uint64_t>(m.served_iops)).c_str(),
                fmt_count(static_cast<std::uint64_t>(m.wall_iops)).c_str());
    const auto near = [&](double v) {
      return v > 0.95 * plateau && v < 1.05 * plateau;
    };
    ok &= shape_check(m.booked == m.reads && near(m.booked_iops) &&
                          near(m.served_iops) && m.wall_iops < 1.35 * plateau,
                      devices[d].name + ": plateau near " +
                          fmt_count(static_cast<std::uint64_t>(plateau)) +
                          " IOPS");
  }
  // Ordering: FusionIO > Intel > Corsair at saturation.
  ok &= shape_check(
      iops[0].back() > iops[1].back() && iops[1].back() > iops[2].back(),
      "device ordering at saturation: FusionIO > Intel > Corsair");

  bench_report rep(opt, "fig1_ssd_iops");
  rep.add_table(table);
  if (rep.json_enabled()) {
    json_value& s = rep.section("iops");
    for (std::size_t d = 0; d < devices.size(); ++d) {
      json_value series = json_value::array();
      for (const double v : iops[d]) series.push(v);
      s.set(devices[d].name, std::move(series));
    }
    rep.section("result").set("ok", ok);
  }
  rep.finish();
  return ok ? 0 : 1;
}
