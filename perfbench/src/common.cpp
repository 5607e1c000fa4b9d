#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::map<std::string, double> self_time_by_layer(const std::vector<span>& s) {
  std::vector<std::vector<std::size_t>> children(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].parent >= 0 && static_cast<std::size_t>(s[i].parent) < s.size()) {
      children[static_cast<std::size_t>(s[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const double lo = std::max(s[c].start, s[i].start);
      const double hi = std::min(s[c].end, s[i].end);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s[i].layer] += std::max(0.0, (s[i].end - s[i].start) - covered);
  }
  return out;
}

const std::vector<metric_spec>& per_layer_catalog() {
  // Every metric with a time unit is measured on every workload. Figures of
  // one workload only are counts or ratios here (0 where the layer idles);
  // their times are in the report line.
  static const std::vector<metric_spec> catalog{
      {"gen.generate_s", "s"},
      {"graph.build_s", "s"},
      {"graph.write_share", "ratio"},
      {"graph.overlay_apply_share", "ratio"},
      {"graph.overlay_patched_pairs", "count"},
      {"sem.open_share", "ratio"},
      {"sem.cache_hit_rate", "ratio"},
      {"sem.cache_evictions", "count"},
      {"sem.device_reads", "count"},
      {"sem.device_read_bytes", "B"},
      {"sem.device_bytes_per_visit", "B"},
      {"sem.device_inflight_mean", "count"},
      {"sem.device_inflight_peak", "count"},
      {"sem.io_requests_per_batch", "ratio"},
      {"sem.io_retries", "count"},
      {"queue.visits_per_edge", "ratio"},
      {"queue.pushes_per_flush", "ratio"},
      {"queue.wakeups_per_kvisit", "ratio"},
      {"queue.max_queue_length", "count"},
      {"queue.load_cv", "ratio"},
      {"core.wasted_visit_frac", "ratio"},
      {"core.updates_per_vertex", "ratio"},
      {"core.repair_visits", "count"},
      {"core.reseeded_per_update", "count"},
      {"service.submit_us", "us"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_tail", "ms"},
      {"service.run_ms", "ms"},
      {"service.edge_inspections_per_job", "count"},
      {"service.spawned_after_warmup", "count"},
      {"baselines.serial_bfs_s", "s"},
      {"baselines.serial_cc_s", "s"},
      {"telemetry.trace_overhead_frac", "ratio"},
      {"query_p50_ms", "ms"},
      {"query_tail_ms", "ms"},
      {"query_tail_pct", "%"},
      {"query_tail_samples_beyond", "count"},
  };
  return catalog;
}

std::vector<metric> per_layer_metrics(const std::map<std::string, double>& v) {
  std::vector<metric> out;
  std::size_t used = 0;
  for (const metric_spec& m : per_layer_catalog()) {
    const auto it = v.find(m.name);
    used += it != v.end();
    out.push_back({m.name, it != v.end() ? it->second : 0.0, m.unit});
  }
  if (used != v.size()) {
    for (const auto& [name, value] : v) {
      bool known = false;
      for (const metric_spec& m : per_layer_catalog()) known |= name == m.name;
      if (!known) throw std::logic_error("uncatalogued metric " + name);
    }
  }
  return out;
}

void stamp::set(const std::string& k, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  fields.emplace_back(k, buf);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

/// Size of the cache at `level` from sysfs (e.g. "2048K"), or sysconf.
std::string cache_size(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream lv(base + "level");
    int l = 0;
    if (!(lv >> l)) continue;
    if (l != level) continue;
    std::ifstream ty(base + "type");
    std::string type;
    ty >> type;
    if (type == "Instruction") continue;
    std::ifstream sz(base + "size");
    std::string size;
    if (sz >> size) return size;
  }
  const long v = sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE
                                    : _SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? std::to_string(v / 1024) + "K" : "unknown";
}

}  // namespace

stamp host_stamp(const run_args& a) {
  stamp s;
  s.set("workload", a.workload);
  s.set("seed", std::to_string(a.seed));
  s.set("seconds", a.seconds);
  s.set("nproc", std::to_string(std::thread::hardware_concurrency()));
  s.set("cpu_model", cpu_model());
  s.set("l2_size", cache_size(2));
  s.set("l3_size", cache_size(3));
  s.set("compiler", std::string("g++ ") + __VERSION__);
  s.set("build_type", PERFBENCH_BUILD_TYPE);
  s.set("commit", a.commit);
  s.set("source_digest", a.source_digest);
  return s;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Percentiles: numpy-style linear interpolation.
  expect(near(percentile({}, 0.5), 0.0), "empty percentile is 0");
  expect(near(percentile({7.0}, 0.95), 7.0), "singleton percentile");
  expect(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "even median interpolates");
  expect(near(percentile({1, 2, 3, 4, 5}, 0.5), 3.0), "odd median");
  expect(near(percentile({1, 2, 3, 4, 5}, 1.0), 5.0), "p100 is the max");
  expect(near(percentile({1, 2, 3, 4, 5}, 0.0), 1.0), "p0 is the min");
  expect(near(percentile({0, 10}, 0.95), 9.5), "p95 interpolates");

  // Tail rule: p95 needs >= 10 samples strictly beyond its rank.
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(i);
  expect(samples_beyond(200, 0.95) == 9, "200 samples leave 9 beyond p95");
  expect(!tail_percentile(xs, 0.95).ok, "p95 of 200 samples is refused");
  xs.push_back(200);
  xs.push_back(201);
  expect(samples_beyond(202, 0.95) == 10, "202 samples leave 10 beyond p95");
  const tail_value t = tail_percentile(xs, 0.95);
  expect(t.ok && t.beyond == 10, "p95 of 202 samples is reported");
  expect(near(t.value, percentile(xs, 0.95)), "reported tail value");
  expect(samples_beyond(0, 0.95) == 0, "empty sample has no tail");
  const reported_tail big = highest_tail(xs, 0.95);
  expect(near(big.value, t.value) && near(big.pct, 95.0) && big.beyond == 10,
         "a large sample reports p95 itself");
  std::vector<double> small;
  for (int i = 0; i < 31; ++i) small.push_back(30 - i);  // 30, 29, ..., 0
  const reported_tail fb = highest_tail(small, 0.95);
  expect(near(fb.value, 20.0) && fb.beyond == 10 && near(fb.pct, 200.0 / 3),
         "a small sample falls back to the rank with 10 samples beyond");
  expect(highest_tail(std::vector<double>(10, 1.0), 0.95).pct == 0.0,
         "ten samples have no tail");
  expect(highest_tail(std::vector<double>(11, 1.0), 0.95).beyond == 10,
         "eleven samples report their minimum as the tail");
  expect(samples_beyond(1, 0.5) == 0, "singleton has no tail");

  // Gate primitives.
  const std::vector<std::uint64_t> ref{0, 1, 2, 3};
  std::vector<std::uint64_t> got = ref;
  expect(count_mismatches(got, ref) == 0, "identical labels match");
  corruptor c(true);
  c.maybe_corrupt(got);
  expect(count_mismatches(got, ref) == 1, "corrupted label is caught");
  std::vector<std::uint64_t> again = ref;
  c.maybe_corrupt(again);
  expect(count_mismatches(again, ref) == 0, "corruptor fires once");
  expect(count_mismatches(std::vector<std::uint64_t>{0, 1}, ref) == 2,
         "short label array counts missing entries");
  expect(label_hash(got) != label_hash(ref), "hash separates corrupt labels");
  gate g;
  g.check(true, "ok");
  g.check(false, "bad");
  expect(g.attempted() == 2 && g.failed() == 1, "gate ledger counts");

  // Self time: child intervals are subtracted once even when they overlap.
  std::vector<span> sp{{"root", "bench", 1, -1, 0.0, 10.0},
                       {"a", "queue", 1, 0, 1.0, 4.0},
                       {"b", "queue", 1, 0, 3.0, 6.0},
                       {"c", "service", 1, 1, 1.0, 2.0}};
  const auto st = self_time_by_layer(sp);
  expect(near(st.at("bench"), 5.0), "root self time excludes union");
  expect(near(st.at("queue"), 2.0 + 3.0), "child self time");
  expect(near(st.at("service"), 1.0), "leaf self time");
  return bad;
}

}  // namespace perfbench
