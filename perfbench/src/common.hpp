// Shared plumbing of the perfbench workloads: run arguments, percentiles,
// the correctness gate's check functions, bench-side spans, the per-layer
// metric catalog and the host/build stamp.
//
// Everything here sits *outside* the library: spans are taken around public
// calls from the benchmark's own code, and counters come from public
// accessors (job::stats, queue_run_stats, block_cache/ssd_model/io_backend
// counters). Nothing attaches the engine's own trace_writer or sampler.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// ---------------------------------------------------------------- arguments

/// Set-up repetitions behind setup_s (median reported).
constexpr unsigned setup_reps = 5;

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// 0 = the workload's own scale. Only the tests shrink it.
  unsigned scale = 0;
  /// Negative test hook: flip one label of the first checked job before the
  /// gate compares it, so the run must fail.
  bool corrupt_labels = false;
  std::string out_dir = ".bench_build/out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// ---------------------------------------------------------------- percentiles

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample, the
/// same rule as numpy's default. Returns 0 for an empty sample.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5);
}

/// Samples strictly above the q-th percentile's rank: the guard behind the
/// rule that a reported tail percentile has at least ten samples beyond it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto at = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n - 1)));
  return n - 1 - std::min(at, n - 1);
}

inline constexpr std::size_t min_tail_samples = 10;

/// A tail percentile that may be reported: its value, or 0 with `ok` false
/// when fewer than min_tail_samples samples lie beyond it.
struct tail_value {
  double value = 0.0;
  std::size_t beyond = 0;
  bool ok = false;
};

inline tail_value tail_percentile(const std::vector<double>& xs, double q) {
  tail_value t;
  t.beyond = samples_beyond(xs.size(), q);
  t.ok = t.beyond >= min_tail_samples;
  if (t.ok) t.value = percentile(xs, q);
  return t;
}

/// The highest percentile, capped at `q`, that keeps min_tail_samples
/// samples beyond it: `q` itself on a large sample, else the sample at rank
/// n - 1 - min_tail_samples. `pct` is the percentile reported (0 when the
/// sample is too small for any tail).
struct reported_tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t beyond = 0;
};

inline reported_tail highest_tail(std::vector<double> xs, double q) {
  reported_tail t;
  const std::size_t n = xs.size();
  if (n < min_tail_samples + 1) return t;
  if (samples_beyond(n, q) >= min_tail_samples) {
    t.value = percentile(xs, q);
    t.pct = 100.0 * q;
    t.beyond = samples_beyond(n, q);
    return t;
  }
  const std::size_t rank = n - 1 - min_tail_samples;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank),
                   xs.end());
  t.value = xs[rank];
  t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n - 1);
  t.beyond = min_tail_samples;
  return t;
}

// ---------------------------------------------------------------- gate

/// Positions where `got` differs from the reference (a size mismatch counts
/// every missing or extra element). The gate's one comparison primitive.
template <typename T>
std::uint64_t count_mismatches(const std::vector<T>& got,
                               const std::vector<T>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  std::uint64_t bad = std::max(got.size(), want.size()) - n;
  for (std::size_t i = 0; i < n; ++i) bad += got[i] != want[i];
  return bad;
}

/// FNV-1a over a label array, for checking many results against one
/// reference without keeping each array.
template <typename T>
std::uint64_t label_hash(const std::vector<T>& xs) {
  std::uint64_t h = 1469598103934665603ull;
  for (const T& x : xs) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ull;
  }
  return h;
}

/// Attempted/failed ledger of one run. Thread-safe; every miss is recorded
/// with a reason so a failing run says why.
class gate {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  void fail(const std::string& why) {
    failed_.fetch_add(1);
    std::lock_guard lk(mu_);
    if (reasons_.size() < 20) reasons_.push_back(why);
  }
  /// Records one check: attempted, and failed when !ok.
  bool check(bool ok, const std::string& why) {
    attempt();
    if (!ok) fail(why);
    return ok;
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> reasons() const {
    std::lock_guard lk(mu_);
    return reasons_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// Applies the --corrupt-labels hook once per run: the first array offered
/// gets one element changed, so its comparison must fail.
class corruptor {
 public:
  explicit corruptor(bool armed) : armed_(armed) {}
  template <typename T>
  void maybe_corrupt(std::vector<T>& labels) {
    if (labels.empty() || !armed_.exchange(false)) return;
    labels[labels.size() / 2] ^= T{1};
  }

 private:
  std::atomic<bool> armed_;
};

// ---------------------------------------------------------------- spans

/// One bench-side span: a public call into one layer, timed from outside.
struct span {
  std::string name;
  std::string layer;
  std::uint64_t request = 0;  ///< spans of one query/update share this id
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  double start = 0.0;         ///< seconds since the tracer's epoch
  double end = 0.0;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per call. Spans are written once, at exit.
class tracer {
 public:
  explicit tracer(bool on) : on_(on), epoch_(clock_type::now()) {}

  bool enabled() const noexcept { return on_; }
  double now() const { return seconds_since(epoch_); }
  double at(clock_type::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Records a finished span; returns its index (-1 when disabled).
  std::int64_t add(std::string name, std::string layer, std::uint64_t request,
                   std::int64_t parent, double start, double end) {
    if (!on_) return -1;
    std::lock_guard lk(mu_);
    spans_.push_back({std::move(name), std::move(layer), request, parent,
                      start, end});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Opens a span whose end is filled in by close(); for parents that must
  /// exist before their children are recorded.
  std::int64_t open(std::string name, std::string layer,
                    std::uint64_t request, std::int64_t parent = -1) {
    const double t = now();
    return add(std::move(name), std::move(layer), request, parent, t, t);
  }
  void close(std::int64_t idx) {
    if (idx < 0) return;
    const double t = now();
    std::lock_guard lk(mu_);
    spans_[static_cast<std::size_t>(idx)].end = t;
  }

  std::uint64_t next_request() { return next_request_.fetch_add(1); }

  std::vector<span> spans() const {
    std::lock_guard lk(mu_);
    return spans_;
  }

 private:
  bool on_;
  clock_type::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<span> spans_;
  std::atomic<std::uint64_t> next_request_{1};
};

/// Per-layer self time: each span's duration minus the part of it that its
/// children's (possibly overlapping) intervals cover, summed by layer.
std::map<std::string, double> self_time_by_layer(const std::vector<span>& s);

// ---------------------------------------------------------------- output

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics every traced run prints, in order, with units. A
/// layer a workload leaves idle reports 0 (no calls, no counts).
struct metric_spec {
  const char* name;
  const char* unit;
};
const std::vector<metric_spec>& per_layer_catalog();

/// Orders `values` by the catalog, filling idle layers with 0. Throws on a
/// name the catalog does not list.
std::vector<metric> per_layer_metrics(const std::map<std::string, double>& v);

/// Host, build and input description stamped into every output.
struct stamp {
  std::vector<std::pair<std::string, std::string>> fields;
  void set(const std::string& k, const std::string& v) {
    fields.emplace_back(k, v);
  }
  void set(const std::string& k, double v);
};

/// nproc, CPU model, L2/L3 sizes, compiler, build type, seed, commit.
stamp host_stamp(const run_args& a);

/// Everything a workload hands back to main for printing.
struct workload_result {
  std::vector<metric> end_to_end;  ///< printed when tracing is off
  std::map<std::string, double> per_layer;  ///< printed when tracing is on
  /// Workload-specific figures printed in the report line only.
  std::vector<metric> report_only;
  stamp info;
};

/// Runs one workload; the gate collects attempted/failed, the tracer spans.
workload_result run_im_rmat(const run_args& a, gate& g, tracer& tr);
workload_result run_sem_rmat(const run_args& a, gate& g, tracer& tr);
workload_result run_dynamic_mixed(const run_args& a, gate& g, tracer& tr);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();

/// Unit self-checks (percentile helper, tail rule, gate primitives);
/// returns the number of failed checks.
int selftest();

/// Wraps a sample vector so the end-to-end metrics of every workload share
/// one reporting rule (median of the timed jobs).
inline double median_or_zero(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : median(xs);
}

/// Samples a probe at a fixed interval on its own thread while alive: the
/// bench-side ssd_model::inflight() sampler.
class probe_sampler {
 public:
  template <typename Probe>
  probe_sampler(Probe probe, std::chrono::microseconds every)
      : thread_([this, probe, every] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const double v = static_cast<double>(probe());
            sum_ += v;
            peak_ = std::max(peak_, v);
            ++n_;
            std::this_thread::sleep_for(every);
          }
        }) {}
  probe_sampler(const probe_sampler&) = delete;
  probe_sampler& operator=(const probe_sampler&) = delete;
  ~probe_sampler() { stop(); }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double peak() const { return peak_; }

 private:
  std::atomic<bool> stop_{false};
  double sum_ = 0.0;
  double peak_ = 0.0;
  std::uint64_t n_ = 0;
  std::thread thread_;  // declared last: starts after the fields it writes
};

}  // namespace perfbench
