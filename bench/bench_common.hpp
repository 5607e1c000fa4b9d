// Shared plumbing for the experiment harnesses (one binary per paper
// table/figure — see DESIGN.md §4).
//
// All harnesses take --scales=a,b,c / --threads=n,... style options and print
// a fixed-width table plus the machine-independent shape checks for that
// experiment. Default sizes are chosen to finish in seconds on a small VM;
// pass larger --scales to approach the paper's 2^25..2^30 range.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "sem/ssd_model.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace asyncgt::bench {

/// Runs fn() once and returns elapsed wall seconds.
template <typename F>
double time_seconds(F&& fn) {
  wall_timer t;
  fn();
  return t.elapsed_seconds();
}

/// Mean device reads in service over a run of `seconds`: the service time
/// the device booked for the run's reads (counters `c` of a device with
/// params `p`) over its wall time. A lane that blocks in every read keeps
/// this at or below 1; by Little's law it bounds the mean number of
/// outstanding reads from below.
inline double mean_reads_in_service(const sem::ssd_params& p,
                                    const sem::ssd_counters& c,
                                    double seconds) {
  const double service_us =
      static_cast<double>(c.reads) * p.read_latency_us +
      static_cast<double>(c.read_blocks - c.reads) * p.seq_block_us;
  return service_us * p.time_scale * 1e-6 / std::max(seconds, 1e-9);
}

/// "a" or "b" -> the paper's RMAT presets.
inline rmat_params rmat_preset(const std::string& which, unsigned scale,
                               std::uint64_t seed = 42) {
  if (which == "a") return rmat_a(scale, seed);
  if (which == "b") return rmat_b(scale, seed);
  throw std::invalid_argument("unknown RMAT preset '" + which + "'");
}

inline std::string rmat_label(const std::string& which, unsigned scale) {
  return std::string("RMAT-") + (which == "a" ? "A" : "B") + " 2^" +
         std::to_string(scale);
}

/// Prints a section banner matching the paper artifact the binary recreates.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s; see EXPERIMENTS.md for paper-vs-measured)\n\n",
              paper_ref.c_str());
}

/// One PASS/FAIL shape-check line. Shape checks encode the paper's
/// machine-independent claims (who wins, where the curve bends); they let
/// `for b in bench/*; do $b; done` act as a regression harness for the
/// reproduction itself.
inline bool shape_check(bool ok, const std::string& claim) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  return ok;
}

}  // namespace asyncgt::bench
