// Set-up steps shared by the RMAT workloads: the tools' traversal options,
// the directed-weighted + undirected RMAT-A pair, the warmed engine, and the
// per-layer set-up timings.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "asyncgt.hpp"
#include "common.hpp"

namespace perfbench {

using asyncgt::csr32;

/// Lanes of the one-job-at-a-time workloads: one fewer than the host's
/// cores. Lanes are hash-partitioned with no work stealing, so a lane that
/// shares its core with any other thread runs at half speed and the whole
/// job waits for it: one background process on a 4-core host made 4-lane
/// BFS 1.8x slower and left 3-lane BFS unchanged. The spare core takes the
/// benchmark's own client and sampler threads.
inline std::size_t bench_lanes() {
  const std::size_t n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

/// The options the repository's tools apply (traversal_options::from_flags):
/// in-memory runs batch mailbox flushes, SEM runs deliver per push and sort
/// by vertex secondarily.
inline asyncgt::traversal_options tool_options(std::size_t lanes, bool sem) {
  const std::string threads = "--threads=" + std::to_string(lanes);
  const char* argv[] = {"perfbench", threads.c_str()};
  return asyncgt::traversal_options::from_flags(asyncgt::options(2, argv),
                                                sem);
}

/// Per-repetition set-up timings; medians feed the per-layer metrics.
struct setup_timings {
  std::vector<double> setup_s, generate_s, build_s, write_s, open_s;

  void fill(std::map<std::string, double>& m) const {
    m["gen.generate_s"] = median_or_zero(generate_s);
    m["graph.build_s"] = median_or_zero(build_s);
  }
};

/// Times `f` into `secs` and records it as a span of `layer`.
template <typename F>
auto timed(std::vector<double>& secs, tracer& tr, const char* name,
           const char* layer, std::uint64_t req, std::int64_t parent, F&& f) {
  const double ts = tr.now();
  const auto t0 = clock_type::now();
  auto out = f();
  secs.push_back(seconds_since(t0));
  tr.add(name, layer, req, parent, ts, tr.now());
  return out;
}

struct rmat_pair {
  csr32 directed;    ///< RMAT-A (UW weights when weighted): BFS and SSSP
  csr32 undirected;  ///< the same edges symmetrized, unweighted: CC
};

/// Generates RMAT-A edges at `scale` from `seed` and builds both graphs.
inline rmat_pair build_rmat_pair(unsigned scale, std::uint64_t seed,
                                 bool weighted, std::size_t lanes,
                                 setup_timings& t, tracer& tr,
                                 std::uint64_t req, std::int64_t parent) {
  const auto p = asyncgt::rmat_a(scale, seed);
  std::vector<double> gen, build;
  auto edges = timed(gen, tr, "gen.rmat_edges", "gen", req, parent, [&] {
    return asyncgt::rmat_edges_parallel<vertex32>(p, lanes);
  });
  auto sym_edges = edges;
  rmat_pair out;
  out.directed = timed(build, tr, "graph.build_csr", "graph", req, parent,
                       [&] {
    return asyncgt::build_csr<vertex32>(p.num_vertices(), std::move(edges));
  });
  if (weighted) {
    out.directed = timed(gen, tr, "gen.add_weights", "gen", req, parent, [&] {
      return asyncgt::add_weights(out.directed,
                                  asyncgt::weight_scheme::uniform, seed + 1);
    });
  }
  out.undirected = timed(build, tr, "graph.build_csr_symmetric", "graph", req,
                         parent, [&] {
    asyncgt::build_options o;
    o.symmetrize = true;
    return asyncgt::build_csr<vertex32>(p.num_vertices(),
                                        std::move(sym_edges), o);
  });
  t.generate_s.push_back(gen[0] + (weighted ? gen[1] : 0.0));
  t.build_s.push_back(build[0] + build[1]);
  return out;
}

/// A pool of `lanes` parked workers, warmed by one BFS over `g`.
template <typename Graph>
std::unique_ptr<asyncgt::engine> start_engine(
    std::size_t lanes, const asyncgt::traversal_options& opts,
    const Graph& g, vertex32 root, tracer& tr, std::uint64_t req,
    std::int64_t parent) {
  const double ts = tr.now();
  auto eng = std::make_unique<asyncgt::engine>(
      asyncgt::engine::config{.pool_threads = lanes, .defaults = opts});
  eng->submit_bfs(g, root, opts).get();
  tr.add("service.warmup", "service", req, parent, ts, tr.now());
  return eng;
}

/// |V|, |E| and CSR bytes of one graph, for the stamp (next to l3_size).
template <typename Graph>
void describe_graph(stamp& s, const std::string& name, const Graph& g) {
  s.set(name + "_vertices", std::to_string(g.num_vertices()));
  s.set(name + "_edges", std::to_string(g.num_edges()));
  s.set(name + "_csr_bytes", std::to_string(g.memory_bytes()));
}

}  // namespace perfbench
