// agt — command-line utility for .agt graph files.
//
// Subcommands:
//   generate  --type=rmat-a|rmat-b|web|grid|chain --out=FILE [...]
//             synthesize a graph and write it to disk
//   info      FILE                 print header, sizes, degree statistics
//   validate  FILE                 structural integrity check (offsets,
//                                  target ranges, symmetry probe)
//   bfs       FILE [--start=N] [--threads=16] [--sem] [--device=NAME]
//   sssp      FILE [--start=N] [--threads=16] [--sem] [--device=NAME]
//   cc        FILE [--threads=16] [--sem] [--device=NAME]
//   pagerank  FILE [--threads=16] [--alpha=0.85] [--top=10] [--sem] [...]
//   kcore     FILE [--threads=16] [--sem] [...]
//   metrics   FILE [--sweeps=2] [--samples=3]   diameter/path-length stats
//   stats     [FILE] [--jobs=4] [--sem]   mixed service workload, per-job
//                                  telemetry + lifecycle percentiles
//   update    FILE --delta=DELTAS  apply edge-delta batches through the
//                                  delta overlay, optionally verifying
//                                  incremental repair against recompute
//                                  and compacting to a clean .agt
//   import    EDGELIST.txt --out=FILE [--vertices=N] [--undirected]
//   export    FILE --out=EDGELIST.txt
//
// `generate --out-of-core` builds the file through the external sorter with
// a bounded memory budget (--memory-mb), the workflow needed when the edge
// set exceeds RAM. The traversal subcommands run either in-memory or
// (--sem) semi-externally over a simulated device, printing the same
// summary either way — a handy smoke test that the two storage paths agree.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>

#include "asyncgt.hpp"
#include "bench_report.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace asyncgt;
using telemetry::json_value;

int usage() {
  std::fprintf(stderr,
               "usage: agt_tool <generate|info|validate|bfs|sssp|cc> ...\n"
               "  generate --type=rmat-a|rmat-b|web|grid|chain --out=FILE\n"
               "           [--scale=16] [--edge-factor=16] [--seed=42]\n"
               "           [--undirected] [--weights=none|uw|luw]\n"
               "           [--hosts=500] [--width=256] [--height=256]\n"
               "  info FILE\n"
               "  validate FILE\n"
               "  transpose FILE         write FILE's reverse edge file\n"
               "                         (FILE.rev) for --hybrid / --sem\n"
               "  bfs|sssp [FILE] [--start=0] [--threads=16] [--sem]\n"
               "           [--flush-batch=N]  (default 64 in-memory, 1 SEM)\n"
               "           [--device=fusionio|intel|corsair] "
               "[--time-scale=1]\n"
               "  cc [FILE] [--threads=16] [--sem] [--device=...]\n"
               "  update FILE --delta=DELTAS [--verify] [--algo=bfs|sssp|cc]\n"
               "           [--start=0] [--undirected] [--compact --out=FILE]\n"
               "           [--sem] [--inject=SPEC] [--inject-at=open|compact]\n"
               "           [--memory-mb=64]\n"
               "           apply an edge-delta file ('+ u v [w]' / '- u v'\n"
               "           lines, blank line = new batch/epoch) through the\n"
               "           delta overlay; --verify checks incremental repair\n"
               "           against a full recompute each epoch; --compact\n"
               "           rewrites the head epoch as a clean .agt (+.rev)\n"
               "           (docs/dynamic_graphs.md)\n"
               "  stats [FILE] [--jobs=4] [--threads=16] [--sem]\n"
               "           run a mixed bfs/sssp/cc workload through the\n"
               "           service and print per-job telemetry (counters,\n"
               "           lifecycle latencies, percentiles); overload\n"
               "           knobs: [--admission=block|reject|shed]\n"
               "           [--max-pending=N] [--admission-timeout-ms=N]\n"
               "           [--memory-budget-mb=N] [--mix-priority]\n"
               "  verify-json FILE       schema-check an emitted report\n"
               "\n"
               "traversals also accept telemetry flags:\n"
               "  --json FILE            write a machine-readable report\n"
               "  --trace FILE           write a chrome://tracing file\n"
               "  --sample-interval-us N sampler period (default 2000)\n"
               "  --stats-dump N         print per-interval metric deltas\n"
               "                         every N sampler ticks\n"
               "  --cache-fraction F     SEM block cache, fraction of file\n"
               "and fault-tolerance flags (docs/robustness.md):\n"
               "  --inject SPEC          SEM fault injection, e.g.\n"
               "                         eio=0.01,seed=7[,fatal][,bad=LO-HI]\n"
               "                         [,stall=P]\n"
               "  --io-retries N         transient-errno retry budget (4)\n"
               "  --io-backoff-us N      initial retry backoff (50)\n"
               "overload-safety flags (docs/service_api.md):\n"
               "  --deadline-ms N        cancel the job past N ms (exit 4)\n"
               "  --stall-grace-ms N     cancel when no progress for N ms\n"
               "                         while running (exit 4)\n"
               "  --priority P           low|normal|high or an integer\n"
               "checkpoint flags:\n"
               "  --checkpoint-on-error F  bfs/sssp: save emergency\n"
               "                         checkpoint to F on abort (exit 3)\n"
               "  --resume F             bfs/sssp: resume from checkpoint F\n"
               "hybrid traversal flags (docs/hybrid_traversal.md):\n"
               "  --hybrid               bfs/cc: frontier-adaptive direction\n"
               "                         switching (needs FILE.rev under\n"
               "                         --sem; built in memory otherwise)\n"
               "  --hybrid-alpha X       top-down -> bottom-up (default 14)\n"
               "  --hybrid-beta X        bottom-up -> top-down (default 24)\n"
               "without FILE, traversals synthesize an RMAT graph\n"
               "(--scale=14) and run it semi-externally as a demo.\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 aborted/failed,\n"
               "4 deadline exceeded or stalled, 5 admission rejected\n");
  return 2;
}

csr32 generate_graph(const options& opt) {
  const std::string type = opt.get_string("type", "rmat-a");
  const auto scale = static_cast<unsigned>(opt.get_int("scale", 16));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
  const bool undirected = opt.get_bool("undirected", false);

  csr32 g;
  if (type == "rmat-a" || type == "rmat-b") {
    rmat_params p = type == "rmat-a" ? rmat_a(scale, seed) : rmat_b(scale, seed);
    p.edge_factor = static_cast<unsigned>(opt.get_int("edge-factor", 16));
    g = undirected ? rmat_graph_undirected<vertex32>(p)
                   : rmat_graph<vertex32>(p);
  } else if (type == "web") {
    webgen_params p;
    p.num_hosts = static_cast<std::uint64_t>(opt.get_int("hosts", 500));
    p.seed = seed;
    g = webgen_graph<vertex32>(p);  // always symmetric
  } else if (type == "grid") {
    g = grid_graph<vertex32>(
        static_cast<std::uint64_t>(opt.get_int("width", 256)),
        static_cast<std::uint64_t>(opt.get_int("height", 256)));
  } else if (type == "chain") {
    g = chain_graph<vertex32>(
        static_cast<std::uint64_t>(opt.get_int("length", 1 << 16)),
        undirected);
  } else {
    throw std::invalid_argument("unknown --type '" + type + "'");
  }

  const std::string weights = opt.get_string("weights", "none");
  if (weights == "uw") {
    g = add_weights(g, weight_scheme::uniform, seed);
  } else if (weights == "luw") {
    g = add_weights(g, weight_scheme::log_uniform, seed);
  } else if (weights != "none") {
    throw std::invalid_argument("unknown --weights '" + weights + "'");
  }
  return g;
}

int cmd_generate(const options& opt) {
  // Type and scale are flags; a positional would otherwise be ignored and
  // silently produce the default graph.
  if (opt.positional().size() > 1) {
    std::fprintf(stderr,
                 "generate: unexpected argument '%s' (use --type=NAME "
                 "--scale=N)\n",
                 opt.positional()[1].c_str());
    return usage();
  }
  const std::string out = opt.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=FILE is required\n");
    return 2;
  }
  wall_timer t;
  if (opt.get_bool("out-of-core", false)) {
    // Stream RMAT edges straight through the external sorter: never holds
    // the edge set in memory (O(V) degree array only).
    const std::string type = opt.get_string("type", "rmat-a");
    if (type != "rmat-a" && type != "rmat-b") {
      std::fprintf(stderr, "generate: --out-of-core supports rmat types\n");
      return 2;
    }
    const auto scale = static_cast<unsigned>(opt.get_int("scale", 16));
    const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
    rmat_params p = type == "rmat-a" ? rmat_a(scale, seed) : rmat_b(scale, seed);
    p.edge_factor = static_cast<unsigned>(opt.get_int("edge-factor", 16));
    sem::ooc_build_options bopt;
    bopt.memory_budget_bytes =
        static_cast<std::uint64_t>(opt.get_int("memory-mb", 64)) << 20;
    bopt.symmetrize = opt.get_bool("undirected", false);
    sem::ooc_graph_builder<vertex32> builder(p.num_vertices(), out, bopt);
    for (std::uint64_t i = 0; i < p.num_edges(); ++i) {
      const auto e = rmat_edge<vertex32>(p, i);
      builder.add_edge(e.src, e.dst, e.weight);
    }
    const auto stats = builder.finalize();
    std::printf("wrote %s out-of-core: %llu edges in, %llu out, %llu sort "
                "runs, %llu MiB spilled (%.2fs)\n",
                out.c_str(),
                static_cast<unsigned long long>(stats.input_edges),
                static_cast<unsigned long long>(stats.output_edges),
                static_cast<unsigned long long>(stats.sort_runs),
                static_cast<unsigned long long>(stats.spilled_bytes >> 20),
                t.elapsed_seconds());
    return 0;
  }
  const csr32 g = generate_graph(opt);
  write_graph(out, g);
  std::printf("wrote %s: %llu vertices, %llu edges%s (%.2fs)\n", out.c_str(),
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()),
              g.is_weighted() ? ", weighted" : "", t.elapsed_seconds());
  return 0;
}

int cmd_import(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string out = opt.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "import: --out=FILE is required\n");
    return 2;
  }
  text_io_stats stats;
  auto edges = read_edge_list(opt.positional()[1], &stats);
  const std::uint64_t n = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(opt.get_int("vertices", 0)),
      stats.edges > 0 ? stats.max_vertex_id + 1 : 0);
  build_options bopt;
  bopt.symmetrize = opt.get_bool("undirected", false);
  const csr32 g = build_csr<vertex32>(n, std::move(edges), bopt);
  write_graph(out, g);
  std::printf("imported %s: %llu vertices, %llu edges%s -> %s\n",
              opt.positional()[1].c_str(),
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()),
              g.is_weighted() ? " (weighted)" : "", out.c_str());
  return 0;
}

int cmd_export(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string out = opt.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "export: --out=FILE is required\n");
    return 2;
  }
  const csr32 g = read_graph32(opt.positional()[1]);
  write_edge_list(out, g);
  std::printf("exported %llu edges to %s\n",
              static_cast<unsigned long long>(g.num_edges()), out.c_str());
  return 0;
}

int cmd_info(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string path = opt.positional()[1];
  const agt_header h = read_graph_header(path);
  std::printf("file        : %s\n", path.c_str());
  std::printf("vertices    : %s\n", fmt_count(h.num_vertices).c_str());
  std::printf("edges       : %s\n", fmt_count(h.num_edges).c_str());
  std::printf("weighted    : %s\n", h.weighted() ? "yes" : "no");
  std::printf("id width    : %s-bit\n", h.wide_ids() ? "64" : "32");
  const csr32 g = read_graph32_with_reverse(path);
  std::printf("reverse file: %s\n", g.has_reverse() ? "yes (.rev)" : "no");
  const degree_summary s = compute_degree_summary(g);
  std::printf("out-degree  : %s\n", s.stats.to_string().c_str());
  std::printf("max degree  : %s\n", fmt_count(s.max_degree).c_str());
  std::printf("isolated    : %s\n", fmt_count(s.isolated).c_str());
  std::printf("top-1%% edge share: %.1f%%\n",
              100.0 * s.top_fraction_edge_share);
  // In-degree distribution (satellite of the reverse-view work): same mean
  // as out (same edge count), but max and skew diverge on directed graphs,
  // and the bottom-up sweep cost of --hybrid depends on exactly this shape.
  const degree_summary si = compute_in_degree_summary(g);
  std::printf("in-degree   : %s\n", si.stats.to_string().c_str());
  std::printf("max in-deg  : %s\n", fmt_count(si.max_degree).c_str());
  std::printf("in-isolated : %s\n", fmt_count(si.isolated).c_str());
  std::printf("top-1%% in-edge share: %.1f%%\n",
              100.0 * si.top_fraction_edge_share);
  std::printf("symmetric   : %s\n", is_symmetric(g) ? "yes" : "no");
  std::printf("out-degree histogram:\n%s", s.histogram.to_string().c_str());
  std::printf("in-degree histogram:\n%s", si.histogram.to_string().c_str());
  return 0;
}

int cmd_transpose(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string path = opt.positional()[1];
  const csr32 g = read_graph32(path);
  write_graph(reverse_path_for(path), g.transpose());
  std::printf("wrote reverse edge file %s (%llu vertices, %llu edges)\n",
              reverse_path_for(path).c_str(),
              static_cast<unsigned long long>(g.num_vertices()),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int cmd_validate(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string path = opt.positional()[1];
  const agt_header h = read_graph_header(path);
  const csr32 g = read_graph32(path);  // throws on truncation/corruption
  if (g.num_vertices() != h.num_vertices ||
      g.num_edges() != h.num_edges) {
    std::printf("FAIL: header/content mismatch\n");
    return 1;
  }
  for (vertex32 v = 0; v < g.num_vertices(); ++v) {
    for (const vertex32 t : g.neighbors(v)) {
      if (t >= g.num_vertices()) {
        std::printf("FAIL: edge %u->%u out of range\n", v, t);
        return 1;
      }
    }
  }
  std::printf("ok: %s is a valid .agt graph\n", path.c_str());
  return 0;
}

/// traversal_options::from_flags with its rejections (bad values, removed
/// flags) and a checkpoint path no bfs/sssp job will write reported as
/// usage errors: exit 2 rather than the generic 1.
bool parse_traversal_flags(const options& opt, bool sem_mode,
                           const std::string& cmd, traversal_options& out) {
  try {
    out = traversal_options::from_flags(opt, sem_mode);
    if (!out.checkpoint_path.empty() && cmd != "sssp" &&
        (cmd != "bfs" || opt.get_bool("hybrid", false))) {
      throw std::invalid_argument(
          "--checkpoint-on-error needs sssp, or bfs without --hybrid");
    }
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "agt_tool %s: %s\n", cmd.c_str(), e.what());
    return false;
  }
}

template <typename F>
int run_traversal(const options& opt, const char* name, F&& run) {
  // No graph file means demo mode, which always runs semi-externally.
  const bool demo = opt.positional().size() < 2;
  const bool sem_mode = opt.get_bool("sem", false) || demo;
  // One parser for threads / flush-batch / retries / backoff / deadline,
  // shared with the engine API and the bench harnesses
  // (service/traversal_options.hpp). The report attaches to the embedded
  // queue config and the whole options bundle flows to the run lambda, so
  // --deadline-ms / --stall-grace-ms reach the default engine's watchdog.
  traversal_options topt;
  if (!parse_traversal_flags(opt, sem_mode, name, topt)) return 2;
  bench::bench_report rep(opt, std::string("agt_tool_") + name);
  rep.attach(topt.queue);
  // --hybrid selects the hybrid driver, which needs the reverse view.
  const bool hybrid = opt.get_bool("hybrid", false);

  std::string path;
  std::filesystem::path temp_file;
  if (!demo) {
    path = opt.positional()[1];
  } else {
    // Demo mode: no graph file given. Synthesize an undirected weighted
    // RMAT instance on disk and traverse it semi-externally, so a bare
    // `agt_tool bfs --json out.json --trace out.trace` exercises and
    // reports on every layer: queue, algorithm, and SEM device + cache.
    const auto scale = static_cast<unsigned>(opt.get_int("scale", 14));
    const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
    const csr32 g = add_weights(
        rmat_graph_undirected<vertex32>(rmat_a(scale, seed)),
        weight_scheme::uniform, seed);
    temp_file = std::filesystem::temp_directory_path() /
                ("agt_tool_demo_s" + std::to_string(scale) + ".agt");
    if (hybrid) {
      write_graph_with_reverse(temp_file.string(), g);
    } else {
      write_graph(temp_file.string(), g);
    }
    path = temp_file.string();
    std::printf("no graph file given: synthesized RMAT-A scale %u "
                "(%s vertices, %s edges), traversing semi-externally\n",
                scale, fmt_count(g.num_vertices()).c_str(),
                fmt_count(g.num_edges()).c_str());
  }

  // The demo graph must go away even when the run or report write throws
  // (e.g. --json pointing at an unwritable path).
  struct temp_cleanup {
    const std::filesystem::path& p;
    ~temp_cleanup() {
      if (!p.empty()) {
        std::error_code ec;
        std::filesystem::remove(p, ec);
        std::filesystem::remove(reverse_path_for(p.string()), ec);
      }
    }
  } cleanup{temp_file};

  int rc;
  if (sem_mode) {
    const auto params = sem::device_preset_by_name(
        opt.get_string("device", "intel"),
        opt.get_double("time-scale", 1.0));
    sem::ssd_model dev(params);
    telemetry::io_recorder recorder;
    // Fault-tolerance knobs: a deterministic injector (--inject) plus the
    // retry budget the edge file spends absorbing the transient faults.
    std::unique_ptr<sem::fault_injector> injector;
    const std::string inject_spec = opt.get_string("inject", "");
    if (!inject_spec.empty()) {
      injector = std::make_unique<sem::fault_injector>(
          sem::parse_fault_config(inject_spec));
    }
    if (hybrid && !has_reverse_file(path)) {
      std::fprintf(stderr,
                   "--hybrid with --sem needs a reverse edge file at "
                   "%s; write the graph with agt_tool transpose or the "
                   "out-of-core builder's emit_reverse\n",
                   reverse_path_for(path).c_str());
      return 2;
    }
    // One builder declaration replaces the old setter wiring: cache,
    // retries, reverse view, fault injector, and recorder all land
    // through sem_config (sem_config.hpp).
    // Demo mode enables the cache (the SEM report should show hit/miss/
    // eviction dynamics); explicit --sem keeps the seed default of no cache
    // unless --cache-fraction asks for one.
    sem::sem_config scfg = sem::sem_config::from_options(topt, path);
    scfg.with_device(&dev).with_reverse(hybrid);
    if (topt.cache_fraction < 0.0) {
      scfg.with_cache_fraction(temp_file.empty() ? 0.0 : 0.5);
    }
    if (injector != nullptr) scfg.with_fault_injector(injector.get());
    // The recorder is what carries io.retries/io.gave_up into the report
    // and the console summary, so injected runs always attach it.
    if (rep.enabled() || injector != nullptr) {
      scfg.with_io_recorder(&recorder);
    }
    sem::sem_bundle<vertex32> bundle;
    {
      telemetry::phase_timer ph(rep.trace(), "load-graph", &rep.metrics());
      bundle = scfg.open<vertex32>();
    }
    auto* g = bundle.graph.get();
    if (rep.enabled()) {
      rep.sampler().add_probe("ssd.inflight", [&dev] {
        return static_cast<double>(dev.inflight());
      });
    }
    rc = run(*g, topt, rep);
    const auto c = dev.counters();
    std::printf("device: %s reads (%s MiB)\n", fmt_count(c.reads).c_str(),
                fmt_count(c.read_bytes >> 20).c_str());
    const auto bc = g->backend().counters();
    std::printf("host reads: %s requests in %s preads (%s window hits)\n",
                fmt_count(bc.requests).c_str(), fmt_count(bc.batches).c_str(),
                fmt_count(bc.window_hits).c_str());
    if (bundle.cache != nullptr) {
      std::printf("cache: %.1f%% hit rate, %s evictions\n",
                  100.0 * bundle.cache->counters().hit_rate(),
                  fmt_count(bundle.cache->counters().evictions).c_str());
    }
    const auto io = recorder.snapshot();
    if (injector != nullptr) {
      const auto fc = injector->counters();
      std::printf("faults: %s injected over %s reads (%s short, %s "
                  "delayed, %s stalled); %s retries, %s gave up\n",
                  fmt_count(fc.errors).c_str(), fmt_count(fc.ops).c_str(),
                  fmt_count(fc.shorts).c_str(), fmt_count(fc.delays).c_str(),
                  fmt_count(fc.stalls).c_str(),
                  fmt_count(io.retries).c_str(),
                  fmt_count(io.gave_up).c_str());
    }
    if (rep.enabled()) {
      rep.metrics().get_counter("io.retries").add(0, io.retries);
      rep.metrics().get_counter("io.gave_up").add(0, io.gave_up);
      rep.metrics().get_counter("io.batches").add(0, io.batches);
      rep.metrics()
          .get_counter("io.coalesced_ranges")
          .add(0, io.coalesced_ranges);
      rep.metrics().get_counter("io.inflight_peak").add(0, io.inflight_peak);
    }
    if (rep.json_enabled()) {
      json_value& s = rep.section("sem");
      s.set("device", params.name);
      s.set("time_scale", params.time_scale);
      s.set("ssd", bench::to_json(c));
      json_value bj = json_value::object();
      bj.set("name", std::string(sem::io_backend::name));
      bj.set("requests", bc.requests);
      bj.set("batches", bc.batches);
      bj.set("bytes_issued", bc.bytes_issued);
      bj.set("window_hits", bc.window_hits);
      bj.set("fallbacks", bc.fallbacks);
      s.set("backend", std::move(bj));
      if (bundle.cache != nullptr) {
        s.set("cache", bench::to_json(bundle.cache->counters()));
      }
      // Bytes of device traffic per completed visit; the run lambda already
      // reported visits into the algorithm section.
      if (const json_value* visits = rep.section("algorithm").find("visits");
          visits != nullptr && visits->as_int() > 0) {
        s.set("bytes_per_visit",
              static_cast<double>(c.read_bytes) /
                  static_cast<double>(visits->as_int()));
      }
      s.set("io", telemetry::to_json(io));
      if (injector != nullptr) {
        const auto fc = injector->counters();
        json_value fj = json_value::object();
        fj.set("spec", inject_spec);
        fj.set("ops", fc.ops);
        fj.set("errors", fc.errors);
        fj.set("shorts", fc.shorts);
        fj.set("delays", fc.delays);
        fj.set("stalls", fc.stalls);
        fj.set("range_hits", fc.range_hits);
        s.set("faults", std::move(fj));
      }
    }
  } else {
    std::unique_ptr<csr32> g;
    {
      telemetry::phase_timer ph(rep.trace(), "load-graph", &rep.metrics());
      // Adopts the on-disk reverse view when a .rev companion exists;
      // --hybrid without one transposes in memory.
      g = std::make_unique<csr32>(read_graph32_with_reverse(path));
      if (hybrid && !g->has_reverse()) g->ensure_reverse();
    }
    rc = run(*g, topt, rep);
  }
  rep.finish();
  return rc;
}

/// Fills the "queue" and "algorithm" report sections shared by every
/// traversal subcommand; the caller appends algorithm-specific fields to
/// the returned algorithm section.
template <typename Result>
telemetry::json_value* report_traversal(bench::bench_report& rep,
                                        const char* algo, const Result& r) {
  if (!rep.json_enabled()) return nullptr;
  rep.section("queue") = bench::to_json(r.stats);
  json_value& alg = rep.section("algorithm");
  const auto w = r.work();
  alg.set("name", algo);
  alg.set("visits", w.visits);
  alg.set("pushes", w.pushes);
  alg.set("updates", w.updates);
  alg.set("relaxed_vertices", w.relaxed_vertices);
  alg.set("wasted_visits", w.wasted_visits);
  alg.set("label_corrections", w.label_corrections);
  return &alg;
}

/// Exit code for an abort: 4 when the service terminated the job (deadline
/// or stall watchdog), 3 for every other abort (cancel, worker failure) —
/// distinct from usage errors (2) and admission rejections (5).
int abort_exit_code(const traversal_aborted& e) {
  return e.reason() == abort_reason::deadline_exceeded ||
                 e.reason() == abort_reason::stalled
             ? 4
             : 3;
}

/// Prints an abort and, when an emergency checkpoint was saved, the resume
/// hint. Returns the exit code (3 or 4, see abort_exit_code).
int report_abort(const char* algo, const traversal_aborted& e,
                 const std::string& checkpoint_path) {
  std::fprintf(stderr, "agt_tool %s: %s\n", algo, e.what());
  if (!checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "emergency checkpoint saved to %s; rerun with "
                 "--resume=%s to finish the traversal\n",
                 checkpoint_path.c_str(), checkpoint_path.c_str());
  }
  return abort_exit_code(e);
}

/// Prints the hybrid driver's direction-switch summary.
void print_hybrid(const hybrid_extra& hex) {
  std::printf("hybrid: %s direction switches, %s edges inspected "
              "over %zu phases\n",
              fmt_count(hex.direction_switches).c_str(),
              fmt_count(hex.edge_inspections).c_str(), hex.phases.size());
}

/// The seeded run a bfs/sssp subcommand starts from: the snapshot
/// --resume=F names, or the start vertex.
template <typename Result, typename Graph>
seeded_run<Result> resume_or_start(const options& opt, const Graph& g,
                                   checkpoint_kind kind, vertex32 start,
                                   const char* label) {
  const std::string resume = opt.get_string("resume", "");
  if (resume.empty()) return {.seeds = {{start, start, 0}}, .label = label};
  return resume_run<Result>(g, load_checkpoint<vertex32>(resume, kind));
}

int cmd_bfs(const options& opt) {
  return run_traversal(opt, "bfs", [&](const auto& g, const auto& cfg,
                                       bench::bench_report& rep) {
    const auto start = static_cast<vertex32>(opt.get_int("start", 0));
    telemetry::phase_timer ph(rep.trace(), "bfs", &rep.metrics());
    try {
      bfs_result<vertex32> r;
      hybrid_extra hex;
      const bool hybrid =
          opt.get_bool("hybrid", false) && opt.get_string("resume", "").empty();
      if (hybrid) {
        r = hybrid_bfs(g, start, cfg, &hex);
        print_hybrid(hex);
      } else {
        r = engine::process_default()
                .submit_bfs(g,
                            resume_or_start<bfs_result<vertex32>>(
                                opt, g, checkpoint_kind::bfs, start, "bfs"),
                            cfg)
                .get();
      }
      std::printf("BFS from %u: reached %s vertices, %s levels, %.3fs\n",
                  start, fmt_count(r.visited_count()).c_str(),
                  fmt_count(r.max_level()).c_str(), r.stats.elapsed_seconds);
      if (auto* alg = report_traversal(rep, "bfs", r)) {
        alg->set("start", static_cast<std::uint64_t>(start));
        alg->set("reached", r.visited_count());
        alg->set("max_level", r.max_level());
        if (hybrid) alg->set("hybrid", bench::to_json(hex));
      }
      return 0;
    } catch (const traversal_aborted& e) {
      return report_abort("bfs", e, cfg.checkpoint_path);
    }
  });
}

int cmd_sssp(const options& opt) {
  return run_traversal(opt, "sssp", [&](const auto& g, const auto& cfg,
                                        bench::bench_report& rep) {
    const auto start = static_cast<vertex32>(opt.get_int("start", 0));
    telemetry::phase_timer ph(rep.trace(), "sssp", &rep.metrics());
    try {
      const auto r = engine::process_default()
                         .submit_sssp(g,
                                      resume_or_start<sssp_result<vertex32>>(
                                          opt, g, checkpoint_kind::sssp,
                                          start, "sssp"),
                                      cfg)
                         .get();
      std::printf("SSSP from %u: reached %s vertices, %s corrections, %.3fs\n",
                  start, fmt_count(r.visited_count()).c_str(),
                  fmt_count(r.updates).c_str(), r.stats.elapsed_seconds);
      if (auto* alg = report_traversal(rep, "sssp", r)) {
        alg->set("start", static_cast<std::uint64_t>(start));
        alg->set("reached", r.visited_count());
      }
      return 0;
    } catch (const traversal_aborted& e) {
      return report_abort("sssp", e, cfg.checkpoint_path);
    }
  });
}

int cmd_cc(const options& opt) {
  return run_traversal(opt, "cc", [&](const auto& g, const auto& cfg,
                                      bench::bench_report& rep) {
    telemetry::phase_timer ph(rep.trace(), "cc", &rep.metrics());
    try {
      cc_result<vertex32> r;
      hybrid_extra hex;
      const bool hybrid = opt.get_bool("hybrid", false);
      if (hybrid) {
        r = hybrid_cc(g, cfg, &hex);
        print_hybrid(hex);
      } else {
        r = async_cc(g, cfg);
      }
      std::printf("CC: %s components, largest %s vertices, %.3fs\n",
                  fmt_count(r.num_components()).c_str(),
                  fmt_count(r.largest_component_size()).c_str(),
                  r.stats.elapsed_seconds);
      if (auto* alg = report_traversal(rep, "cc", r)) {
        alg->set("components", r.num_components());
        alg->set("largest_component", r.largest_component_size());
        if (hybrid) alg->set("hybrid", bench::to_json(hex));
      }
      return 0;
    } catch (const traversal_aborted& e) {
      return report_abort("cc", e, std::string());
    }
  });
}

int cmd_pagerank(const options& opt) {
  return run_traversal(opt, "pagerank", [&](const auto& g, const auto& cfg,
                                            bench::bench_report& rep) {
    telemetry::phase_timer ph(rep.trace(), "pagerank", &rep.metrics());
    pagerank_options popt;
    popt.alpha = opt.get_double("alpha", 0.85);
    popt.tolerance = opt.get_double("tolerance", 1e-6);
    const auto r = async_pagerank(g, popt, cfg);
    std::printf("PageRank: total %.6f, %s flushes, %.3fs\n", r.total_rank(),
                fmt_count(r.flushes).c_str(), r.stats.elapsed_seconds);
    std::vector<std::size_t> order(r.rank.size());
    std::iota(order.begin(), order.end(), 0);
    const auto top = std::min<std::size_t>(
        static_cast<std::size_t>(opt.get_int("top", 10)), order.size());
    std::partial_sort(order.begin(), order.begin() + top, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return r.rank[a] > r.rank[b];
                      });
    for (std::size_t i = 0; i < top; ++i) {
      std::printf("  #%zu vertex %zu rank %.6g\n", i + 1, order[i],
                  r.rank[order[i]]);
    }
    if (rep.json_enabled()) {
      rep.section("queue") = bench::to_json(r.stats);
      json_value& alg = rep.section("algorithm");
      alg.set("name", "pagerank");
      alg.set("total_rank", r.total_rank());
      alg.set("flushes", r.flushes);
    }
    return 0;
  });
}

int cmd_metrics(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  traversal_options cfg;
  if (!parse_traversal_flags(opt, false, "metrics", cfg)) return 2;
  const csr32 g = read_graph32(opt.positional()[1]);
  const degree_summary s = compute_degree_summary(g);
  std::printf("degree          : %s\n", s.stats.to_string().c_str());
  std::printf("top-1%% edges    : %.1f%%\n",
              100.0 * s.top_fraction_edge_share);
  const auto diam = estimate_diameter(
      g, static_cast<unsigned>(opt.get_int("sweeps", 2)),
      static_cast<std::uint64_t>(opt.get_int("seed", 1)), cfg);
  std::printf("diameter        : >= %llu (%llu double sweeps)\n",
              static_cast<unsigned long long>(diam.lower_bound),
              static_cast<unsigned long long>(diam.sweeps));
  const double apl = average_path_length_sampled(
      g, static_cast<unsigned>(opt.get_int("samples", 3)), 7, cfg);
  std::printf("avg path length : %.2f (sampled)\n", apl);
  std::printf("symmetric       : %s\n", is_symmetric(g) ? "yes" : "no");
  return 0;
}

int cmd_kcore(const options& opt) {
  return run_traversal(opt, "kcore", [&](const auto& g, const auto& cfg,
                                         bench::bench_report& rep) {
    telemetry::phase_timer ph(rep.trace(), "kcore", &rep.metrics());
    const auto r = async_kcore(g, cfg);
    std::printf("k-core: max coreness %u, %s bound updates, %.3fs\n",
                r.max_core(), fmt_count(r.updates).c_str(),
                r.stats.elapsed_seconds);
    if (rep.json_enabled()) {
      rep.section("queue") = bench::to_json(r.stats);
      json_value& alg = rep.section("algorithm");
      alg.set("name", "kcore");
      alg.set("max_core", static_cast<std::uint64_t>(r.max_core()));
      alg.set("updates", r.updates);
    }
    return 0;
  });
}

/// Parses a delta file for `agt_tool update` (docs/dynamic_graphs.md):
/// one op per line, `+ u v [w]` inserts and `- u v` deletes, `#` comments,
/// blank lines separating batches (each batch becomes one overlay epoch).
/// --undirected mirrors every op in both directions (the symmetric-delta
/// precondition of incremental CC). Throws std::invalid_argument with the
/// offending line number on a malformed op.
std::vector<delta_batch<vertex32>> parse_delta_file(const std::string& path,
                                                    bool undirected) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open delta file " + path);
  std::vector<delta_batch<vertex32>> batches;
  delta_batch<vertex32> cur;
  std::string line;
  std::size_t lineno = 0;
  const auto flush = [&] {
    if (!cur.empty()) {
      batches.push_back(std::move(cur));
      cur = delta_batch<vertex32>{};
    }
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) {  // blank line: batch boundary
      flush();
      continue;
    }
    if (op[0] == '#') continue;
    unsigned long long u = 0, v = 0;
    if ((op != "+" && op != "-") || !(ls >> u >> v)) {
      throw std::invalid_argument(
          path + ":" + std::to_string(lineno) +
          ": expected '+ u v [w]' or '- u v', got '" + line + "'");
    }
    const auto su = static_cast<vertex32>(u);
    const auto sv = static_cast<vertex32>(v);
    if (op == "+") {
      unsigned long long w = 1;
      ls >> w;
      if (undirected) {
        cur.insert_undirected(su, sv, static_cast<weight_t>(w));
      } else {
        cur.insert(su, sv, static_cast<weight_t>(w));
      }
    } else if (undirected) {
      cur.erase_undirected(su, sv);
    } else {
      cur.erase(su, sv);
    }
  }
  flush();
  return batches;
}

/// The storage-generic body of `agt_tool update`: applies the parsed
/// batches as overlay epochs, optionally differentially verifying each one
/// (--verify: incremental repair vs full recompute over the same pin), and
/// optionally compacting the head epoch to a clean .agt (+.rev) through
/// the out-of-core builder. A failed compaction (e.g. injected SEM faults)
/// must leave no partial output and the pinned epoch readable — both are
/// demonstrated, and surface as exit 3.
template <typename Graph>
int run_update(const options& opt, const Graph& g, traversal_options& topt,
               bench::bench_report& rep,
               const std::vector<delta_batch<vertex32>>& batches,
               sem::fault_injector* injector = nullptr) {
  delta_overlay<Graph> ov(g);
  const bool verify = opt.get_bool("verify", false);
  const std::string algo = opt.get_string("algo", "bfs");
  const auto start = static_cast<vertex32>(opt.get_int("start", 0));
  std::uint64_t delta_inserts = 0, delta_deletes = 0;
  for (const auto& b : batches) {
    delta_inserts += b.inserts.size();
    delta_deletes += b.deletes.size();
  }

  incremental_extra totals;
  wall_timer t;
  int vrc = 0;
  if (verify) {
    // Chained differential: each epoch repairs the previous epoch's
    // repaired labels, then compares against a full recompute over the
    // same pin — a divergence compounds instead of washing out.
    const auto drive = [&](auto prior, auto repair, auto full,
                           auto labels) -> int {
      for (std::size_t i = 0; i < batches.size(); ++i) {
        ov.apply(batches[i]);
        auto view = ov.snapshot();
        incremental_extra ex;
        prior = repair(view, batches[i], std::move(prior), &ex);
        totals.affected += ex.affected;
        totals.reseeded_vertices += ex.reseeded_vertices;
        totals.repair_visits += ex.repair_visits;
        auto recomputed = full(view);
        if (labels(prior) != labels(recomputed)) {
          std::fprintf(stderr,
                       "update: %s labels diverged from recompute at "
                       "epoch %llu\n",
                       algo.c_str(),
                       static_cast<unsigned long long>(ov.epoch()));
          return 1;
        }
      }
      std::printf("verified %zu epoch(s): incremental %s == recompute "
                  "(affected %s, reseeded %s, repair visits %s)\n",
                  batches.size(), algo.c_str(),
                  fmt_count(totals.affected).c_str(),
                  fmt_count(totals.reseeded_vertices).c_str(),
                  fmt_count(totals.repair_visits).c_str());
      return 0;
    };
    auto v0 = ov.snapshot();
    if (algo == "bfs") {
      vrc = drive(
          async_bfs(v0, start, topt),
          [&](auto& view, const auto& b, auto prior, incremental_extra* ex) {
            return incremental_bfs(view, b, std::move(prior), ex, topt);
          },
          [&](auto& view) { return async_bfs(view, start, topt); },
          [](const auto& r) -> const auto& { return r.level; });
    } else if (algo == "sssp") {
      vrc = drive(
          async_sssp(v0, start, topt),
          [&](auto& view, const auto& b, auto prior, incremental_extra* ex) {
            return incremental_sssp(view, b, std::move(prior), ex, topt);
          },
          [&](auto& view) { return async_sssp(view, start, topt); },
          [](const auto& r) -> const auto& { return r.dist; });
    } else if (algo == "cc") {
      vrc = drive(
          async_cc(v0, topt),
          [&](auto& view, const auto& b, auto prior, incremental_extra* ex) {
            return incremental_cc(view, b, std::move(prior), ex, topt);
          },
          [&](auto& view) { return async_cc(view, topt); },
          [](const auto& r) -> const auto& { return r.component; });
    } else {
      std::fprintf(stderr, "update: --algo must be bfs, sssp or cc\n");
      return 2;
    }
  } else {
    for (const auto& b : batches) ov.apply(b);
  }

  const auto c = ov.counters();
  std::printf("applied %zu batch(es): epoch %llu, %s inserts / %s deletes "
              "live, %s patched pairs, %s -> %s edges (%.3fs)\n",
              batches.size(), static_cast<unsigned long long>(ov.epoch()),
              fmt_count(c.live_inserts).c_str(),
              fmt_count(c.live_deletes).c_str(),
              fmt_count(c.patched_pairs).c_str(),
              fmt_count(g.num_edges()).c_str(),
              fmt_count(ov.num_edges()).c_str(), t.elapsed_seconds());

  if (rep.json_enabled()) {
    json_value& s = rep.section("overlay");
    s.set("epoch", ov.epoch());
    s.set("live_inserts", c.live_inserts);
    s.set("live_deletes", c.live_deletes);
    s.set("patched_pairs", c.patched_pairs);
    s.set("overlay_bytes", ov.overlay_bytes());
    if (verify) {
      json_value& inc = rep.section("incremental");
      inc.set("n", static_cast<std::uint64_t>(g.num_vertices()));
      inc.set("base_edges", g.num_edges());
      inc.set("delta_inserts", delta_inserts);
      inc.set("delta_deletes", delta_deletes);
      inc.set("epoch", ov.epoch());
      json_value algos = json_value::object();
      algos.set(algo, bench::to_json(totals));
      inc.set("algos", std::move(algos));
    }
  }
  if (vrc != 0) return vrc;

  if (opt.get_bool("compact", false)) {
    const std::string out = opt.get_string("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "update: --compact requires --out=FILE\n");
      return 2;
    }
    auto view = ov.snapshot();
    // --inject-at=compact scopes device faults to this pass: the injector
    // was constructed disarmed and goes hot only now (a no-op when it was
    // armed from the start).
    if (injector != nullptr) injector->arm();
    try {
      sem::sem_compaction_options copt;
      copt.memory_budget_bytes =
          static_cast<std::uint64_t>(opt.get_int("memory-mb", 64)) << 20;
      wall_timer ct;
      const auto st = sem::compact_to_file(view, out, copt);
      std::printf("compacted epoch %llu -> %s: %s edges, %llu sort runs "
                  "(%.3fs)\n",
                  static_cast<unsigned long long>(st.epoch), out.c_str(),
                  fmt_count(st.edges).c_str(),
                  static_cast<unsigned long long>(st.build.sort_runs),
                  ct.elapsed_seconds());
      if (rep.json_enabled()) {
        json_value& cj = rep.section("compaction");
        cj.set("epoch", st.epoch);
        cj.set("edges", st.edges);
        cj.set("sort_runs", st.build.sort_runs);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "update: compaction failed: %s\n", e.what());
      // The failure contract: no partial output, and the pinned epoch is
      // still fully readable — prove the latter with a complete sweep.
      // Disarm any fault injector first: the question here is the epoch's
      // integrity, not whether the faulty device keeps faulting.
      if (injector != nullptr) injector->disarm();
      std::uint64_t edges = 0;
      for (vertex32 v = 0; v < view.num_vertices(); ++v) {
        view.for_each_out_edge(v, [&](vertex32, weight_t) { ++edges; });
      }
      std::printf("overlay epoch %llu still readable after failed "
                  "compaction: %s edges iterated (expected %s)\n",
                  static_cast<unsigned long long>(view.epoch()),
                  fmt_count(edges).c_str(),
                  fmt_count(view.num_edges()).c_str());
      return edges == view.num_edges() ? 3 : 1;
    }
  }
  return 0;
}

/// `agt_tool update`: applies an edge-delta file to a graph through the
/// delta overlay — epoch per batch, optional differential verification,
/// optional compaction to a clean .agt (docs/dynamic_graphs.md).
int cmd_update(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string path = opt.positional()[1];
  const std::string delta_path = opt.get_string("delta", "");
  if (delta_path.empty()) {
    std::fprintf(stderr, "update: --delta=FILE is required\n");
    return 2;
  }
  std::vector<delta_batch<vertex32>> batches;
  try {
    batches = parse_delta_file(delta_path, opt.get_bool("undirected", false));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "update: %s\n", e.what());
    return 2;
  }
  if (batches.empty()) {
    std::fprintf(stderr, "update: %s holds no operations\n",
                 delta_path.c_str());
    return 2;
  }

  const bool sem_mode = opt.get_bool("sem", false);
  traversal_options topt;
  if (!parse_traversal_flags(opt, sem_mode, "update", topt)) return 2;
  bench::bench_report rep(opt, "agt_tool_update");
  rep.attach(topt.queue);

  int rc;
  if (sem_mode) {
    const auto params = sem::device_preset_by_name(
        opt.get_string("device", "intel"), opt.get_double("time-scale", 1.0));
    sem::ssd_model dev(params);
    std::unique_ptr<sem::fault_injector> injector;
    const std::string inject_spec = opt.get_string("inject", "");
    if (!inject_spec.empty()) {
      injector = std::make_unique<sem::fault_injector>(
          sem::parse_fault_config(inject_spec));
      const std::string at = opt.get_string("inject-at", "open");
      if (at == "compact") {
        injector->disarm();  // run_update re-arms for the compaction pass
      } else if (at != "open") {
        std::fprintf(stderr, "update: --inject-at must be open or compact\n");
        return 2;
      }
    }
    sem::sem_config scfg = sem::sem_config::from_options(topt, path);
    scfg.with_device(&dev);
    if (injector != nullptr) scfg.with_fault_injector(injector.get());
    // Deletes repair through in-edges; adopt the on-disk reverse when the
    // .rev companion exists (agt_tool transpose writes one).
    if (has_reverse_file(path)) scfg.with_reverse();
    auto bundle = scfg.open<vertex32>();
    rc = run_update(opt, *bundle.graph, topt, rep, batches, injector.get());
    if (injector != nullptr) {
      const auto fc = injector->counters();
      std::printf("faults: %s injected over %s reads\n",
                  fmt_count(fc.errors).c_str(), fmt_count(fc.ops).c_str());
    }
  } else {
    const csr32 g = read_graph32_with_reverse(path);
    rc = run_update(opt, g, topt, rep, batches);
  }
  rep.finish();
  return rc;
}

/// `agt_tool stats`: runs a short mixed workload (bfs/sssp/cc cycling over
/// --jobs) through one engine and prints the job-scoped telemetry surface —
/// per-job attribution counters, terminal flags, lifecycle latencies, and
/// the engine's lifecycle percentiles (docs/observability.md). The same
/// data lands in the --json report as a schema-v2 "jobs" array.
int cmd_stats(const options& opt) {
  return run_traversal(opt, "stats", [&](const auto& g, const auto& base,
                                         bench::bench_report& rep) {
    const auto jobs =
        std::max<std::size_t>(1, static_cast<std::size_t>(opt.get_int("jobs", 4)));
    const auto start = static_cast<vertex32>(opt.get_int("start", 0));
    // Overload-safety knobs (docs/service_api.md): admission policy, a
    // pending-job bound, a memory budget, plus the per-job deadline /
    // stall-grace / priority already carried by `base` via from_flags.
    engine::config ecfg;
    ecfg.pool_threads = base.queue.num_threads * jobs;
    ecfg.defaults = base;
    ecfg.max_pending_jobs =
        static_cast<std::size_t>(opt.get_int("max-pending", 0));
    const std::string admission = opt.get_string("admission", "block");
    if (!service::parse_admission_policy(admission, ecfg.admission)) {
      throw std::invalid_argument("bad --admission value: " + admission);
    }
    ecfg.admission_timeout_ms = static_cast<std::uint32_t>(
        opt.get_int("admission-timeout-ms", 0));
    ecfg.memory_budget_bytes =
        static_cast<std::uint64_t>(opt.get_int("memory-budget-mb", 0)) << 20;
    engine eng(ecfg);
    const bool mix_priority = opt.get_bool("mix-priority", false);

    telemetry::phase_timer ph(rep.trace(), "stats", &rep.metrics());
    std::vector<std::function<void()>> waits;
    std::size_t rejected_jobs = 0;
    std::exception_ptr last_rejection;
    for (std::size_t j = 0; j < jobs; ++j) {
      const auto s = static_cast<vertex32>(
          (start + j) % std::max<std::uint64_t>(g.num_vertices(), 1));
      traversal_options jopt = base;
      // Under a budget every job declares its share so the guardrail has
      // something to count (docs/service_api.md: estimates are
      // caller-declared).
      if (ecfg.memory_budget_bytes != 0 && jopt.memory_estimate_bytes == 0) {
        jopt.memory_estimate_bytes = g.resident_bytes();
      }
      // --mix-priority cycles high/normal/low so shed admission has a
      // spread of victims to choose from.
      if (mix_priority) jopt.priority = 1 - static_cast<int>(j % 3);
      try {
        switch (j % 3) {
          case 0: {
            auto h = std::make_shared<job<bfs_result<vertex32>>>(
                eng.submit_bfs(g, s, jopt));
            waits.push_back([h] { h->get(); });
            break;
          }
          case 1: {
            auto h = std::make_shared<job<sssp_result<vertex32>>>(
                eng.submit_sssp(g, s, jopt));
            waits.push_back([h] { h->get(); });
            break;
          }
          default: {
            auto h = std::make_shared<job<cc_result<vertex32>>>(
                eng.submit_cc(g, jopt));
            waits.push_back([h] { h->get(); });
            break;
          }
        }
      } catch (const service::admission_rejected& e) {
        std::fprintf(stderr, "job %zu rejected: %s\n", j, e.what());
        ++rejected_jobs;
        last_rejection = std::current_exception();
      }
    }
    // Partial rejection is the workload doing its job; total rejection
    // means nothing ran at all — surface that as exit 5.
    if (rejected_jobs == jobs && last_rejection != nullptr) {
      std::rethrow_exception(last_rejection);
    }
    // Terminated jobs (deadline, stall, shed) surface through the snapshot
    // table below; the stats workload itself keeps going.
    for (auto& w : waits) {
      try {
        w();
      } catch (const traversal_aborted&) {
      }
    }

    // The completed-job ring is the introspection surface: handles may be
    // gone, the snapshots stay.
    const auto recent = eng.recent_jobs();
    const auto ms = [](double seconds) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
      return std::string(buf);
    };
    text_table table;
    table.header({"job", "kind", "outcome", "prio", "visits", "edges",
                  "io KiB", "retries", "wait ms", "run ms", "total ms"});
    for (const auto& js : recent) {
      table.row({std::to_string(js.job_id), js.label, js.outcome,
                 std::to_string(js.priority), fmt_count(js.visits),
                 fmt_count(js.edge_inspections),
                 fmt_count(js.io_bytes >> 10), fmt_count(js.io_retries),
                 ms(js.queue_wait_seconds), ms(js.run_seconds),
                 ms(js.total_seconds)});
      if (rep.json_enabled()) rep.add_job(bench::to_json(js));
    }
    std::printf("%s\n", table.render().c_str());

    const auto lc = eng.lifecycle();
    const auto buckets = [](const log2_histogram& h) {
      std::vector<std::uint64_t> b(h.num_buckets());
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = h.bucket_count(i);
      return b;
    };
    const auto put = [&](const char* name, const log2_histogram& h) {
      const auto p = telemetry::percentiles_from_log2(buckets(h));
      std::printf("%-14s p50 %.0fus  p95 %.0fus  p99 %.0fus  (%llu jobs)\n",
                  name, p.p50, p.p95, p.p99,
                  static_cast<unsigned long long>(h.total()));
      if (rep.json_enabled()) {
        json_value v = json_value::object();
        v.set("p50", p.p50);
        v.set("p95", p.p95);
        v.set("p99", p.p99);
        rep.section("lifecycle").set(name, std::move(v));
      }
    };
    put("queue_wait_us", lc.queue_wait_us);
    put("run_us", lc.run_us);
    put("total_us", lc.total_us);
    const auto sc = eng.counters();
    std::printf("service: %llu submitted = %llu completed + %llu failed + "
                "%llu cancelled + %llu deadline_exceeded + %llu stalled + "
                "%llu shed + %llu rejected (%llu still active)\n",
                static_cast<unsigned long long>(sc.submitted),
                static_cast<unsigned long long>(sc.completed),
                static_cast<unsigned long long>(sc.failed),
                static_cast<unsigned long long>(sc.cancelled),
                static_cast<unsigned long long>(sc.deadline_exceeded),
                static_cast<unsigned long long>(sc.stalled),
                static_cast<unsigned long long>(sc.shed),
                static_cast<unsigned long long>(sc.rejected),
                static_cast<unsigned long long>(sc.active));
    if (rep.json_enabled()) {
      rep.section("service") = bench::to_json(sc);
    }
    return 0;
  });
}

int cmd_verify_json(const options& opt) {
  if (opt.positional().size() < 2) return usage();
  const std::string path = opt.positional()[1];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "verify-json: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!telemetry::report::verify_text(buf.str(), &error)) {
    std::printf("FAIL: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("ok: %s conforms to the bench-report schema\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Boolean options: "--sem g.agt" must leave g.agt a positional argument.
  const asyncgt::options opt(argc, argv,
                             {"sem", "hybrid", "undirected", "out-of-core",
                              "verify", "compact", "mix-priority"});
  if (opt.positional().empty()) return usage();
  const std::string& cmd = opt.positional()[0];
  try {
    if (cmd == "generate") return cmd_generate(opt);
    if (cmd == "info") return cmd_info(opt);
    if (cmd == "validate") return cmd_validate(opt);
    if (cmd == "transpose") return cmd_transpose(opt);
    if (cmd == "bfs") return cmd_bfs(opt);
    if (cmd == "sssp") return cmd_sssp(opt);
    if (cmd == "cc") return cmd_cc(opt);
    if (cmd == "pagerank") return cmd_pagerank(opt);
    if (cmd == "kcore") return cmd_kcore(opt);
    if (cmd == "metrics") return cmd_metrics(opt);
    if (cmd == "stats") return cmd_stats(opt);
    if (cmd == "update") return cmd_update(opt);
    if (cmd == "import") return cmd_import(opt);
    if (cmd == "export") return cmd_export(opt);
    if (cmd == "verify-json") return cmd_verify_json(opt);
  } catch (const asyncgt::traversal_aborted& e) {
    // Uncaught aborts from subcommands without their own handler (pagerank,
    // kcore, metrics) still map to the typed exit codes.
    std::fprintf(stderr, "agt_tool %s: %s\n", cmd.c_str(), e.what());
    return abort_exit_code(e);
  } catch (const asyncgt::service::admission_rejected& e) {
    std::fprintf(stderr, "agt_tool %s: %s\n", cmd.c_str(), e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agt_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
