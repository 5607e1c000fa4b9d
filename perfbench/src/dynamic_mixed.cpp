// dynamic-mixed: an undirected weighted RMAT-A base with a reverse view,
// behind a delta_overlay, under a closed loop from three load threads in
// one process:
//   - two query clients, each submitting BFS/SSSP/CC queries from rotating
//     roots over the latest published snapshot, no think time, 2 lanes per
//     job on a pool of nproc;
//   - one writer applying seeded symmetric insert/delete batches
//     (gen/update_stream) and repairing its standing BFS, SSSP and CC labels
//     with submit_incremental_*.
// The queue/core code of im-rmat runs here as many short concurrent jobs,
// so service admission and gang waits show, and queries read through the
// overlay's slow path while writes run beside them. Compaction stays out of
// the timed loop: rebase() must not run under pinned readers.
//
// Correctness: every query's labels and the writer's repaired labels at
// each published epoch (a fixed stride, plus the last epoch) are compared,
// after the loop, with serial references computed on a CSR rebuilt from the
// base edges and a bench-side replay of the batches — a path independent of
// the overlay's own iteration.
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "closed_loop.hpp"
#include "im_setup.hpp"

namespace perfbench {

namespace {

using overlay = asyncgt::delta_overlay<csr32>;
using view = asyncgt::overlay_view<csr32>;
using batch = asyncgt::delta_batch<vertex32>;

constexpr unsigned default_scale = 15;
constexpr std::size_t job_lanes = 2;
constexpr std::size_t query_clients = 2;
constexpr std::size_t batch_ops = 16;  // symmetric ops: 32 directed edges
constexpr double delete_fraction = 0.3;
constexpr std::size_t stream_batches = 4096;
constexpr std::uint64_t publish_stride = 64;
// Base and inserted weights share a narrow band: with wide-variance (UW)
// weights one random insert rewrites most SSSP labels, and no repair can be
// cheap (measured for bench/ext_incremental; docs/dynamic_graphs.md).
constexpr asyncgt::weight_t min_weight = 7;
constexpr asyncgt::weight_t max_weight = 8;

/// Symmetric RMAT-A base with band weights and a reverse view (the delete
/// repairs walk in-edges).
csr32 build_base(unsigned scale, std::uint64_t seed, std::size_t lanes,
                 setup_timings& t, tracer& tr, std::uint64_t req,
                 std::int64_t parent) {
  const auto p = asyncgt::rmat_a(scale, seed);
  std::vector<double> gen, build;
  auto edges = timed(gen, tr, "gen.rmat_edges", "gen", req, parent, [&] {
    return asyncgt::rmat_edges_parallel<vertex32>(p, lanes);
  });
  const csr32 plain = timed(build, tr, "graph.build_csr_symmetric", "graph",
                            req, parent, [&] {
    asyncgt::build_options o;
    o.symmetrize = true;
    return asyncgt::build_csr<vertex32>(p.num_vertices(), std::move(edges),
                                        o);
  });
  auto weights = timed(gen, tr, "gen.weights", "gen", req, parent, [&] {
    std::vector<asyncgt::weight_t> w;
    w.reserve(plain.num_edges());
    for (vertex32 v = 0; v < plain.num_vertices(); ++v) {
      for (const vertex32 x : plain.neighbors(v)) {
        w.push_back(min_weight +
                    asyncgt::make_weight(asyncgt::weight_scheme::uniform, v,
                                         x, plain.num_vertices(), seed + 1) %
                        (max_weight - min_weight + 1));
      }
    }
    return w;
  });
  csr32 base = timed(build, tr, "graph.ensure_reverse", "graph", req, parent,
                     [&] {
    csr32 g({plain.offsets().begin(), plain.offsets().end()},
            {plain.targets().begin(), plain.targets().end()},
            std::move(weights));
    g.ensure_reverse();
    return g;
  });
  t.generate_s.push_back(gen[0] + gen[1]);
  t.build_s.push_back(build[0] + build[1]);
  return base;
}

/// The writer's standing labels, repaired after every batch.
struct standing {
  asyncgt::bfs_result<vertex32> bfs;
  asyncgt::sssp_result<vertex32> sssp;
  asyncgt::cc_result<vertex32> cc;
};

/// One label array to check after the loop: (epoch, kind, root) -> hash.
struct labelled {
  std::uint64_t epoch = 0;
  int kind = 0;
  vertex32 root = 0;
  std::uint64_t hash = 0;
  std::string what;
};

/// Writer-side samples.
struct update_samples {
  std::vector<double> update_ms, apply_ms, repair_ms, repair_visits, reseeded;
  std::vector<labelled> checks;
  std::uint64_t jobs = 0;
};

struct client_samples {
  loop_samples s;
  std::vector<labelled> checks;
};

/// Serial references at one epoch over a CSR rebuilt from the base edges
/// plus a replay of the first `epoch` batches (deletes before inserts, as
/// the overlay applies them).
struct epoch_refs {
  std::map<std::pair<int, vertex32>, std::uint64_t> hash;
  double bfs_s = 0.0, sssp_s = 0.0, cc_s = 0.0;
};

epoch_refs reference_at(const csr32& base, const std::vector<batch>& stream,
                        std::uint64_t epoch,
                        const std::vector<vertex32>& roots) {
  auto key = [](std::uint64_t u, std::uint64_t v) { return u << 32 | v; };
  std::unordered_map<std::uint64_t, std::int64_t> changed;  // -1 = deleted
  for (std::uint64_t e = 0; e < epoch; ++e) {
    for (const auto& [u, v] : stream[e].deletes) changed[key(u, v)] = -1;
    for (const auto& x : stream[e].inserts) changed[key(x.src, x.dst)] = x.weight;
  }
  std::vector<asyncgt::edge<vertex32>> edges;
  edges.reserve(base.num_edges() + changed.size());
  for (vertex32 u = 0; u < base.num_vertices(); ++u) {
    base.for_each_out_edge(u, [&](vertex32 v, asyncgt::weight_t w) {
      if (changed.count(key(u, v)) == 0) edges.push_back({u, v, w});
    });
  }
  for (const auto& [k, w] : changed) {
    if (w < 0) continue;
    edges.push_back({static_cast<vertex32>(k >> 32),
                     static_cast<vertex32>(k & 0xffffffffu),
                     static_cast<asyncgt::weight_t>(w)});
  }
  const csr32 g =
      asyncgt::build_csr<vertex32>(base.num_vertices(), std::move(edges));
  epoch_refs r;
  for (const vertex32 root : roots) {
    auto t0 = clock_type::now();
    r.hash[{k_bfs, root}] = label_hash(asyncgt::serial_bfs(g, root).level);
    r.bfs_s += seconds_since(t0) / static_cast<double>(roots.size());
    t0 = clock_type::now();
    r.hash[{k_sssp, root}] = label_hash(asyncgt::dijkstra_sssp(g, root).dist);
    r.sssp_s += seconds_since(t0) / static_cast<double>(roots.size());
  }
  const auto t0 = clock_type::now();
  const std::uint64_t cc = label_hash(asyncgt::serial_cc(g).component);
  r.cc_s = seconds_since(t0);
  for (const vertex32 root : roots) r.hash[{k_cc, root}] = cc;
  return r;
}

/// Runs `f(i)` for i in [0, n) on up to `threads` threads.
template <typename F>
void parallel_for(std::size_t n, std::size_t threads, F f) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(n, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) f(i);
    });
  }
  for (auto& th : pool) th.join();
}

void merge_into(loop_samples& to, const loop_samples& from) {
  for (int k = 0; k < 3; ++k) {
    to.latency[k].insert(to.latency[k].end(), from.latency[k].begin(),
                         from.latency[k].end());
    to.latency_traced[k].insert(to.latency_traced[k].end(),
                                from.latency_traced[k].begin(),
                                from.latency_traced[k].end());
  }
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(to.all_latency, from.all_latency);
  cat(to.submit_us, from.submit_us);
  cat(to.queue_wait_ms, from.queue_wait_ms);
  cat(to.run_ms, from.run_ms);
  cat(to.inspections, from.inspections);
  cat(to.max_queue, from.max_queue);
  cat(to.load_cv, from.load_cv);
  to.visits += from.visits;
  to.pushes += from.pushes;
  to.flushes += from.flushes;
  to.wakeups += from.wakeups;
  to.wasted += from.wasted;
  to.updates += from.updates;
  to.reached += from.reached;
  to.edges += from.edges;
  to.io_retries += from.io_retries;
  to.jobs += from.jobs;
}

/// Submits one incremental repair, waits, checks the job and returns the
/// repaired result; counts its visits and reseeded vertices.
template <typename Submit>
auto repair(Submit submit, const char* name, gate& g, tracer& tr,
            std::uint64_t req, std::int64_t parent, double& visits,
            double& reseeded, std::uint64_t& jobs) {
  asyncgt::incremental_extra extra;
  const double ts0 = tr.now();
  auto j = submit(&extra);
  const auto t1 = clock_type::now();
  auto res = j.get();
  const auto t2 = clock_type::now();
  const auto st = j.stats();
  check_job(g, st, std::string(name) + " at epoch " +
                       std::to_string(st.delta_epoch));
  visits += static_cast<double>(extra.repair_visits);
  reseeded += static_cast<double>(extra.reseeded_vertices);
  ++jobs;
  if (req != 0) {
    // Repair planning runs inside the submit call: core, not service.
    trace_job(tr, req, name, parent, ts0, t1, t2, st.run_seconds,
              "core.plan_repair", "core");
  }
  return res;
}

}  // namespace

workload_result run_dynamic_mixed(const run_args& a, gate& g, tracer& tr) {
  const unsigned scale = a.scale != 0 ? a.scale : default_scale;
  const std::size_t pool_threads = std::thread::hardware_concurrency();
  const asyncgt::traversal_options opts = tool_options(job_lanes, false);

  // Set-up, repeated: generate and build the base, generate the update
  // stream, wrap the base in an overlay, start the engine and compute the
  // standing labels at epoch 0 (the engine's warm-up).
  setup_timings times;
  std::optional<csr32> base;
  std::unique_ptr<overlay> ov;
  std::vector<batch> stream;
  std::unique_ptr<asyncgt::engine> eng;
  std::vector<vertex32> roots;
  std::optional<standing> stand;
  for (unsigned rep = 0; rep < setup_reps; ++rep) {
    stand.reset();
    eng.reset();
    ov.reset();
    stream.clear();
    base.reset();
    const std::uint64_t req = tr.next_request();
    const auto t0 = clock_type::now();
    const auto setup_span = tr.open("setup", "bench", req);
    base.emplace(
        build_base(scale, a.seed, pool_threads, times, tr, req, setup_span));
    std::vector<double> stream_s;
    stream = timed(stream_s, tr, "gen.update_stream", "gen", req, setup_span,
                   [&] {
      return asyncgt::generate_update_stream(
          *base, {.seed = a.seed + 2,
                  .num_batches = stream_batches,
                  .batch_size = batch_ops,
                  .delete_fraction = delete_fraction,
                  .symmetric = true,
                  .min_weight = min_weight,
                  .max_weight = max_weight});
    });
    times.generate_s.back() += stream_s.back();
    ov = std::make_unique<overlay>(*base);
    roots = pinned_roots(*base, 2);
    const double ts = tr.now();
    eng = std::make_unique<asyncgt::engine>(
        asyncgt::engine::config{.pool_threads = pool_threads,
                                .defaults = opts});
    const view v0 = ov->snapshot();
    stand.emplace(standing{eng->submit_bfs(v0, roots[0], opts).get(),
                           eng->submit_sssp(v0, roots[0], opts).get(),
                           eng->submit_cc(v0, opts).get()});
    tr.add("service.warmup", "service", req, setup_span, ts, tr.now());
    tr.close(setup_span);
    times.setup_s.push_back(seconds_since(t0));
  }
  const std::uint64_t spawned_warm = eng->pool().threads_spawned();

  std::mutex pub_mu;
  view published = ov->snapshot();
  std::vector<std::uint64_t> published_epochs{0};
  corruptor corrupt(a.corrupt_labels);
  const auto start = clock_type::now();

  update_samples ups;
  auto write_loop = [&] {
    // One time check per epoch decides both publishing and stopping, so the
    // final repaired labels are always published and checked.
    for (std::size_t b = 0; b < stream.size(); ++b) {
      const std::uint64_t req = tr.enabled() ? tr.next_request() : 0;
      const auto span = tr.open("update", "bench", req);
      const auto t0 = clock_type::now();
      const double ts = tr.now();
      ov->apply(stream[b]);
      const double apply_ms = seconds_since(t0) * 1e3;
      tr.add("graph.overlay_apply", "graph", req, span, ts, tr.now());
      const view v = ov->snapshot();
      double visits = 0.0, reseeded = 0.0;
      const auto t1 = clock_type::now();
      try {
        stand->bfs = repair(
            [&](asyncgt::incremental_extra* x) {
              return eng->submit_incremental_bfs(v, stream[b],
                                                 std::move(stand->bfs), x,
                                                 opts);
            },
            "repair.bfs", g, tr, req, span, visits, reseeded, ups.jobs);
        stand->sssp = repair(
            [&](asyncgt::incremental_extra* x) {
              return eng->submit_incremental_sssp(v, stream[b],
                                                  std::move(stand->sssp), x,
                                                  opts);
            },
            "repair.sssp", g, tr, req, span, visits, reseeded, ups.jobs);
        stand->cc = repair(
            [&](asyncgt::incremental_extra* x) {
              return eng->submit_incremental_cc(v, stream[b],
                                                std::move(stand->cc), x,
                                                opts);
            },
            "repair.cc", g, tr, req, span, visits, reseeded, ups.jobs);
      } catch (const std::exception& e) {
        g.attempt();
        g.fail("update " + std::to_string(b) + ": threw " + e.what());
        break;  // the standing labels are gone; stop writing
      }
      tr.close(span);
      ups.repair_ms.push_back(seconds_since(t1) * 1e3);
      ups.update_ms.push_back(seconds_since(t0) * 1e3);
      ups.apply_ms.push_back(apply_ms);
      ups.repair_visits.push_back(visits);
      ups.reseeded.push_back(reseeded);
      const bool last = b + 1 == stream.size() ||
                        seconds_since(start) >= a.seconds;
      if (v.epoch() % publish_stride == 0 || last) {
        const std::string at = " repaired at epoch " + std::to_string(v.epoch());
        ups.checks.push_back({v.epoch(), k_bfs, roots[0],
                              label_hash(stand->bfs.level), "bfs" + at});
        ups.checks.push_back({v.epoch(), k_sssp, roots[0],
                              label_hash(stand->sssp.dist), "sssp" + at});
        ups.checks.push_back({v.epoch(), k_cc, roots[0],
                              label_hash(stand->cc.component), "cc" + at});
        std::lock_guard lk(pub_mu);
        published = v;
        published_epochs.push_back(v.epoch());
      }
      if (last) break;
    }
  };
  std::thread writer([&] {
    try {
      write_loop();
    } catch (const std::exception& e) {
      g.attempt();
      g.fail(std::string("writer threw ") + e.what());
    }
  });

  std::vector<client_samples> clients(query_clients);
  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < query_clients; ++c) {
    client_threads.emplace_back([&, c] {
      client_samples& cs = clients[c];
      const std::size_t cycle = 3 * roots.size();
      for (std::size_t i = 0; seconds_since(start) < a.seconds; ++i) {
        const int kind = static_cast<int>((i + c) % 3);
        const vertex32 root = roots[(i / 3) % roots.size()];
        const bool traced = tr.enabled() && (i / cycle) % 2 == 0;
        view v;
        {
          std::lock_guard lk(pub_mu);
          v = published;
        }
        run_query(*eng, v, v, kind, root, opts, traced, cs.s, g, tr,
                  [&](int k, auto& labels) {
                    corrupt.maybe_corrupt(labels);
                    cs.checks.push_back(
                        {v.epoch(), k, root, label_hash(labels),
                         std::string(kind_name(k)) + " query root " +
                             std::to_string(root) + " at epoch " +
                             std::to_string(v.epoch())});
                  });
      }
    });
  }
  for (auto& th : client_threads) th.join();
  writer.join();
  const double elapsed = seconds_since(start);
  // Read before the references below are built: their memory is the
  // benchmark's, not the program's.
  const double peak_rss_mb = peak_rss_mib();
  check_conservation(g, *eng, 3 + ups.jobs + [&] {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.s.jobs;
    return n;
  }());

  // Verify every recorded label array against the serial references of its
  // epoch (outside every timed figure).
  std::vector<std::uint64_t> epochs = published_epochs;
  std::vector<epoch_refs> refs(epochs.size());
  parallel_for(epochs.size(), pool_threads, [&](std::size_t i) {
    refs[i] = reference_at(*base, stream, epochs[i], roots);
  });
  std::map<std::uint64_t, const epoch_refs*> by_epoch;
  for (std::size_t i = 0; i < epochs.size(); ++i) by_epoch[epochs[i]] = &refs[i];
  auto verify = [&](const labelled& l) {
    const auto it = by_epoch.find(l.epoch);
    g.check(it != by_epoch.end() &&
                it->second->hash.at({l.kind, l.root}) == l.hash,
            l.what + ": labels differ from the serial reference");
  };
  loop_samples qs;
  for (const auto& c : clients) {
    for (const auto& l : c.checks) verify(l);
    merge_into(qs, c.s);
  }
  for (const auto& l : ups.checks) verify(l);

  std::vector<double> lat_ms;
  for (const double x : qs.all_latency) lat_ms.push_back(x * 1e3);
  const tail_value p95 = tail_percentile(lat_ms, 0.95);
  std::vector<double> bfs_s, sssp_s, cc_s;
  for (const auto& x : refs) {
    bfs_s.push_back(x.bfs_s);
    sssp_s.push_back(x.sssp_s);
    cc_s.push_back(x.cc_s);
  }
  workload_result r;
  r.end_to_end = {
      {"setup_s", median(times.setup_s), "s"},
      {"bfs_s", kind_median(qs, k_bfs), "s"},
      {"cc_s", kind_median(qs, k_cc), "s"},
      {"queries_per_s", static_cast<double>(qs.jobs) / elapsed, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  r.report_only = {
      {"sssp_s", kind_median(qs, k_sssp), "s"},
      {"query_p50_ms", median_or_zero(lat_ms), "ms"},
      {"query_p95_ms", p95.value, "ms"},
      {"query_p95_samples_beyond", static_cast<double>(p95.beyond), "count"},
      {"update_p50_ms", median_or_zero(ups.update_ms), "ms"},
      {"graph.overlay_apply_ms", median_or_zero(ups.apply_ms), "ms"},
      {"core.repair_ms", median_or_zero(ups.repair_ms), "ms"},
      {"baselines.serial_sssp_s", median(sssp_s), "s"},
      {"queries", static_cast<double>(qs.jobs), "count"},
      {"updates", static_cast<double>(ups.update_ms.size()), "count"},
      {"checked_epochs", static_cast<double>(epochs.size()), "count"},
  };
  auto& m = r.per_layer;
  times.fill(m);
  loop_layer_metrics(m, qs);
  double apply_ms = 0.0, update_ms = 0.0;
  for (const double x : ups.apply_ms) apply_ms += x;
  for (const double x : ups.update_ms) update_ms += x;
  m["graph.overlay_apply_share"] = update_ms == 0.0 ? 0.0 : apply_ms / update_ms;
  m["graph.overlay_patched_pairs"] =
      static_cast<double>(ov->counters().patched_pairs);
  m["core.repair_visits"] = median_or_zero(ups.repair_visits);
  m["core.reseeded_per_update"] = median_or_zero(ups.reseeded);
  m["service.spawned_after_warmup"] =
      static_cast<double>(eng->pool().threads_spawned() - spawned_warm);
  m["baselines.serial_bfs_s"] = median(bfs_s);
  m["baselines.serial_cc_s"] = median(cc_s);

  r.info.set("lanes_per_job", std::to_string(job_lanes));
  r.info.set("pool_threads", std::to_string(pool_threads));
  r.info.set("query_clients", std::to_string(query_clients));
  r.info.set("batch_ops", std::to_string(batch_ops));
  r.info.set("publish_stride", std::to_string(publish_stride));
  describe_graph(r.info, "base", *base);
  return r;
}

}  // namespace perfbench
