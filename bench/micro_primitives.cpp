// google-benchmark microbenchmarks for the hot primitives under the visitor
// queue: the d-ary heap (vs std::priority_queue), the routing hash, the
// spinlock (vs std::mutex), the RNG pipeline feeding the generators, and the
// telemetry layer's overhead budget (BM_VisitorQueueTelemetry*: the
// sinks-off run must stay within ~2% of the seed, see docs/observability.md),
// and the delta overlay's read path (BM_OverlayOutEdges).
// These guard against regressions in the building blocks; the paper-level
// experiments live in the table*/fig*/ablation* binaries.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <random>

#include "gen/rmat.hpp"
#include "gen/update_stream.hpp"
#include "graph/delta_overlay.hpp"
#include "queue/dary_heap.hpp"
#include "queue/visitor_queue.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace {

using asyncgt::dary_heap;

void BM_DaryHeapPushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  asyncgt::xoshiro256ss rng(1);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng();
  for (auto _ : state) {
    dary_heap<std::uint64_t, std::less<std::uint64_t>> h;
    for (const auto v : values) h.push(v);
    std::uint64_t sink = 0;
    while (!h.empty()) sink ^= h.pop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_DaryHeapPushPop)->Arg(1024)->Arg(65536);

void BM_StdPriorityQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  asyncgt::xoshiro256ss rng(1);
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng();
  for (auto _ : state) {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        h;
    for (const auto v : values) h.push(v);
    std::uint64_t sink = 0;
    while (!h.empty()) {
      sink ^= h.top();
      h.pop();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_StdPriorityQueuePushPop)->Arg(1024)->Arg(65536);

void BM_Mix64Routing(benchmark::State& state) {
  std::uint64_t v = 0;
  std::size_t sink = 0;
  for (auto _ : state) {
    sink ^= asyncgt::queue_of(v++, 512);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Mix64Routing);

void BM_SpinlockUncontended(benchmark::State& state) {
  asyncgt::spinlock lock;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    std::lock_guard guard(lock);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_SpinlockUncontended);

void BM_MutexUncontended(benchmark::State& state) {
  std::mutex lock;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    std::lock_guard guard(lock);
    benchmark::DoNotOptimize(++counter);
  }
}
BENCHMARK(BM_MutexUncontended);

void BM_Xoshiro(benchmark::State& state) {
  asyncgt::xoshiro256ss rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Xoshiro);

void BM_Mt19937(benchmark::State& state) {
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Mt19937);

// --- Telemetry overhead budget ---------------------------------------------
// The queue is instrumented unconditionally (no compile-time switch), so the
// null-sink cost — one pointer test per run plus the pre-existing counters —
// must stay in the noise. BM_VisitorQueueTelemetryOff is the guarded number;
// BM_VisitorQueueTelemetryOn shows what attached sinks add.

struct tree_state {
  std::uint64_t n = 0;
  std::vector<std::uint8_t> seen;
};

// Spreads over an implicit binary tree: ~n visits, no shared-state races
// (each vertex is visited only by its hash-owner thread).
struct tree_visitor {
  std::uint64_t vtx = 0;

  std::uint64_t vertex() const noexcept { return vtx; }
  std::uint64_t priority() const noexcept { return vtx; }

  template <typename State, typename Queue>
  void visit(State& s, Queue& q, std::size_t) const {
    if (s.seen[vtx]) return;
    s.seen[vtx] = 1;
    const std::uint64_t left = 2 * vtx + 1;
    if (left < s.n) q.push(tree_visitor{left});
    if (left + 1 < s.n) q.push(tree_visitor{left + 1});
  }
};

void run_tree(std::uint64_t n, asyncgt::visitor_queue_config cfg,
              benchmark::State& state) {
  for (auto _ : state) {
    tree_state s;
    s.n = n;
    s.seen.assign(n, 0);
    asyncgt::visitor_queue<tree_visitor, tree_state> q(cfg);
    q.push(tree_visitor{0});
    const auto stats = q.run(s);
    benchmark::DoNotOptimize(stats.visits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_VisitorQueueTelemetryOff(benchmark::State& state) {
  asyncgt::visitor_queue_config cfg;
  cfg.num_threads = 4;
  run_tree(static_cast<std::uint64_t>(state.range(0)), cfg, state);
}
BENCHMARK(BM_VisitorQueueTelemetryOff)->Arg(1 << 16);

void BM_VisitorQueueTelemetryOn(benchmark::State& state) {
  asyncgt::telemetry::metrics_registry registry(8);
  asyncgt::telemetry::trace_writer trace;
  asyncgt::visitor_queue_config cfg;
  cfg.num_threads = 4;
  cfg.metrics = &registry;
  cfg.trace = &trace;
  run_tree(static_cast<std::uint64_t>(state.range(0)), cfg, state);
}
BENCHMARK(BM_VisitorQueueTelemetryOn)->Arg(1 << 16);

// --- Batched cross-thread delivery ------------------------------------------
// Arg is the mailbox flush batch B: 1 reproduces the per-push delivery of the
// pre-layered queue (one mailbox mutex acquisition and one termination-counter
// reservation per visitor), larger B amortizes both over up to B visitors.
// Per-visitor push cost should drop as B grows; the flushes/pushes ratio from
// queue_run_stats tells the same story (~B× fewer mutex acquisitions).

void BM_VisitorQueueFlushBatch(benchmark::State& state) {
  asyncgt::visitor_queue_config cfg;
  cfg.num_threads = 4;
  cfg.flush_batch = static_cast<std::size_t>(state.range(1));
  run_tree(static_cast<std::uint64_t>(state.range(0)), cfg, state);
}
BENCHMARK(BM_VisitorQueueFlushBatch)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 64});

void BM_RegistryCounterAdd(benchmark::State& state) {
  asyncgt::telemetry::metrics_registry registry(8);
  auto& counter = registry.get_counter("bench.counter");
  for (auto _ : state) {
    counter.add(0);
  }
  benchmark::DoNotOptimize(counter.total());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryCounterAdd);

void BM_ScopedSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    asyncgt::telemetry::scoped_span span(nullptr, "noop");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedSpanDisabled);

// --- Delta overlay reads ----------------------------------------------------
// A full out-edge sweep, as a traversal's visits make it, over the
// dynamic-mixed graph: a symmetric RMAT-A scale-15 base behind a
// delta_overlay after `batches` symmetric update batches of 16 pairs
// (800 batches leave ~25k patched pairs). Arg 1 = 1 sweeps the compacted
// CSR of the same epoch instead: the cost of the overlay itself is the gap.

struct overlay_bench_graph {
  asyncgt::csr32 base;
  std::unique_ptr<asyncgt::delta_overlay<asyncgt::csr32>> ov;
  asyncgt::csr32 compacted;
};

const overlay_bench_graph& overlay_graph(std::size_t batches) {
  static std::map<std::size_t, std::unique_ptr<overlay_bench_graph>> cache;
  auto& slot = cache[batches];
  if (!slot) {
    slot = std::make_unique<overlay_bench_graph>();
    slot->base = asyncgt::rmat_graph_undirected<asyncgt::vertex32>(
        asyncgt::rmat_a(15, 601));
    slot->base.ensure_reverse();
    slot->ov = std::make_unique<asyncgt::delta_overlay<asyncgt::csr32>>(
        slot->base);
    const auto stream = asyncgt::generate_update_stream(
        slot->base, {.seed = 601, .num_batches = batches, .batch_size = 16,
                     .delete_fraction = 0.3, .symmetric = true,
                     .min_weight = 7, .max_weight = 8});
    for (const auto& b : stream) slot->ov->apply(b);
    slot->compacted = slot->ov->compact();
  }
  return *slot;
}

template <typename G>
std::uint64_t sweep_out_edges(const G& g) {
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    const auto u = static_cast<asyncgt::vertex32>(v);
    sum += g.out_degree(u);
    g.for_each_out_edge(
        u, [&](asyncgt::vertex32 t, asyncgt::weight_t w) { sum += t + w; });
  }
  return sum;
}

void BM_OverlayOutEdges(benchmark::State& state) {
  const auto& g = overlay_graph(static_cast<std::size_t>(state.range(0)));
  const auto view = g.ov->snapshot();
  const bool compacted = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compacted ? sweep_out_edges(g.compacted)
                                       : sweep_out_edges(view));
  }
  state.counters["patched_pairs"] =
      static_cast<double>(g.ov->counters().patched_pairs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(view.num_edges()));
}
BENCHMARK(BM_OverlayOutEdges)
    ->Args({0, 0})
    ->Args({800, 0})
    ->Args({800, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
