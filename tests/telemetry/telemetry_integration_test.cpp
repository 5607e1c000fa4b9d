// End-to-end telemetry over real traversals: every sink attached at once on
// an RMAT graph, checking the counter invariants the paper's accounting
// relies on (each push is eventually visited exactly once, per-queue visit
// counts partition the total) plus sampler/trace/report plumbing.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>

#include "core/async_bfs.hpp"
#include "core/async_cc.hpp"
#include "core/async_sssp.hpp"
#include "gen/rmat.hpp"
#include "gen/weights.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_json.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace_writer.hpp"

namespace asyncgt {
namespace {

csr32 test_graph() {
  return add_weights(rmat_graph_undirected<vertex32>(rmat_a(10, 7)),
                     weight_scheme::uniform, 7);
}

std::uint64_t sum_per_queue(const queue_run_stats& s) {
  return std::accumulate(s.visits_per_queue.begin(),
                         s.visits_per_queue.end(), std::uint64_t{0});
}

TEST(TelemetryIntegration, QueueInvariantsHoldAcrossAlgorithms) {
  const csr32 g = test_graph();
  telemetry::metrics_registry reg(8);
  visitor_queue_config cfg;
  cfg.num_threads = 8;
  cfg.metrics = &reg;

  const auto bfs = async_bfs(g, 0, cfg);
  EXPECT_EQ(bfs.stats.visits, bfs.stats.pushes);
  EXPECT_EQ(sum_per_queue(bfs.stats), bfs.stats.visits);

  const auto sssp = async_sssp(g, 0, cfg);
  EXPECT_EQ(sssp.stats.visits, sssp.stats.pushes);
  EXPECT_EQ(sum_per_queue(sssp.stats), sssp.stats.visits);

  const auto cc = async_cc(g, cfg);
  EXPECT_EQ(cc.stats.visits, cc.stats.pushes);
  EXPECT_EQ(sum_per_queue(cc.stats), cc.stats.visits);

  // The registry accumulated all three runs.
  const auto snap = reg.scrape();
  EXPECT_EQ(snap.value_of("queue.visits"),
            bfs.stats.visits + sssp.stats.visits + cc.stats.visits);
  EXPECT_EQ(snap.value_of("queue.visits"), snap.value_of("queue.pushes"));
  EXPECT_EQ(snap.value_of("queue.runs"), 3u);
  // Batched delivery: at least one mailbox flush per run, never more than
  // one per push (flush_batch=1 would make them equal).
  EXPECT_EQ(snap.value_of("queue.flushes"),
            bfs.stats.flushes + sssp.stats.flushes + cc.stats.flushes);
  EXPECT_GE(snap.value_of("queue.flushes"), 3u);
  EXPECT_LE(snap.value_of("queue.flushes"), snap.value_of("queue.pushes"));
  // Histogram of per-queue visits: one record per worker per run.
  const auto* h = snap.find("queue.visits_per_queue");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total, 3u * 8u);
  EXPECT_EQ(h->sum, snap.value_of("queue.visits"));
}

TEST(TelemetryIntegration, AlgorithmWorkCountersAreConsistent) {
  const csr32 g = test_graph();
  telemetry::metrics_registry reg(8);
  visitor_queue_config cfg;
  cfg.num_threads = 8;
  cfg.metrics = &reg;

  const auto r = async_bfs(g, 0, cfg);
  const auto snap = reg.scrape();
  EXPECT_EQ(snap.value_of("bfs.visits"), r.stats.visits);
  EXPECT_EQ(snap.value_of("bfs.updates"), r.updates);
  EXPECT_EQ(snap.value_of("bfs.relaxed_vertices"), r.visited_count());
  EXPECT_EQ(snap.value_of("bfs.wasted_visits"), r.stats.visits - r.updates);
  EXPECT_EQ(snap.value_of("bfs.label_corrections"),
            r.updates - r.visited_count());
  // Every reached vertex relaxed at least once; every visit was counted.
  EXPECT_GE(r.updates, r.visited_count());
  EXPECT_GE(r.stats.visits, r.updates);
}

TEST(TelemetryIntegration, SamplerObservesARealTraversal) {
  const csr32 g = test_graph();
  telemetry::sampler sampler;
  sampler.start(std::chrono::microseconds(200));

  visitor_queue_config cfg;
  cfg.num_threads = 8;
  cfg.sampler = &sampler;
  // Enough rounds that the ~200us sampler lands mid-run at least once.
  for (int i = 0; i < 50; ++i) async_bfs(g, 0, cfg);
  sampler.stop();

  EXPECT_GT(sampler.samples_taken(), 0u);
  bool saw_pending = false;
  for (const auto& series : sampler.snapshot()) {
    if (series.name == "queue.pending") {
      saw_pending = true;
      EXPECT_FALSE(series.points.empty());
    }
  }
  EXPECT_TRUE(saw_pending);
}

TEST(TelemetryIntegration, ProbesUnregisterAfterRun) {
  const csr32 g = test_graph();
  telemetry::sampler sampler;
  visitor_queue_config cfg;
  cfg.num_threads = 4;
  cfg.sampler = &sampler;
  async_bfs(g, 0, cfg);
  // The queue's probes were removed when run() returned: a later tick adds
  // no new points (the queue object is gone by then in real callers).
  const auto before = sampler.snapshot();
  sampler.start(std::chrono::microseconds(100));
  sampler.stop();
  for (const auto& series : sampler.snapshot()) {
    for (const auto& prior : before) {
      if (series.name == prior.name) {
        EXPECT_EQ(series.points.size(), prior.points.size());
      }
    }
  }
}

TEST(TelemetryIntegration, TraceCapturesWorkerSpans) {
  const csr32 g = test_graph();
  telemetry::trace_writer trace;
  visitor_queue_config cfg;
  cfg.num_threads = 4;
  cfg.trace = &trace;
  async_bfs(g, 0, cfg);

  const auto doc = telemetry::json_value::parse(trace.to_json_string());
  std::size_t visit_spans = 0;
  for (const auto& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "X" &&
        e.find("name")->as_string() == "visit") {
      ++visit_spans;
    }
  }
  // Each worker traces its first visit and 1 in 64 after it.
  EXPECT_GT(visit_spans, 10u);
}

TEST(TelemetryIntegration, ReportRoundTripsThroughSchemaCheck) {
  const csr32 g = test_graph();
  telemetry::metrics_registry reg(4);
  visitor_queue_config cfg;
  cfg.num_threads = 4;
  cfg.metrics = &reg;
  const auto r = async_bfs(g, 0, cfg);

  telemetry::report rep("telemetry_integration");
  rep.config("threads", 4);
  rep.section("metrics") = telemetry::to_json(reg.scrape());
  telemetry::json_value row = telemetry::json_value::object();
  row.set("visits", r.stats.visits);
  rep.add_row(std::move(row));

  std::string error;
  EXPECT_TRUE(telemetry::report::verify_text(rep.dump(), &error)) << error;

  // And the parsed document still carries the queue counters.
  const auto doc = telemetry::json_value::parse(rep.dump());
  const auto* metrics = doc.find("sections")->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(
      static_cast<std::uint64_t>(metrics->find("queue.visits")->as_int()),
      r.stats.visits);
}

TEST(TelemetryIntegration, VerifyRejectsNonConformingDocuments) {
  std::string error;
  EXPECT_FALSE(telemetry::report::verify_text("not json", &error));
  EXPECT_FALSE(telemetry::report::verify_text("{}", &error));
  EXPECT_FALSE(telemetry::report::verify_text(
      R"({"schema_version":4,"name":"x","config":{},"sections":{}})",
      &error));
  EXPECT_FALSE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"","config":{},"sections":{}})",
      &error));
  EXPECT_FALSE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"x","config":{},"sections":{"s":3}})",
      &error));
  // jobs must be an array of objects with integer job_ids, and percentile
  // triples must be monotone.
  EXPECT_FALSE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"x","config":{},"sections":{},"jobs":[3]})",
      &error));
  EXPECT_FALSE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"x","config":{},"sections":{},"jobs":[{"label":"bfs"}]})",
      &error));
  EXPECT_FALSE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"x","config":{},"sections":{"l":{"p50":9,"p95":5,"p99":10}}})",
      &error));
  // Minimal conforming documents pass.
  EXPECT_TRUE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"x","config":{},"sections":{}})",
      &error))
      << error;
  EXPECT_TRUE(telemetry::report::verify_text(
      R"({"schema_version":3,"name":"x","config":{},"sections":{"l":{"p50":1,"p95":2,"p99":3}},"jobs":[{"job_id":4}]})",
      &error))
      << error;
}

// Only the version the library emits is read: v1 and v2 documents that are
// otherwise well formed are rejected.
TEST(TelemetryIntegration, VerifyRejectsSchemaVersionsOneAndTwo) {
  for (const int version : {1, 2}) {
    std::string error;
    EXPECT_FALSE(telemetry::report::verify_text(
        R"({"schema_version":)" + std::to_string(version) +
            R"(,"name":"x","config":{},"sections":{}})",
        &error))
        << "version " << version;
    EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace asyncgt
