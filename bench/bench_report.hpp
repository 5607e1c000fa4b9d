// Shared machine-readable reporting for the bench harnesses and agt_tool.
//
// Every bench binary keeps its human-facing text table and additionally
// accepts:
//   --json FILE               write a schema-2 report (telemetry::report)
//   --trace FILE              write a Chrome trace (chrome://tracing /
//                             ui.perfetto.dev)
//   --sample-interval-us N    sampler period for frontier time-series
//                             (default 2000; active only with --json/--trace
//                             or --stats-dump)
//   --stats-dump N            print a per-interval metrics delta table to
//                             stdout every N sampler ticks while the bench
//                             runs (live introspection; 0 = off). Works
//                             without --json/--trace.
//
// Usage pattern (3-5 lines per bench):
//   bench_report rep(opt, "table4_bfs_sem");
//   rep.attach(cfg);                   // wire telemetry sinks into the run
//   rep.add_row(...); rep.section("sem").set(...);   // whatever fits
//   rep.add_job(bench::to_json(handle.stats()));     // per-job attribution
//   rep.finish();                      // scrape, serialize, write files
//
// finish() automatically appends the scraped metrics registry as the
// "metrics" section and the sampler series as "samples", so benches only
// record what is specific to them. With neither --json, --trace nor
// --stats-dump the whole object is inert: no sampler thread, no trace
// buffers, and the queue's telemetry pointers stay null.
//
// Abort survivability: with --trace, the trace_writer's flush path is set
// up front, so the engine's traversal_aborted containment path can flush
// the partial trace (with its terminal abort marker) before the exception
// propagates; the destructor also best-effort flushes when finish() never
// ran. A bench that dies mid-run still leaves an openable trace.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "core/hybrid_traversal.hpp"
#include "core/incremental.hpp"
#include "queue/queue_stats.hpp"
#include "queue/visitor_queue.hpp"
#include "sem/block_cache.hpp"
#include "sem/block_heat.hpp"
#include "sem/ssd_model.hpp"
#include "service/engine.hpp"
#include "service/job_stats.hpp"
#include "telemetry/io_recorder.hpp"
#include "telemetry/metrics_json.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/stats_dump.hpp"
#include "telemetry/trace_writer.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace asyncgt::bench {

using telemetry::json_value;

/// Queue counters -> the "queue" metric block of the schema.
inline json_value to_json(const queue_run_stats& s) {
  json_value out = json_value::object();
  out.set("visits", s.visits);
  out.set("pushes", s.pushes);
  out.set("flushes", s.flushes);
  out.set("wakeups", s.wakeups);
  out.set("max_queue_length", s.max_queue_length);
  out.set("elapsed_seconds", s.elapsed_seconds);
  out.set("imbalance_cv", s.load_imbalance_cv());
  out.set("queue_visits_min", s.min_queue_visits());
  out.set("queue_visits_max", s.max_queue_visits());
  out.set("num_queues", static_cast<std::uint64_t>(s.visits_per_queue.size()));
  return out;
}

inline json_value to_json(const sem::cache_counters& c) {
  json_value out = json_value::object();
  out.set("hits", c.hits);
  out.set("misses", c.misses);
  out.set("evictions", c.evictions);
  out.set("hit_rate", c.hit_rate());
  return out;
}

inline json_value to_json(const sem::ssd_counters& c) {
  json_value out = json_value::object();
  out.set("reads", c.reads);
  out.set("writes", c.writes);
  out.set("read_bytes", c.read_bytes);
  out.set("write_bytes", c.write_bytes);
  out.set("read_blocks", c.read_blocks);
  out.set("max_inflight", c.max_inflight);
  return out;
}

/// A hybrid run's direction breakdown -> a "hybrid" block: switch count,
/// total inspections, and one {direction, depth, edge_inspections, frontier}
/// object per phase (check_bench_json validates the per-phase shape;
/// compare_bench_json watches the edge_inspections keys).
inline json_value to_json(const hybrid_extra& e) {
  json_value out = json_value::object();
  out.set("direction_switches", e.direction_switches);
  out.set("edge_inspections", e.edge_inspections);
  json_value phases = json_value::array();
  for (const hybrid_phase& p : e.phases) {
    json_value pj = json_value::object();
    pj.set("direction", p.direction);
    pj.set("depth", p.depth);
    pj.set("edge_inspections", p.edge_inspections);
    pj.set("frontier", p.frontier);
    phases.push(std::move(pj));
  }
  out.set("phases", std::move(phases));
  return out;
}

/// One incremental repair's accounting -> the core of an "incremental"
/// section (check_bench_json enforces reseeded <= affected <= n;
/// compare_bench_json threshold-watches every repair_visits key).
inline json_value to_json(const incremental_extra& e) {
  json_value out = json_value::object();
  out.set("affected", e.affected);
  out.set("reseeded", e.reseeded_vertices);
  out.set("repair_visits", e.repair_visits);
  return out;
}

/// One job's attribution snapshot -> a "jobs" array entry (schema v3: the
/// legacy boolean terminal flags plus the precise `outcome` name and the
/// deadline the job ran under).
inline json_value to_json(const service::job_stats& s) {
  json_value out = json_value::object();
  out.set("job_id", s.job_id);
  out.set("label", s.label);
  out.set("completed", s.completed);
  out.set("failed", s.failed);
  out.set("cancelled", s.cancelled);
  out.set("outcome", s.outcome);
  out.set("deadline_ms", static_cast<std::uint64_t>(s.deadline_ms));
  out.set("priority", static_cast<std::int64_t>(s.priority));
  out.set("delta_epoch", s.delta_epoch);
  out.set("visits", s.visits);
  out.set("pushes", s.pushes);
  out.set("flushes", s.flushes);
  out.set("wakeups", s.wakeups);
  out.set("edge_inspections", s.edge_inspections);
  out.set("io_ops", s.io_ops);
  out.set("io_bytes", s.io_bytes);
  out.set("io_retries", s.io_retries);
  out.set("queue_wait_seconds", s.queue_wait_seconds);
  out.set("run_seconds", s.run_seconds);
  out.set("total_seconds", s.total_seconds);
  return out;
}

/// Engine admission/outcome counters -> the "service" section (schema v3).
/// check_bench_json.py verifies the conservation invariant over these:
/// submitted == rejected + active + every terminal outcome.
inline json_value to_json(const asyncgt::engine::service_counters& c) {
  json_value out = json_value::object();
  out.set("submitted", c.submitted);
  out.set("admitted", c.admitted);
  out.set("rejected", c.rejected);
  out.set("shed_requests", c.shed_requests);
  out.set("active", c.active);
  out.set("completed", c.completed);
  out.set("failed", c.failed);
  out.set("cancelled", c.cancelled);
  out.set("deadline_exceeded", c.deadline_exceeded);
  out.set("stalled", c.stalled);
  out.set("shed", c.shed);
  out.set("memory_committed_bytes", c.memory_committed_bytes);
  return out;
}

/// Block-heat summary with a hottest-first top-K table (schema v2
/// "block_heat" section).
inline json_value to_json(const sem::block_heat& heat, std::size_t top_k) {
  json_value out = json_value::object();
  out.set("block_bytes", heat.block_bytes());
  out.set("num_blocks", heat.num_blocks());
  out.set("blocks_touched", heat.blocks_touched());
  out.set("total_accesses", heat.total_accesses());
  out.set("total_misses", heat.total_misses());
  out.set("out_of_range", heat.out_of_range());
  json_value top = json_value::array();
  for (const auto& e : heat.top_k(top_k)) {
    json_value row = json_value::object();
    row.set("block", e.block);
    row.set("accesses", e.accesses);
    row.set("misses", e.misses);
    top.push(std::move(row));
  }
  out.set("top", std::move(top));
  return out;
}

class bench_report {
 public:
  bench_report(const options& opt, std::string name)
      : report_(std::move(name)),
        json_path_(opt.get_string("json", "")),
        trace_path_(opt.get_string("trace", "")),
        sample_interval_us_(
            static_cast<std::uint64_t>(opt.get_int("sample-interval-us", 2000))),
        stats_dump_every_(
            static_cast<std::uint64_t>(opt.get_int("stats-dump", 0))) {
    // Reproduce the full command line in the config block so a BENCH_*.json
    // is self-describing.
    for (const auto& key : opt.keys()) {
      report_.config(key, opt.get_string(key, ""));
    }
    if (trace_enabled()) {
      trace_ = std::make_unique<telemetry::trace_writer>();
      // Registered up front so abort-containment (and our destructor) can
      // flush a partial trace even when finish() never runs.
      trace_->set_flush_path(trace_path_);
    }
  }

  ~bench_report() {
    sampler_.stop();
    if (trace_ && !finished_) (void)trace_->flush();
  }

  bool json_enabled() const noexcept { return !json_path_.empty(); }
  bool trace_enabled() const noexcept { return !trace_path_.empty(); }
  bool enabled() const noexcept {
    return json_enabled() || trace_enabled() || stats_dump_every_ > 0;
  }

  telemetry::metrics_registry& metrics() noexcept { return registry_; }
  telemetry::sampler& sampler() noexcept { return sampler_; }
  /// Null unless --trace was given.
  telemetry::trace_writer* trace() noexcept { return trace_.get(); }

  /// Wires the telemetry sinks into a queue config (and starts the sampler
  /// on first use). No-op without --json/--trace, so benches can call this
  /// unconditionally and keep the zero-overhead default.
  void attach(visitor_queue_config& cfg) {
    if (!enabled()) return;
    cfg.metrics = &registry_;
    cfg.trace = trace_.get();
    cfg.sampler = &sampler_;
    if (stats_dump_every_ > 0 && !dumper_) {
      dumper_ = std::make_unique<telemetry::stats_dumper>(&registry_);
      // Runs on the sampler thread; the dumper serializes internally.
      sampler_.set_tick_hook([this](double t_seconds) {
        if (++ticks_ % stats_dump_every_ == 0) {
          dumper_->dump(std::cout, t_seconds);
        }
      });
    }
    if (!sampler_.running()) {
      sampler_.start(std::chrono::microseconds(sample_interval_us_));
    }
  }

  /// Direct access to the underlying schema-1 document builder.
  telemetry::report& json() noexcept { return report_; }
  json_value& section(const std::string& name) {
    return report_.section(name);
  }
  bench_report& config(const std::string& key, json_value v) {
    report_.config(key, std::move(v));
    return *this;
  }
  bench_report& add_row(json_value row) {
    report_.add_row(std::move(row));
    return *this;
  }
  /// Appends one entry to the top-level "jobs" array (schema v2).
  bench_report& add_job(json_value job) {
    report_.add_job(std::move(job));
    return *this;
  }

  /// Re-emits a rendered text_table as report rows, one object per data row
  /// keyed by the header cells — the bench's human table and its JSON stay
  /// in lockstep by construction.
  bench_report& add_table(const text_table& table) {
    if (!json_enabled()) return *this;
    const auto header = table.header_cells();
    for (const auto& cells : table.data_rows()) {
      json_value row = json_value::object();
      for (std::size_t c = 0; c < cells.size() && c < header.size(); ++c) {
        row.set(header[c], cells[c]);
      }
      report_.add_row(std::move(row));
    }
    return *this;
  }

  /// Stops the sampler, folds registry + samples into the document, and
  /// writes the requested files. Prints one line per artifact. Safe to call
  /// when disabled (does nothing).
  void finish() {
    sampler_.stop();
    finished_ = true;
    if (!enabled()) return;
    if (json_enabled()) {
      const auto snap = registry_.scrape();
      if (!snap.entries.empty()) {
        section("metrics") = telemetry::to_json(snap);
      }
      const auto series = sampler_.snapshot();
      if (!series.empty()) {
        json_value& s = section("samples");
        s = telemetry::to_json(series);
        s.set("interval_us", sample_interval_us_);
      }
      report_.write_file(json_path_);
      std::printf("wrote JSON report: %s\n", json_path_.c_str());
    }
    if (trace_enabled()) {
      sampler_.write_counters(*trace_);
      trace_->write_file(trace_path_);
      std::printf("wrote Chrome trace: %s (open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_path_.c_str());
    }
  }

 private:
  telemetry::report report_;
  telemetry::metrics_registry registry_{64};
  telemetry::sampler sampler_;
  std::unique_ptr<telemetry::trace_writer> trace_;
  std::unique_ptr<telemetry::stats_dumper> dumper_;
  std::uint64_t ticks_ = 0;  // sampler-thread only (tick hook)
  std::string json_path_;
  std::string trace_path_;
  std::uint64_t sample_interval_us_;
  std::uint64_t stats_dump_every_;
  bool finished_ = false;
};

}  // namespace asyncgt::bench
