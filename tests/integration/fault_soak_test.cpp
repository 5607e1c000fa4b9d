// Fault-injection soak: the ISSUE's acceptance battery, as a test.
//
//   * Transient storage faults (EIO/EAGAIN bursts, short reads, latency
//     spikes) injected into every semi-external adjacency read must be
//     invisible to the algorithms — BFS / SSSP / CC labels byte-identical
//     to the fault-free run — with the recovery visible only as io.retries
//     in telemetry.
//   * Faults that outlast the retry budget (or are marked fatal) must
//     surface as a clean traversal_aborted carrying the io_error cause —
//     never a hang, never std::terminate.
//   * An aborted run with checkpoint-on-error must resume from its
//     emergency checkpoint to the identical fixed point once the storage
//     heals.
//
// Runs under the TSan preset too: the abort broadcast and the retry loop
// race against delivery and parking by construction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "asyncgt.hpp"
#include "telemetry/io_recorder.hpp"

namespace asyncgt {
namespace {

class FaultSoak : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("agt_fault_soak_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_sem(const csr32& g, const std::string& tag) {
    const std::string p = (dir_ / (tag + ".agt")).string();
    write_graph(p, g);
    return p;
  }

  static visitor_queue_config threads(std::size_t n) {
    visitor_queue_config cfg;
    cfg.num_threads = n;
    return cfg;
  }

  /// Vertices a checkpoint holds a label for.
  static std::size_t labelled(const std::vector<dist_t>& label) {
    return static_cast<std::size_t>(
        std::count_if(label.begin(), label.end(), [](dist_t l) {
          return l != infinite_distance<dist_t>;
        }));
  }

  /// Options of a job that checkpoints on error to `path`.
  static traversal_options checkpointing(std::size_t n,
                                         const std::string& path) {
    traversal_options o(threads(n));
    o.checkpoint_path = path;
    return o;
  }

  /// Microsecond backoff so thousands of injected faults soak in well
  /// under a second of wall clock.
  static sem::io_retry_policy fast_retry(std::uint32_t max_retries) {
    sem::io_retry_policy p;
    p.max_retries = max_retries;
    p.backoff_initial_us = 1;
    p.backoff_max_us = 20;
    return p;
  }

  /// The transient storm every read must survive: every op faults once
  /// (deterministically), plus frequent short reads and occasional spikes.
  static sem::fault_config transient_storm() {
    sem::fault_config cfg;
    cfg.seed = 7;
    cfg.p_eio = 0.8;
    cfg.p_eagain = 0.2;  // together: every op draws an errno burst
    cfg.p_short = 0.3;
    cfg.p_delay = 0.01;
    cfg.delay_us = 100;
    cfg.fail_attempts = 2;
    return cfg;
  }

  std::filesystem::path dir_;
};

TEST_F(FaultSoak, BfsLabelsIdenticalUnderTransientFaults) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const std::string path = write_sem(g, "bfs");
  sem::sem_csr32 clean_g(path);
  const auto clean = async_bfs(clean_g, vertex32{0}, threads(8));

  sem::fault_injector inj(transient_storm());
  telemetry::io_recorder rec;
  sem::sem_csr32 faulty_g(path);
  faulty_g.set_retry_policy(fast_retry(4));
  faulty_g.set_fault_injector(&inj);
  faulty_g.set_io_recorder(&rec);
  const auto faulted = async_bfs(faulty_g, vertex32{0}, threads(8));

  // Levels are the deterministic fixed point; parents are schedule-
  // dependent (any minimal-level neighbour qualifies), so they are checked
  // for validity, not equality.
  EXPECT_EQ(faulted.level, clean.level);
  for (std::size_t v = 0; v < faulted.parent.size(); ++v) {
    if (v == 0 || faulted.level[v] == infinite_distance<dist_t>) continue;
    ASSERT_EQ(faulted.level[faulted.parent[v]] + 1, faulted.level[v])
        << "vertex " << v;
  }
  const auto io = rec.snapshot();
  EXPECT_GT(inj.counters().errors, 0u);
  EXPECT_GT(io.retries, 0u);  // recovery happened and telemetry saw it
  EXPECT_EQ(io.gave_up, 0u);  // ...but no read was ever lost
}

TEST_F(FaultSoak, SsspDistancesIdenticalUnderTransientFaults) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_b(9)), weight_scheme::uniform, 3);
  const std::string path = write_sem(g, "sssp");
  sem::sem_csr32 clean_g(path);
  const auto clean = async_sssp(clean_g, vertex32{0}, threads(8));

  sem::fault_injector inj(transient_storm());
  telemetry::io_recorder rec;
  sem::sem_csr32 faulty_g(path);
  faulty_g.set_retry_policy(fast_retry(4));
  faulty_g.set_fault_injector(&inj);
  faulty_g.set_io_recorder(&rec);
  const auto faulted = async_sssp(faulty_g, vertex32{0}, threads(8));

  EXPECT_EQ(faulted.dist, clean.dist);
  EXPECT_GT(rec.snapshot().retries, 0u);
  EXPECT_EQ(rec.snapshot().gave_up, 0u);
}

TEST_F(FaultSoak, CcComponentsIdenticalUnderTransientFaults) {
  const csr32 g = rmat_graph_undirected<vertex32>(rmat_a(9));
  const std::string path = write_sem(g, "cc");
  sem::sem_csr32 clean_g(path);
  const auto clean = async_cc(clean_g, threads(8));

  sem::fault_injector inj(transient_storm());
  telemetry::io_recorder rec;
  sem::sem_csr32 faulty_g(path);
  faulty_g.set_retry_policy(fast_retry(4));
  faulty_g.set_fault_injector(&inj);
  faulty_g.set_io_recorder(&rec);
  const auto faulted = async_cc(faulty_g, threads(8));

  EXPECT_EQ(faulted.component, clean.component);
  EXPECT_GT(rec.snapshot().retries, 0u);
  EXPECT_EQ(rec.snapshot().gave_up, 0u);
}

TEST_F(FaultSoak, FatalFaultsAbortCleanlyWithIoErrorCause) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const std::string path = write_sem(g, "fatal");
  sem::fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fatal = true;  // non-retryable: the engine must abort, not absorb
  sem::fault_injector inj(cfg);
  telemetry::io_recorder rec;
  sem::sem_csr32 sg(path);
  sg.set_retry_policy(fast_retry(4));
  sg.set_fault_injector(&inj);
  sg.set_io_recorder(&rec);
  try {
    async_bfs(sg, vertex32{0}, threads(8));
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_TRUE(e.has_vertex());
    ASSERT_TRUE(e.cause());
    EXPECT_THROW(std::rethrow_exception(e.cause()), sem::io_error);
  }
  EXPECT_GT(rec.snapshot().gave_up, 0u);
}

TEST_F(FaultSoak, ExhaustedRetryBudgetAbortsCleanly) {
  // Persistent bad sectors over the whole edge section: transient-classed
  // EIO on every attempt, so the budget, not the injector, ends the run.
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const std::string path = write_sem(g, "badrange");
  sem::fault_config cfg;
  cfg.bad_begin = 0;
  cfg.bad_end = ~std::uint64_t{0};
  sem::fault_injector inj(cfg);
  sem::sem_csr32 sg(path);
  sg.set_retry_policy(fast_retry(2));
  sg.set_fault_injector(&inj);
  try {
    async_bfs(sg, vertex32{0}, threads(8));
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    ASSERT_TRUE(e.cause());
    try {
      std::rethrow_exception(e.cause());
    } catch (const sem::io_error& ioe) {
      EXPECT_EQ(ioe.error_code(), EIO);
      EXPECT_EQ(ioe.retries(), 2u);
    }
  }
}

TEST_F(FaultSoak, CheckpointOnErrorResumesToIdenticalFixedPoint) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(9));
  const std::string path = write_sem(g, "ckpt");
  const std::string ckpt = (dir_ / "emergency.ckpt").string();

  sem::sem_csr32 clean_g(path);
  const auto clean = async_bfs(clean_g, vertex32{0}, threads(8));

  // Storage fails mid-run (fatal injection), the run aborts, and the
  // partial labels land in the emergency checkpoint. The fault is a bad
  // range over the back half of the file, not a per-read probability: how
  // many preads a run makes depends on how many reads its block windows
  // serve, but the run always reads the front half (vertex 0's list) first
  // and always reaches a list stored in the back half.
  sem::fault_config cfg;
  cfg.bad_begin = std::filesystem::file_size(path) / 2;
  cfg.bad_end = std::filesystem::file_size(path);
  cfg.fatal = true;
  sem::fault_injector inj(cfg);
  sem::sem_csr32 faulty_g(path);
  faulty_g.set_retry_policy(fast_retry(2));
  faulty_g.set_fault_injector(&inj);
  EXPECT_THROW(async_bfs(faulty_g, vertex32{0}, checkpointing(8, ckpt)),
               traversal_aborted);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // ...then the device heals (no injector) and the resumed run must land
  // on the exact fixed point of the never-faulted run.
  const auto cp = load_checkpoint<vertex32>(ckpt, checkpoint_kind::bfs);
  EXPECT_GT(labelled(cp.label), 1u);  // progress beyond the seed
  sem::sem_csr32 healed_g(path);
  const auto resumed = resume_bfs(healed_g, cp, threads(8));
  EXPECT_EQ(resumed.level, clean.level);
}

TEST_F(FaultSoak, SsspCheckpointOnErrorResumes) {
  const csr32 g =
      add_weights(rmat_graph<vertex32>(rmat_a(9)), weight_scheme::uniform, 5);
  const std::string path = write_sem(g, "sckpt");
  const std::string ckpt = (dir_ / "emergency_sssp.ckpt").string();

  sem::sem_csr32 clean_g(path);
  const auto clean = async_sssp(clean_g, vertex32{0}, threads(8));

  // A bad range over the back half of the weights section (see the BFS
  // case): vertex 0's weights sit in front of it.
  sem::fault_config cfg;
  cfg.bad_begin = std::filesystem::file_size(path) / 4 * 3;
  cfg.bad_end = std::filesystem::file_size(path);
  cfg.fatal = true;
  sem::fault_injector inj(cfg);
  sem::sem_csr32 faulty_g(path);
  faulty_g.set_retry_policy(fast_retry(2));
  faulty_g.set_fault_injector(&inj);
  EXPECT_THROW(async_sssp(faulty_g, vertex32{0}, checkpointing(8, ckpt)),
               traversal_aborted);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  const auto cp = load_checkpoint<vertex32>(ckpt, checkpoint_kind::sssp);
  EXPECT_GT(labelled(cp.label), 1u);
  sem::sem_csr32 healed_g(path);
  const auto resumed = resume_sssp(healed_g, cp, threads(8));
  EXPECT_EQ(resumed.dist, clean.dist);
}

TEST_F(FaultSoak, TornEmergencyCheckpointFailsCrcOnLoad) {
  // A crash during the emergency save itself must not fabricate a valid
  // checkpoint: truncate mid-payload and require the CRC load error.
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const std::string path = write_sem(g, "torn");
  const std::string ckpt = (dir_ / "torn.ckpt").string();
  sem::fault_config cfg;
  cfg.p_eio = 1.0;
  cfg.fatal = true;
  sem::fault_injector inj(cfg);
  sem::sem_csr32 sg(path);
  sg.set_fault_injector(&inj);
  EXPECT_THROW(async_bfs(sg, vertex32{0}, checkpointing(4, ckpt)),
               traversal_aborted);
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  std::filesystem::resize_file(ckpt, std::filesystem::file_size(ckpt) - 32);
  EXPECT_THROW(load_checkpoint<vertex32>(ckpt, checkpoint_kind::bfs),
               std::runtime_error);
}

// A resumed run is an engine job like any other: it honours its deadline.
// Here the device wedges on every read, so only the watchdog can end the
// resume, and the service counters still conserve.
TEST_F(FaultSoak, ResumedBfsOnAStallingDeviceEndsAtItsDeadline) {
  const csr32 g = rmat_graph<vertex32>(rmat_a(8));
  const std::string path = write_sem(g, "stall");
  traversal_checkpoint<vertex32> cp;
  cp.kind = checkpoint_kind::bfs;
  cp.label.assign(g.num_vertices(), infinite_distance<dist_t>);
  cp.parent.assign(g.num_vertices(), invalid_vertex<vertex32>);
  cp.label[0] = 0;
  cp.parent[0] = 0;

  sem::fault_config cfg;
  cfg.p_stall = 1.0;
  sem::fault_injector inj(cfg);
  sem::sem_csr32 sg(path);
  sg.set_fault_injector(&inj);
  engine eng({.pool_threads = 4});
  traversal_options opts(threads(4));
  opts.deadline_ms = 100;
  auto j = eng.submit_bfs(sg, resume_run<bfs_result<vertex32>>(sg, cp), opts);
  try {
    j.get();
    FAIL() << "expected traversal_aborted";
  } catch (const traversal_aborted& e) {
    EXPECT_EQ(e.reason(), abort_reason::deadline_exceeded);
  }
  EXPECT_EQ(j.stats().outcome, "deadline_exceeded");
  EXPECT_EQ(j.stats().label, "resume_bfs");
  EXPECT_GT(inj.counters().stalls, 0u);
  const auto c = eng.counters();
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_EQ(c.deadline_exceeded, 1u);
  EXPECT_EQ(c.submitted, c.rejected + c.active + c.completed + c.failed +
                             c.cancelled + c.deadline_exceeded + c.stalled +
                             c.shed);
}

}  // namespace
}  // namespace asyncgt
