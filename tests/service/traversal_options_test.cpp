// traversal_options is the one per-job configuration surface (satellite of
// the service PR): it must convert implicitly from visitor_queue_config so
// every pre-service call site keeps compiling, and from_flags must be the
// single source of truth for the CLI knobs agt_tool and the bench harnesses
// share (threads / flush-batch / io-retries / io-backoff-us, with SEM-mode
// defaults).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "service/traversal_options.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/options.hpp"

namespace asyncgt {
namespace {

// Stand-in for async_bfs(g, start, opts): pre-service call sites pass a raw
// visitor_queue_config here and must keep compiling via the implicit
// conversion.
std::size_t takes_options(traversal_options o) { return o.queue.num_threads; }

TEST(TraversalOptions, ImplicitConversionFromQueueConfig) {
  visitor_queue_config cfg;
  cfg.num_threads = 12;
  cfg.flush_batch = 7;
  EXPECT_EQ(takes_options(cfg), 12u);

  const traversal_options o = cfg;  // copy-initialization, not explicit
  EXPECT_EQ(o.queue.flush_batch, 7u);
  // The SEM knobs keep their defaults — the queue config never carried them.
  EXPECT_EQ(o.io_retries, 4u);
  EXPECT_EQ(o.io_backoff_us, 50u);
}

TEST(TraversalOptions, BuildersChain) {
  telemetry::metrics_registry reg(4);
  const traversal_options o =
      traversal_options{}.with_threads(9).with_flush_batch(2).with_metrics(
          &reg);
  EXPECT_EQ(o.queue.num_threads, 9u);
  EXPECT_EQ(o.queue.flush_batch, 2u);
  EXPECT_EQ(o.queue.metrics, &reg);
  o.validate();
}

TEST(TraversalOptions, FromFlagsImDefaults) {
  const char* argv[] = {"prog"};
  const options opt(1, argv);
  const traversal_options o = traversal_options::from_flags(opt);
  EXPECT_EQ(o.queue.num_threads, 16u);
  EXPECT_EQ(o.queue.flush_batch, 64u);
  EXPECT_FALSE(o.queue.secondary_vertex_sort);
  EXPECT_EQ(o.io_retries, 4u);
  EXPECT_EQ(o.io_backoff_us, 50u);
}

TEST(TraversalOptions, FromFlagsSemDefaults) {
  // SEM mode: per-push delivery (batching delay fragments the semi-sorted
  // visit order the block cache depends on) and the secondary vertex sort.
  const char* argv[] = {"prog"};
  const options opt(1, argv);
  const traversal_options o = traversal_options::from_flags(opt, true);
  EXPECT_EQ(o.queue.flush_batch, 1u);
  EXPECT_TRUE(o.queue.secondary_vertex_sort);
  EXPECT_EQ(o.queue.num_threads, 16u);
}

TEST(TraversalOptions, FromFlagsParsesEveryKnob) {
  const char* argv[] = {"prog", "--threads=7", "--flush-batch=3",
                        "--io-retries=9", "--io-backoff-us=123"};
  const options opt(5, argv);
  const traversal_options o = traversal_options::from_flags(opt);
  EXPECT_EQ(o.queue.num_threads, 7u);
  EXPECT_EQ(o.queue.flush_batch, 3u);
  EXPECT_EQ(o.io_retries, 9u);
  EXPECT_EQ(o.io_backoff_us, 123u);

  // Explicit flags beat the SEM-mode flush-batch default too.
  const traversal_options sem = traversal_options::from_flags(opt, true);
  EXPECT_EQ(sem.queue.flush_batch, 3u);
  EXPECT_TRUE(sem.queue.secondary_vertex_sort);
}

TEST(TraversalOptions, FromFlagsRejectsRemovedHotBlockFlags) {
  // The hot-block scheduler's flags and the I/O backend choice are gone;
  // the option parser stores any key, so from_flags must refuse them by
  // name instead of ignoring them.
  const struct {
    const char* flag;
    const char* name;
  } cases[] = {{"--ordering=hot", "hot"},
               {"--prefetch-hot", "--prefetch-hot"},
               {"--cache-policy=pressure", "--cache-policy"},
               {"--hot-threshold=4", "--hot-threshold"},
               {"--io-backend=coalescing", "--io-backend"},
               {"--io-batch=8", "--io-batch"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.flag);
    const char* argv[] = {"prog", c.flag};
    const options opt(2, argv);
    try {
      (void)traversal_options::from_flags(opt, true);
      ADD_FAILURE() << "accepted " << c.flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace asyncgt
