// Hot-vertex advisory seam between the visitor queue and the SEM layer.
//
// The queue's hot ordering mode (ordering_policy.hpp, queue_order::hot)
// wants to pop visitors whose adjacency block is cache-resident or has a
// lot of queued work first — ACGraph's observation that amortizing one
// block load over many pending updates is where out-of-core I/O savings
// live. The queue layer cannot know what a "block" is (that is sem's
// business), so the engine talks to an abstract advisor:
//
//   on_enqueue(v)  — fired once per visitor at mailbox delivery time
//                    (external pushes, outbox flushes, and seeding alike);
//                    the SEM implementation bumps the pending count of v's
//                    adjacency block and may trigger readahead when the
//                    block crosses the hotness threshold while non-resident.
//   on_complete(v) — fired once per executed visit, or per visitor whose
//                    pre_visit dropped it on arrival; undoes one on_enqueue.
//                    At quiescence, total on_enqueue == total on_complete ==
//                    run visits (the pressure conservation law the tests
//                    pin).
//   is_hot(v)      — consulted by hot_order::push to classify the visitor
//                    into the hot or cold band.
//   reset()        — the engine discarded queued visitors after an abort;
//                    pending counts must drop back to zero with them.
//
// Thread safety: every hook is called concurrently from all worker threads
// (and is_hot additionally from whichever thread pushes). Implementations
// must be internally synchronized — the SEM advisor is built on relaxed
// atomics (sem/block_pressure.hpp) because the signal is a scheduling
// heuristic, not an accounting ledger.
//
// The advisor is borrowed and nullable on visitor_queue_config: null means
// the hooks compile to one predictable branch per delivery batch, and
// hot_order degrades to plain priority_order behaviour.
#pragma once

#include <cstdint>

namespace asyncgt {

class hot_advisor {
 public:
  virtual ~hot_advisor() = default;

  /// Should `vertex` pop from the hot band right now (the SEM
  /// implementation answers with cache residency of its backing block)?
  /// Stale answers are fine (push-time classification is a heuristic);
  /// wrong answers cost ordering quality, never correctness — label
  /// correction makes final labels pop-order-invariant.
  virtual bool is_hot(std::uint64_t vertex) const noexcept = 0;

  /// One visitor for `vertex` was delivered to its owner's mailbox.
  virtual void on_enqueue(std::uint64_t vertex) noexcept = 0;

  /// One visitor for `vertex` finished executing.
  virtual void on_complete(std::uint64_t vertex) noexcept = 0;

  /// All queued visitors were discarded (post-abort reset).
  virtual void reset() noexcept = 0;
};

}  // namespace asyncgt
