#!/usr/bin/env bash
# Builds the tree under ThreadSanitizer and runs the concurrency-sensitive
# suites: the layered visitor-queue engine (routing / ordering / mailbox /
# termination, including the flush-batch ablation), the asynchronous
# traversals driving it, the failure-containment battery (abort
# broadcast racing delivery/parking, injected-fault soak), and the
# traversal-service battery (pooled gang dispatch, concurrent jobs over one
# shared graph, cancellation racing the pool, per-job attribution
# conservation under concurrent gangs), the checkpoint battery (cancelled
# jobs writing their labels from the abort hook, resumed jobs whose
# sender-side label reads run beside the owners' relaxed stores), the
# overload-safety battery
# (watchdog deadline/stall firing racing completion, admission decisions
# from concurrent submitters, the 4x-oversubscribed mixed-priority mix —
# docs/robustness.md), the differential battery
# (async vs serial labels across storage modes), the SEM read-path battery
# (per-thread block windows, read-path identity under injected faults),
# and the hybrid-traversal battery (the bottom-up sweeps' range-partitioned
# parallel writes and the frontier estimator's worker-side sampling), the
# sem_config bundle wiring, and the dynamic-graph battery (delta batches
# applied while pinned readers iterate and async jobs run over old
# epochs, plus the incremental-vs-recompute stream — docs/dynamic_graphs.md),
# and the reads-ahead battery (SemPipeline: each lane's pending set and its
# per-thread charge-ahead bookings, with aborts ending reads in flight —
# docs/visitor_queue.md).
# Wraps the `tsan` presets in CMakePresets.json so CI and humans run the
# identical configuration:
#
#   tools/tsan_check.sh [-jN]
#
# Exits non-zero on any data race (TSAN_OPTIONS=halt_on_error=1) or test
# failure. tools/tsan.supp mutes the known libstdc++ exception_ptr
# false positive (refcount decrement lives in the uninstrumented .so).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${1:--j$(nproc)}"

cmake --preset tsan
cmake --build --preset tsan "${JOBS}" --target test_queue test_core test_fault test_service test_overload test_diff test_backend test_telemetry test_sem test_hybrid test_dynamic
ctest --preset tsan
