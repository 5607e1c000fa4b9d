#!/usr/bin/env bash
# Builds the tree under AddressSanitizer + UBSan and runs the batteries of
# the `asan` test preset (ctest labels `fault`, `diff`, `backend`, `service`,
# `dynamic`): injector determinism, the edge_file retry/backoff loop,
# engine-wide abort containment, hostile .agt inputs, the end-to-end
# injected-fault soak with checkpoint-on-error resume (docs/robustness.md),
# and the differential / read-path identity suites. Wraps the `asan` presets
# in CMakePresets.json so CI and humans run the identical configuration:
#
#   tools/fault_soak.sh [-jN]
#
# It ends with one end-to-end pass: an injected-fault SEM traversal through
# agt_tool must finish with zero gave-up reads.
#
# Exits non-zero on any sanitizer report (halt_on_error=1) or test failure.
# The concurrency-racy subset of the same battery also runs under TSan via
# tools/tsan_check.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="-j$(nproc)"
for arg in "$@"; do
  case "${arg}" in
    -j*) JOBS="${arg}" ;;
    *)
      echo "unknown argument: ${arg}" >&2
      exit 2
      ;;
  esac
done

cmake --preset asan
cmake --build --preset asan "${JOBS}" --target test_fault test_diff \
  test_backend test_service test_dynamic agt_tool
ctest --preset asan

# End-to-end pass: the injected-fault demo traversal. agt_tool exits
# non-zero if the traversal aborts or the JSON report fails its own schema
# check.
echo "=== fault soak: injected-fault SEM traversal ==="
./build-asan/tools/agt_tool bfs --sem --scale=12 --threads=16 \
  --time-scale=0.01 --inject=eio=0.02,seed=7
