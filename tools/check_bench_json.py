#!/usr/bin/env python3
"""Schema check for bench-report JSON emitted via --json (schema v3).

Mirrors telemetry::report::verify (src/telemetry/metrics_json.cpp) so CI and
ad-hoc tooling can validate BENCH_*.json artifacts without building the C++
tree; `agt_tool verify-json FILE` is the in-tree equivalent. Python 3 stdlib
only.

Beyond structure, this enforces the schema-v2 percentile invariant: any
object carrying a full {p50,p95,p99} or {p50_us,p95_us,p99_us} triple —
io_recorder latency summaries, registry histograms, per-job lifecycle
latencies — must satisfy p50 <= p95 <= p99, and p99 <= the sibling recorded
maximum (max / max_us / max_latency_us) when one is present. The C++ side
derives these by interpolation clamped to the exact max, so a violation
means a broken emitter, not noise.

It also validates hybrid-traversal phase breakdowns: any "phases" array
(bench::to_json(hybrid_extra), nested under sections like "hybrid".bfs/.cc)
must hold objects whose `direction` is one of top-down / bottom-up /
async-tail and whose `edge_inspections` is a non-negative number, and the
phase inspections must sum to the sibling `edge_inspections` total when one
is present.

Schema v3 adds the overload-safety surface: jobs[] entries may carry an
`outcome` (one of the job_outcome names), a non-negative `deadline_ms`, and
an integer `priority`; a "service" section (bench::to_json of
engine::service_counters) must satisfy the admission conservation law
submitted = rejected + active + completed + failed + cancelled +
deadline_exceeded + stalled + shed.

An "incremental" section (ext_incremental, docs/dynamic_graphs.md) is
checked against the repair planner's structural law: per algorithm,
0 <= reseeded <= affected <= n, with non-negative repair/full visit counts.

Usage: check_bench_json.py FILE [FILE...]
Exit status 0 if every file conforms, 1 otherwise.
"""
import json
import sys


def _num(obj, key):
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    return v


def check_percentiles(value, where):
    """Recursively checks percentile monotonicity; returns an error or None."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            error = check_percentiles(entry, "%s[%d]" % (where, i))
            if error is not None:
                return error
        return None
    if not isinstance(value, dict):
        return None
    for suffix in ("", "_us"):
        p50 = _num(value, "p50" + suffix)
        p95 = _num(value, "p95" + suffix)
        p99 = _num(value, "p99" + suffix)
        if p50 is None or p95 is None or p99 is None:
            continue
        if not (p50 <= p95 <= p99):
            return "%s: percentiles not monotone (p50%s=%r, p95%s=%r, p99%s=%r)" % (
                where, suffix, p50, suffix, p95, suffix, p99)
        maximum = _num(value, "max" + suffix)
        if maximum is None:
            maximum = _num(value, "max_latency_us")
        if maximum is not None and p99 > maximum:
            return "%s: p99%s=%r exceeds recorded max=%r" % (
                where, suffix, p99, maximum)
    for key, child in value.items():
        error = check_percentiles(child, "%s.%s" % (where, key))
        if error is not None:
            return error
    return None


_PHASE_DIRECTIONS = ("top-down", "bottom-up", "async-tail")


def check_hybrid_phases(value, where):
    """Recursively checks hybrid phase arrays; returns an error or None."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            error = check_hybrid_phases(entry, "%s[%d]" % (where, i))
            if error is not None:
                return error
        return None
    if not isinstance(value, dict):
        return None
    phases = value.get("phases")
    if isinstance(phases, list):
        total = 0
        for i, phase in enumerate(phases):
            p_where = "%s.phases[%d]" % (where, i)
            if not isinstance(phase, dict):
                return "%s is not an object" % p_where
            direction = phase.get("direction")
            if direction not in _PHASE_DIRECTIONS:
                return "%s: direction %r not in %s" % (
                    p_where, direction, "/".join(_PHASE_DIRECTIONS))
            inspections = _num(phase, "edge_inspections")
            if inspections is None or inspections < 0:
                return ("%s: edge_inspections must be a non-negative number"
                        % p_where)
            total += inspections
        declared = _num(value, "edge_inspections")
        if declared is not None and total != declared:
            return "%s: phase edge_inspections sum to %r, not the declared %r" % (
                where, total, declared)
    for key, child in value.items():
        error = check_hybrid_phases(child, "%s.%s" % (where, key))
        if error is not None:
            return error
    return None


_OUTCOMES = ("running", "completed", "failed", "cancelled",
             "deadline_exceeded", "stalled", "shed")

# service-section conservation: submitted = the sum of these terminal (and
# still-active) buckets. Mirrors engine::service_counters' documented law.
_CONSERVED = ("rejected", "active", "completed", "failed", "cancelled",
              "deadline_exceeded", "stalled", "shed")


def check_service(section):
    """Validates a "service" section; returns an error or None."""
    if "submitted" not in section:
        # Legacy (pre-v3) shape: jobs_submitted/jobs_completed summaries
        # without the admission counters — nothing to conserve.
        return None
    for key in ("submitted",) + _CONSERVED:
        v = _num(section, key)
        if v is None or v < 0:
            return "service.%s must be a non-negative number" % key
    total = sum(section[k] for k in _CONSERVED)
    if section["submitted"] != total:
        return ("service: conservation violated — submitted=%r but "
                "terminal buckets sum to %r" % (section["submitted"], total))
    return None


def check_incremental(section):
    """Validates an "incremental" section; returns an error or None.

    The section is emitted by ext_incremental (and agt_tool update --json):
    batch shape at the top level plus per-algorithm repair accounting under
    "algos". Each algorithm entry must satisfy the structural law of the
    repair planner: 0 <= reseeded <= affected <= n (reseeded vertices are a
    subset of the affected set by construction — docs/dynamic_graphs.md),
    and repair_visits / full_visits / visit_ratio must be non-negative.
    """
    n = _num(section, "n")
    for key in ("n", "base_edges", "delta_inserts", "delta_deletes",
                "epoch"):
        if key in section:
            v = _num(section, key)
            if v is None or v < 0:
                return "incremental.%s must be a non-negative number" % key
    algos = section.get("algos")
    if algos is None:
        return None
    if not isinstance(algos, dict):
        return "incremental.algos must be an object"
    for name, entry in algos.items():
        where = "incremental.algos.%s" % name
        if not isinstance(entry, dict):
            return "%s is not an object" % where
        affected = _num(entry, "affected")
        reseeded = _num(entry, "reseeded")
        if affected is None or reseeded is None:
            return "%s must carry numeric affected and reseeded" % where
        if not (0 <= reseeded <= affected):
            return ("%s: reseeded=%r must be within [0, affected=%r]"
                    % (where, reseeded, affected))
        if n is not None and affected > n:
            return "%s: affected=%r exceeds n=%r" % (where, affected, n)
        for key in ("repair_visits", "full_visits", "visit_ratio"):
            if key in entry:
                v = _num(entry, key)
                if v is None or v < 0:
                    return "%s.%s must be a non-negative number" % (where,
                                                                   key)
    return None


def check(doc):
    """Returns None if `doc` conforms to schema v3, else an error."""
    if not isinstance(doc, dict):
        return "document is not a JSON object"
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != 3:
        return "schema_version must be the integer 3"
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        return "name must be a non-empty string"
    if not isinstance(doc.get("config"), dict):
        return "config must be an object"
    sections = doc.get("sections")
    if not isinstance(sections, dict):
        return "sections must be an object"
    for key, value in sections.items():
        if not isinstance(value, dict):
            return "section '%s' is not an object" % key
        if key == "service":
            error = check_service(value)
            if error is not None:
                return error
        if key == "incremental":
            error = check_incremental(value)
            if error is not None:
                return error
    rows = doc.get("rows")
    if rows is not None:
        if not isinstance(rows, list):
            return "rows must be an array"
        for row in rows:
            if not isinstance(row, dict):
                return "rows entries must be objects"
    jobs = doc.get("jobs")
    if jobs is not None:
        if not isinstance(jobs, list):
            return "jobs must be an array"
        for entry in jobs:
            if not isinstance(entry, dict):
                return "jobs entries must be objects"
            job_id = entry.get("job_id")
            if isinstance(job_id, bool) or not isinstance(job_id, int):
                return "jobs entries must carry an integer job_id"
            outcome = entry.get("outcome")
            if outcome is not None and outcome not in _OUTCOMES:
                return "jobs[%r]: outcome %r not in %s" % (
                    job_id, outcome, "/".join(_OUTCOMES))
            deadline = entry.get("deadline_ms")
            if deadline is not None and (
                    isinstance(deadline, bool)
                    or not isinstance(deadline, (int, float))
                    or deadline < 0):
                return "jobs[%r]: deadline_ms must be non-negative" % job_id
            priority = entry.get("priority")
            if priority is not None and (isinstance(priority, bool)
                                         or not isinstance(priority, int)):
                return "jobs[%r]: priority must be an integer" % job_id
    error = check_hybrid_phases(doc, "$")
    if error is not None:
        return error
    return check_percentiles(doc, "$")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            with open(path, "rb") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print("FAIL: %s: %s" % (path, e))
            status = 1
            continue
        error = check(doc)
        if error is not None:
            print("FAIL: %s: %s" % (path, error))
            status = 1
        else:
            print("ok: %s conforms to bench-report schema v%s"
                  % (path, doc.get("schema_version")))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
