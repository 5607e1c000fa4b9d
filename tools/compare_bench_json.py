#!/usr/bin/env python3
"""Diff two bench-report JSON files (schema v1/v2/v3) and flag regressions.

Walks both documents in parallel and reports every numeric leaf that
changed, as an absolute pair and a percentage delta. Intended use: keep a
known-good BENCH_*.json as a baseline, re-run the bench after a change, and
diff:

    compare_bench_json.py baseline.json current.json
    compare_bench_json.py --threshold 10 --watch 'seconds|_us' a.json b.json

With --threshold PCT, any watched metric that grew by more than PCT percent
makes the script exit 1 (a regression), so it can gate a CI job. "Watched"
defaults to every numeric leaf; narrow it with --watch REGEX matched against
the dotted path (e.g. 'sections\\.timing'). Growth is always the regression
direction — the metrics this tree emits (seconds, latencies, io bytes,
retries) are all cost-like. Leaves present in only one file are reported
but never trip the threshold: schema v2 added whole sections, and a
baseline captured before an emitter change should not hard-fail the diff.

Paths containing `edge_inspections` (the hybrid traversal's work metric —
ext_structure_sweep's "hybrid" section, per-phase breakdowns, per-job
attribution) are always threshold-watched even when --watch narrows to
something else: a hybrid run quietly inspecting more edges is exactly the
regression the direction-switch heuristics exist to prevent. Opt out with
--no-watch-inspections.

The schema-v3 overload counters (paths ending in service `rejected`,
`shed`, or `deadline_exceeded`) are always-watched the same way: a change
that starts bouncing or killing jobs under the same workload is a service
regression even when --watch is trained on timings. Opt out with
--no-watch-service.

The cache-efficiency family is always-watched too (opt out with
--no-watch-cache). `bytes_per_visit` (the SEM efficiency headline —
device bytes read per completed visit) is cost-like and gates on growth;
`hit_rate` leaves gate in the INVERTED direction — a hit rate that
*shrank* by more than the threshold is the regression, since a bigger hit
rate is strictly better. With --no-watch-cache these leaves
fall back to the default growth-direction handling of whatever --watch
selects.

The incremental-repair work metrics (paths ending in `repair_visits` or
`visit_ratio` — ext_incremental's "incremental" section, per-job
attribution) are always growth-watched too: a repair creeping toward
full-recompute cost is the regression the delta overlay exists to prevent.
Opt out with --no-watch-incremental.

Exit status: 0 = no regression, 1 = regression over threshold,
2 = usage / unreadable input.
"""
import argparse
import json
import re
import sys


def is_number(v):
    return not isinstance(v, bool) and isinstance(v, (int, float))


# Overload counters that are always threshold-watched (see module doc):
# the engine's "service" section plus the service.* metric family any
# report may carry.
_SERVICE_WATCH = re.compile(
    r"service[.\]].*(rejected|shed|deadline_exceeded)"
    r"|\.(rejected|shed|shed_requests|deadline_exceeded)$")

# Cache-efficiency family (see module doc). Growth-watched: bytes moved per
# unit of completed work. Shrink-watched (inverted direction): cache hit
# rates — a smaller one is the regression.
_CACHE_GROW_WATCH = re.compile(r"bytes_per_visit$")
_CACHE_SHRINK_WATCH = re.compile(r"\.hit_rate$")

# Incremental-repair work (see module doc): repair_visits is the dynamic
# extension's headline cost — a repair quietly approaching full-recompute
# work is the regression ext_incremental's gate exists to prevent.
_INCREMENTAL_WATCH = re.compile(r"repair_visits$|\.visit_ratio$")


def numeric_leaves(value, where, out):
    """Flattens `value` into {dotted.path: number} for every numeric leaf."""
    if is_number(value):
        out[where] = value
    elif isinstance(value, dict):
        for key in value:
            numeric_leaves(value[key], "%s.%s" % (where, key) if where else key,
                           out)
    elif isinstance(value, list):
        # Index jobs by job_id when available so reordering between runs
        # (concurrent jobs complete in nondeterministic order) still pairs
        # the same job with itself.
        for i, entry in enumerate(value):
            tag = i
            if isinstance(entry, dict) and is_number(entry.get("job_id")):
                tag = "job%d" % entry["job_id"]
            numeric_leaves(entry, "%s[%s]" % (where, tag), out)


def load(path):
    with open(path, "rb") as f:
        return json.load(f)


def pct_delta(old, new):
    if old == 0:
        return None  # undefined; shown as "new/inf" in the report
    return 100.0 * (new - old) / abs(old)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two bench-report JSON files.")
    parser.add_argument("baseline", help="baseline report (the 'before')")
    parser.add_argument("current", help="current report (the 'after')")
    parser.add_argument("--threshold", type=float, default=None, metavar="PCT",
                        help="exit 1 if any watched metric grew by more "
                             "than PCT percent")
    parser.add_argument("--watch", default=None, metavar="REGEX",
                        help="only apply --threshold to paths matching "
                             "REGEX (default: all numeric leaves)")
    parser.add_argument("--no-watch-inspections", action="store_true",
                        help="do not force-watch edge_inspections paths "
                             "when --watch narrows the threshold scope")
    parser.add_argument("--no-watch-service", action="store_true",
                        help="do not force-watch the service overload "
                             "counters (rejected/shed/deadline_exceeded)")
    parser.add_argument("--no-watch-cache", action="store_true",
                        help="do not force-watch the cache-efficiency "
                             "family (hit_rate shrink, bytes_per_visit "
                             "growth)")
    parser.add_argument("--no-watch-incremental", action="store_true",
                        help="do not force-watch the incremental-repair "
                             "work metrics (repair_visits / visit_ratio)")
    parser.add_argument("--all", action="store_true",
                        help="also print unchanged metrics")
    args = parser.parse_args(argv[1:])

    try:
        watch = re.compile(args.watch) if args.watch else None
    except re.error as e:
        print("bad --watch regex: %s" % e, file=sys.stderr)
        return 2
    try:
        base_doc, cur_doc = load(args.baseline), load(args.current)
    except (OSError, ValueError) as e:
        print("cannot read input: %s" % e, file=sys.stderr)
        return 2

    base, cur = {}, {}
    numeric_leaves(base_doc, "", base)
    numeric_leaves(cur_doc, "", cur)

    regressions = []
    changed = 0
    for path in sorted(set(base) | set(cur)):
        if path not in base:
            print("  %-60s  (only in current) = %g" % (path, cur[path]))
            changed += 1
            continue
        if path not in cur:
            print("  %-60s  (only in baseline) = %g" % (path, base[path]))
            changed += 1
            continue
        old, new = base[path], cur[path]
        if old == new:
            if args.all:
                print("  %-60s  %g (unchanged)" % (path, old))
            continue
        changed += 1
        delta = pct_delta(old, new)
        delta_str = "%+.1f%%" % delta if delta is not None else "new/inf"
        print("  %-60s  %g -> %g  (%s)" % (path, old, new, delta_str))
        watched = watch is None or watch.search(path)
        inverted = False
        if not args.no_watch_inspections and "edge_inspections" in path:
            watched = True
        if not args.no_watch_service and _SERVICE_WATCH.search(path):
            watched = True
        if not args.no_watch_cache:
            if _CACHE_GROW_WATCH.search(path):
                watched = True
            if _CACHE_SHRINK_WATCH.search(path):
                watched = True
                inverted = True  # a shrinking hit rate is the regression
        if not args.no_watch_incremental and _INCREMENTAL_WATCH.search(path):
            watched = True
        if args.threshold is not None and watched:
            if inverted:
                bad = delta is not None and delta < -args.threshold
            else:
                bad = (delta is not None and delta > args.threshold) or \
                      (delta is None and new > 0)
            if bad:
                regressions.append((path, old, new, delta_str))

    if changed == 0:
        print("no differences between %s and %s" % (args.baseline,
                                                    args.current))
    if regressions:
        print("\nREGRESSION: %d metric(s) grew past %.1f%%:"
              % (len(regressions), args.threshold))
        for path, old, new, delta_str in regressions:
            print("  %s: %g -> %g (%s)" % (path, old, new, delta_str))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
