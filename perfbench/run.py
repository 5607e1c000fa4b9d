#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, run one workload, relay
its output.

    python3 perfbench/run.py --workload im-rmat|sem-rmat|dynamic-mixed \
        --seed N --seconds S --trace 0|1 [perfbench binary options...]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench and is incremental; spans and scratch
files go to .../out. The last stdout line is the result JSON; the exit code
is the binary's (non-zero on any failed check), or non-zero without a
result when the build or run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the library sources, standing in for a commit id in
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = root / "src"
    for p in sorted(src.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir, env):
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = ap.parse_known_args()

    root = Path.cwd()
    if not (root / "src" / "asyncgt.hpp").is_file():
        log("perfbench: no library sources under", root / "src")
        return 2
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    # Compiler and run scratch files stay inside the checkout too.
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(build_dir, env):
        return 2
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(build_root / "out"),
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)] + extra
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3


if __name__ == "__main__":
    sys.exit(main())
