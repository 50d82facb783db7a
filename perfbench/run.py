#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kron-ram --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds, in release mode, the `gz` binary
from the workspace and the `gzperf` harness from perfbench/Cargo.toml into
$CARGO_TARGET_DIR (default: perfbench/target), then runs the harness. The
harness prints the run record and every metric, and as its last line one
JSON object. Exits non-zero without printing a result if a build fails or
the harness does not finish in time; every process the run started is
stopped before this script exits.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kron-ram", "serve-mixed")
# The harness must finish well inside the 180 s a run is allowed.
HARNESS_DEADLINE_S = 165
# Trees hashed into the run record's source digest.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Digest of the sources the binaries are built from (the checkout is
    not necessarily a git repository), prefixed by the git revision when
    there is one."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
                files.extend(os.path.join(d, n) for n in names)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    digest = h.hexdigest()[:16]
    rev = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return f"git-{rev.stdout.strip()}-{digest}" if rev.returncode == 0 else digest


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    builds = (
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "gz_cli", "--bin", "gz"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "gzperf"],
    )
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False).returncode:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "gz"), os.path.join(release, "gzperf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be ≥ 0 and --seconds ≥ 1")

    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    gz, gzperf = build(target_dir)
    scratch = os.path.join(target_dir, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)

    cmd = [
        gzperf,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--gz", gz,
        "--scratch", scratch,
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    # Its own process group, so the harness and the daemons it spawns can
    # be stopped together on a timeout or a signal.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop_group()
        fail(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    start = time.monotonic()
    try:
        rc = proc.wait(timeout=HARNESS_DEADLINE_S)
    except subprocess.TimeoutExpired:
        stop_group()
        fail(f"harness did not finish within {HARNESS_DEADLINE_S} s")
    # The harness reaps its own children; anything left in the group is a
    # leak, stopped here rather than left running.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if rc != 0:
        fail(f"harness exited with {rc} after {time.monotonic() - start:.1f} s")


if __name__ == "__main__":
    main()
