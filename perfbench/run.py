#!/usr/bin/env python3
"""Builds and runs the MOOD repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The engine and the benchmark program are
built from source with CMake into $CARGO_TARGET_DIR (default .bench_build);
the first run builds, later runs reuse the build. The last line of stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("scan-paths", "point-wire", "churn-mv")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over the engine and benchmark sources, for trees without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited with {out.returncode}")


def main():
    # SIGTERM unwinds like an error, so the cleanup in `finally` blocks runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {root / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"

    build(root, build_dir)

    data_dir = build_dir / f"run-{os.getpid()}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data_dir),
           "--git-commit", git_commit(root), "--source-digest", source_digest(root)]
    if args.trace:
        cmd += ["--trace-file",
                str(build_dir / f"spans-{args.workload}-seed{args.seed}.csv")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Also reached when this script is stopped: never leave the run behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    for line in lines[:-1]:
        print(line)
    print(f"run_wall_s {time.monotonic() - start:.3f}")
    print(lines[-1])


if __name__ == "__main__":
    main()
