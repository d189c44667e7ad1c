#!/usr/bin/env python3
"""Build and run the simulator's layered benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures perfbench/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), builds the
simulator libraries from src/ and the perfbench_layers driver, then runs
one workload. Stdout ends with one JSON line: correct, attempted, failed,
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
Result files go to <build dir>/results/<workload>-seed<N>-trace<T>/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lp_ring_fattree1024", "train_hdc_zoo_b10", "sim_alexnet_lossy")
BUILD_TIMEOUT_S = 840
# Whole-run limit; longer --seconds get three times their length.
RUN_TIMEOUT_S = 170
# Environment variables that change what the simulator does; the
# benchmark sets widths and seeds itself.
SCRUBBED_ENV = ("INC_THREADS", "INC_EQ_SHUFFLE", "INC_TRACE")


def fail(message, code):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """SHA-256 over every file under src/: the code being measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root):
    """HEAD of the repository rooted exactly at root, else 'none'."""
    if shutil.which("git") is None:
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30, check=True)
    except (subprocess.SubprocessError, OSError):
        return "none"
    lines = out.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "none"
    return lines[1]


def build(root, build_dir):
    """Configure once, then (re)build the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"),
                     "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_layers", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S, check=True)
            except (subprocess.SubprocessError, OSError) as err:
                tail = log_path.read_text(errors="replace")[-3000:]
                print(tail, file=sys.stderr)
                fail(f"build failed ({err}); log: {log_path}", 3)
    return build_dir / "perfbench_layers"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {root / 'src'}; run from a full "
             "checkout of the repository", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    binary = build(root, build_dir)

    out_dir = (build_dir / "results" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir),
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    timeout = max(RUN_TIMEOUT_S, 3 * args.seconds)
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {timeout:g} s", 4)
    if proc.returncode != 0:
        fail(f"perfbench_layers exited with {proc.returncode}", 5)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("perfbench_layers printed no result line", 6)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys", 6)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
