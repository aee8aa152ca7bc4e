#!/usr/bin/env python3
"""Build the cllm benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_decode --seed 1 \
        --seconds 40 --trace 0

The first run configures and compiles the library and the benchmark
binary into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench);
later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the binary's JSON result. The exit code is
the binary's.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC_DIR = os.path.join(ROOT, "src")
WORKLOADS = ("serve_decode", "fleet_shared_prefix")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in (SRC_DIR, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode:
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed")
        if subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr).returncode:
            fail("build failed")
    return os.path.join(out, "cllm_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (not for measurement)")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isdir(SRC_DIR):
        fail("no library sources at " + SRC_DIR)

    out = build_dir()
    binary = build(out)
    spans_dir = os.path.join(out, "out")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", spans_dir, "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
