#!/usr/bin/env python3
"""Build and run the SPUR simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-live --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --test                # harness-fidelity tests

The harness is built from source (perfbench/CMakeLists.txt, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-live", "policy-replay", "scenario-record"]
# The harness bounds itself (setup + --seconds + checks); this only
# stops a hung run from outliving the benchmark's time limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def source_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def run_workload(out, args, workload):
    command = [os.path.join(out, "perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--pins", os.path.join(HERE, "pinned_digests.txt"),
               "--workdir", out,
               "--commit", source_id()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness-fidelity tests")
    args = parser.parse_args()

    if args.test:
        out = build(["perfbench_fidelity_test"])
        test = os.path.join(out, "perfbench_fidelity_test")
        return subprocess.run([test], cwd=out).returncode
    if args.workload is None:
        parser.error("--workload is required")
    out = build(["perfbench"])
    if args.workload != "all":
        return run_workload(out, args, args.workload)
    status = 0
    for workload in WORKLOADS:
        status = run_workload(out, args, workload) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
