#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the GNN-MLS reproduction.

    python3 perfbench/run.py --workload paper_flow --seed 0 --seconds 15 --trace 0

On first use it builds perfbench/ (the gnnmls library from ../src plus the
benchmark binary) as a Release build in .bench_build/perfbench at the
checkout root; later runs rebuild incrementally. It pins GNNMLS_THREADS to
min(nproc, 4), clears the environment knobs that change what the flow does,
and runs the benchmark binary, whose last stdout line is the JSON result.
Build output goes to stderr. Exits non-zero without a result when the build
fails or is not an optimized build.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "gnnmls_perfbench")
WORKLOADS = ("paper_flow", "train", "eco_session")
DEFAULT_SEED = 0
THREADS = min(os.cpu_count() or 1, 4)
# Knobs that would trace, fault, audit, or re-route the measured flow.
SCRUBBED_ENV = ("GNNMLS_TRACE", "GNNMLS_FAULT", "GNNMLS_AUDIT", "GNNMLS_FT", "GNNMLS_MAX_RETRIES",
                "GNNMLS_BACKOFF_MS", "GNNMLS_PASS_BUDGET_S", "GNNMLS_SIMD", "GNNMLS_LEDGER",
                "GNNMLS_FLIGHT_OUT", "GNNMLS_LOG_LEVEL")


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    generated = ("build.ninja", "Makefile")  # written only by a successful configure
    if not any(os.path.exists(os.path.join(BUILD_DIR, g)) for g in generated):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            print("run.py: .bench_build is not a Release build; remove it", file=sys.stderr)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "gnnmls_perfbench", "-j", str(THREADS)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"], env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("paper", "smoke"), default="paper",
                   help="smoke swaps every design for MAERI-16 (self-test only)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["GNNMLS_THREADS"] = str(THREADS)
    env.setdefault("GNNMLS_GIT_REV", git_rev())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
