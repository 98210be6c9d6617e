#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <train_lts|train_dpr|serve_tcp> \
        --seed <n> --seconds <s> --trace <0|1>

Every call configures and builds `perfbench` (Release, with the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the first call
compiles everything, later ones only what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero without a result when the build fails, e.g.
when src/ is missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    build = build_dir()
    if run_quiet(["cmake", "-S", HERE, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        print("perfbench: configure failed", file=sys.stderr)
        return 1
    if run_quiet(["cmake", "--build", build, "-j4"]) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
