#!/usr/bin/env python3
"""Build and run the OPAL serving benchmark from the repository's sources.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # the harness's unit tests

Builds perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR, default
.bench_build, relative to the repository root; build output goes to stderr
so the benchmark's last stdout line stays its JSON result. Exits nonzero,
printing no result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_tests")]).returncode
    binary = build("opal_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
