#!/usr/bin/env python3
"""Build and run the Sidewinder repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark and the libraries from src/ into .bench_build/perfbench
(Release); later runs rebuild only when a file under src/, bench/ or
perfbench/ changed. After each build the benchmark's own tests run.
The last line of standard output is the benchmark's JSON result; build output goes to
standard error.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table2_audio", "fleet_accel", "supervised_link")


def newest_source():
    newest = 0.0
    for top in ("src", "bench", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                newest = max(newest,
                             os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build():
    """Build and self-test, unless nothing changed since the last time.

    A no-op `cmake --build` of the whole tree costs seconds per run, so
    a stamp written after a successful build and self-test stands in
    for it while no file under src/, bench/ or perfbench/ is newer.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources (src/) next to perfbench/")
    stamp = os.path.join(BUILD, "build.stamp")
    if (os.path.isfile(stamp)
            and os.path.getmtime(stamp) >= newest_source()):
        return
    jobs = str(min(4, os.cpu_count() or 1))
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, **quiet)
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                   check=True, **quiet)
    with open(stamp, "w", encoding="ascii") as out:
        out.write("built\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    spans = os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
