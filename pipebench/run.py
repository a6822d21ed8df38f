#!/usr/bin/env python3
"""Build and run the whole-pipeline middleware benchmark.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --self-test

Run from the root of the source tree.  The benchmark is built from source
(CMake, Release) under $CARGO_TARGET_DIR, or .bench_build when that is unset,
and the last line of standard output is the benchmark's JSON result.  The
traced run (--trace 1) also writes its spans there, under pipebench/spans/.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pipebench",
                  "-j", JOBS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                # A half-configured tree would be reused by the next run.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
    return os.path.join(build_dir, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "pipebench")
    binary = build(build_dir)
    if binary is None:
        sys.stderr.write("pipebench: build failed\n")
        return 1

    if args.self_test:
        return subprocess.call([binary, "--self-test"])
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE)
    if run.returncode != 0:
        sys.stderr.write("pipebench: run exited with %d\n" % run.returncode)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
