#!/usr/bin/env python3
"""Build unicert's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Steps, each named on stderr when it fails: configure (CMake, in
.bench_build/perfbench under the checkout root), build (only the
libraries the benchmark links), input generation (census and every
traced run: the census corpus is written by a separate process so the
measuring process's peak RSS excludes it), run, and check. The last line of standard output is the
JSON result of the measuring process.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("census", "monitor-query", "monitor-ingest", "differential")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


class StepFailed(Exception):
    def __init__(self, step, detail):
        super().__init__(f"step '{step}' failed: {detail}")
        self.step = step


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(step, cmd, **kwargs):
    """Run a build-side command, its output on stderr; raise on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, **kwargs)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise StepFailed(step, str(exc)) from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        raise StepFailed(step, f"{cmd[0]} exited with {proc.returncode}")
    return proc


def cached_source_dir():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return ""


def configure():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise StepFailed("configure", f"no unicert source tree at {ROOT}/src")
    cached = cached_source_dir()
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        # A cache made from another source path cannot be reused.
        shutil.rmtree(BUILD_DIR)
        cached = None
    if cached is None:
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step("configure", cmd)


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step("build", ["cmake", "--build", BUILD_DIR, "--target", *targets, "-j", jobs])


def binary(name):
    return os.path.join(BUILD_DIR, name)


def run_workload(args):
    exe = binary("perfbench_traced" if args.trace else "perfbench")
    input_dir = None
    try:
        setup_t0 = time.monotonic()
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
        if args.workload == "census" or args.trace:
            input_dir = os.path.join(BUILD_DIR, f"inputs-{os.getpid()}")
            os.makedirs(input_dir, exist_ok=True)
            generated = run_step("input generation",
                                 [binary("perfbench"), "--generate", "census",
                                  "--seed", str(args.seed), "--input-dir", input_dir],
                                 timeout=RUN_TIMEOUT_S)
            sys.stderr.write(generated.stdout)
            cmd += ["--input-dir", input_dir]
        cmd += ["--setup-t0", repr(setup_t0)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise StepFailed("run", f"no result within {RUN_TIMEOUT_S} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise StepFailed("run", f"{os.path.basename(exe)} exited with {proc.returncode}")
        try:
            result = json.loads(lines[-1])
        except ValueError as exc:
            raise StepFailed("run", "last output line is not a JSON result") from exc
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                           "metrics"}:
            raise StepFailed("run", "result line has unexpected keys")
        if proc.returncode == 1 or not result["correct"]:
            log("step 'check' failed: the workload's outputs are wrong (details above)")
            print(json.dumps(result), flush=True)
            return 1
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if input_dir is not None:
            shutil.rmtree(input_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        configure()
        if args.selftest:
            build(["perfbench_tests"])
            return subprocess.run([binary("perfbench_tests")]).returncode
        build(["perfbench", "perfbench_traced"])
        return run_workload(args)
    except StepFailed as exc:
        log(str(exc))
        return {"configure": 3, "build": 4, "input generation": 5}.get(exc.step, 6)


if __name__ == "__main__":
    sys.exit(main())
