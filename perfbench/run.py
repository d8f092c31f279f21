#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the FEAM libraries and the benchmark program from
source into .bench_build/ (CMake, RelWithDebInfo; later calls rebuild only
what changed), runs one workload, and prints two JSON lines on stdout: an
environment stamp with the run's details, then the result
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer set.
Build output and diagnostics go to stderr; any failure exits non-zero
without printing a result.

--self-test runs every workload at a tiny shape in both trace modes and
checks that the outputs pass, that the printed metric names and units
match BENCHMARK.json, that metrics.json explains every per-layer metric,
and that the traced replica reproduces the untraced record stream (the
program fails the run otherwise).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BINARY = os.path.join(BUILD, "feam_perfbench")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "feam_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, trace, shape="full"):
    cmd = [BENCH_BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--shape", shape, "--pins", os.path.join(HERE, "pins.json")]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{workload}-{seed}-{shape}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"feam_perfbench exited {proc.returncode} for {workload}")
    return json.loads(lines[-1])


def check_metrics(result, spec):
    """The printed metrics must be exactly `spec`'s names, with its units."""
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"metric mismatch: missing {missing}, extra {extra}, "
                         f"unit differs {units}")


def source_digest():
    """sha256 over src/ and perfbench/, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def mem_total_kb():
    with open("/proc/meminfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return None


def stamp(info):
    return {
        "nproc": os.cpu_count(),
        "mem_total_kb": mem_total_kb(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def bench(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    result = run_bench(args.workload, args.seed, args.seconds, args.trace)
    check_metrics(result, spec["per_layer" if args.trace else "end_to_end"])
    info = result.pop("info")
    print(json.dumps({"stamp": stamp(info), "info": info}))
    print(json.dumps(result))


def self_test():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    explained = load_json(os.path.join(HERE, "metrics.json"))["per_layer"]
    undocumented = sorted({m["name"] for m in spec["per_layer"]} -
                          set(explained))
    if undocumented:
        raise BenchError(f"metrics.json lacks {undocumented}")
    build()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_bench(workload, 7, 1, trace, shape="tiny")
            check_metrics(result,
                          spec["per_layer" if trace else "end_to_end"])
            if not result["correct"] or result["failed"]:
                raise BenchError(f"{workload} trace {trace} failed its check: "
                                 f"{result['info']['problems']}")
            print(f"self-test {workload} trace {trace}: ok "
                  f"({result['attempted']} pairs checked)", file=sys.stderr)
    print("self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            self_test()
        elif None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        else:
            bench(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
