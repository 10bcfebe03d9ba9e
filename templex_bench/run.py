#!/usr/bin/env python3
"""Build and run templex_bench.

    python3 templex_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 templex_bench/run.py --seed N                 # every workload
    python3 templex_bench/run.py --repeat K [--passes P] [--workload NAME]
    python3 templex_bench/run.py --smoke

Builds the templex_bench binary (CMake, Release) into $CARGO_TARGET_DIR, default
.bench_build, at the repository root, then runs each workload in a fresh
process. A single-workload run forwards the binary's output: its last line
is the JSON result. --repeat runs each workload K times with seeds
N..N+K-1 and prints each end-to-end metric's median, quartiles and spread
(IQR / median), flagging spreads above a third of the metric's bound in
BENCHMARK.json. With --passes P it does that P times, every pass with new
seeds, then prints how much worse each later pass's median is than the
first's, flagging drifts above the bound. --smoke runs every workload at
tiny scale, checks that each metric named in BENCHMARK.json is printed
with its unit and that nothing failed, and checks that the digest
self-test reports failures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_lookup", "batch_report", "analyst_session"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.5
BUILD_SETTLE_S = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit(1)
    binary = os.path.join(out, "templex_bench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    command = ["cmake", "--build", out, "--target", "templex_bench", "-j", jobs]
    if subprocess.call(command, stdout=sys.stderr) != 0:
        sys.exit(1)
    if os.path.getmtime(binary) != before:
        # A shared virtual machine runs slow for a while after a burst of
        # compiling on every core; let it settle before measuring.
        time.sleep(BUILD_SETTLE_S)
    return binary


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    work = os.path.join(build_dir(), "work", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work, "--trace-dir", os.path.join(build_dir(), "traces")]
    command += list(extra)
    if trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as expired:
        log("templex_bench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        code, out = 1, expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, out


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(binary, workloads, seed, seconds, k, passes):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    flagged = 0
    medians = {}  # (workload, metric) -> median of each pass
    for p in range(passes):
        for workload in workloads:
            values = {}
            for i in range(k):
                run_seed = seed + p * k + i
                code, out = run_workload(binary, workload, run_seed, seconds, 0)
                result = last_json(out) if code == 0 else None
                if result is None:
                    log("%s seed %d: exit %d" % (workload, run_seed, code))
                    return 1
                if result["failed"] or not result["correct"]:
                    log("%s seed %d: %d of %d failed" % (workload, run_seed,
                        result["failed"], result["attempted"]))
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            for name, series in values.items():
                median = statistics.median(series)
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                flag = ""
                if spread > metrics[name]["bound"] / 3:
                    flag = "  FLAG spread > bound/3 (%.3g)" % (metrics[name]["bound"] / 3)
                    flagged += 1
                print("pass %d %s %s median %.6g q1 %.6g q3 %.6g spread %.4f%s  values %s" %
                      (p + 1, workload, name, median, q1, q3, spread, flag,
                       " ".join("%.4g" % v for v in series)), flush=True)
                medians.setdefault((workload, name), []).append(median)
    for (workload, name), series in medians.items() if passes > 1 else ():
        # Drift: how much worse a later pass's median is than the first's.
        sign = 1 if metrics[name]["better"] == "lower" else -1
        drift = max(sign * (m - series[0]) / series[0] for m in series[1:])
        flag = ""
        if drift > metrics[name]["bound"]:
            flag = "  FLAG drift > bound (%g)" % metrics[name]["bound"]
            flagged += 1
        print("drift %s %s medians %s drift %.4f%s" %
              (workload, name, " ".join("%.6g" % m for m in series), drift, flag))
    return 1 if flagged else 0


def smoke(binary):
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, out = run_workload(binary, workload, 1, SMOKE_SECONDS, trace, ["--tiny"])
            result = last_json(out) if code == 0 else None
            if result is None:
                problems.append("%s trace=%d: exit %d" % (workload, trace, code))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append("%s trace=%d: metrics %s, want %s" %
                                (workload, trace, sorted(got.items()),
                                 sorted(expected.items())))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s trace=%d: failed_frac %d/%d" % (
                    workload, trace, result["failed"], result["attempted"]))
            for name in expected:
                if not any(line.split()[1:2] == [name] for line in out.splitlines()
                           if line.startswith(workload + " ")):
                    problems.append("%s: no '%s' line" % (workload, name))
        code, out = run_workload(binary, workload, 1, SMOKE_SECONDS, 0,
                               ["--tiny", "--verify-selftest"])
        result = last_json(out) if code == 0 else None
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append("%s: self-test did not report failures" % workload)
    for problem in problems:
        log("smoke: " + problem)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this templex_bench binary instead of building one")
    args = parser.parse_args()

    binary = args.binary or build()
    if args.smoke:
        return smoke(binary)
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat:
        return repeat(binary, workloads, args.seed, seconds, args.repeat,
                      args.passes)
    if args.workload:
        code, out = run_workload(binary, args.workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        return code
    worst = 0
    for workload in workloads:
        code, out = run_workload(binary, workload, args.seed, seconds, args.trace)
        sys.stdout.write(out)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
