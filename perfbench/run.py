#!/usr/bin/env python3
"""LinBP/SBP benchmark: builds the repository in Release, runs one workload
in its own process(es), and prints one JSON result line.

    python3 perfbench/run.py --workload batch-rmat13 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) and scratch files to a directory under it that is removed
when the run ends. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    "batch-rmat13": "batch",
    "stream-sbm200k": "stream",
    "serve-sbm10k": "serve",
}
SETUP_REPEATS = 3
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds the workload driver; returns its path."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise RuntimeError("run from the root of a LinBP checkout "
                           "(no CMakeLists.txt / src here)")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_workloads",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(out, "perfbench_workloads")


def run_json(cmd, timeout):
    """Runs one workload process and returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed no result")
    return json.loads(lines[-1])


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists for
    this kind of run, in their units; an end-to-end value must be > 0."""
    with open("BENCHMARK.json") as manifest:
        listed = json.load(manifest)["per_layer" if trace else "end_to_end"]
    wanted = {metric["name"]: metric["unit"] for metric in listed}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != wanted:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(wanted) - set(got))}, extra "
            f"{sorted(set(got) - set(wanted))}, units "
            f"{sorted(n for n in got if n in wanted and got[n] != wanted[n])}")
    if not trace:
        for name, metric in result["metrics"].items():
            if not metric["value"] > 0:
                raise RuntimeError(f"{name} = {metric['value']}")


def run_workload(binary, workload, seed, seconds, trace, size, work,
                 perturb=False):
    result = run_processes(binary, workload, seed, seconds, trace, size, work,
                           perturb)
    check_metrics(result, trace)
    return result


def run_processes(binary, workload, seed, seconds, trace, size, work,
                  perturb):
    kind = WORKLOADS[workload]
    base = ["--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--size", size]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if kind != "stream":
        cmd = [binary, kind] + base + ["--dir", work]
        if perturb:
            cmd.append("--perturb")
        return run_json(cmd, RUN_TIMEOUT_S)

    # The stream workload's set-up is a process of its own that writes
    # the shard sets; it runs several times and the median counts.
    setup_wall, builds, writes = [], [], []
    for i in range(SETUP_REPEATS):
        shard_dir = os.path.join(work, f"shards{i}")
        start = time.perf_counter()
        phases = run_json([binary, "stream-setup"] + base +
                          ["--dir", shard_dir],
                          max(1.0, deadline - time.monotonic()))
        setup_wall.append(time.perf_counter() - start)
        builds.append(phases["scenario_build_s"])
        writes.append(phases["shard_write_s"])
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(shard_dir)
    result = run_json([binary, "stream"] + base + ["--dir", shard_dir],
                      max(1.0, deadline - time.monotonic()))
    result["attempted"] += SETUP_REPEATS
    metrics = result["metrics"]
    if trace:
        metrics["dataset.scenario_build_s"] = {
            "value": statistics.median(builds), "unit": "s"}
        metrics["dataset.shard_write_s"] = {
            "value": statistics.median(writes), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup_wall),
                              "unit": "s"}
    return result


def self_check(binary, work):
    """All three workloads at toy size, untraced and traced, plus the
    negative case: a perturbed belief matrix must fail the fixed-point
    check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(binary, workload, 1, 1, trace, "toy",
                                  os.path.join(work, f"{workload}-{trace}"))
            passed = result["correct"] and result["failed"] == 0
            log(f"self-check {workload} trace={int(trace)}: "
                f"{'ok' if passed else 'FAILED'} "
                f"({result['attempted']} operations, "
                f"{len(result['metrics'])} metrics)")
            ok = ok and passed
    result = run_workload(binary, "batch-rmat13", 1, 1, False, "toy",
                          os.path.join(work, "perturbed"), perturb=True)
    caught = not result["correct"]
    log("self-check perturbed beliefs fail the fixed-point check: "
        f"{'ok' if caught else 'FAILED'}")
    return ok and caught


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"perfbench: build failed: {error}")
        return 2
    work = os.path.join(build_dir(), "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        if args.self_check:
            return 0 if self_check(binary, work) else 1
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              bool(args.trace), "full", work)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
