"""Benchmark of zncomplex's two pipelines, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload upper --seed 1 --seconds 30 --trace 0

Each repetition runs the workload's jobs once, in order, in a fresh
single-threaded interpreter (worker.py), because a job repeated in one
process gets slower (see NOTES.md).  Repetitions run in rounds, one per CPU
up to two, and rounds continue while the next one is expected to end within
--seconds; there is always at least one.  With --trace 0 the run first starts
set-up-only interpreters, so that set-up time has several samples, and
reports the median of each end-to-end metric.  With --trace 1 each round runs
one untraced and one traced repetition side by side, and the run reports the
per-layer metrics of the traced ones plus trace.overhead_ratio.  Every
answer is checked exactly; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_ROUNDS = 2
CHILD_TIMEOUT_S = 150  # a whole run, hung workers included, ends within 3 minutes
# Repetitions run two at a time when two CPUs are available.  Identical
# repetitions on a shared 2-CPU host vary by up to 50% from outside load,
# independently on each CPU, so a second lane doubles the samples per run
# without slowing either lane.
LANES = min(2, len(os.sched_getaffinity(0)))


def _round(modes, workload, seed, scale, env, deadline):
    """Run one worker per mode, LANES at a time; returns (outputs, seconds)."""
    began = time.monotonic()
    outputs = []
    for first in range(0, len(modes), LANES):
        started = []
        for mode in modes[first:first + LANES]:
            spawned = time.monotonic()
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   workload, str(seed), scale, mode, repr(spawned)]
            started.append((mode, subprocess.Popen(
                cmd, env=env, stdout=subprocess.PIPE, text=True)))
        for mode, proc in started:
            try:
                stdout, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                stdout = ""
            lines = stdout.strip().splitlines()
            ok = proc.returncode == 0 and lines
            outputs.append((mode, json.loads(lines[-1]) if ok else None))
    return outputs, time.monotonic() - began


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="job sizes; 'small' is for the harness self-test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zncomplex", "__init__.py")):
        print(f"error: no zncomplex sources under {src}; run from the root "
              f"of a zncomplex checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Same work in every repetition: fixed string hashing, and sources
    # compiled afresh each time whether or not the caller's environment
    # caches bytecode.
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    deadline = start + args.seconds
    hard_stop = start + CHILD_TIMEOUT_S
    modes = ["plain", "traced"] if args.trace else ["plain"] * LANES
    reps = {mode: [] for mode in modes}
    setups = []
    attempted = failed = crashed = 0
    digests = set()

    def run_round(round_modes):
        nonlocal attempted, failed, crashed
        outputs, seconds = _round(round_modes, args.workload, args.seed,
                                  args.scale, env, hard_stop)
        for mode, out in outputs:
            if out is None:
                crashed += 1
                continue
            setups.append(out["setup_s"])
            if mode == "setup":
                continue
            reps[mode].append(out)
            attempted += out["jobs"]
            failed += len(out["failures"])
            for line in out["failures"]:
                print(f"FAIL {line}")
            digests.add(out["digest"])
        return seconds

    if not args.trace:
        for _ in range(SETUP_ROUNDS):
            run_round(["setup"] * LANES)
    last = 0.0
    while not crashed and time.monotonic() < hard_stop:
        if all(reps[m] for m in modes) and time.monotonic() + last > deadline:
            break
        last = run_round(modes)

    if crashed or not all(reps[m] for m in modes):
        print(f"error: {crashed} worker process(es) failed", file=sys.stderr)
        attempted = max(attempted, 1)
        failed = max(failed, 1)

    plain = reps["plain"]
    if args.trace:
        traced = reps["traced"]
        metrics = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            if name == "trace.overhead_ratio":
                value = (statistics.median([r["wall_s"] for r in traced])
                         / statistics.median([r["wall_s"] for r in plain]) - 1
                         if traced and plain else 0.0)
            else:
                value = (statistics.median_low([r["metrics"][name] for r in traced])
                         if traced else 0)
            metrics[name] = {"value": value, "unit": units[name]}
        if traced:
            print("spans: " + json.dumps(traced[-1]["spans"]))
    else:
        values = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {}
        for m in spec["end_to_end"]:
            samples = values[m["name"]]
            metrics[m["name"]] = {"value": statistics.median(samples) if samples else 0.0,
                                  "unit": m["unit"]}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, samples in values.items():
            print(f"{name} samples: {' '.join(f'{v:.4g}' for v in samples)}")
    print(f"repetitions: {', '.join(f'{len(v)} {k}' for k, v in reps.items())}; "
          f"set-up samples: {len(setups)}")
    for digest in sorted(digests):
        print(f"digest {args.workload} seed {args.seed}: {digest}")
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
