"""Repeat the benchmark over seeds and write a BENCH_*.json results file.

Run from the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_x.json

For each workload it makes one untraced run per seed and reports, per
end-to-end metric, the ten values, their median and quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound.  It then makes one traced run per workload (seed: the first
one) and records the per-layer metrics, every span's calls, self and
inclusive seconds, and each layer's self time and its share of all the
time spent inside spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def _run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _spans(lines):
    """The span table of the last traced repetition, as run.py prints it."""
    line = next((l for l in lines if l.startswith("spans: ")), None)
    return json.loads(line[len("spans: "):]) if line else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="results file to write")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    results = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = {"runs": [], "end_to_end": {}}
        for seed in seeds:
            result, lines = _run(spec, name, seed, 0)
            digest = next((l.split()[-1] for l in lines if l.startswith("digest")), None)
            entry["runs"].append({"seed": seed, "correct": result["correct"],
                                  "attempted": result["attempted"],
                                  "failed": result["failed"], "digest": digest,
                                  "metrics": {k: v["value"]
                                              for k, v in result["metrics"].items()}})
            ok = ok and result["correct"]
            print(f"{time.strftime('%H:%M:%S')} {name} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in result["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in entry["runs"]]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            spread = (q3 - q1) / median
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"],
                "spread_within_third_of_bound": spread < metric["bound"] / 3}
            print(f"  {metric['name']}: median {median:.4g} {metric['unit']}, "
                  f"spread {spread:.3f} (bound {metric['bound']})", flush=True)
        result, lines = _run(spec, name, seeds[0], 1)
        ok = ok and result["correct"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        spans = _spans(lines)
        total = sum(row["self_s"] for row in spans.values())
        shares = {}
        for layer, info in layers.items():
            self_s = sum(spans.get(s, {}).get("self_s", 0.0) for s in info["spans"])
            shares[layer] = {"self_s": self_s, "share": self_s / total if total else 0.0}
        entry["traced"] = {"seed": seeds[0], "per_layer": metrics,
                           "traced_span_s": total, "layers": shares,
                           "spans": spans}
        print(f"  traced: overhead {metrics['trace.overhead_ratio']:.3f}", flush=True)
        results["workloads"][name] = entry
    results["all_correct"] = ok
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
