"""Self-test of the benchmark harness at reduced sizes.

Run from the root of a checkout (about half a minute):

    python3 perfbench/selftest.py

It checks that BENCHMARK.json, layers.json and tracing.py name the same
metrics and spans; that the tracer reaches every binding of a wrapped
function and restores them; that every workload's checks accept its own
answers and reject another job's; that every end-to-end metric is emitted
with its unit; that the traced run emits every per-layer metric, nonzero for
each layer the workload calls and zero for the others; that the output
digest follows the seed; and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def check_tables(spec, layers):
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(per_layer == set(tracing.METRICS) | {"trace.overhead_ratio"},
           "BENCHMARK.json per_layer differs from tracing.METRICS")
    in_layers = [m for layer in layers.values() for m in layer["metrics"]]
    expect(sorted(in_layers) == sorted(per_layer),
           "layers.json metrics differ from BENCHMARK.json per_layer")
    spans = [s for layer in layers.values() for s in layer["spans"]]
    expect(sorted(spans) == sorted(tracing.SPANS),
           "layers.json spans differ from tracing.SPANS")
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for layer, entry in layers.items():
        expect(set(entry["runs_on"]) <= names and set(entry["dominant_on"]) <= names,
               f"layer {layer} names an unknown workload")


def check_install():
    import zncomplex  # noqa: F401
    modules = [m for k, m in sys.modules.items() if k.startswith("zncomplex")]
    originals = {}
    for targets in tracing.SPANS.values():
        for target in targets:
            module, attr = target.rsplit(".", 1)
            originals[id(getattr(sys.modules["zncomplex." + module], attr))] = target
    bindings = [(m, k) for m in modules for k, v in vars(m).items()
                if id(v) in originals]
    expect(len(bindings) > len(originals), "expected some functions bound twice")
    tracer = tracing.Tracer()
    tracer.install()
    left = [f"{m.__name__}.{k}" for m, k in bindings
            if id(getattr(m, k)) in originals]
    expect(not left, f"tracer missed bindings: {left}")
    tracer.uninstall()
    restored = all(id(getattr(m, k)) in originals for m, k in bindings)
    expect(restored, "tracer did not restore every binding")


def check_jobs():
    for name in workloads.WORKLOADS:
        jobs = workloads.prepare(name, 1, "small")
        results = [job.run() for job in jobs[:2]]
        for i, job in enumerate(jobs[:2]):
            expect(job.check(results[i]) is None,
                   f"{name}: {job.label} rejects its own answer")
            try:
                wrong = job.check(results[1 - i])
            except Exception as exc:  # a check may also fail by raising
                wrong = repr(exc)
            expect(wrong is not None,
                   f"{name}: {job.label} accepts the answer of another job")


def check_runs(spec, layers):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            proc = run_bench("--workload", name, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--scale", "small")
            expect(proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}")
            if proc.returncode:
                print(proc.stderr)
                continue
            result, lines = result_of(proc)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {trace}: wrong result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{name} trace {trace}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: metrics or units differ")
            expect(any(line.startswith(f"digest {name} ") for line in lines),
                   f"{name} trace {trace}: no digest")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                expect(all(v > 0 for v in values.values()),
                       f"{name}: an end-to-end metric is 0")
                continue
            for layer, entry in layers.items():
                active = any(values.get(m) for m in entry["metrics"])
                expect(active == (name in entry["runs_on"]),
                       f"{name}: layer {layer} is {'active' if active else 'idle'}, "
                       f"layers.json says otherwise")


def check_digest_follows_seed():
    digests = []
    for seed in (1, 1, 2):
        proc = run_bench("--workload", "sparsity", "--seed", str(seed),
                         "--seconds", "1", "--trace", "0", "--scale", "small")
        _, lines = result_of(proc)
        digests.append(next(l for l in lines if l.startswith("digest")).split()[-1])
    expect(digests[0] == digests[1], "same seed gave different sparsity answers")
    expect(digests[0] != digests[2], "another seed gave the same sparsity inputs")


def check_bare_directory():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "upper", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        expect(proc.returncode != 0, "ran without the program's sources")
        expect('"correct"' not in proc.stdout, "printed a result without sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    check_tables(spec, layers)
    check_install()
    check_jobs()
    check_runs(spec, layers)
    check_digest_follows_seed()
    check_bare_directory()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
