"""One repetition of a workload in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SCALE MODE SPAWNED
MODE is "setup" (set up, then stop), "plain" or "traced".  SPAWNED is the
parent's time.monotonic() just before it started this process, so set-up
time covers interpreter start, `import zncomplex` and input generation.
Prints one JSON line.
"""

import hashlib
import json
import resource
import sys
import time


def main(argv) -> int:
    workload, seed, scale, mode, spawned = argv
    import zncomplex  # noqa: F401  (part of the measured set-up)
    import tracing
    import workloads

    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    jobs = workloads.prepare(workload, int(seed), scale)
    out = {"setup_s": time.monotonic() - float(spawned), "jobs": len(jobs)}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    results = []
    start = time.perf_counter()
    for job in jobs:
        try:
            results.append((True, job.run()))
        except Exception as exc:  # a raising job counts as failed, not fatal
            results.append((False, f"{type(exc).__name__}: {exc}"))
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = tracer.metrics()
        out["spans"] = tracer.spans()

    digest = hashlib.sha256()
    failures = []
    for job, (ran, result) in zip(jobs, results):
        problem = result
        if ran:
            try:
                problem = job.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{job.label}: {problem}")
        digest.update(f"{job.label}\n{job.text(result) if ran else problem}\n".encode())
    out["failures"] = failures
    out["digest"] = digest.hexdigest()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
