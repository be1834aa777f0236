"""One pass of a workload in a fresh interpreter.

    python3 perfbench/session.py --workload scan --seed 0 --pass-index 0 [--trace]

Imports homlie, builds every built-in algebra, starts the workload's worker
processes, runs each of its jobs once in an order drawn from the seed and
prints one JSON object with the pass's measurements.  `first_submit` is read
from CLOCK_MONOTONIC, which all processes of the machine share, so the
caller can time set-up from before it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads
from homlie import algebra

WORKER = Path(__file__).with_name("worker.py")


def start_workers(n, trace):
    cmd = [sys.executable, str(WORKER)] + (["--trace"] if trace else [])
    procs = []
    for _ in range(n):
        procs.append(subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        ))
    for proc in procs:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("a worker failed to start")
    return procs


def stop_workers(procs):
    for proc in procs:
        proc.stdin.close()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def closed_loop(procs, order):
    """Give each worker its next job only once it has returned the last one.

    Returns (first submission time, last result time, results)."""
    pending = list(reversed(order))
    busy = {}

    def submit(proc):
        job_id, job = pending.pop()
        proc.stdin.write(f"{job_id} {workloads.encode(job)}\n")
        proc.stdin.flush()
        busy[proc.stdout] = proc

    first = time.monotonic()
    for proc in procs[:len(pending)]:
        submit(proc)
    results = []
    while busy:
        readable, _, _ = select.select(list(busy), [], [])
        for out in readable:
            proc = busy.pop(out)
            line = out.readline()
            if not line:
                raise RuntimeError(f"worker {proc.pid} exited mid-job")
            results.append(json.loads(line))
            if pending:
                submit(proc)
    return first, time.monotonic(), results


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    for name in algebra.BUILTIN_NAMES:
        algebra.builtin(name)
    setup_spans = tracer.take() if tracer else []

    make_jobs, nworkers = workloads.WORKLOADS[args.workload]
    order = list(enumerate(make_jobs()))
    random.Random(f"{args.seed}/{args.pass_index}").shuffle(order)
    if nworkers:
        procs = start_workers(nworkers, args.trace)
        try:
            first, last, results = closed_loop(procs, order)
        finally:
            stop_workers(procs)
    else:
        first = time.monotonic()
        results = [worker.execute(job_id, job, tracer) for job_id, job in order]
        last = time.monotonic()

    jobs = dict(order)
    job_s = [r["end"] - r["start"] for r in results]
    wall = last - first
    rss_kb = max([r["rss_kb"] for r in results]
                 + [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])
    out = {
        "first_submit": first,
        "workers": nworkers,
        "wall_s": wall,
        "job_s": job_s,
        "busy_frac": sum(job_s) / (max(nworkers, 1) * wall),
        "peak_rss_mb": rss_kb / 1024,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["problems"]),
        "problems": [f"{jobs[r['id']]}: {p}" for r in results for p in r["problems"]],
    }
    if tracer is not None:
        out["layers"], out["table"] = tracing.summarize(
            [setup_spans] + [r["spans"] for r in results]
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
