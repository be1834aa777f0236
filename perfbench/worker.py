"""A worker process: reads one encoded job per line on stdin, runs it and
writes one JSON result per line on stdout, until stdin closes.

    python3 perfbench/worker.py [--trace]

The generating process sends the next job only after it has read the
previous result (a closed loop).
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tracing
import workloads


def execute(job_id, job, tracer):
    """Run one job; exceptions count as failures, never escape."""
    if tracer is not None:
        tracer.job = job_id
    start = time.monotonic()
    try:
        problems = workloads.run(job)
    except Exception as exc:  # a job that raises is a failed job
        problems = [f"raised {type(exc).__name__}: {exc}"]
    end = time.monotonic()
    return {
        "id": job_id,
        "start": start,
        "end": end,
        "problems": problems,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.take() if tracer is not None else [],
    }


def main():
    tracer = None
    if "--trace" in sys.argv[1:]:
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    for line in sys.stdin:
        job_id, encoded = line.split(" ", 1)
        result = execute(int(job_id), workloads.decode(encoded), tracer)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
