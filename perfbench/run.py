"""Benchmark of homlie on three workloads: `scan`, `basis` and `commuting`.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs every workload in turn.  A workload runs as a
series of passes.  Each pass is a fresh interpreter (perfbench/session.py)
that sets up and runs all of the workload's jobs once, so no cache of homlie
carries over from one pass to the next.  Passes repeat while the next one
is expected to end within --seconds, and there are never fewer than three,
or four with --trace 1.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json (medians
over passes of each pass's value).  With --trace 1
every second pass is traced; it reports the per-layer metrics as medians
over the traced passes, and the tracing overhead as the difference between
the median wall times of traced and untraced passes.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Exit status: 0 when every job agreed with the paper, 1 when one did not or a
pass failed, 2 on a usage error or a checkout without homlie's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT = 150  # seconds; a run must end within 180
BUDGET = 150  # seconds; no pass starts that would likely end later


def git_commit(root):
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_pass(workload, seed, index, trace):
    """One pass in a fresh interpreter; returns the session's measurements."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index)] + (["--trace"] if trace else [])
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} pass {index} ran over {PASS_TIMEOUT} s") from None
    if proc.returncode:
        raise RuntimeError(f"{workload} pass {index} exited with status {proc.returncode}")
    data = json.loads(out.splitlines()[-1])
    # both clocks are CLOCK_MONOTONIC, shared by every process of the machine
    data["setup_s"] = data["first_submit"] - start
    data["pass_s"] = time.monotonic() - start
    data["traced"] = trace
    return data


def measure(workload, seed, seconds, trace):
    """Passes until the next one would end after `seconds`, at least
    `min_passes` of them, and none that would end after BUDGET."""
    min_passes = 4 if trace else 3
    passes = []
    start = time.monotonic()
    while True:
        if passes:
            ahead = time.monotonic() - start + statistics.median(p["pass_s"] for p in passes)
            if ahead > BUDGET or (len(passes) >= min_passes and ahead > seconds):
                return passes
        passes.append(run_pass(workload, seed, len(passes), trace and len(passes) % 2 == 1))


def end_to_end(passes):
    """Medians over passes; the job percentiles are taken within each pass."""
    def median(f):
        return statistics.median(f(p) for p in passes)
    return {
        "setup_s": median(lambda p: p["setup_s"]),
        "wall_s": median(lambda p: p["wall_s"]),
        "job_p50_s": median(lambda p: statistics.median(p["job_s"])),
        "job_p90_s": median(
            lambda p: statistics.quantiles(p["job_s"], n=10, method="inclusive")[-1]),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
    }


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["pool.busy_frac"] = statistics.median(p["busy_frac"] for p in plain)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def report(workload, seed, trace, passes, spec):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = per_layer(passes) if trace else end_to_end(passes)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"perfbench {workload}: seed {seed}, {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {passes[0]['workers']} workers, "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"commit {git_commit(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':38s} {failed / attempted:.6g} ({failed} of {attempted} jobs, "
          f"{passes[0]['attempted']} per pass)")
    if trace:
        print(f"  {'span':38s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}  (last traced pass)")
        table = [p for p in passes if p["traced"]][-1]["table"]
        for name, (calls, total, self_s) in table.items():
            print(f"  {name:38s} {calls:7d} {total:9.3f} {self_s:9.3f}")
    for problem in [q for p in passes for q in p["problems"]][:10]:
        print(f"perfbench {workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return failed == 0


def main(argv=None):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homlie" / "__init__.py").is_file():
        print(f"perfbench: no homlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in [args.workload] if args.workload else workloads:
        try:
            passes = measure(workload, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        ok = report(workload, args.seed, args.trace, passes, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
