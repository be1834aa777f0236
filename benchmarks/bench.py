"""Time the exact solves of the four nonzero stable spaces.

For each space (w22q and wittq biderivations at degree 0, wittsuperq even
super-biderivations at degree 0 and odd ones at degree -1) it times
`build_system` and `nullspace` on the window, then `stable_solve` with its
enlarged window (delta 2), at the `reproduce-paper` window [-6,6].
Everything runs serially in one process.  Each stage is timed three times
and the median is kept.  The result, with the unknown and row counts, the
dimensions and `stable_basis_sha256`, goes to BENCH_<label>.json next to
this file:

    PYTHONPATH=src python benchmarks/bench.py --label NAME

Point PYTHONPATH at another checkout's `src` to time that code instead.
`stable_basis_sha256` is the sha256 of the stable basis in basis order, each
vector written as its [str(slot), str(value)] pairs in slot order, so two
checkouts that return the same basis give the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from homlie.algebra import Window, builtin
from homlie.solver import build_ansatz, build_system, nullspace, stable_solve

WINDOW = Window(-6, 6)
DELTA = 2
REPEAT = 3
SPACES = (
    ("w22q", "biderivation", 0, 0),
    ("wittq", "biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 1, -1),
)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def basis_digest(space):
    """sha256 of the space's basis, each vector as [str(slot), str(value)]
    pairs in slot order."""
    vecs = [
        [[str(slot), str(vec[slot])] for slot in space.ansatz.slots if slot in vec]
        for vec in space.basis
    ]
    return hashlib.sha256(json.dumps(vecs).encode()).hexdigest()


def bench_space(alg, cls, parity, s):
    p = builtin(alg)
    seconds = {"build_system_s": [], "nullspace_s": [], "stable_solve_s": []}
    for _ in range(REPEAT):
        ansatz = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=WINDOW)
        sys_, t_build = _timed(lambda: build_system(p, ansatz))
        space, t_null = _timed(lambda: nullspace(sys_))
        stable, t_stable = _timed(lambda: stable_solve(
            p, "bilinear", cls, s=s, parity=parity, window=WINDOW, delta=DELTA
        ))
        seconds["build_system_s"].append(t_build)
        seconds["nullspace_s"].append(t_null)
        seconds["stable_solve_s"].append(t_stable)
    return {
        "algebra": alg,
        "class": cls,
        "parity": parity,
        "s": s,
        "unknowns": len(ansatz),
        "unique_rows": len(sys_.rows),
        "window_dim": space.dim,
        "stable_dim": stable.dim,
        "raw_enlarged_dim": stable.raw_enlarged_dim,
        "stable_basis_sha256": basis_digest(stable),
        **{k: round(statistics.median(v), 3) for k, v in seconds.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    rows = []
    for alg, cls, parity, s in SPACES:
        row = bench_space(alg, cls, parity, s)
        print(json.dumps(row), flush=True)
        rows.append(row)
    report = {
        "label": args.label,
        "window": [WINDOW.lo, WINDOW.hi],
        "delta": DELTA,
        "repeat": REPEAT,
        "workers": 1,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "spaces": rows,
        "total_stable_solve_s": round(sum(r["stable_solve_s"] for r in rows), 3),
    }
    out = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
