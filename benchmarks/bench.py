"""Time the four nonzero stable spaces and the scan's 104 vanishing windows.

The spaces and windows are the stable solves `reproduce-paper` scans, read
from `AcceptanceSuite._scan_specs`: the nonzero spaces are the solves that
carry named maps (w22q and wittq biderivations at degree 0, wittsuperq
even super-biderivations at degree 0 and odd ones at degree -1), and the
vanishing windows are the others.  For each space it times `build_system`
and `nullspace` on the window, then `stable_solve` with its enlarged window
(delta 2), at the `reproduce-paper` window [-6,6], and counts the rows
`build_system` writes for the window.  A second section times
`stable_solve` on the vanishing windows at the same window, and counts the
spaces the mod-p certificate proved 0.  A third section times the checker at the same
window: `check_bilinear_class` of each named map of `classify.PAPER_MAPS`
against its class, `check_linear_class` of each `classify.COMMUTING_MAPS`
member as a commuting map on each built-in that has its families,
`check_axioms` and `check_multiplicative` on each built-in, and the named
maps of `FAILING_MAPS` against a class they fail.  Each check row carries
the verdict its report must give, and the run stops when a report gives
another.  Everything runs serially in one process.  Each stage of the first section, the second
section as a whole and each check of the third section are timed five
times, and the median and quartiles are kept.  The result, with the
unknown, row, instance and witness counts, the dimensions and
`stable_basis_sha256`, goes to BENCH_<label>.json next to this file:

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

from homlie.algebra import BUILTIN_NAMES, UnknownGenerator, Window, builtin
from homlie.checker import (
    check_axioms,
    check_bilinear_class,
    check_linear_class,
    check_multiplicative,
)
from homlie.classify import COMMUTING_MAPS, PAPER_MAPS, commuting_map, known_map
from homlie.solver import build_ansatz, build_system, nullspace, stable_solve
from homlie.suite import AcceptanceSuite, SuiteConfig

WINDOW = Window(-6, 6)
DELTA = 2
REPEAT = 5
# the paper's scan as `reproduce-paper` runs it, one `ScanTask` per stable solve
_SPECS = AcceptanceSuite(SuiteConfig(window=WINDOW, delta=DELTA))._scan_specs()
# the nonzero spaces, the solves with named maps, as (algebra, class, parity, s)
SPACES = tuple((t.alg, t.cls, t.parity, t.s) for t in _SPECS if t.knowns)
# the vanishing windows, as (algebra, kind, class, parity, s, k)
SCAN = tuple((*t.key, t.k) for t in _SPECS if not t.knowns)
# the built-ins whose twist is not multiplicative, criterion 01's expected
# failure (example49's twist is multiplicative on the window)
NOT_MULTIPLICATIVE = ("w22q", "wittq", "wittsuperq")
# named maps outside a class, as (algebra, map, class)
FAILING_MAPS = (
    ("w22q", "phi_0", "alpha_biderivation"),
    ("wittsuperq", "phi_minus1", "alpha_super_biderivation"),
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


def _spread(seconds):
    # one run has no spread: its quartiles are its time
    q1, median, q3 = (
        statistics.quantiles(seconds, n=4, method="inclusive") if len(seconds) > 1 else seconds * 3
    )
    return {"median_s": round(median, 3), "q1_s": round(q1, 3), "q3_s": round(q3, 3)}


def bench_space(alg, cls, parity, s):
    p = builtin(alg)
    seconds = {"build_system": [], "nullspace": [], "stable_solve": []}
    for _ in range(REPEAT):
        ansatz = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=WINDOW)
        sys_, t_build = _timed(lambda: build_system(p, ansatz))
        space, t_null = _timed(lambda: nullspace(sys_))
        stable, t_stable = _timed(lambda: stable_solve(
            p, "bilinear", cls, s=s, parity=parity, window=WINDOW, delta=DELTA
        ))
        seconds["build_system"].append(t_build)
        seconds["nullspace"].append(t_null)
        seconds["stable_solve"].append(t_stable)
    return {
        "algebra": alg,
        "class": cls,
        "parity": parity,
        "s": s,
        "unknowns": len(ansatz),
        "raw_rows": len(sys_.rows),
        "window_dim": space.dim,
        "stable_dim": stable.dim,
        "raw_enlarged_dim": stable.raw_enlarged_dim,
        "stable_basis_sha256": basis_digest(stable),
        **{stage: _spread(v) for stage, v in seconds.items()},
    }


def bench_vanishing():
    """Total `stable_solve` seconds over the scan's vanishing windows, the
    median and quartiles of REPEAT runs, and how many of them the mod-p
    certificate proved 0."""
    totals = []
    for _ in range(REPEAT):
        certified = 0
        t0 = time.perf_counter()
        for alg, kind, cls, parity, s, k in SCAN:
            space = stable_solve(
                builtin(alg), kind, cls, s=s, parity=parity, window=WINDOW, delta=DELTA, k=k
            )
            if space.dim:
                raise AssertionError(f"{alg} {cls} parity {parity} s={s}: dim {space.dim}")
            certified += space.witness is not None
        totals.append(time.perf_counter() - t0)
    return {
        "windows": len(SCAN),
        "certified": certified,
        "stable_solve": _spread(totals),
    }


def bench_checker():
    """The checker's seconds per check: each named map of PAPER_MAPS against
    its class, each commuting map of COMMUTING_MAPS on each built-in with
    its families, the axioms and multiplicativity of each built-in, then
    the named maps of FAILING_MAPS, REPEAT times each."""
    checks = []
    for (alg, parity), names in PAPER_MAPS.items():
        p = builtin(alg)
        cls = "super_biderivation" if p.is_super else "biderivation"
        for name in names:
            phi = known_map(name, p)
            checks.append((
                {"check": "check_bilinear_class", "algebra": alg, "map": name,
                 "class": cls, "passed": True},
                lambda p=p, phi=phi, cls=cls: check_bilinear_class(p, phi, cls, WINDOW),
            ))
    for alg in BUILTIN_NAMES:
        p = builtin(alg)
        for name in COMMUTING_MAPS:
            try:
                f = commuting_map(name, p)
            except UnknownGenerator:
                continue  # p lacks the map's source or target family
            checks.append((
                {"check": "check_linear_class", "algebra": alg, "map": name,
                 "class": "commuting_map", "passed": True},
                lambda p=p, f=f: check_linear_class(p, f, "commuting_map", WINDOW),
            ))
    for alg in BUILTIN_NAMES:
        checks.append((
            {"check": "check_axioms", "algebra": alg, "passed": True},
            lambda p=builtin(alg): check_axioms(p, WINDOW),
        ))
        checks.append((
            {"check": "check_multiplicative", "algebra": alg,
             "passed": alg not in NOT_MULTIPLICATIVE},
            lambda p=builtin(alg): check_multiplicative(p, WINDOW),
        ))
    for alg, name, cls in FAILING_MAPS:
        p = builtin(alg)
        checks.append((
            {"check": "check_bilinear_class", "algebra": alg, "map": name,
             "class": cls, "passed": False},
            lambda p=p, phi=known_map(name, p), cls=cls: check_bilinear_class(p, phi, cls, WINDOW),
        ))
    rows = []
    for row, run in checks:
        seconds = []
        for _ in range(REPEAT):
            report, t = _timed(run)
            seconds.append(t)
        if report.passed != row["passed"]:
            raise AssertionError(f"{row}: {report}")
        rows.append({**row, "instances": report.checked, "witnesses": len(report.witnesses),
                     **_spread(seconds)})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    rows = []
    for alg, cls, parity, s in SPACES:
        row = bench_space(alg, cls, parity, s)
        print(json.dumps(row), flush=True)
        rows.append(row)
    vanishing = bench_vanishing()
    print(json.dumps(vanishing), flush=True)
    checks = bench_checker()
    for row in checks:
        print(json.dumps(row), flush=True)
    report = {
        "label": args.label,
        "window": [WINDOW.lo, WINDOW.hi],
        "delta": DELTA,
        "repeat": REPEAT,
        "workers": 1,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "spaces": rows,
        "total_stable_solve_s": round(sum(r["stable_solve"]["median_s"] for r in rows), 3),
        "vanishing": vanishing,
        "checks": checks,
    }
    out = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
