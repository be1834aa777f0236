"""The benchmark's workloads: their jobs, the paper's expected answers, and
the code that runs one job against homlie's public API.

A job is a small named tuple that carries its own expected answer, so a
worker can judge it without looking anything up.  `run` returns the list of
disagreements with the paper; an empty list means the job is correct.  The
answers are written out here rather than imported from `homlie.suite`, so a
change to the suite cannot move the benchmark's idea of a right answer.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from homlie import algebra, checker, classify, solver
from homlie.maps import BilinearMap, LinearMap

DELTA = 2  # the CLI's default window enlargement for the stability filter
DEGREES = tuple(range(-4, 5))  # the CLI's default degree scan

# Windows are smaller than the CLI default [-6, 6] so that one pass of each
# workload takes seconds; every one of them still gives the paper's answers.
SCAN_WINDOW = (-1, 1)
BASIS_WINDOW = (-2, 2)
COMMUTING_WINDOW = (-3, 3)


class SpaceJob(NamedTuple):
    """One stable solve, the checker round trip of its basis, and the
    decomposition against the named maps that should span it."""

    algebra: str
    kind: str
    cls: str
    parity: int
    k: int
    s: int
    window: tuple
    dim: int  # expected stable dimension
    knowns: tuple  # named maps expected to span the space; () if none


class CommutingJob(NamedTuple):
    """One commuting-map family scanned over DEGREES, its comparison with the
    hand-built family, the induced-map round trip and the corollary checks."""

    algebra: str
    parity: int
    window: tuple
    dim: int  # expected family dimension
    automorphisms: tuple  # expected classifications; () when not checked
    derivations: tuple


# The twelve class/parity combinations of the paper's stable scan:
# (algebra, kind, class, parity); the twisted derivations use k = 1.
SCAN_CLASSES = (
    ("w22q", "bilinear", "biderivation", 0),
    ("wittq", "bilinear", "biderivation", 0),
    ("wittsuperq", "bilinear", "super_biderivation", 0),
    ("wittsuperq", "bilinear", "super_biderivation", 1),
    ("w22q", "bilinear", "alpha_biderivation", 0),
    ("wittq", "bilinear", "alpha_biderivation", 0),
    ("wittsuperq", "bilinear", "alpha_super_biderivation", 0),
    ("wittsuperq", "bilinear", "alpha_super_biderivation", 1),
    ("w22q", "linear", "alpha_k_derivation", 0),
    ("wittq", "linear", "alpha_k_derivation", 0),
    ("wittsuperq", "linear", "alpha_k_derivation", 0),
    ("wittsuperq", "linear", "alpha_k_derivation", 1),
)

# The paper's nonzero stable spaces, (algebra, class, parity, s) -> (dim,
# named maps spanning it).  Every other stable space of the scan is 0.
NONZERO_SPACES = {
    ("w22q", "biderivation", 0, 0): (2, ("phi_ad", "phi_0")),
    ("wittq", "biderivation", 0, 0): (1, ("phi_ad",)),
    ("wittsuperq", "super_biderivation", 0, 0): (1, ("phi_ad",)),
    ("wittsuperq", "super_biderivation", 1, -1): (1, ("phi_minus1",)),
}

# The paper's commuting maps, (algebra, parity) -> (family dim, commuting
# automorphisms, commuting derivations); odd families have no automorphism
# check.
COMMUTING_FAMILIES = {
    ("w22q", 0): (2, ("identity",), ("zero",)),
    ("wittq", 0): (1, ("identity",), ("zero",)),
    ("wittsuperq", 0): (1, ("identity",), ("zero",)),
    ("wittsuperq", 1): (1, (), ("zero",)),
}


def _space_job(alg, kind, cls, parity, s, window):
    dim, knowns = NONZERO_SPACES.get((alg, cls, parity, s), (0, ()))
    return SpaceJob(alg, kind, cls, parity, 1, s, window, dim, knowns)


def scan_jobs():
    return [
        _space_job(alg, kind, cls, parity, s, SCAN_WINDOW)
        for alg, kind, cls, parity in SCAN_CLASSES
        for s in DEGREES
    ]


def basis_jobs():
    return [
        _space_job(alg, "bilinear", cls, parity, s, BASIS_WINDOW)
        for alg, cls, parity, s in NONZERO_SPACES
    ]


def commuting_jobs():
    return [
        CommutingJob(alg, parity, COMMUTING_WINDOW, *want)
        for (alg, parity), want in COMMUTING_FAMILIES.items()
    ]


# name -> (jobs, worker processes); 0 workers runs the jobs in the
# generating process, one after another, as a CLI user would.
WORKLOADS = {
    "scan": (scan_jobs, 2),
    "basis": (basis_jobs, 0),
    "commuting": (commuting_jobs, 0),
}


def run(job):
    """Run one job; returns its disagreements with the paper."""
    if isinstance(job, SpaceJob):
        return _run_space(job)
    return _run_commuting(job)


def _run_space(job):
    p = algebra.builtin(job.algebra)
    window = algebra.Window(*job.window)
    space = solver.stable_solve(
        p, job.kind, job.cls, s=job.s, parity=job.parity, window=window,
        delta=DELTA, k=job.k,
    )
    problems = []
    if space.dim != job.dim:
        problems.append(f"stable dim {space.dim}, paper {job.dim}")
    for i, concrete in enumerate(space.maps()):
        if job.kind == "bilinear":
            rep = checker.check_bilinear_class(p, concrete, job.cls, window)
        else:
            rep = checker.check_linear_class(p, concrete, job.cls, window, k=job.k)
        if not rep.passed:
            problems.append(f"basis map {i} fails its class check: {rep}")
    if job.knowns and space.dim:
        named = {name: classify.known_map(name, p) for name in job.knowns}
        residual = classify.decompose(space, named).residual_dim
        if residual:
            problems.append(f"residual {residual} against {', '.join(job.knowns)}")
    return problems


def _expected_commuting(p, parity, window):
    """The paper's commuting maps on the window, {degree: {name: map}}."""
    gens = p.gens_in(window)
    identity = LinearMap.from_table(0, {g: algebra.Vector.of(g) for g in gens}, degree=0)
    if parity == 0 and p.name == "w22q":
        to_w = {
            g: algebra.Vector.of(p.generator("W", g.degree)) if g.family == "L"
            else algebra.Vector({})
            for g in gens
        }
        return {0: {"identity": identity, "L->W": LinearMap.from_table(0, to_w, degree=0)}}
    if parity == 0:
        return {0: {"identity": identity}}
    to_g = {
        g: algebra.Vector.of(p.generator("G", g.degree - 1)) if g.family == "L"
        else algebra.Vector({})
        for g in gens
    }
    return {-1: {"L->G": LinearMap.from_table(1, to_g, degree=-1)}}


def _induced(p, f, s):
    """The bilinear map a commuting map induces: [f(x), y] on a super
    presentation, [x, f(y)] otherwise."""
    if p.is_super:
        def rule(g1, g2):
            img = f(g1)
            return None if img is None else p.bracket(img, algebra.Vector.of(g2))
        return BilinearMap.from_rule(f.parity, rule, degree=s), "super_biderivation"

    def rule(g1, g2):
        img = f(g2)
        return None if img is None else p.bracket(algebra.Vector.of(g1), img)
    return BilinearMap.from_rule(f.parity, rule, degree=s), "biderivation"


def _run_commuting(job):
    p = algebra.builtin(job.algebra)
    window = algebra.Window(*job.window)
    fam = classify.solve_commuting_maps(
        p, job.parity, window, delta=DELTA, degree_range=(DEGREES[0], DEGREES[-1])
    )
    problems = []
    if fam.dim != job.dim:
        problems.append(f"family dim {fam.dim}, paper {job.dim}")
    for s, maps in _expected_commuting(p, job.parity, window).items():
        space = fam.spaces[s]
        residual = classify.decompose(space, maps).residual_dim
        if space.dim != len(maps) or residual:
            problems.append(
                f"degree {s}: dim {space.dim}, residual {residual} against "
                f"{', '.join(maps)}"
            )
    for i, (s, _, f) in enumerate(fam.instances):
        phi, cls = _induced(p, f, s)
        rep = checker.check_bilinear_class(p, phi, cls, window)
        if not rep.passed:
            problems.append(f"instance {i}: induced map fails {cls}: {rep}")
    props = [("automorphism", job.automorphisms)] if job.automorphisms else []
    props.append(("super_derivation" if p.is_super else "derivation", job.derivations))
    for prop, want in props:
        got = classify.corollary_check(p, fam, prop, window).classifications
        if got != list(want):
            problems.append(f"commuting {prop}s {got}, paper {list(want)}")
    return problems


def encode(job):
    return json.dumps([type(job).__name__, list(job)])


def decode(line):
    kind, fields = json.loads(line)
    cls = {"SpaceJob": SpaceJob, "CommutingJob": CommutingJob}[kind]
    return cls(*(tuple(v) if isinstance(v, list) else v for v in fields))
