"""Desk-scale verification suite.

Runs every classification and vanishing result on truncation windows and
reports one pass/fail line per criterion.  Window checks certify finitely
many instances plus stability under window growth; they are reported as
finite-range evidence, not as proofs over the full graded algebras.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .algebra import Vector, Window, builtin
from .checker import (
    check_axioms,
    check_bilinear_class,
    check_bilinear_skew,
    check_linear_class,
    check_multiplicative,
)
from .classify import (
    KNOWN_MAPS, PAPER_MAPS, commuting_map, corollary_check, decompose, induced, known_map,
    solve_commuting_maps,
)
from .maps import BilinearMap, LinearMap
from .qfield import QRational, qbracket, qbrace, qpow
from .solver import (
    build_ansatz,
    build_system,
    nullspace,
    nullspace_dim_specialized,
    stable_solve,
)
from . import rowrefs

Q1 = QRational(1)

# the twisted-output scans, (algebra, kind, class, parity), each over the
# degree range with twist power 1; criterion 06 asks every one to vanish
TWISTED_SCANS = (
    ("w22q", "bilinear", "alpha_biderivation", 0),
    ("wittq", "bilinear", "alpha_biderivation", 0),
    ("wittsuperq", "bilinear", "alpha_super_biderivation", 0),
    ("wittsuperq", "bilinear", "alpha_super_biderivation", 1),
    ("w22q", "linear", "alpha_k_derivation", 0),
    ("wittq", "linear", "alpha_k_derivation", 0),
    ("wittsuperq", "linear", "alpha_k_derivation", 0),
    ("wittsuperq", "linear", "alpha_k_derivation", 1),
)

# criterion 12 compares these bilinear classes, each at s in [-2, 2] on the
# window [-2, 2], with the specialized oracle
ORACLE_CLASSES = (
    ("w22q", "biderivation", 0),
    ("w22q", "alpha_biderivation", 0),
    ("wittq", "biderivation", 0),
    ("wittq", "alpha_biderivation", 0),
    ("wittsuperq", "super_biderivation", 0),
    ("wittsuperq", "super_biderivation", 1),
    ("wittsuperq", "alpha_super_biderivation", 0),
    ("wittsuperq", "alpha_super_biderivation", 1),
)


class BadThreadCount(ValueError):
    """A worker count that is not a positive integer."""


def parse_thread_count(value, name="threads"):
    """`value`, an int or its decimal text, as a worker count."""
    if not re.fullmatch(r"[1-9]\d*", str(value)):
        raise BadThreadCount(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass
class SuiteConfig:
    window: Window = Window(-6, 6)
    delta: int = 2
    degree_range: tuple = (-4, 4)
    threads: Optional[int] = None

    def resolved_threads(self):
        """The worker count: `threads`, else HOMLIE_THREADS, else up to 2."""
        if self.threads is not None:
            return parse_thread_count(self.threads)
        env = os.environ.get("HOMLIE_THREADS")
        if env:
            return parse_thread_count(env, "HOMLIE_THREADS")
        return min(2, os.cpu_count() or 1)


@dataclass
class CriterionResult:
    name: str
    status: str  # "pass" | "fail"
    details: List[str] = field(default_factory=list)

    @property
    def passed(self):
        return self.status == "pass"

    def line(self):
        return f"[{self.status.upper():4s}] {self.name}"


def _result(name, ok, details=None):
    return CriterionResult(name, "pass" if ok else "fail", details or [])


def _biderivation_class(p):
    return "super_biderivation" if p.is_super else "biderivation"


def _expected_commuting(p, parity):
    """The commuting maps inducing the paper's named maps of (p, parity), by
    degree shift: {s: {named map: commuting map}}."""
    out = {}
    for name in PAPER_MAPS[(p.name, parity)]:
        f = commuting_map(KNOWN_MAPS[name], p)
        out.setdefault(f.degree, {})[name] = f
    return out


# -- parallel scan machinery -------------------------------------------------


class ScanTask(NamedTuple):
    """One stable solve of the scan.  `knowns` are the named maps the space
    is decomposed against, or None."""

    alg: str
    kind: str
    cls: str
    parity: int
    s: int
    k: int
    window: Window
    delta: int
    knowns: Optional[tuple]

    @property
    def key(self):
        return (self.alg, self.kind, self.cls, self.parity, self.s)


def _scan_task(task):
    """Worker: one stable solve plus its bookkeeping; returns plain data."""
    p = builtin(task.alg)
    space = stable_solve(p, task.kind, task.cls, s=task.s, parity=task.parity,
                         window=task.window, delta=task.delta, k=task.k)
    out = {
        "id": task.key,
        "dim": space.dim,
        "roundtrip_total": 0,
        "roundtrip_passed": 0,
        "residual": None,
    }
    for concrete in space.maps():
        if task.kind == "bilinear":
            rep = check_bilinear_class(p, concrete, task.cls, task.window)
        else:
            rep = check_linear_class(p, concrete, task.cls, task.window, k=task.k)
        out["roundtrip_total"] += 1
        out["roundtrip_passed"] += int(rep.passed)
    if task.knowns and space.dim:
        maps = {name: known_map(name, p) for name in task.knowns}
        out["residual"] = decompose(space, maps).residual_dim
    return out


def _run_scan_tasks(tasks, threads):
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            results = list(pool.map(_scan_task, tasks))
    else:
        results = [_scan_task(t) for t in tasks]
    return {r["id"]: r for r in results}


class AcceptanceSuite:
    """All desk-scale criteria; results come back in a fixed order."""

    def __init__(self, config=None, log=None):
        self.cfg = config or SuiteConfig()
        self.threads = self.cfg.resolved_threads()
        self.log = log or (lambda line: None)
        self._scans = None

    # -- shared heavy scans ------------------------------------------------

    def _scan_specs(self):
        lo, hi = self.cfg.degree_range
        degrees = range(lo, hi + 1)
        w = self.cfg.window
        specs = []

        def add(alg, kind, cls, parity, knowns_at=None, k=1):
            for s in degrees:
                knowns = knowns_at.get(s) if knowns_at else None
                specs.append(ScanTask(alg, kind, cls, parity, s, k, w, self.cfg.delta, knowns))

        for alg, parity in PAPER_MAPS:
            p = builtin(alg)
            knowns_at = {s: tuple(maps) for s, maps in _expected_commuting(p, parity).items()}
            add(alg, "bilinear", _biderivation_class(p), parity, knowns_at)
        for spec in TWISTED_SCANS:
            add(*spec)
        return specs

    def scans(self):
        if self._scans is None:
            specs = self._scan_specs()
            # the tasks with named maps, the nonzero spaces and the longest
            # solves, first, so that none starts last on a worker
            tasks = sorted(specs, key=lambda t: not t.knowns)
            self.log(f"running {len(tasks)} stable scans (threads={self.threads})")
            results = _run_scan_tasks(tasks, self.threads)
            self._scans = {t.key: results[t.key] for t in specs}
        return self._scans

    def _scan(self, alg, kind, cls, parity, s):
        return self.scans()[(alg, kind, cls, parity, s)]

    # -- criteria ------------------------------------------------------------

    def criterion_01_axioms(self):
        details = []
        ok = True
        w = self.cfg.window
        for name in ("w22q", "wittq", "wittsuperq"):
            p = builtin(name)
            rep = check_axioms(p, w)
            details.append(f"{name}: axioms {rep}")
            ok = ok and rep.passed
            mul = check_multiplicative(p, w)
            details.append(f"{name}: multiplicative {mul}")
            ok = ok and (not mul.passed) and len(mul.witnesses) >= 1
        p49 = builtin("example49")
        rep = check_axioms(p49, w)
        details.append(f"example49: axioms {rep}")
        ok = ok and rep.passed
        return _result("01 axioms hold; twists are not multiplicative", ok, details)

    def criterion_02_qnumbers(self):
        ok = True
        for m in range(-8, 9):
            for n in range(-8, 9):
                ok = ok and qpow(n) * qbracket(m) - qpow(m) * qbracket(n) == qbracket(m - n)
                ok = ok and qpow(-n) * qbracket(m) + qpow(m) * qbracket(n) == qbracket(m + n)
                ok = ok and qbrace(n + m) == qbrace(n) + qpow(n) * qbrace(m)
            ok = ok and qbracket(-m) == -qbracket(m)
            ok = ok and qbrace(m + 1) == Q1 + qpow(1) * qbrace(m)
            ok = ok and qbrace(m + 1) == qbrace(m) + qpow(m)
            ok = ok and qpow(m) * qbrace(-m) == -qbrace(m)
        return _result("02 q-number identities on [-8,8]^2", ok,
                       ["all identity families checked exactly"])

    def _vanishing_scan(self, alg, kind, cls, parity, keep=()):
        lo, hi = self.cfg.degree_range
        details = []
        ok = True
        for s in range(lo, hi + 1):
            r = self._scan(alg, kind, cls, parity, s)
            if s in keep:
                continue
            if r["dim"] != 0:
                ok = False
                details.append(f"{alg} {cls} parity {parity} s={s}: dim {r['dim']} != 0")
        return ok, details

    def _named_span(self, alg, parity, label=""):
        """The paper's (super-)biderivations of (alg, parity): the named maps
        span the space at their degree, and every other degree vanishes."""
        p = builtin(alg)
        cls = _biderivation_class(p)
        ((s, maps),) = _expected_commuting(p, parity).items()
        span = ", ".join(maps) if len(maps) == 1 else "{%s}" % ", ".join(maps)
        r = self._scan(alg, "bilinear", cls, parity, s)
        ok = r["dim"] == len(maps) and r["residual"] == 0
        details = [
            f"{label}s={s}: stable dim {r['dim']} (want {len(maps)}), "
            f"residual vs {span} = {r['residual']}"
        ]
        good, det = self._vanishing_scan(alg, "bilinear", cls, parity, keep=(s,))
        details += det or [f"{label}s != {s}: all stable dims 0"]
        return ok and good, details

    def criterion_03_w22q(self):
        ok, details = self._named_span("w22q", 0)
        return _result("03 w22q biderivations = span{phi_ad, phi_0}", ok, details)

    def criterion_04_wittq(self):
        ok, details = self._named_span("wittq", 0)
        return _result("04 wittq biderivations are inner", ok, details)

    def criterion_05_wittsuperq(self):
        ok_even, even = self._named_span("wittsuperq", 0, "even ")
        ok_odd, odd = self._named_span("wittsuperq", 1, "odd ")
        return _result(
            "05 wittsuperq: even super-biderivations inner, odd = span{phi_minus1}",
            ok_even and ok_odd, even + odd,
        )

    def criterion_06_alpha_vanishing(self):
        details = []
        ok = True
        for alg, kind, cls, parity in TWISTED_SCANS:
            good, det = self._vanishing_scan(alg, kind, cls, parity)
            ok = ok and good
            details += det
        if ok:
            details.append("all twisted-output derivation/biderivation scans vanish")
        return _result("06 alpha-twisted derivation spaces vanish", ok, details)

    def criterion_07_example(self):
        p = builtin("example49")
        w = self.cfg.window
        details = []
        ok = check_axioms(p, w).passed
        details.append(f"axioms: {'pass' if ok else 'fail'}")
        lam = qpow(1)
        x1 = p.generator("x1")
        x2 = p.generator("x2")
        y = p.generator("y")

        def dmap(b, c):
            table = {
                x1: Vector.of(x1, QRational(2 * c) * lam),
                x2: Vector.of(x1, QRational(b)),
                y: Vector.of(y, QRational(c)),
            }
            return LinearMap.from_table(0, table)

        for (b, c) in ((1, 0), (0, 1)):
            rep = check_linear_class(p, dmap(b, c), "alpha_k_derivation", w, k=1)
            details.append(f"twisted derivation (b,c)=({b},{c}): {rep}")
            ok = ok and rep.passed

        def phimap(a, k):
            d = (Q1 / lam ** 2) * (QRational(Fraction(1, 2)) - lam) * QRational(k)
            table = {
                (x1, x2): Vector.of(x1, QRational(-2) * d * lam),
                (x2, x1): Vector.of(x1, QRational(2) * d * lam),
                (x2, x2): Vector.of(x1, QRational(a)),
                (x2, y): Vector.of(y, d),
                (y, x2): Vector.of(y, -d),
                (y, y): Vector.of(x1, QRational(k)),
            }
            full = {}
            for g1 in (x1, x2, y):
                for g2 in (x1, x2, y):
                    full[(g1, g2)] = table.get((g1, g2), Vector({}))
            return BilinearMap.from_table(0, full)

        for (a, k) in ((1, 0), (0, 1)):
            rep = check_bilinear_class(p, phimap(a, k), "alpha_super_biderivation", w)
            details.append(f"twisted biderivation (a,k)=({a},{k}): {rep}")
            ok = ok and rep.passed
        skew = check_bilinear_skew(p, phimap(1, 0), w)
        hit = any(inputs == (x2, x2) for (_, inputs, _, _) in skew.witnesses)
        details.append(
            f"skew-symmetry fails at (x2, x2) for a=1: {'yes' if hit else 'no'}"
        )
        ok = ok and not skew.passed and hit
        return _result("07 three-dimensional example behaves as stated", ok, details)

    def criterion_08_rows(self):
        try:
            n = rowrefs.check_all()
            return _result("08 generated rows match hand-coded references",
                           True, [f"{n} comparisons"])
        except AssertionError as exc:
            return _result("08 generated rows match hand-coded references",
                           False, [str(exc)])

    def criterion_09_commuting(self):
        details = []
        ok = True
        self._families = {}
        for alg, parity in PAPER_MAPS:
            p = builtin(alg)
            fam = solve_commuting_maps(
                p, parity, self.cfg.window, delta=self.cfg.delta,
                degree_range=self.cfg.degree_range,
            )
            self._families[(alg, parity)] = (p, fam)
            expected = _expected_commuting(p, parity)
            want = sum(len(maps) for maps in expected.values())
            # the family spans the expected maps, degree by degree
            good = fam.dim == want and all(
                s in fam.spaces and fam.spaces[s].dim == len(maps)
                and decompose(fam.spaces[s], maps).residual_dim == 0
                for s, maps in expected.items()
            )
            ok = ok and good
            details.append(
                f"{alg} parity {parity}: family dim {fam.dim} "
                f"(want {want}){'' if good else ' MISMATCH'}"
            )
            # round-trip: each instance induces a (super-)biderivation
            cls = _biderivation_class(p)
            for i, (_, _, f) in enumerate(fam.instances):
                rep = check_bilinear_class(p, induced(p, f), cls, self.cfg.window)
                ok = ok and rep.passed
                if not rep.passed:
                    details.append(f"{alg} parity {parity} instance {i}: induced map fails")
        if ok:
            details.append("all induced bilinear maps pass their class checks")
        return _result("09 commuting maps reproduce the classified families", ok, details)

    def criterion_10_corollaries(self):
        if not hasattr(self, "_families"):
            self.criterion_09_commuting()
        details = []
        ok = True
        for alg, parity in PAPER_MAPS:
            p, fam = self._families[(alg, parity)]
            if parity == 0:
                rep = corollary_check(p, fam, "automorphism", self.cfg.window)
                good = rep.classifications == ["identity"]
                ok = ok and good
                details.append(
                    f"{alg} parity 0 automorphisms: {rep.classifications} "
                    f"{'' if good else 'MISMATCH'}"
                )
            prop = "super_derivation" if p.is_super else "derivation"
            rep = corollary_check(p, fam, prop, self.cfg.window)
            good = rep.classifications == ["zero"]
            ok = ok and good
            details.append(
                f"{alg} parity {parity} {prop}s: {rep.classifications} "
                f"{'' if good else 'MISMATCH'}"
            )
        return _result("10 commuting automorphisms are the identity; commuting derivations vanish", ok, details)

    def criterion_11_soundness(self):
        total = 0
        passed = 0
        for r in self.scans().values():
            total += r["roundtrip_total"]
            passed += r["roundtrip_passed"]
        ok = total > 0 and passed == total
        return _result(
            "11 every nullspace element passes its checker class",
            ok, [f"{passed}/{total} solution maps verified"],
        )

    def criterion_12_oracle(self):
        details = []
        ok = True
        small = Window(-2, 2)
        checked = 0
        for alg, cls, parity in ORACLE_CLASSES:
            p = builtin(alg)
            for s in range(-2, 3):
                ansatz = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=small)
                sys = build_system(p, ansatz)
                dsym = nullspace(sys).dim
                dspec = nullspace_dim_specialized(sys, 2)
                checked += 1
                if dsym != dspec:
                    dspec3 = nullspace_dim_specialized(sys, 3)
                    if dsym != dspec3:
                        ok = False
                        details.append(
                            f"{alg} {cls} parity {parity} s={s}: symbolic {dsym}, "
                            f"q=2 gives {dspec}, q=3 gives {dspec3}"
                        )
                    else:
                        details.append(
                            f"{alg} {cls} parity {parity} s={s}: q=2 degenerate, "
                            f"q=3 agrees"
                        )
        details.insert(0, f"{checked} small-window systems compared")
        return _result("12 symbolic dims match sparse integer elimination at rational q", ok, details)

    CRITERIA = (
        "criterion_01_axioms",
        "criterion_02_qnumbers",
        "criterion_03_w22q",
        "criterion_04_wittq",
        "criterion_05_wittsuperq",
        "criterion_06_alpha_vanishing",
        "criterion_07_example",
        "criterion_08_rows",
        "criterion_09_commuting",
        "criterion_10_corollaries",
        "criterion_11_soundness",
        "criterion_12_oracle",
    )

    def run_all(self):
        results = []
        for name in self.CRITERIA:
            res = getattr(self, name)()
            self.log(res.line())
            results.append(res)
        return results
