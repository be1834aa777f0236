"""The instance streams of `identities` against a reference that evaluates
every value afresh for each instance: both must yield the same list of
(eq id, inputs, lhs, rhs), in strict and in non-strict mode."""

import random

import pytest

from homlie.algebra import Window, extend_bilinear, extend_linear
from homlie.checker import _wrap_map
from homlie.classify import commuting_map, known_map
from homlie.identities import (
    OutOfWindow,
    axiom_instances,
    bilinear_instances,
    check_class_mode,
    linear_instances,
    m_add,
    m_neg,
    multiplicative_instances,
    skew_instances,
)
from homlie.qfield import QRational
from homlie.solver import build_ansatz, build_system, map_from_assignment, nullspace
from test_solver import _presentation

Q1 = QRational(1)
PRESENTATIONS = ("w22q", "wittq", "wittsuperq", "example49", "wz", "qplus5", "thirds",
                 "finite")
STRICT = pytest.mark.parametrize("strict", [True, False])


# -- reference: each instance evaluates all of its values from scratch ---------


class _RefContext:
    def __init__(self, p, window, strict):
        self.p = p
        self.window = window
        self.strict = strict and not p.is_scalar and window is not None

    def _guard(self, d):
        if self.strict:
            w = self.window
            for g in d:
                if g.degree is not None and not w.contains(g.degree):
                    raise OutOfWindow
        return d

    def bracket(self, u, v):
        return self._guard(extend_bilinear(self.p.bracket_gens, u, v))

    def alpha(self, u):
        return self._guard(extend_linear(self.p.alpha_gens, u))

    def alpha_k(self, u, k):
        for _ in range(k):
            u = self.alpha(u)
        return u

    def apply_bilinear(self, phi, u, v):
        return self._guard(extend_bilinear(phi, u, v))

    def apply_linear(self, f, u):
        return self._guard(extend_linear(f, u))


def ref_bilinear(p, cls, window, phi, phi_parity, strict=False):
    check_class_mode(p, cls)
    ctx = _RefContext(p, window, strict)
    twisted = cls in ("biderivation", "super_biderivation")
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    alphas = {}
    for g in gens:
        try:
            alphas[g] = ctx.alpha(singles[g])
        except OutOfWindow:
            alphas[g] = None
    for x in gens:
        sx = singles[x]
        ax = alphas[x]
        neg_phix = phi_parity and x.parity
        for y in gens:
            sy = singles[y]
            ay = alphas[y]
            neg_phixy = ((phi_parity + x.parity) % 2) and y.parity
            try:
                bxy = ctx.bracket(sx, sy)
            except OutOfWindow:
                bxy = None
            eq1_ready = bxy is not None and ax is not None and ay is not None
            for z in gens:
                sz = singles[z]
                az = alphas[z]
                if eq1_ready and (not twisted or az is not None):
                    try:
                        lhs = ctx.apply_bilinear(phi, bxy, az if twisted else sz)
                        t1 = ctx.bracket(ctx.apply_bilinear(phi, sx, sz), ay)
                        if y.parity and z.parity:
                            t1 = m_neg(t1)
                        t2 = ctx.bracket(ax, ctx.apply_bilinear(phi, sy, sz))
                        if neg_phix:
                            t2 = m_neg(t2)
                        yield ("eq1", (x, y, z), lhs, m_add(t1, t2))
                    except OutOfWindow:
                        pass
                if ay is not None and az is not None and (not twisted or ax is not None):
                    try:
                        byz = ctx.bracket(sy, sz)
                        lhs = ctx.apply_bilinear(phi, ax if twisted else sx, byz)
                        t1 = ctx.bracket(ctx.apply_bilinear(phi, sx, sy), az)
                        t2 = ctx.bracket(ay, ctx.apply_bilinear(phi, sx, sz))
                        if neg_phixy:
                            t2 = m_neg(t2)
                        yield ("eq2", (x, y, z), lhs, m_add(t1, t2))
                    except OutOfWindow:
                        pass


def ref_linear(p, cls, window, f, f_parity, k=1, strict=False):
    check_class_mode(p, cls)
    ctx = _RefContext(p, window, strict)
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    if cls == "commuting_map":
        for x in gens:
            sx = singles[x]
            try:
                lhs = ctx.apply_linear(f, ctx.alpha(sx))
                rhs = ctx.alpha(ctx.apply_linear(f, sx))
                yield ("twist-commute", (x,), lhs, rhs)
            except OutOfWindow:
                pass
            for y in gens:
                sy = singles[y]
                try:
                    lhs = ctx.bracket(ctx.apply_linear(f, sx), sy)
                    rhs = ctx.bracket(ctx.apply_linear(f, sy), sx)
                    if not (x.parity and y.parity):
                        rhs = m_neg(rhs)
                    yield ("commute", (x, y), lhs, rhs)
                except OutOfWindow:
                    pass
        return
    kk = 0 if cls in ("derivation", "super_derivation") else k
    for x in gens:
        sx = singles[x]
        negx = f_parity and x.parity
        for y in gens:
            sy = singles[y]
            try:
                bxy = ctx.bracket(sx, sy)
                lhs = ctx.apply_linear(f, bxy)
                t1 = ctx.bracket(ctx.apply_linear(f, sx), ctx.alpha_k(sy, kk))
                t2 = ctx.bracket(ctx.alpha_k(sx, kk), ctx.apply_linear(f, sy))
                if negx:
                    t2 = m_neg(t2)
                yield ("eq", (x, y), lhs, m_add(t1, t2))
            except OutOfWindow:
                pass


def ref_axioms(p, window, strict=True):
    ctx = _RefContext(p, window, strict)
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    skew_name = "super-skew-symmetry" if p.is_super else "skew-symmetry"
    jac_name = "super-hom-jacobi" if p.is_super else "hom-jacobi"
    for x in gens:
        for y in gens:
            try:
                lhs = ctx.bracket(singles[x], singles[y])
                rhs = ctx.bracket(singles[y], singles[x])
                if not (x.parity and y.parity):
                    rhs = m_neg(rhs)
                yield (skew_name, (x, y), lhs, rhs)
            except OutOfWindow:
                pass
    for x in gens:
        sx = singles[x]
        for y in gens:
            sy = singles[y]
            for z in gens:
                sz = singles[z]
                try:
                    acc = {}
                    for (a, b, c) in ((x, y, z), (z, x, y), (y, z, x)):
                        term = ctx.bracket(
                            ctx.alpha(singles[a]), ctx.bracket(singles[b], singles[c])
                        )
                        if a.parity and c.parity:
                            term = m_neg(term)
                        acc = m_add(acc, term)
                    yield (jac_name, (x, y, z), acc, {})
                except OutOfWindow:
                    pass
                if p.is_super:
                    try:
                        lhs = ctx.bracket(ctx.alpha(sx), ctx.bracket(sy, sz))
                        t2 = ctx.bracket(ctx.alpha(sy), ctx.bracket(sx, sz))
                        if x.parity and y.parity:
                            t2 = m_neg(t2)
                        rhs = m_add(ctx.bracket(ctx.bracket(sx, sy), ctx.alpha(sz)), t2)
                        yield ("hom-jacobi-two-sided", (x, y, z), lhs, rhs)
                    except OutOfWindow:
                        pass


def ref_multiplicative(p, window, strict=True):
    ctx = _RefContext(p, window, strict)
    for x in p.gens_in(window):
        for y in p.gens_in(window):
            try:
                lhs = ctx.alpha(ctx.bracket({x: Q1}, {y: Q1}))
                rhs = ctx.bracket(ctx.alpha({x: Q1}), ctx.alpha({y: Q1}))
                yield ("multiplicative", (x, y), lhs, rhs)
            except OutOfWindow:
                pass


def ref_skew(p, phi, window, strict=True):
    ctx = _RefContext(p, window, strict)
    for x in p.gens_in(window):
        for y in p.gens_in(window):
            try:
                lhs = ctx.apply_bilinear(phi, {x: Q1}, {y: Q1})
                rhs = ctx.apply_bilinear(phi, {y: Q1}, {x: Q1})
                if not (x.parity and y.parity):
                    rhs = m_neg(rhs)
                yield ("skew-symmetry", (x, y), lhs, rhs)
            except OutOfWindow:
                pass


# -- the maps under test -------------------------------------------------------


def _window(name):
    return Window(-1, 3) if name == "finite" else Window(-2, 2)


def _solved_map(p, kind, cls, parity, s, window):
    """A map_from_assignment table map: a random combination of the solved
    basis on `window`, or of every slot when that space is 0."""
    a = build_ansatz(p, kind, cls, s=s, parity=parity, window=window)
    basis = nullspace(build_system(p, a)).basis
    rng = random.Random(1509)
    if basis:
        vec = {}
        for b in basis:
            c = QRational(rng.randint(1, 5))
            for key, v in b.items():
                vec[key] = vec.get(key, QRational(0)) + c * v
    else:
        vec = {key: QRational(rng.randint(-3, 3)) for key in a.slots}
    return map_from_assignment(a, {k: v for k, v in vec.items() if not v.is_zero})


def _smaller(window):
    return Window(window.lo + 1, window.hi - 1)


def _bilinear_cases():
    """(presentation, class, map name) over every presentation: the induced
    phi_ad as a biderivation (passes) and as an alpha-biderivation, phi_0 on
    w22q as an alpha-biderivation (fails), phi_minus1 on wittsuperq, and a
    table map solved on a smaller window."""
    out = []
    for name in PRESENTATIONS:
        sup = "super_" if name in ("wittsuperq", "example49") else ""
        for cls in (f"{sup}biderivation", f"alpha_{sup}biderivation"):
            out.append((name, cls, "phi_ad"))
            out.append((name, cls, "table"))
    out.append(("w22q", "alpha_biderivation", "phi_0"))
    out.append(("w22q", "biderivation", "phi_0"))
    out.append(("wittsuperq", "super_biderivation", "phi_minus1"))
    return out


def _bilinear_map(p, cls, name, window):
    if name != "table":
        return known_map(name, p)
    small = window if p.is_scalar else _smaller(window)
    return _solved_map(p, "bilinear", cls, 0, 0, small)


@pytest.mark.parametrize("name,cls,map_name", _bilinear_cases())
@STRICT
def test_bilinear_stream_matches_the_reference(name, cls, map_name, strict):
    p = _presentation(name)
    window = _window(name)
    phi = _bilinear_map(p, cls, map_name, window)
    want = list(ref_bilinear(p, cls, window, _wrap_map(phi, p, window), phi.parity, strict))
    got = list(bilinear_instances(p, cls, window, _wrap_map(phi, p, window), phi.parity,
                                     strict))
    assert want
    assert got == want


def test_the_bilinear_cases_pass_and_fail():
    # the coverage the cases above claim: a passing map, a failing map, and
    # a table map whose values stop inside the window
    p = _presentation("w22q")
    window = _window("w22q")

    def failures(cls, phi, strict=True):
        return [i for i in bilinear_instances(
            p, cls, window, _wrap_map(phi, p, window), phi.parity, strict
        ) if i[2] != i[3]]

    assert not failures("biderivation", known_map("phi_ad", p))
    assert failures("alpha_biderivation", known_map("phi_0", p))
    table = _bilinear_map(p, "biderivation", "table", window)
    assert table(*p.gens_in(window)[:1] * 2) is None
    assert not failures("biderivation", table)


def _linear_cases():
    out = []
    for name in PRESENTATIONS:
        derivation = "super_derivation" if name in ("wittsuperq", "example49") else "derivation"
        for cls, k in ((derivation, 1), ("alpha_k_derivation", 1), ("alpha_k_derivation", 2),
                       ("commuting_map", 1)):
            out.append((name, cls, k, "identity"))
            out.append((name, cls, k, "table"))
    out.append(("w22q", "commuting_map", 1, "L->W"))
    out.append(("w22q", "derivation", 1, "L->W"))
    out.append(("wittsuperq", "commuting_map", 1, "L->G"))
    return out


@pytest.mark.parametrize("name,cls,k,map_name", _linear_cases())
@STRICT
def test_linear_stream_matches_the_reference(name, cls, k, map_name, strict):
    p = _presentation(name)
    window = _window(name)
    if map_name == "table":
        small = window if p.is_scalar else _smaller(window)
        f = _solved_map(p, "linear", "commuting_map", 0, 0, small)
    else:
        f = commuting_map(map_name, p)
    want = list(ref_linear(p, cls, window, _wrap_map(f, p, window), f.parity, k, strict))
    got = list(linear_instances(p, cls, window, _wrap_map(f, p, window), f.parity, k=k,
                                   strict=strict))
    assert want
    assert got == want


@pytest.mark.parametrize("name", PRESENTATIONS)
@STRICT
def test_axiom_streams_match_the_reference(name, strict):
    p = _presentation(name)
    window = _window(name)
    assert list(axiom_instances(p, window, strict)) == list(ref_axioms(p, window, strict))
    assert (list(multiplicative_instances(p, window, strict))
            == list(ref_multiplicative(p, window, strict)))
    phi = _bilinear_map(p, "super_biderivation" if p.is_super else "biderivation", "table",
                        window)
    assert (list(skew_instances(p, _wrap_map(phi, p, window), window, strict))
            == list(ref_skew(p, _wrap_map(phi, p, window), window, strict)))
