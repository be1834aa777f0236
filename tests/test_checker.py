from collections import Counter
from fractions import Fraction

import pytest

from homlie import checker, identities
from homlie.algebra import (
    BUILTIN_NAMES,
    AlgebraPresentation,
    AlphaRule,
    BracketTerm,
    Family,
    UnknownGenerator,
    Vector,
    Window,
    builtin,
)
from homlie.checker import (
    BILINEAR_CLASSES,
    BITS,
    ClassModeMismatch,
    check_axioms,
    check_bilinear_class,
    check_bilinear_skew,
    check_linear_class,
    check_multiplicative,
    _collect,
    _wrap_map,
)
from homlie.classify import COMMUTING_MAPS, KNOWN_MAPS, commuting_map, induced, known_map
from homlie.identities import OutOfWindow, bilinear_instances
from homlie.maps import BilinearMap, LinearMap
from homlie.qfield import _P1, QRational, qpow
from test_solver import _presentation

WIN = Window(-4, 4)
Q1 = QRational(1)


# -- axioms -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq"])
def test_builtin_axioms_pass(name):
    assert check_axioms(builtin(name), WIN).passed


def test_example49_axioms_pass(example49):
    assert check_axioms(example49, WIN).passed


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq"])
def test_builtin_twists_not_multiplicative(name):
    rep = check_multiplicative(builtin(name), WIN)
    assert not rep.passed
    assert len(rep.witnesses) >= 1


def _perturbed_w22q():
    # bracket coefficient changed to [n-m] + 1: no longer satisfies the
    # twisted Jacobi identity
    coeff = ("+", ("qbr", (-1, 1, 0)), ("num", 1))
    alpha = ("+", ("qpow", (1, 0, 0)), ("qpow", (-1, 0, 0)))
    return AlgebraPresentation(
        "perturbed", "lie",
        [Family("L", 0, "all"), Family("W", 0, "all")],
        {
            ("L", "L"): [BracketTerm(coeff, "L", 0)],
            ("L", "W"): [BracketTerm(coeff, "W", 0)],
        },
        {"L": AlphaRule(alpha, "L"), "W": AlphaRule(alpha, "W")},
    )


def test_perturbed_bracket_fails_jacobi():
    p = _perturbed_w22q()
    # independent oracle: evaluate the twisted Jacobi sum at (L_0, L_1, L_2)
    x, y, z = (Vector.of(p.generator("L", d)) for d in (0, 1, 2))
    total = (
        p.bracket(p.alpha(x), p.bracket(y, z))
        + p.bracket(p.alpha(z), p.bracket(x, y))
        + p.bracket(p.alpha(y), p.bracket(z, x))
    )
    assert not total.is_zero
    rep = check_axioms(p, Window(-3, 3))
    assert not rep.passed
    assert any(name == "hom-jacobi" for name, *_ in rep.witnesses)


def test_identity_twist_on_geometric_bracket():
    # same bracket as the one-family deformation but alpha = id: the twisted
    # Jacobi identity fails while multiplicativity holds trivially
    src_rules = {("L", "L"): [BracketTerm(
        ("-", ("qnm", (0, 1, 0)), ("qnm", (1, 0, 0))), "L", 0)]}
    p = AlgebraPresentation(
        "idtwist", "lie", [Family("L", 0, "all")], src_rules,
        {"L": AlphaRule(("num", 1), "L")},
    )
    assert check_multiplicative(p, Window(-3, 3)).passed
    assert not check_axioms(p, Window(-3, 3)).passed


# -- bilinear classes ----------------------------------------------------------


@pytest.mark.parametrize("name,cls", [
    ("w22q", "biderivation"),
    ("wittq", "biderivation"),
    ("wittsuperq", "super_biderivation"),
])
@pytest.mark.parametrize("scale", [1, None])
def test_inner_maps_pass(name, cls, scale):
    p = builtin(name)
    coeff = Q1 if scale else (qpow(1) + QRational(2)) / QRational(3)
    identity = commuting_map("identity", p)
    scaled = LinearMap.from_rule(0, lambda g: coeff * identity(g), degree=0)
    phi = induced(p, scaled)
    assert check_bilinear_class(p, phi, cls, Window(-3, 3)).passed


def test_phi0_is_a_biderivation(w22q):
    phi = known_map("phi_0", w22q)
    assert check_bilinear_class(w22q, phi, "biderivation", WIN).passed


def test_phi0_is_not_an_alpha_biderivation(w22q):
    phi = known_map("phi_0", w22q)
    rep = check_bilinear_class(w22q, phi, "alpha_biderivation", WIN)
    assert not rep.passed


def test_phi_minus1_is_an_odd_super_biderivation(wittsuperq):
    phi = known_map("phi_minus1", wittsuperq)
    assert phi.parity == 1 and phi.degree == -1
    assert check_bilinear_class(wittsuperq, phi, "super_biderivation", WIN).passed


def test_class_mode_mismatch(wittq, wittsuperq):
    phi = induced(wittq, commuting_map("identity", wittq))
    with pytest.raises(ClassModeMismatch):
        check_bilinear_class(wittq, phi, "super_biderivation", WIN)
    phi = induced(wittsuperq, commuting_map("identity", wittsuperq))
    with pytest.raises(ClassModeMismatch):
        check_bilinear_class(wittsuperq, phi, "biderivation", WIN)


# -- linear classes ---------------------------------------------------------------


def _w22q_commuting_instance(p, lam, mu):
    table = {}
    for g in p.gens_in(WIN):
        if g.family == "L":
            table[g] = Vector.of(g, QRational(lam)) + Vector.of(
                p.generator("W", g.degree), QRational(mu)
            )
        else:
            table[g] = Vector.of(g, QRational(lam))
    return LinearMap.from_table(0, table, degree=0)


@pytest.mark.parametrize("lam,mu", [(1, 0), (0, 1)])
def test_w22q_commuting_family_instances(w22q, lam, mu):
    f = _w22q_commuting_instance(w22q, lam, mu)
    assert check_linear_class(w22q, f, "commuting_map", WIN).passed


def test_identity_is_not_a_derivation(wittq):
    f = LinearMap.from_rule(0, lambda g: Vector.of(g), degree=0)
    assert not check_linear_class(wittq, f, "derivation", Window(-3, 3)).passed


def test_odd_commuting_map_on_super(wittsuperq):
    p = wittsuperq
    table = {}
    for g in p.gens_in(WIN):
        if g.family == "L":
            table[g] = Vector.of(p.generator("G", g.degree - 1))
        else:
            table[g] = Vector({})
    f = LinearMap.from_table(1, table, degree=-1)
    assert check_linear_class(p, f, "commuting_map", WIN).passed


# -- cross-class properties ---------------------------------------------------------


@pytest.mark.parametrize("lam,mu", [(1, 0), (0, 1)])
def test_commuting_map_induces_biderivation(w22q, lam, mu):
    # for a commuting f, (x, y) -> [x, f(y)] is a biderivation
    f = _w22q_commuting_instance(w22q, lam, mu)

    def rule(g1, g2):
        img = f(g2)
        if img is None:
            return None
        return w22q.bracket(Vector.of(g1), img)

    phi = BilinearMap.from_rule(0, rule, degree=0)
    assert check_bilinear_class(w22q, phi, "biderivation", WIN).passed


def test_super_commuting_map_induces_super_biderivation(wittsuperq):
    p = wittsuperq
    table = {}
    for g in p.gens_in(WIN):
        table[g] = Vector.of(p.generator("G", g.degree - 1)) if g.family == "L" else Vector({})
    f = LinearMap.from_table(1, table, degree=-1)

    def rule(g1, g2):
        img = f(g1)
        if img is None:
            return None
        return p.bracket(img, Vector.of(g2))

    phi = BilinearMap.from_rule(1, rule, degree=-1)
    assert check_bilinear_class(p, phi, "super_biderivation", WIN).passed


def _example49_phi(p, a, k):
    lam = qpow(1)
    x1, x2, y = (p.generator(f) for f in ("x1", "x2", "y"))
    d = (Q1 / lam ** 2) * (QRational(Fraction(1, 2)) - lam) * QRational(k)
    table = {
        (x1, x2): Vector.of(x1, QRational(-2) * d * lam),
        (x2, x1): Vector.of(x1, QRational(2) * d * lam),
        (x2, x2): Vector.of(x1, QRational(a)),
        (x2, y): Vector.of(y, d),
        (y, x2): Vector.of(y, -d),
        (y, y): Vector.of(x1, QRational(k)),
    }
    full = {(g1, g2): table.get((g1, g2), Vector({}))
            for g1 in (x1, x2, y) for g2 in (x1, x2, y)}
    return BilinearMap.from_table(0, full)


def test_example49_twisted_biderivation_partials_are_twisted_derivations(example49):
    # partial maps at an even argument satisfy the twist-power-1 derivation law
    p = example49
    phi = _example49_phi(p, 1, 1)
    for z in (p.generator("x1"), p.generator("x2")):
        left = LinearMap.from_rule(0, lambda g, z=z: phi(g, z))
        right = LinearMap.from_rule(0, lambda g, z=z: phi(z, g))
        assert check_linear_class(p, left, "alpha_k_derivation", WIN, k=1).passed
        assert check_linear_class(p, right, "alpha_k_derivation", WIN, k=1).passed


def test_example49_skew_failure_witness(example49):
    p = example49
    phi = _example49_phi(p, 1, 0)
    rep = check_bilinear_skew(p, phi, WIN)
    assert not rep.passed
    x2 = p.generator("x2")
    assert any(inputs == (x2, x2) for _, inputs, _, _ in rep.witnesses)


def test_report_sorting_and_str(w22q):
    rep = check_multiplicative(w22q, Window(-2, 2))
    keys = [tuple(w22q.gen_sort_key(g) for g in w[1]) for w in rep.witnesses]
    assert keys == sorted(keys)
    assert "failed" in str(rep)
    ok = check_axioms(w22q, Window(-2, 2))
    assert "passed" in str(ok)


# -- evaluation memo ---------------------------------------------------------------


def _counting_bilinear(phi, calls):
    def rule(g1, g2):
        calls[g1, g2] += 1
        return phi(g1, g2)

    return BilinearMap.from_rule(phi.parity, rule, degree=phi.degree)


@pytest.mark.parametrize("cls", ["biderivation", "alpha_biderivation"])
def test_bilinear_check_evaluates_each_pair_once(w22q, cls):
    calls = Counter()
    phi = _counting_bilinear(known_map("phi_0", w22q), calls)
    rep = check_bilinear_class(w22q, phi, cls, Window(-2, 2))
    assert rep.checked > len(calls) > 0
    assert set(calls.values()) == {1}


def test_linear_check_evaluates_each_generator_once(w22q):
    calls = Counter()

    def rule(g):
        calls[g] += 1
        return Vector.of(g)

    f = LinearMap.from_rule(0, rule, degree=0)
    assert check_linear_class(w22q, f, "commuting_map", Window(-2, 2)).passed
    assert len(calls) == len(w22q.gens_in(Window(-2, 2)))
    assert set(calls.values()) == {1}


def test_memo_keeps_the_report_of_a_wrong_map(w22q):
    # phi_0 is not an alpha-biderivation; compare with an unmemoized stream
    window = Window(-2, 2)
    phi = known_map("phi_0", w22q)

    def plain(g1, g2):
        if not (window.contains(g1.degree) and window.contains(g2.degree)):
            raise OutOfWindow
        return phi(g1, g2).terms.items()

    want = _collect(w22q, bilinear_instances(
        w22q, "alpha_biderivation", window, plain, phi.parity, strict=True
    ))
    rep = check_bilinear_class(w22q, phi, "alpha_biderivation", window)
    assert not rep.passed
    assert rep.checked == want.checked
    assert rep.witnesses == want.witnesses


def test_wrap_map_raises_out_of_window_and_calls_the_rule_each_time(w22q):
    calls = Counter()
    g = w22q.generator("L", 0)
    phi = _counting_bilinear(BilinearMap.from_table(0, {}), calls)
    call = _wrap_map(phi, w22q, Window(-2, 2))
    for _ in range(2):
        with pytest.raises(OutOfWindow):
            call(g, g)
    assert calls[g, g] == 2


# -- the packed pass at q = 2^BITS against Q(q) ------------------------------------


STREAMS = ("axiom_instances", "multiplicative_instances", "bilinear_instances",
           "linear_instances", "skew_instances")


def _run(monkeypatch, p, check):
    """check() as the checker runs it, the bits of each stream it read (None
    for Q(q)) and the values it could not pack; then check() in Q(q) only."""
    rings, off = [], []
    with monkeypatch.context() as m:
        for name in STREAMS:
            def spy(*args, stream=getattr(checker, name), **kw):
                rings.append(kw["bits"])
                return stream(*args, **kw)

            m.setattr(checker, name, spy)

        def pack(x, b, real=identities.pack):
            if x.den is not _P1:
                off.append(x)
            return real(x, b)

        m.setattr(identities, "pack", pack)
        rep = check()
    with monkeypatch.context() as m:
        m.setattr(p, "fast_scalars", False)
        exact = check()
    return rep, rings, off, exact


def _same_report(monkeypatch, p, check):
    """Assert that check() gives the report of Q(q), and that on a Laurent
    presentation the packed pass decided and reported it, failing or not:
    at q = 2^BITS, or at a larger b after one redo."""
    rep, rings, off, exact = _run(monkeypatch, p, check)
    assert rep == exact and str(rep) == str(exact)
    if p.fast_scalars:
        assert not off
        first, *redo = rings
        assert first == BITS and len(redo) <= 1
        assert all(b is not None and b > BITS for b in redo)
    else:
        assert rings == [None]
    return rep


def _maps(p, names, make):
    out = []
    for name in names:
        try:
            out.append((name, make(name, p)))
        except UnknownGenerator:
            pass  # p lacks one of the map's families
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_axiom_reports_agree(monkeypatch, name):
    p = builtin(name)
    assert _same_report(monkeypatch, p, lambda: check_axioms(p, WIN)).passed
    _same_report(monkeypatch, p, lambda: check_multiplicative(p, WIN))


@pytest.mark.parametrize("name,cls", [
    (name, cls) for name in BUILTIN_NAMES for cls in BILINEAR_CLASSES
    if ("super" in cls) == builtin(name).is_super
])
def test_named_map_reports_agree(monkeypatch, name, cls):
    p = builtin(name)
    for _, phi in _maps(p, KNOWN_MAPS, known_map):
        _same_report(monkeypatch, p, lambda: check_bilinear_class(p, phi, cls, WIN))
        _same_report(monkeypatch, p, lambda: check_bilinear_skew(p, phi, WIN))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_commuting_map_reports_agree(monkeypatch, name):
    p = builtin(name)
    maps = _maps(p, COMMUTING_MAPS, commuting_map)
    assert maps
    for _, f in maps:
        rep = _same_report(monkeypatch, p, lambda: check_linear_class(p, f, "commuting_map", WIN))
        assert rep.passed


def _perturbed(phi, at, delta):
    """phi with delta (generator -> coefficient) added to its value at the pair at."""
    def rule(g1, g2):
        v = phi(g1, g2)
        return v + Vector(delta) if (g1, g2) == at and v is not None else v

    return BilinearMap.from_rule(phi.parity, rule, degree=phi.degree)


def test_perturbed_map_gives_the_same_witnesses(monkeypatch, w22q):
    x, y = w22q.generator("L", 0), w22q.generator("L", 1)
    phi = _perturbed(known_map("phi_0", w22q), (x, y), {w22q.generator("W", 1): qpow(2)})
    rep = _same_report(monkeypatch, w22q, lambda: check_bilinear_class(
        w22q, phi, "biderivation", WIN))
    assert rep.witnesses and all(x in inputs or y in inputs for _, inputs, _, _ in rep.witnesses)


@pytest.mark.parametrize("coeff", [QRational(2 ** 40), QRational(2 ** (BITS - 1))])
def test_a_large_residual_is_caught(monkeypatch, w22q, coeff):
    # the skew residual at (L(0), L(1)) is coeff * L(1) alone: a nonzero
    # integer at q = 2^BITS, so the pass finds the witness, but the witness
    # value's bound reaches 2^(BITS - 1), so it unpacks only after one redo
    x, y = w22q.generator("L", 0), w22q.generator("L", 1)
    phi = _perturbed(known_map("phi_ad", w22q), (x, y), {y: coeff})
    rep, rings, off, exact = _run(monkeypatch, w22q, lambda: check_bilinear_skew(w22q, phi, WIN))
    assert rep == exact and str(rep) == str(exact) and not off
    assert rings[0] == BITS and len(rings) == 2 and rings[1] > BITS
    assert [inputs for _, inputs, _, _ in rep.witnesses] == [(x, y), (y, x)]
    lhs, rhs = rep.witnesses[0][2:]
    assert (lhs - rhs).terms == {y: coeff}


def test_a_residual_that_vanishes_at_the_packing_point_is_redone(monkeypatch, w22q):
    # the residual (q - 2^BITS) * L(1) is 0 at q = 2^BITS, but its bound
    # passes 2^(BITS - 1): the pass is redone with more bits, which catch
    # it and report its witnesses
    x, y = w22q.generator("L", 0), w22q.generator("L", 1)
    alias = qpow(1) - QRational(2 ** BITS)
    phi = _perturbed(known_map("phi_ad", w22q), (x, y), {y: alias})
    rep, rings, off, exact = _run(monkeypatch, w22q, lambda: check_bilinear_skew(w22q, phi, WIN))
    assert rep == exact and not off
    assert rings[0] == BITS and len(rings) == 2 and rings[1] > BITS
    assert [inputs for _, inputs, _, _ in rep.witnesses] == [(x, y), (y, x)]


def test_a_zero_beyond_the_bound_is_redone_not_read(monkeypatch, w22q):
    # 2^(BITS - 1) * phi_ad is skew, but each skew instance compares two
    # values whose bounds sum past 2^(BITS - 1): only a larger packing
    # proves them equal
    big = QRational(2 ** (BITS - 1))
    phi_ad = known_map("phi_ad", w22q)
    phi = BilinearMap.from_rule(0, lambda g1, g2: phi_ad(g1, g2) * big, degree=0)
    rep, rings, off, exact = _run(monkeypatch, w22q, lambda: check_bilinear_skew(w22q, phi, WIN))
    assert rep == exact and rep.passed and not off
    assert rep.checked == check_bilinear_skew(w22q, phi_ad, WIN).checked
    assert rings[0] == BITS and len(rings) == 2 and rings[1] > BITS


def test_rational_rules_take_the_exact_path(monkeypatch):
    p = _presentation("thirds")
    assert not p.fast_scalars
    assert _same_report(monkeypatch, p, lambda: check_axioms(p, Window(-3, 3))).passed


def test_a_map_value_off_the_laurent_ring_takes_the_exact_path(monkeypatch, w22q):
    coeff = (qpow(1) + QRational(2)) / QRational(3)
    identity = commuting_map("identity", w22q)
    f = LinearMap.from_rule(0, lambda g: coeff * identity(g), degree=0)
    rep, rings, off, exact = _run(monkeypatch, w22q, lambda: check_linear_class(
        w22q, f, "commuting_map", WIN))
    assert rep == exact and rep.passed
    assert off and rings == [BITS, None]


def test_a_laurent_check_makes_no_qfield_product(monkeypatch, w22q):
    # phi_0 as a table of values made beforehand, on a presentation whose
    # structure constants are memoized: the check multiplies no QRational
    window = Window(-2, 2)
    phi_0 = known_map("phi_0", w22q)
    gens = w22q.gens_in(window)
    phi = BilinearMap.from_table(0, {(g, h): phi_0(g, h) for g in gens for h in gens})
    assert check_bilinear_class(w22q, phi, "biderivation", window).passed
    products = Counter()
    mul = QRational.__mul__

    def counted(a, b):
        products["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(QRational, "__mul__", counted)
    assert check_bilinear_class(w22q, phi, "biderivation", window).passed
    assert products["mul"] == 0


def test_a_failing_laurent_check_makes_no_qfield_product(monkeypatch, w22q):
    # phi_0 fails the alpha-biderivation identities: its witnesses are
    # unpacked from the packed pass, not recomputed in Q(q)
    window = Window(-2, 2)
    phi_0 = known_map("phi_0", w22q)
    gens = w22q.gens_in(window)
    phi = BilinearMap.from_table(0, {(g, h): phi_0(g, h) for g in gens for h in gens})
    want = check_bilinear_class(w22q, phi, "alpha_biderivation", window)
    assert not want.passed
    products = Counter()
    mul = QRational.__mul__

    def counted(a, b):
        products["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(QRational, "__mul__", counted)
    rep = check_bilinear_class(w22q, phi, "alpha_biderivation", window)
    assert products["mul"] == 0
    assert rep == want and str(rep) == str(want)
