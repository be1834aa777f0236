import random
import re
from importlib.resources import files

import pytest

from homlie import solver
from homlie.algebra import (
    BUILTIN_NAMES,
    AlgebraPresentation,
    AlphaRule,
    BracketTerm,
    Family,
    PresentationError,
    UnknownBuiltin,
    UnknownGenerator,
    Vector,
    Window,
    builtin,
)
from homlie.dsl import parse
from homlie.qfield import QRational, qbracket, qbrace, qpow

Q1 = QRational(1)


def vec(p, fam, deg, coeff=1):
    return Vector.of(p.generator(fam, deg), coeff)


# -- bracket and twist values ---------------------------------------------------


def test_w22q_trivial_bracket(w22q):
    out = w22q.bracket(vec(w22q, "L", 1), vec(w22q, "L", 2))
    assert out == vec(w22q, "L", 3)  # coefficient [2-1] = 1


def test_w22q_mixed_bracket_oracle(w22q):
    out = w22q.bracket(vec(w22q, "L", 0), vec(w22q, "W", 3))
    assert out.get(w22q.generator("W", 3)) == qbracket(3)


# The structure constants of the built-ins, written out from their formulas:
# (family, family) -> (m, n) -> (target family, coefficient) for the bracket of
# the two generators of degrees m and n, mirrored and super-skew pairs
# included; pairs not listed bracket to 0.  Unindexed families get m = n = 0.
BRACKET_ORACLE = {
    "w22q": {
        ("L", "L"): lambda m, n: ("L", qbracket(n - m)),
        ("L", "W"): lambda m, n: ("W", qbracket(n - m)),
        ("W", "L"): lambda m, n: ("W", -qbracket(m - n)),
    },
    "wittq": {
        ("L", "L"): lambda m, n: ("L", qbrace(n) - qbrace(m)),
    },
    "wittsuperq": {
        ("L", "L"): lambda m, n: ("L", qbrace(n) - qbrace(m)),
        ("L", "G"): lambda m, n: ("G", qbrace(n + 1) - qbrace(m)),
        ("G", "L"): lambda m, n: ("G", qbrace(n) - qbrace(m + 1)),
    },
    "example49": {
        ("x1", "x2"): lambda m, n: ("x1", qpow(2)),
        ("x2", "x1"): lambda m, n: ("x1", -qpow(2)),
        ("x2", "y"): lambda m, n: ("y", -qpow(1) / 2),
        ("y", "x2"): lambda m, n: ("y", qpow(1) / 2),
        ("y", "y"): lambda m, n: ("x1", qpow(2)),
    },
}

# family -> m -> coefficient of the twist, which keeps the generator
ALPHA_ORACLE = {
    "w22q": {"L": lambda m: qpow(m) + qpow(-m), "W": lambda m: qpow(m) + qpow(-m)},
    "wittq": {"L": lambda m: Q1 + qpow(m)},
    "wittsuperq": {"L": lambda m: Q1 + qpow(m), "G": lambda m: Q1 + qpow(m + 1)},
    "example49": {"x1": lambda m: qpow(2), "x2": lambda m: Q1, "y": lambda m: qpow(1)},
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_structure_constant_oracle(name):
    p = builtin(name)
    gens = p.gens_in(Window(-3, 3))
    assert {g.family for g in gens} == set(ALPHA_ORACLE[name])
    for g1 in gens:
        m = g1.degree or 0
        assert dict(p.alpha_gens(g1)) == {g1: ALPHA_ORACLE[name][g1.family](m)}
        for g2 in gens:
            n = g2.degree or 0
            want = {}
            rule = BRACKET_ORACLE[name].get((g1.family, g2.family))
            if rule is not None:
                fam, c = rule(m, n)
                if not c.is_zero:
                    degree = None if g1.degree is None else m + n
                    want[p.generator(fam, degree)] = c
            assert dict(p.bracket_gens(g1, g2)) == want, (g1, g2)


def test_builtin_names_match_shipped_files():
    data = files("homlie").joinpath("data")
    stems = {f.name[: -len(".alg")] for f in data.iterdir() if f.name.endswith(".alg")}
    assert stems == set(BUILTIN_NAMES)
    for name in BUILTIN_NAMES:
        text = data.joinpath(f"{name}.alg").read_text("utf-8")
        assert re.findall(r"^\s*algebra\s+(\w+)\s*;", text, re.M) == [name]
        assert builtin(name).name == name
        assert builtin(name) is builtin(name)  # parsed once per process


def test_w22q_skew_resolution(w22q):
    # [W_3, L_1] = -[L_1, W_3] = -[3-1] W_4 through the mirror rule
    out = w22q.bracket(vec(w22q, "W", 3), vec(w22q, "L", 1))
    assert out == Vector.of(w22q.generator("W", 4), -qbracket(2))
    mirror = w22q.bracket(vec(w22q, "L", 1), vec(w22q, "W", 3))
    assert out == -1 * mirror


def test_wittsuperq_gg_bracket_vanishes(wittsuperq):
    out = wittsuperq.bracket(vec(wittsuperq, "G", 2), vec(wittsuperq, "G", 5))
    assert out.is_zero


def test_bracket_sums_rule_terms_on_one_target():
    # [L(m), L(n)] = (m - n)^2 L(m+n) + (m - n) L(m+n): one entry per
    # target, and none where the two terms cancel
    p = parse("""algebra split;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = ((m - n)*(m - n)) * L(m+n) + (m - n) * L(m+n);
alpha L(m) = (1) * L(m);
""")
    l1, l2, l3 = (p.generator("L", d) for d in (1, 2, 3))
    # [L(1), L(2)] = 0 but [L(2), L(1)] = 2 L(3); skew_at fills no cache
    assert not p.skew_at(l1, l2) and not p.skew_at(l2, l1)
    assert p.skew_at(l1, l1)
    assert not p._bracket_cache
    assert p.bracket_gens(l2, l1) == ((l3, QRational(2)),)
    assert p.bracket_gens(l1, l2) == ()


@pytest.mark.parametrize("m,n", [(2, 5), (0, 1), (-3, 4), (1, 1)])
def test_wittsuperq_super_skew_resolution(wittsuperq, m, n):
    # oracle: the sign rule with |G| = 1, |L| = 0 applied to the declared rule
    direct = wittsuperq.bracket(vec(wittsuperq, "G", m), vec(wittsuperq, "L", n))
    mirror = wittsuperq.bracket(vec(wittsuperq, "L", n), vec(wittsuperq, "G", m))
    assert direct == -1 * mirror
    assert direct.get(wittsuperq.generator("G", m + n)) == qbrace(n) - qbrace(m + 1)


def test_alpha_values(w22q, wittq, example49):
    assert w22q.alpha(vec(w22q, "L", 2)) == Vector.of(
        w22q.generator("L", 2), qpow(2) + qpow(-2)
    )
    assert wittq.alpha(vec(wittq, "L", 0)) == Vector.of(
        wittq.generator("L", 0), QRational(2)
    )
    y = example49.generator("y")
    assert example49.alpha(Vector.of(y)) == Vector.of(y, qpow(1))


def test_example49_brackets(example49):
    x1 = example49.generator("x1")
    x2 = example49.generator("x2")
    y = example49.generator("y")
    lam = qpow(1)
    assert example49.bracket(Vector.of(x1), Vector.of(x2)) == Vector.of(x1, lam ** 2)
    assert example49.bracket(Vector.of(y), Vector.of(y)) == Vector.of(x1, lam ** 2)
    assert example49.bracket(Vector.of(x2), Vector.of(y)) == Vector.of(
        y, -(lam / QRational(2))
    )
    # super mirror of an odd/even pair keeps the minus sign
    assert example49.bracket(Vector.of(y), Vector.of(x2)) == Vector.of(
        y, lam / QRational(2)
    )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_integer_tables_only_for_laurent_rules(name):
    # example49's rules hold the rational constant -1/2, so it takes the
    # Q(q) tables; the others hold integer Laurent polynomials
    p = builtin(name)
    assert p.fast_scalars == (name != "example49")
    if p.fast_scalars:
        bracket, alpha = solver._rules(p)
        gens = p.gens_in(Window(-2, 2))
        for g1 in gens:
            for g2 in gens:
                for _, c in bracket(g1, g2) + alpha(g1):
                    assert all(type(v) is int for _, v in c.items())


def test_unknown_generator_and_builtin(w22q):
    with pytest.raises(UnknownGenerator):
        w22q.generator("G", 0)
    with pytest.raises(UnknownBuiltin):
        builtin("nope")


# -- structural properties --------------------------------------------------------


def _random_vec(p, window, rng):
    gens = p.gens_in(window)
    out = Vector({})
    for _ in range(rng.randint(1, 3)):
        out = out + Vector.of(rng.choice(gens), QRational(rng.randint(-4, 4)))
    return out


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq", "example49"])
def test_bracket_bilinear_alpha_linear(name):
    p = builtin(name)
    rng = random.Random(11)
    w = Window(-3, 3)
    for _ in range(25):
        x, y, z = (_random_vec(p, w, rng) for _ in range(3))
        c = QRational(rng.randint(-3, 3))
        assert p.bracket(x + c * y, z) == p.bracket(x, z) + c * p.bracket(y, z)
        assert p.bracket(z, x + c * y) == p.bracket(z, x) + c * p.bracket(z, y)
        assert p.alpha(x + c * y) == p.alpha(x) + c * p.alpha(y)


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq"])
def test_grading_and_parity_additivity(name):
    p = builtin(name)
    w = Window(-3, 3)
    gens = p.gens_in(w)
    for g1 in gens:
        for g2 in gens:
            for g, _ in p.bracket_gens(g1, g2):
                assert g.degree == g1.degree + g2.degree
                assert g.parity == (g1.parity + g2.parity) % 2


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq", "example49"])
def test_skew_or_super_skew_on_window_pairs(name):
    p = builtin(name)
    w = Window(-3, 3)
    gens = p.gens_in(w)
    for g1 in gens:
        for g2 in gens:
            lhs = p.bracket(Vector.of(g1), Vector.of(g2))
            sign = -1 if (g1.parity * g2.parity) % 2 == 0 else 1
            assert lhs == sign * p.bracket(Vector.of(g2), Vector.of(g1))
            assert p.skew_at(g1, g2)


def test_alpha_preserves_degree_and_parity(wittsuperq):
    w = Window(-4, 4)
    for g in wittsuperq.gens_in(w):
        for gg, _ in wittsuperq.alpha_gens(g):
            assert gg.degree == g.degree and gg.parity == g.parity


# -- validation -------------------------------------------------------------------


def _mk(families, brackets, alphas, mode="lie"):
    return AlgebraPresentation("test", mode, families, brackets, alphas)


def test_rejects_odd_family_in_lie_mode():
    with pytest.raises(PresentationError):
        _mk([Family("G", 1, "all")], {}, {"G": AlphaRule(("num", 1), "G")})


def test_rejects_parity_violating_target():
    fams = [Family("L", 0, "all"), Family("G", 1, "all")]
    rules = {("G", "G"): [BracketTerm(("num", 1), "G", 0)]}
    alphas = {"L": AlphaRule(("num", 1), "L"), "G": AlphaRule(("num", 1), "G")}
    with pytest.raises(PresentationError):
        _mk(fams, rules, alphas, mode="super")


def test_rejects_missing_alpha_rule():
    with pytest.raises(PresentationError):
        _mk([Family("L", 0, "all")], {}, {})


def test_rejects_mixed_indexing():
    fams = [Family("L", 0, "all"), Family("x", 0, None)]
    alphas = {"L": AlphaRule(("num", 1), "L"), "x": AlphaRule(("num", 1), "x")}
    with pytest.raises(PresentationError):
        _mk(fams, {}, alphas)


def test_window_basis_ordering(w22q):
    gens = w22q.gens_in(Window(-1, 1))
    assert [str(g) for g in gens] == [
        "L(-1)", "L(0)", "L(1)", "W(-1)", "W(0)", "W(1)"
    ]


def test_finite_degree_domain():
    fams = [Family("L", 0, (0, 1, 2))]
    rules = {("L", "L"): [BracketTerm(("qbr", (-1, 1, 0)), "L", 0)]}
    alphas = {"L": AlphaRule(("num", 1), "L")}
    p = _mk(fams, rules, alphas)
    gens = p.gens_in(Window(-5, 5))
    assert [g.degree for g in gens] == [0, 1, 2]
    # bracket targets outside the finite domain are truncated away
    out = p.bracket(vec(p, "L", 1), vec(p, "L", 2))
    assert out.is_zero
