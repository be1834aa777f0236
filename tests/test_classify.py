import pytest

from homlie.algebra import BUILTIN_NAMES, Vector, Window, builtin
from homlie.checker import check_bilinear_class, check_linear_class
from homlie import classify
from homlie.classify import (
    DependentKnowns,
    corollary_check,
    decompose,
    known_map,
    solve_commuting_maps,
)
from homlie.maps import BilinearMap
from homlie.qfield import _P1, QRational, qbrace, qbracket
from homlie.solver import SolutionSpace, stable_solve
from test_solver import _presentation

WIN = Window(-3, 3)
RANGE = (-2, 2)
Q1 = QRational(1)


@pytest.fixture(scope="module")
def w22q_space(w22q):
    return stable_solve(w22q, "bilinear", "biderivation", s=0, window=WIN, delta=2)


# -- known maps and decomposition ------------------------------------------------


def test_known_maps_pass_their_classes(w22q, wittq, wittsuperq):
    assert check_bilinear_class(
        w22q, known_map("phi_ad", w22q), "biderivation", WIN
    ).passed
    assert check_bilinear_class(
        w22q, known_map("phi_0", w22q), "biderivation", WIN
    ).passed
    assert check_bilinear_class(
        wittsuperq, known_map("phi_minus1", wittsuperq), "super_biderivation", WIN
    ).passed


def _on_l_pairs(target, shift, coeff):
    # (L_m, L_n) -> coeff(m, n) * target_{m+n+shift}; zero on every other pair
    def value(p, g1, g2):
        if g1.family == g2.family == "L":
            m, n = g1.degree, g2.degree
            return Vector.of(p.generator(target, m + n + shift), coeff(m, n))
        return Vector({})
    return value


# the named maps' closed forms, written out rather than induced from the
# commuting maps: (algebra, map) -> (parity, degree, value at a generator pair)
NAMED_MAP_ORACLE = {
    **{
        (alg, "phi_ad"): (
            0, None if alg == "example49" else 0,
            lambda p, g1, g2: Vector(p.bracket_gens(g1, g2)),
        )
        for alg in BUILTIN_NAMES
    },
    ("w22q", "phi_0"): (0, 0, _on_l_pairs("W", 0, lambda m, n: qbracket(n - m))),
    ("wittsuperq", "phi_minus1"): (
        1, -1, _on_l_pairs("G", -1, lambda m, n: qbrace(n) - qbrace(m)),
    ),
}


@pytest.mark.parametrize("alg,name", sorted(NAMED_MAP_ORACLE))
def test_named_map_closed_form_oracle(alg, name):
    p = builtin(alg)
    parity, degree, value = NAMED_MAP_ORACLE[(alg, name)]
    phi = known_map(name, p)
    assert (phi.parity, phi.degree) == (parity, degree)
    gens = p.gens_in(Window(-4, 4))
    for g1 in gens:
        for g2 in gens:
            assert phi(g1, g2) == value(p, g1, g2), (g1, g2)


def test_w22q_space_decomposes(w22q, w22q_space):
    rep = decompose(w22q_space, {
        "phi_ad": known_map("phi_ad", w22q),
        "phi_0": known_map("phi_0", w22q),
    })
    assert rep.residual_dim == 0
    assert all(c is not None for c in rep.coefficients)


def test_decompose_recovers_unit_coefficients(w22q, w22q_space):
    # feeding the knowns' own restrictions back in gives unit coefficient rows
    ansatz = w22q_space.ansatz
    knowns = {
        "phi_ad": known_map("phi_ad", w22q),
        "phi_0": known_map("phi_0", w22q),
    }
    basis = [ansatz.slot_vector_of_map(knowns[name]) for name in knowns]
    space = SolutionSpace(ansatz, basis)
    rep = decompose(space, knowns)
    assert rep.residual_dim == 0
    assert rep.coefficients[0] == {"phi_ad": Q1, "phi_0": QRational(0)}
    assert rep.coefficients[1] == {"phi_ad": QRational(0), "phi_0": Q1}
    # the knowns in the other order give the same coefficients
    rep = decompose(space, dict(reversed(knowns.items())))
    assert rep.residual_dim == 0
    assert rep.coefficients[0] == {"phi_0": QRational(0), "phi_ad": Q1}
    assert rep.coefficients[1] == {"phi_0": Q1, "phi_ad": QRational(0)}


def test_decompose_reports_residual(w22q, w22q_space):
    rep = decompose(w22q_space, {"phi_ad": known_map("phi_ad", w22q)})
    assert rep.residual_dim == 1
    assert sum(1 for c in rep.coefficients if c is None) >= 1


def test_dependent_knowns_rejected(w22q, w22q_space):
    phi = known_map("phi_ad", w22q)
    with pytest.raises(DependentKnowns):
        decompose(w22q_space, {"a": phi, "b": phi})


def test_decompose_gives_a_map_with_no_slot_coefficient_zero(w22q, w22q_space):
    # the zero map has a zero slot vector: that is no linear dependence, and
    # it takes no part in the span
    knowns = {
        "phi_ad": known_map("phi_ad", w22q),
        "zero": BilinearMap.from_rule(0, lambda g1, g2: Vector({})),
        "phi_0": known_map("phi_0", w22q),
    }
    rep = decompose(w22q_space, knowns)
    want = decompose(w22q_space, {name: knowns[name] for name in ("phi_ad", "phi_0")})
    assert rep.residual_dim == want.residual_dim == 0
    for got, c in zip(rep.coefficients, want.coefficients):
        assert list(got) == ["phi_ad", "zero", "phi_0"]
        assert got == {**c, "zero": QRational(0)}


# -- commuting maps -----------------------------------------------------------------


def test_w22q_commuting_family(w22q):
    fam = solve_commuting_maps(w22q, 0, WIN, delta=2, degree_range=RANGE)
    assert fam.dim == 2
    assert {s for s, _, _ in fam.instances} == {0}
    # the family contains the identity and the L -> W shadow
    for f in (fam.instantiate([1, 0]), fam.instantiate([0, 1]),
              fam.instantiate([QRational(3), QRational(-2)])):
        assert check_linear_class(w22q, f, "commuting_map", WIN).passed


def test_commuting_maps_reject_negative_delta(wittq):
    with pytest.raises(ValueError, match="delta"):
        solve_commuting_maps(wittq, 0, WIN, delta=-1, degree_range=RANGE)


def test_wittq_commuting_family_is_scalar(wittq):
    fam = solve_commuting_maps(wittq, 0, WIN, delta=2, degree_range=RANGE)
    assert fam.dim == 1
    f = fam.instantiate([1])
    gens = wittq.gens_in(WIN)
    scale = None
    for g in gens:
        img = f(g)
        assert set(img.support()) <= {g}
        c = img.get(g)
        scale = c if scale is None else scale
        assert c == scale


def test_wittsuperq_commuting_families(wittsuperq):
    even = solve_commuting_maps(wittsuperq, 0, WIN, delta=2, degree_range=RANGE)
    assert even.dim == 1
    odd = solve_commuting_maps(wittsuperq, 1, WIN, delta=2, degree_range=RANGE)
    assert odd.dim == 1
    s, vec, f = odd.instances[0]
    assert s == -1
    for g in wittsuperq.gens_in(WIN):
        img = f(g)
        if g.family == "L":
            assert list(img.support())[0].family == "G"
        else:
            assert img.is_zero


def test_example49_commuting_maps(example49):
    fam = solve_commuting_maps(example49, 0, WIN, delta=2, degree_range=RANGE)
    # every member commutes and the family is nonempty (scalars at least)
    assert fam.dim >= 1
    for i in range(fam.dim):
        values = [Q1 if j == i else QRational(0) for j in range(fam.dim)]
        f = fam.instantiate(values)
        assert check_linear_class(example49, f, "commuting_map", WIN).passed


# -- corollaries -----------------------------------------------------------------------


def test_w22q_corollaries(w22q):
    fam = solve_commuting_maps(w22q, 0, WIN, delta=2, degree_range=RANGE)
    auto = corollary_check(w22q, fam, "automorphism", WIN)
    assert auto.classifications == ["identity"]
    der = corollary_check(w22q, fam, "derivation", WIN)
    assert der.classifications == ["zero"]


def test_wittq_corollaries(wittq):
    fam = solve_commuting_maps(wittq, 0, WIN, delta=2, degree_range=RANGE)
    assert corollary_check(wittq, fam, "automorphism", WIN).classifications == ["identity"]
    assert corollary_check(wittq, fam, "derivation", WIN).classifications == ["zero"]


def test_wittsuperq_corollaries(wittsuperq):
    even = solve_commuting_maps(wittsuperq, 0, WIN, delta=2, degree_range=RANGE)
    odd = solve_commuting_maps(wittsuperq, 1, WIN, delta=2, degree_range=RANGE)
    assert corollary_check(
        wittsuperq, even, "automorphism", WIN
    ).classifications == ["identity"]
    assert corollary_check(
        wittsuperq, even, "super_derivation", WIN
    ).classifications == ["zero"]
    assert corollary_check(
        wittsuperq, odd, "super_derivation", WIN
    ).classifications == ["zero"]


def _division_key(poly):
    # the reference key: every coefficient divided by the one of the
    # smallest monomial
    items = sorted(poly.items())
    return tuple((m, c / items[0][1]) for m, c in items)


def _partition(polys, key):
    groups = {}
    for i, poly in enumerate(polys):
        groups.setdefault(key(poly), []).append(i)
    return sorted(groups.values())


@pytest.mark.parametrize("alg,parity", [
    ("w22q", 0), ("wittq", 0), ("wittsuperq", 0), ("wittsuperq", 1), ("example49", 0),
    ("thirds", 0),
])
def test_constraint_keys_partition_like_the_division(monkeypatch, alg, parity):
    # every constraint poly of the corollary checks, keyed by its primitive
    # part and by division by its lead coefficient: the same classes
    p = _presentation(alg)
    fam = solve_commuting_maps(p, parity, WIN, delta=2, degree_range=RANGE)
    derivation = "super_derivation" if p.is_super else "derivation"
    polys = []
    key = classify._constraint_key
    monkeypatch.setattr(classify, "_constraint_key", lambda poly: polys.append(poly) or key(poly))
    for prop in ("automorphism", derivation) if parity == 0 else (derivation,):
        corollary_check(p, fam, prop, WIN)
    assert len(_partition(polys, key)) < len(polys)
    assert _partition(polys, key) == _partition(polys, _division_key)
    rational = [poly for poly in polys if any(c.den is not _P1 for c in poly.values())]
    assert bool(rational) == (alg in ("thirds", "example49"))


def test_property_validation(wittq, wittsuperq):
    fam = solve_commuting_maps(wittq, 0, WIN, delta=2, degree_range=RANGE)
    with pytest.raises(ValueError):
        corollary_check(wittq, fam, "super_derivation", WIN)
    with pytest.raises(ValueError):
        corollary_check(wittq, fam, "unknown", WIN)
    sfam = solve_commuting_maps(wittsuperq, 0, WIN, delta=2, degree_range=RANGE)
    with pytest.raises(ValueError):
        corollary_check(wittsuperq, sfam, "derivation", WIN)


def test_commuting_round_trip_into_biderivations(w22q, wittsuperq):
    fam = solve_commuting_maps(w22q, 0, WIN, delta=2, degree_range=RANGE)
    from homlie.maps import BilinearMap

    for _, _, f in fam.instances:
        phi = BilinearMap.from_rule(
            0,
            lambda g1, g2, f=f: None if f(g2) is None else w22q.bracket(
                Vector.of(g1), f(g2)
            ),
            degree=0,
        )
        assert check_bilinear_class(w22q, phi, "biderivation", WIN).passed
    odd = solve_commuting_maps(wittsuperq, 1, WIN, delta=2, degree_range=RANGE)
    for s, _, f in odd.instances:
        phi = BilinearMap.from_rule(
            1,
            lambda g1, g2, f=f: None if f(g1) is None else wittsuperq.bracket(
                f(g1), Vector.of(g2)
            ),
            degree=s,
        )
        assert check_bilinear_class(wittsuperq, phi, "super_biderivation", WIN).passed
