import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from homlie import qfield, solver
from homlie.algebra import BUILTIN_NAMES, Window, builtin
from homlie.checker import (
    _wrap_map,
    check_bilinear_class,
    check_bilinear_skew,
    check_linear_class,
)
from homlie.classify import decompose, known_map
from homlie.cli import main
from homlie.dsl import parse
from homlie.identities import (
    BILINEAR_CLASSES,
    LINEAR_CLASSES,
    ClassModeMismatch,
    bilinear_instances,
    linear_instances,
    m_add,
    m_neg,
)
from homlie.qfield import ForbiddenSpecialization, LaurentPoly, QRational
from homlie.solver import (
    ConstraintSystem,
    build_ansatz,
    build_system,
    express_in_span,
    map_from_assignment,
    nullspace,
    nullspace_dim_specialized,
    reduce_span,
    restrict_space,
    span_rank,
    stable_solve,
)
from homlie.suite import ORACLE_CLASSES

Q0 = QRational(0)
Q1 = QRational(1)
SMALL = Window(-2, 2)

# bilinear systems at SMALL; both vanishing and nonzero window spaces occur
BILINEAR_DIM_CASES = [
    ("w22q", "biderivation", 0),
    ("w22q", "alpha_biderivation", 0),
    ("wittq", "biderivation", 0),
    ("wittsuperq", "super_biderivation", 0),
    ("wittsuperq", "super_biderivation", 1),
    ("wittsuperq", "alpha_super_biderivation", 1),
]
DIM_CASES = pytest.mark.parametrize("alg,cls,parity", BILINEAR_DIM_CASES)
DIM_DEGREES = pytest.mark.parametrize("s", [-2, 0, 1])

# linear systems at SMALL; only w22q commuting maps at s = 0 have a nonzero
# window space
LINEAR_DIM_CASES = [
    ("w22q", "alpha_k_derivation", 0),
    ("wittsuperq", "alpha_k_derivation", 1),
    ("w22q", "commuting_map", 0),
    ("wittsuperq", "commuting_map", 1),
]


def _kind(cls):
    return "bilinear" if cls in BILINEAR_CLASSES else "linear"


# -- ansatz shape ------------------------------------------------------------


def test_one_family_slot_count(wittq):
    a = build_ansatz(wittq, "bilinear", "biderivation", s=0, window=Window(-3, 3))
    assert len(a) == 49


def test_two_family_slot_count(w22q):
    # 4 ordered family pairs x 49 degree pairs x 2 parity-admissible targets
    a = build_ansatz(w22q, "bilinear", "biderivation", s=0, window=Window(-3, 3))
    assert len(a) == 392


def test_odd_super_slot_patterns(wittsuperq):
    a = build_ansatz(
        wittsuperq, "bilinear", "super_biderivation", s=-1, parity=1,
        window=Window(-3, 3),
    )
    patterns = {(k[0], k[2], k[4]) for k in a.slots}
    assert patterns == {("L", "L", "G"), ("L", "G", "L"), ("G", "L", "L"),
                        ("G", "G", "G")}


def test_linear_ansatz_targets(wittsuperq):
    a = build_ansatz(
        wittsuperq, "linear", "commuting_map", s=0, parity=1, window=Window(-1, 1)
    )
    patterns = {(k[0], k[2]) for k in a.slots}
    assert patterns == {("L", "G"), ("G", "L")}


def test_odd_parity_needs_super(wittq):
    with pytest.raises(ValueError):
        build_ansatz(wittq, "bilinear", "biderivation", s=0, parity=1,
                     window=SMALL)
    with pytest.raises(ClassModeMismatch):
        build_ansatz(wittq, "bilinear", "super_biderivation", s=0, window=SMALL)


def test_unindexed_ansatz_takes_degree_zero_only(example49):
    for s in (-1, 3):
        with pytest.raises(ClassModeMismatch, match=f"degree 0, not {s}$"):
            build_ansatz(example49, "bilinear", "super_biderivation", s=s, window=SMALL)
    assert build_ansatz(example49, "linear", "commuting_map", s=0, window=SMALL).degree == 0


def test_finite_family_slots_target_its_index_set():
    a = build_ansatz(_presentation("finite"), "bilinear", "biderivation", s=0,
                     window=Window(-1, 3))
    assert {key[-1] for key in a.slots} == {0, 1, 2}
    assert len(a) == 6


# -- nullspace basics -----------------------------------------------------------


def test_empty_system_has_identity_basis(wittq):
    ansatz = build_ansatz(wittq, "bilinear", "biderivation", s=0, window=Window(0, 1))
    sys = ConstraintSystem(ansatz)
    sol = nullspace(sys)
    assert sol.dim == len(ansatz) == 4
    vecs = sol.id_vectors()
    assert span_rank(vecs) == 4
    for i, vec in enumerate(vecs):
        assert vec == {i: Q1}
    # the oracle refuses these points before it looks at the rows
    for q0 in (0, 1, -1):
        with pytest.raises(ForbiddenSpecialization):
            nullspace_dim_specialized(sys, q0)


def test_single_difference_row(wittq):
    ansatz = build_ansatz(wittq, "bilinear", "biderivation", s=0, window=Window(0, 1))
    # x0 - x1 = 0
    sys = ConstraintSystem(ansatz, [{0: {0: 1}, 1: {0: -1}}])
    sol = nullspace(sys)
    assert sol.dim == 3
    # the x0 = x1 relation holds in every basis vector
    for vec in sol.id_vectors():
        assert vec.get(0, QRational(0)) == vec.get(1, QRational(0))


def test_vanishing_case_matches_specialized_oracle(wittq):
    # degree shift 1 admits no solutions on this window
    a = build_ansatz(wittq, "bilinear", "biderivation", s=1, window=Window(-4, 4))
    sys = build_system(wittq, a)
    sol = nullspace(sys)
    assert sol.dim == nullspace_dim_specialized(sys, 2) == 0


# the paper's four nonzero stable spaces, (alg, cls, parity, s)
NONZERO_SPACES = [
    ("w22q", "biderivation", 0, 0),
    ("wittq", "biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 1, -1),
]


def _oracle_cases():
    # (s, alg, cls, parity, window); every class on SMALL, rational (thirds,
    # example49) and Q(q) (qplus5) constants included, and the nonzero
    # spaces on a wider window
    cases = [
        (s, alg, cls, parity, SMALL)
        for alg, cls, parity in BILINEAR_DIM_CASES + LINEAR_DIM_CASES
        for s in (-2, 0, 1)
    ]
    cases += [
        (s, alg, cls, 0, SMALL)
        for alg in ("thirds", "qplus5")
        for cls in ("biderivation", "alpha_biderivation", "derivation",
                    "alpha_k_derivation", "commuting_map")
        for s in (-2, 0, 1)
    ]
    cases += [
        (0, "example49", cls, parity, SMALL)
        for cls in ("super_biderivation", "alpha_super_biderivation", "super_derivation",
                    "alpha_k_derivation", "commuting_map")
        for parity in (0, 1)
    ]
    cases += [(s, alg, cls, parity, Window(-4, 4)) for alg, cls, parity, s in NONZERO_SPACES]
    return [
        pytest.param(s, alg, cls, parity, window,
                     id=f"{s}-{alg}-{cls}-{parity}" + ("" if window == SMALL else "-wide"))
        for s, alg, cls, parity, window in cases
    ]


@pytest.mark.parametrize("s,alg,cls,parity,window", _oracle_cases())
def test_symbolic_dim_equals_specialized_dim(s, alg, cls, parity, window):
    p = _presentation(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window)
    sys = build_system(p, a)
    assert nullspace(sys).dim == nullspace_dim_specialized(sys, 2)


def _dense_fraction_nullity(sys, q0):
    """Reference for `nullspace_dim_specialized`: dense `Fraction`
    elimination of every row evaluated at q0."""
    q0 = Fraction(q0)
    ncols = len(sys.ansatz.slots)
    rows = []
    for row in sys.rows:
        dense = [Fraction(0)] * ncols
        for j, pol in row.items():
            dense[j] = sum((c * q0**e for e, c in pol.items()), Fraction(0))
        rows.append(dense)
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rp = rows[rank]
        support = [j for j in range(col, ncols) if rp[j]]
        for ri in rows[rank + 1:]:
            f = ri[col]
            if f:
                scale = f / rp[col]
                for j in support:
                    ri[j] -= scale * rp[j]
        rank += 1
        if rank == len(rows):
            break
    return ncols - rank


@pytest.mark.parametrize("alg,cls,parity", ORACLE_CLASSES)
def test_integer_oracle_equals_dense_fraction_elimination(alg, cls, parity):
    # criterion 12's classes on [-1, 1], and its wittq systems on SMALL
    p = builtin(alg)
    windows = [Window(-1, 1)] + ([SMALL] if alg == "wittq" else [])
    for window in windows:
        for s in range(-2, 3):
            a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=window)
            sys = build_system(p, a)
            for q0 in (2, 3, Fraction(1, 2)):
                assert nullspace_dim_specialized(sys, q0) == _dense_fraction_nullity(sys, q0)


# -- the system row format -------------------------------------------------------


def _freeze(row):
    """Canonical form of an integer Laurent row {col: {exp: coeff}}; two rows
    share it exactly when one is the other times a nonzero rational and a
    power of q.  It holds (col, ((exp, coeff), ...)) for each entry, sorted
    at both levels, with integer content 1, lowest exponent 0 and a positive
    lowest coefficient in its first column."""
    if len(row) == 1:
        # a single nonzero coefficient forces its unknown to vanish
        (j,) = row
        return ((j, ((0, 1),)),)
    shift = min(map(min, row.values()))
    g = 0
    for pol in row.values():
        g = math.gcd(g, *pol.values())
    items = sorted(row.items())
    first = items[0][1]
    if first[min(first)] < 0:
        g = -g
    return tuple(
        (j, tuple(sorted((e - shift, c // g) for e, c in pol.items()))) for j, pol in items
    )


def _distinct(sys):
    """The canonical forms of the system's rows, each once, in row order."""
    return list(dict.fromkeys(map(_freeze, sys.rows)))


# distinct rows at SMALL, s = 0
ROW_COUNTS = {
    ("w22q", "biderivation"): 1050,
    ("wittq", "biderivation"): 69,
    ("thirds", "biderivation"): 69,
    ("thirds", "alpha_biderivation"): 76,
    ("thirds", "commuting_map"): 10,
    ("qplus5", "biderivation"): 69,
    ("qplus5", "alpha_biderivation"): 76,
    ("qplus5", "commuting_map"): 10,
    ("wz", "biderivation"): 73,
    ("wz", "alpha_biderivation"): 76,
    ("wz", "commuting_map"): 10,
}


@pytest.mark.parametrize("alg,cls,parity,s", [
    *[(alg, cls, parity, s) for alg, cls, parity in BILINEAR_DIM_CASES for s in (-2, 0, 1)],
    *[(alg, cls, parity, 0) for alg, cls, parity in LINEAR_DIM_CASES],
    # fractional structure constants
    ("example49", "super_biderivation", 0, 0),
    ("example49", "commuting_map", 0, 0),
    # a rational constant (thirds), Q(q) constants (qplus5) and a vanishing
    # twist (wz)
    *[(alg, cls, 0, 0)
      for alg in ("thirds", "qplus5", "wz", "finite")
      for cls in ("biderivation", "alpha_biderivation", "commuting_map")],
])
def test_system_rows_are_distinct_primitive_integer_tuples(alg, cls, parity, s):
    p = _presentation(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
    sys = build_system(p, a)
    assert sys.rows
    for row in sys.rows:
        assert type(row) is dict and row
        for j, pol in row.items():
            assert type(j) is int and 0 <= j < sys.nunknowns
            assert type(pol) is dict and pol
            assert all(type(e) is int and type(c) is int and c for e, c in pol.items())
    rows = _distinct(sys)
    assert len(set(rows)) == len(rows)
    for row in rows:
        assert type(row) is tuple and row
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))
        content = 0
        for j, pol in row:
            assert type(j) is int and type(pol) is tuple and pol
            exps = [e for e, _ in pol]
            assert exps == sorted(set(exps))
            for e, c in pol:
                assert type(e) is int and type(c) is int and c
                content = math.gcd(content, c)
        assert content == 1
        assert min(e for _, pol in row for e, _ in pol) == 0
        # the lowest coefficient of the first column
        assert row[0][1][0][1] > 0
    if s == 0 and (alg, cls) in ROW_COUNTS:
        assert len(rows) == ROW_COUNTS[alg, cls]


# -- the row generator against the checker's instance streams -----------------

WZ = """algebra wz;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (qnm(n) - qnm(m)) * L(m+n);
alpha L(m) = (1 - q^m) * L(m);
"""

# a bracket coefficient outside Z[q, 1/q], so the rows are built from Q(q)
# structure constants
QPLUS5 = """algebra qplus5;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (qnm(n) - qnm(m)) / (q + 5) * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
"""

# a rational constant, so the rows are built from Q(q) structure constants
# with constant denominators
THIRDS = """algebra thirds;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (qnm(n) - qnm(m)) / 3 * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
"""

# a finite index set: a bracket target outside it has no slot
FINITE = """algebra finite;
mode lie;
family L parity 0 degrees {0, 1, 2};
bracket [L(m), L(n)] = (m - n) * L(m+n);
alpha L(m) = (1) * L(m);
"""

# brackets that are not (super-)skew: a same-family rule, one split into two
# terms on one target, [L, W] and [W, L] declared with clashing signs, an
# antisymmetric bracket of odd generators, and (OUTER below) one that is skew
# on the window pairs only
LOPSIDED = """algebra lopsided;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (m) * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
"""

# skew term (m - n) plus symmetric term (m - n)^2, which vanishes on the
# diagonal: only their sum shows that the bracket is not skew
SPLIT = """algebra split;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = ((m - n)*(m - n)) * L(m+n) + (m - n) * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
"""

CLASHING = """algebra clashing;
mode lie;
family L parity 0 degrees int;
family W parity 0 degrees int;
bracket [L(m), L(n)] = (qnm(n) - qnm(m)) * L(m+n);
bracket [L(m), W(n)] = (qnm(n) - qnm(m)) * W(m+n);
bracket [W(m), L(n)] = (qnm(m) - qnm(n)) * W(m+n);
alpha L(m) = (1 + q^m) * L(m);
alpha W(m) = (q^m) * W(m);
"""

ODDCLASH = """algebra oddclash;
mode super;
family L parity 0 degrees int;
family G parity 1 degrees int;
bracket [L(m), L(n)] = (qnm(n) - qnm(m)) * L(m+n);
bracket [L(m), G(n)] = (qnm(n + 1) - qnm(m)) * G(m+n);
bracket [G(m), G(n)] = (m - n) * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
alpha G(m) = (1 + q^(m + 1)) * G(m);
"""

# skew on the window pairs of SMALL only: the slot targets beyond it break it
OUTER = """algebra outer;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (m - n + m*(m - 1)*(m + 1)*(m - 2)*(m + 2)) * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
"""

# [L, W] and [W, L] both declared, and skew
TWOWAY = CLASHING.replace("clashing", "twoway").replace(
    "[W(m), L(n)] = (qnm(m) - qnm(n))", "[W(m), L(n)] = (qnm(n) - qnm(m))"
)

NOT_SKEW = ("lopsided", "split", "clashing", "oddclash", "outer")

# classical (q-free) algebras with the identity twist, whose rows have
# constant integer entries: the Witt algebra, W(2,2) and the centerless twisted
# Heisenberg-Virasoro algebra
WITT = """algebra witt;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (n - m) * L(m+n);
alpha L(m) = (1) * L(m);
"""

W22 = """algebra w22;
mode lie;
family L parity 0 degrees int;
family W parity 0 degrees int;
bracket [L(m), L(n)] = (n - m) * L(m+n);
bracket [L(m), W(n)] = (n - m) * W(m+n);
alpha L(m) = (1) * L(m);
alpha W(m) = (1) * W(m);
"""

HV = """algebra hv;
mode lie;
family L parity 0 degrees int;
family I parity 0 degrees int;
bracket [L(m), L(n)] = (n - m) * L(m+n);
bracket [L(m), I(n)] = (n) * I(m+n);
alpha L(m) = (1) * L(m);
alpha I(m) = (1) * I(m);
"""

PRESENTATIONS = {
    "wz": WZ, "qplus5": QPLUS5, "thirds": THIRDS, "finite": FINITE,
    "lopsided": LOPSIDED, "split": SPLIT, "clashing": CLASHING, "oddclash": ODDCLASH, "outer": OUTER,
    "twoway": TWOWAY, "witt": WITT, "w22": W22, "hv": HV,
}


def _presentation(name):
    return parse(PRESENTATIONS[name]) if name in PRESENTATIONS else builtin(name)


def _generator_residuals(p, a, vec):
    """{(eq id, inputs, target): value} of every nonzero row . vec."""
    out = {}
    for eq_id, inputs, target, row in solver._rows(p, a):
        acc = Q0
        for j, c in row.items():
            if j in vec:
                acc = acc + (c if isinstance(c, QRational) else QRational(c)) * vec[j]
        if not acc.is_zero:
            out[eq_id, inputs, target] = acc
    return out


def _instance_residuals(p, a, vec):
    """{(eq id, inputs, target): value} of every nonzero lhs - rhs of the
    checker's non-strict instance stream on the map with slot values vec."""
    concrete = map_from_assignment(a, {a.slots[j]: v for j, v in vec.items()})
    if a.kind == "bilinear":
        stream = bilinear_instances(
            p, a.cls, a.window, _wrap_map(concrete, p, a.window), a.parity
        )
    else:
        stream = linear_instances(
            p, a.cls, a.window, _wrap_map(concrete, p, a.window), a.parity, k=a.k
        )
    out = {}
    for eq_id, inputs, lhs, rhs in stream:
        for target, value in m_add(lhs, m_neg(rhs)).items():
            out[eq_id, inputs, target] = value
    return out


def _mirror(eq_id, inputs):
    """(i, sign) when swapping inputs i and i + 1 gives the mirror of the
    instance, whose residual is the sign times the instance's: for eq1, eq2
    and eq on a skew bracket and for commute on any; None for
    twist-commute, which has no mirror."""
    i = {"eq1": 0, "eq": 0, "commute": 0, "eq2": 1}.get(eq_id)
    if i is None:
        return None
    odd = bool(inputs[i].parity and inputs[i + 1].parity)
    return i, (-1 if odd else 1) if eq_id == "commute" else (1 if odd else -1)


def _assert_rows_match_instance_residuals(p, a, skew=True):
    """`_rows` against the checker, which evaluates every instance.  On the
    map with random slot values, the rows' residuals are the checker's on
    the instances the stream keeps, and each instance it skips, the one of
    a mirror pair whose swapped inputs are out of `gens_in` order, has its
    mirror's residual times the mirror sign.  skew=False is for a bracket
    that is not skew: only commute instances have mirrors there."""
    pos = {g: i for i, g in enumerate(p.gens_in(a.window))}
    rng = random.Random(20211)
    for _ in range(2):
        vec = {j: QRational(rng.randint(-5, 5)) for j in range(len(a))}
        vec = {j: v for j, v in vec.items() if not v.is_zero}
        expected = _instance_residuals(p, a, vec)
        assert expected
        kept = {}
        mirrored = 0
        for (eq_id, inputs, target), value in expected.items():
            m = _mirror(eq_id, inputs) if skew or eq_id == "commute" else None
            if m is not None:
                i, sign = m
                u, v = inputs[i:i + 2]
                other = inputs[:i] + (v, u) + inputs[i + 2:]
                assert expected.get((eq_id, other, target), Q0) == value * sign
                mirrored += u != v
                if pos[u] > pos[v]:
                    continue
            kept[eq_id, inputs, target] = value
        assert _generator_residuals(p, a, vec) == kept
        assert mirrored or not (skew or a.cls == "commuting_map")


@pytest.mark.parametrize("alg,cls,parity,s", [
    ("w22q", "biderivation", 0, 0),
    ("w22q", "alpha_biderivation", 0, 1),
    ("wittq", "biderivation", 0, -1),
    ("wittsuperq", "super_biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 1, -1),
    ("wittsuperq", "alpha_super_biderivation", 0, 0),
    ("example49", "alpha_super_biderivation", 0, 0),
    ("example49", "super_biderivation", 1, 0),
    ("example49", "commuting_map", 1, 0),
    ("w22q", "commuting_map", 0, 0),
    ("wittq", "commuting_map", 0, 1),
    ("wittsuperq", "commuting_map", 0, 0),
    ("wittsuperq", "commuting_map", 1, -1),
    # alpha(L(0)) = 0: eq1 and eq2 keep their instances when a bracket
    # leaves the window but the twisted argument vanishes
    ("wz", "biderivation", 0, -1),
    ("wz", "biderivation", 0, 0),
    ("wz", "biderivation", 0, 1),
    ("wz", "commuting_map", 0, 0),
    ("qplus5", "biderivation", 0, 0),
    ("qplus5", "alpha_biderivation", 0, 1),
    ("qplus5", "derivation", 0, 0),
    ("qplus5", "commuting_map", 0, 0),
    ("finite", "biderivation", 0, 0),
    ("finite", "commuting_map", 0, 0),
])
def test_rows_match_the_instance_residuals(alg, cls, parity, s):
    p = _presentation(alg)
    window = Window(-1, 3) if alg == "finite" else SMALL
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window)
    _assert_rows_match_instance_residuals(p, a)


@pytest.mark.parametrize("alg,parity,s", [
    ("w22q", 0, 0),
    ("wittq", 0, 1),
    ("wittsuperq", 0, 0),
    ("wittsuperq", 1, -1),
    ("wz", 0, 0),
    ("qplus5", 0, 0),
])
@pytest.mark.parametrize("k", [1, 2])
def test_twisted_derivation_rows_match_the_instance_residuals(alg, parity, s, k):
    p = _presentation(alg)
    a = build_ansatz(p, "linear", "alpha_k_derivation", s=s, parity=parity,
                     window=SMALL, k=k)
    _assert_rows_match_instance_residuals(p, a)


def _classes(p):
    """(cls, parity) of every class that p admits."""
    return [
        (cls, parity)
        for cls in BILINEAR_CLASSES + LINEAR_CLASSES
        if ("super" in cls) == p.is_super or cls in ("alpha_k_derivation", "commuting_map")
        for parity in ((0, 1) if p.is_super else (0,))
    ]


def _instance_rows(p, a):
    """{(eq id, inputs, target): row} of `single_instance_rows` over every
    input tuple of the window, which keeps every instance."""
    out = {}
    for inputs in product(p.gens_in(a.window), repeat=3 if a.kind == "bilinear" else 2):
        for (eq_id, target), row in solver.single_instance_rows(p, a, inputs).items():
            out[eq_id, inputs[:1] if eq_id == "twist-commute" else inputs, target] = row
    return out


@pytest.mark.parametrize("alg", NOT_SKEW)
def test_rows_keep_every_instance_on_a_bracket_that_is_not_skew(alg):
    p = _presentation(alg)
    for cls, parity in _classes(p):
        # at s = 1 the slot targets of linear maps leave SMALL too, where
        # OUTER is not skew
        a = build_ansatz(p, _kind(cls), cls, s=1, parity=parity, window=SMALL)
        _assert_rows_match_instance_residuals(p, a, skew=False)
        rows = {(eq_id, inputs, target): row
                for eq_id, inputs, target, row in solver._rows(p, a)}
        full = _instance_rows(p, a)
        if cls == "commuting_map":
            # commute instances are skipped on every presentation
            pos = {g: i for i, g in enumerate(p.gens_in(SMALL))}
            full = {key: row for key, row in full.items()
                    if key[0] != "commute" or pos[key[1][0]] <= pos[key[1][1]]}
        assert rows == full


def test_rows_skip_mirrors_of_a_skew_bracket_declared_both_ways():
    p = _presentation("twoway")
    for cls, parity in _classes(p):
        a = build_ansatz(p, _kind(cls), cls, s=0, parity=parity, window=SMALL)
        _assert_rows_match_instance_residuals(p, a)


def _frozen(p, values):
    row = {j: v._t for j, v in values.items()} if p.fast_scalars else solver._introw_of(values)
    return _freeze(row)


@pytest.mark.parametrize("alg", [*BUILTIN_NAMES, *PRESENTATIONS])
def test_system_rows_are_the_rows_of_every_instance(alg):
    # single_instance_rows keeps every instance, so skipping mirrors must
    # leave the set of frozen rows as it is, skew bracket or not
    p = _presentation(alg)
    window = Window(-1, 3) if alg == "finite" else SMALL
    for cls, parity in _classes(p):
        for s in (0,) if p.is_scalar else (-1, 0):
            a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window)
            expected = {_frozen(p, values) for values in _instance_rows(p, a).values()}
            assert set(_distinct(build_system(p, a))) == expected


# -- stable solving ----------------------------------------------------------------


def _two_window_stable_basis(p, cls, s, parity, window, delta):
    """The stable filter done in full: solve both windows, restrict the
    enlarged solutions, check each restriction against every window row,
    and reduce.  Returns the restrictions and the canonical basis."""
    small = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window)
    big = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window.widen(delta))
    rows = _distinct(build_system(p, small))
    restricted = [
        {small.index[k]: v for k, v in vec.items()}
        for vec in restrict_space(nullspace(build_system(p, big)), small)
    ]
    for idvec in restricted:
        for row in rows:
            acc = Q0
            for j, pol in row:
                if j in idvec:
                    acc = acc + QRational(LaurentPoly(dict(pol))) * idvec[j]
            assert acc.is_zero
    basis = [
        solver._vec_canonical(small, {small.slots[j]: v for j, v in idvec.items()})
        for idvec in reduce_span(restricted)
    ]
    return restricted, basis


@DIM_CASES
@DIM_DEGREES
def test_stable_solve_equals_two_window_filter(alg, cls, parity, s):
    p = builtin(alg)
    restricted, basis = _two_window_stable_basis(p, cls, s, parity, SMALL, 2)
    space = stable_solve(p, "bilinear", cls, s=s, parity=parity, window=SMALL, delta=2)
    assert space.dim == len(basis)
    assert space.basis == basis
    if space.raw_window_dim == 0:
        assert space.raw_enlarged_dim is None
        assert all(v.is_zero for vec in restricted for v in vec.values())
    else:
        assert space.raw_enlarged_dim is not None


def test_vanishing_window_skips_enlarged_system(wittq, monkeypatch):
    windows = []
    build = solver.build_system

    def counting_build_system(p, ansatz, *args, **kwargs):
        windows.append(ansatz.window)
        return build(p, ansatz, *args, **kwargs)

    monkeypatch.setattr(solver, "build_system", counting_build_system)
    zero = stable_solve(
        wittq, "bilinear", "alpha_biderivation", s=0, window=SMALL, delta=2
    )
    assert (zero.dim, zero.raw_window_dim, zero.raw_enlarged_dim) == (0, 0, None)
    assert windows == []
    windows.clear()
    one = stable_solve(wittq, "bilinear", "biderivation", s=0, window=SMALL, delta=2)
    assert one.dim == 1 and one.raw_enlarged_dim is not None
    # each window is built once, the enlarged one first
    assert windows == [SMALL.widen(2), SMALL]


@pytest.mark.parametrize("alg,cls,s,parity,dim", [
    ("w22q", "biderivation", 0, 0, 2),
    ("wittq", "biderivation", 0, 0, 1),
    ("wittsuperq", "super_biderivation", 0, 0, 1),
    ("wittsuperq", "super_biderivation", -1, 1, 1),
])
def test_basis_values_share_the_unit_denominator(alg, cls, s, parity, dim):
    # the Q(q) fast paths test `den is _P1`; a second unit object disables them
    space = stable_solve(
        builtin(alg), "bilinear", cls, s=s, parity=parity, window=SMALL, delta=2
    )
    assert space.dim == dim
    for vec in space.basis:
        for v in vec.values():
            assert v.den is qfield._P1


def test_solution_space_carries_its_window_system(wittq):
    zero = stable_solve(
        wittq, "bilinear", "alpha_biderivation", s=0, window=SMALL, delta=2
    )
    one = stable_solve(wittq, "bilinear", "biderivation", s=0, window=SMALL, delta=2)
    for space in (zero, one):
        assert space.system.ansatz.window == SMALL
        assert nullspace(space.system).dim == space.raw_window_dim


# -- modular rank certificate ------------------------------------------------------


def _mod_p_nullity(p, ansatz):
    return solver._streamed_nullity(p, ansatz, solver.MOD_PRIME, solver.MOD_POINT)


@pytest.mark.parametrize("alg,cls,parity", BILINEAR_DIM_CASES + LINEAR_DIM_CASES)
@DIM_DEGREES
def test_mod_p_nullity_equals_exact_nullity(alg, cls, parity, s):
    p = builtin(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
    exact = nullspace(build_system(p, a)).dim
    modular = _mod_p_nullity(p, a)
    # q -> a in F_p can only lower the rank; at the chosen point it does not
    assert modular >= exact
    assert modular == exact


def _stream_mod_p(p, ansatz):
    return [row for *_, row in solver._rows(p, ansatz, solver.MOD_PRIME, solver.MOD_POINT)]


def _count_rows(monkeypatch):
    """Counts the rows `_rows` yields from now on."""
    read = []
    rows = solver._rows

    def counted(*args, **kwargs):
        for out in rows(*args, **kwargs):
            read.append(1)
            yield out

    monkeypatch.setattr(solver, "_rows", counted)
    return read


@pytest.mark.parametrize("alg,cls,parity", BILINEAR_DIM_CASES + LINEAR_DIM_CASES)
@DIM_DEGREES
def test_streamed_pass_certifies_iff_the_full_stream_has_full_rank(monkeypatch, alg, cls,
                                                                   parity, s):
    p = builtin(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
    stream = _stream_mod_p(p, a)
    # the reference reads every row, shortest first: one more column than
    # there are unknowns keeps it from stopping early
    shortest_first = sorted(stream, key=len)
    full = len(a) - len(solver._independent_mod_p(shortest_first, len(a) + 1, solver.MOD_PRIME))
    read = _count_rows(monkeypatch)
    # the pass certifies (nullity 0) iff the full stream has full rank
    assert _mod_p_nullity(p, a) == full
    assert len(read) <= len(stream)
    if full:
        assert len(read) == len(stream)


def test_vanishing_window_stops_before_the_end_of_its_stream(monkeypatch, w22q):
    a = build_ansatz(w22q, "bilinear", "alpha_biderivation", s=0, window=SMALL)
    total = len(_stream_mod_p(w22q, a))
    read = _count_rows(monkeypatch)
    assert _mod_p_nullity(w22q, a) == 0
    assert len(read) < total // 2


def test_window_solve_is_checked_against_the_mod_p_nullity(monkeypatch, w22q):
    # the window space is 2-dimensional; a pass that reports one dimension
    # fewer, as a stale F_p table could, is caught after the exact solve
    nullity = solver._streamed_nullity
    seen = []

    def under_reported(*args):
        seen.append(nullity(*args))
        return seen[-1] - 1

    monkeypatch.setattr(solver, "_streamed_nullity", under_reported)
    with pytest.raises(AssertionError, match="exceeds the mod-p nullity 1"):
        stable_solve(w22q, "bilinear", "biderivation", s=0, window=SMALL, delta=2)
    assert seen == [2]


def test_mod_p_tables_are_made_once_per_presentation_and_point(monkeypatch):
    p = parse(WZ)
    a = build_ansatz(p, "bilinear", "biderivation", s=0, window=SMALL)
    good = (solver.MOD_PRIME, solver.MOD_POINT)
    first = solver._streamed_nullity(p, a, *good)
    tables = p._tables[good]
    snapshot = tuple(dict(t) for t in tables)
    assert all(snapshot)
    # a second pass reads the same tables and images no structure constant
    calls = []
    for name in ("bracket_gens", "alpha_gens"):
        rule = getattr(p, name)
        monkeypatch.setattr(p, name, lambda *g, rule=rule: calls.append(g) or rule(*g))
    assert solver._streamed_nullity(p, a, *good) == first
    assert p._tables[good] is tables
    assert tuple(map(dict, tables)) == snapshot
    assert calls == []
    # another point gets tables of its own; q -> 14 = 0 mod 7 gets none
    solver._streamed_nullity(p, a, 2, 1)
    assert solver._streamed_nullity(p, a, 7, 14) is None
    assert set(p._tables) == {good, (2, 1)}
    assert p._tables[good] is tables and p._tables[2, 1] is not tables
    assert {r for terms in p._tables[2, 1][0].values() for _, r in terms} <= {0, 1}


def test_unlucky_point_leaves_the_good_point_intact():
    # q + 5 vanishes at q = 2 mod 7, so no bracket of L(m), L(n), m != n,
    # has an image there
    p = parse(QPLUS5)
    a = build_ansatz(p, "bilinear", "alpha_biderivation", s=0, window=SMALL)
    assert solver._streamed_nullity(p, a, 7, 2) is None
    assert _mod_p_nullity(p, a) == 0
    for _ in range(2):
        assert solver._streamed_nullity(p, a, 7, 2) is None
    # only whole images are kept: the zero brackets [L(m), L(m)]
    brackets, _ = p._tables[7, 2]
    assert brackets and all(terms == () for terms in brackets.values())
    space = stable_solve(p, "bilinear", "alpha_biderivation", s=0, window=SMALL, delta=2)
    assert (space.dim, space.witness) == (0, (solver.MOD_PRIME, solver.MOD_POINT, 0))


@pytest.mark.parametrize("alg", ["w22q", "thirds"])
def test_presentation_pickles_after_a_pass(alg):
    p = _presentation(alg)
    a = build_ansatz(p, "bilinear", "biderivation", s=0, window=SMALL)
    nullity = _mod_p_nullity(p, a)
    assert p._tables
    copy = pickle.loads(pickle.dumps(p))
    assert copy._tables == p._tables
    b = build_ansatz(copy, "bilinear", "biderivation", s=0, window=SMALL)
    assert _mod_p_nullity(copy, b) == nullity


@pytest.mark.parametrize("alg", NOT_SKEW)
@pytest.mark.parametrize("s", [-1, 0, 1])
def test_unguarded_mod_p_pass_is_sound_on_a_bracket_that_is_not_skew(alg, s):
    # the F_p stream skips mirrors without the skew guard, so on these
    # brackets it reads a subset of the true rows: its nullity can only
    # exceed the exact one, and stable_solve still reports what the exact
    # two-window filter does
    p = _presentation(alg)
    for cls, parity in _classes(p):
        a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
        assert _mod_p_nullity(p, a) >= nullspace(build_system(p, a)).dim
        space = stable_solve(p, _kind(cls), cls, s=s, parity=parity, window=SMALL, delta=2)
        assert _reported(space) == _with_certificate(p, cls, s, parity, SMALL, 2)


def _image_mod_p(value, prime, point):
    """Image of an exact row entry, a Laurent polynomial or a Q(q) value,
    under q -> point in F_prime: image(num) * image(den)^-1."""
    value = value if isinstance(value, QRational) else QRational(value)

    def image(pol):
        return sum(c * pow(point, e, prime) for e, c in pol.items())

    return image(value.num) * pow(image(value.den), -1, prime) % prime


@pytest.mark.parametrize("alg", [*BUILTIN_NAMES, "thirds", "wz"])
def test_mod_p_stream_is_the_image_of_the_exact_stream(alg):
    p = _presentation(alg)
    prime, point = solver.MOD_PRIME, solver.MOD_POINT
    checked = 0
    for cls in BILINEAR_CLASSES + LINEAR_CLASSES:
        for parity in (0, 1) if p.is_super else (0,):
            for s in (-1, 0, 1):
                try:
                    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
                except ClassModeMismatch:
                    continue
                expected = {}
                for eq_id, inputs, target, row in solver._rows(p, a):
                    image = {
                        j: r for j, v in row.items() if (r := _image_mod_p(v, prime, point))
                    }
                    if image:
                        expected[eq_id, inputs, target] = image
                modular = {
                    (eq_id, inputs, target): row
                    for eq_id, inputs, target, row in solver._rows(p, a, prime, point)
                }
                assert modular == expected
                checked += 1
    assert checked


CLASSES_AND_DEGREES = (
    ("biderivation", 0),
    ("biderivation", 1),
    ("alpha_biderivation", 0),
    ("derivation", 0),
    ("alpha_k_derivation", 1),
    ("commuting_map", 0),
)


def test_mod_p_nullity_of_fractional_structure_constants():
    p = parse(THIRDS)
    assert not p.fast_scalars
    for cls, s in CLASSES_AND_DEGREES:
        a = build_ansatz(p, _kind(cls), cls, s=s, window=SMALL)
        assert _mod_p_nullity(p, a) == nullspace(build_system(p, a)).dim
        # 3 divides a denominator: the point has no image, so no certificate
        assert solver._streamed_nullity(p, a, 3, 2) is None
    p = parse(QPLUS5)
    assert not p.fast_scalars
    dims = []
    for cls, s in CLASSES_AND_DEGREES:
        a = build_ansatz(p, _kind(cls), cls, s=s, window=SMALL)
        dims.append(nullspace(build_system(p, a)).dim)
        assert _mod_p_nullity(p, a) == dims[-1]
        # q + 5 vanishes at q = 2 mod 7, where the coefficients have no image
        assert solver._streamed_nullity(p, a, 7, 2) is None
    assert 0 in dims and any(dims)


def test_vanishing_space_carries_its_rank_witness(wittq, monkeypatch):
    zero = stable_solve(
        wittq, "bilinear", "alpha_biderivation", s=0, window=SMALL, delta=2
    )
    assert zero.witness == (solver.MOD_PRIME, solver.MOD_POINT, 0)
    one = stable_solve(wittq, "bilinear", "biderivation", s=0, window=SMALL, delta=2)
    assert one.witness is None
    # delta 0 keeps the exact path
    flat = stable_solve(
        wittq, "bilinear", "alpha_biderivation", s=0, window=SMALL, delta=0
    )
    assert (flat.dim, flat.raw_enlarged_dim, flat.witness) == (0, 0, None)
    # linear classes are certified the same way
    linear = stable_solve(
        wittq, "linear", "alpha_k_derivation", s=3, window=SMALL, delta=2
    )
    assert (linear.dim, linear.raw_enlarged_dim, linear.witness) == (
        0, None, (solver.MOD_PRIME, solver.MOD_POINT, 0))
    commuting = stable_solve(wittq, "linear", "commuting_map", s=0, window=SMALL, delta=2)
    assert (commuting.dim, commuting.witness) == (1, None)
    # the window system of a certified space is built once, on first access
    builds = []
    build = solver.build_system
    monkeypatch.setattr(
        solver, "build_system", lambda p, a: builds.append(a.window) or build(p, a)
    )
    assert zero.system is zero.system
    assert builds == [SMALL]


def _exact_stable_space(p, cls, s, parity, window, delta):
    """The fields stable_solve reports, from exact solves only."""
    small = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window)
    raw = nullspace(build_system(p, small)).dim
    enlarged = None
    if raw:
        big = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window.widen(delta))
        enlarged = nullspace(build_system(p, big)).dim
    _, basis = _two_window_stable_basis(p, cls, s, parity, window, delta)
    return len(basis), basis, raw, enlarged, None


def _reported(space):
    return (space.dim, space.basis, space.raw_window_dim, space.raw_enlarged_dim,
            space.witness)


@pytest.mark.parametrize("alg,cls,parity,s", [
    ("wittq", "alpha_biderivation", 0, 0),
    ("w22q", "biderivation", 0, 1),
    ("wittsuperq", "super_biderivation", 1, 0),
    ("wittq", "biderivation", 0, 0),
])
@pytest.mark.parametrize("prime,point", [(2, 1), (7, 14)])
def test_unlucky_point_falls_back_to_the_exact_path(monkeypatch, alg, cls, parity, s,
                                                    prime, point):
    # q -> 1 mod 2 collapses the q-numbers; 14 is 0 mod 7, where q has no image
    p = builtin(alg)
    a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=SMALL)
    assert solver._streamed_nullity(p, a, prime, point) != 0
    monkeypatch.setattr(solver, "MOD_PRIME", prime)
    monkeypatch.setattr(solver, "MOD_POINT", point)
    space = stable_solve(p, "bilinear", cls, s=s, parity=parity, window=SMALL, delta=2)
    assert _reported(space) == _exact_stable_space(p, cls, s, parity, SMALL, 2)


def _nullspace_windows(monkeypatch):
    """Record the window of each system `nullspace` solves."""
    windows = []
    solve = solver.nullspace

    def spy(sys):
        windows.append(sys.ansatz.window)
        return solve(sys)

    monkeypatch.setattr(solver, "nullspace", spy)
    return windows


def _with_certificate(p, cls, s, parity, window, delta):
    """`_exact_stable_space`, with the witness a vanishing mod-p pass gives."""
    *fields, _ = _exact_stable_space(p, cls, s, parity, window, delta)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=window)
    vanishing = _mod_p_nullity(p, a) == 0
    return (*fields, (solver.MOD_PRIME, solver.MOD_POINT, 0) if vanishing else None)


@pytest.mark.parametrize("alg,cls,parity,s", NONZERO_SPACES)
def test_window_dim_from_the_mod_p_bound_equals_the_exact_path(monkeypatch, alg, cls,
                                                               parity, s):
    # the restrictions' rank meets the mod-p bound, so only the enlarged
    # window is solved (the bracket-not-skew cases, where the bound can
    # exceed it, are in the test of the unguarded pass)
    p = builtin(alg)
    expected = _with_certificate(p, cls, s, parity, SMALL, 2)
    windows = _nullspace_windows(monkeypatch)
    space = stable_solve(p, "bilinear", cls, s=s, parity=parity, window=SMALL, delta=2)
    assert _reported(space) == expected
    assert windows == [SMALL.widen(2)]
    assert nullspace(space.system).dim == space.raw_window_dim


@pytest.mark.parametrize("alg,cls,parity,s", NONZERO_SPACES)
def test_over_reported_bound_runs_the_exact_window_solve(monkeypatch, alg, cls, parity, s):
    p = builtin(alg)
    expected = _with_certificate(p, cls, s, parity, SMALL, 2)
    nullity = solver._streamed_nullity
    monkeypatch.setattr(solver, "_streamed_nullity", lambda *args: nullity(*args) + 1)
    windows = _nullspace_windows(monkeypatch)
    space = stable_solve(p, "bilinear", cls, s=s, parity=parity, window=SMALL, delta=2)
    assert _reported(space) == expected
    assert windows == [SMALL.widen(2), SMALL]


def test_bound_above_a_vanishing_window_reports_no_enlarged_dim(monkeypatch, wittq):
    monkeypatch.setattr(solver, "_streamed_nullity", lambda *args: 1)
    space = stable_solve(wittq, "bilinear", "alpha_biderivation", s=0, window=SMALL, delta=2)
    assert (space.dim, space.raw_window_dim, space.raw_enlarged_dim) == (0, 0, None)
    assert space.witness is None


# -- rows selected mod p, checked exactly --------------------------------------


def _eliminated_row_counts(monkeypatch):
    """Record the number of rows each `_eliminate` call receives."""
    counts = []
    eliminate = solver._eliminate

    def spy(rows):
        counts.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(solver, "_eliminate", spy)
    return counts


def _full_elimination(sys):
    return solver._solve_rows(sys, sys.rows)


def _assert_selected_rows_suffice(monkeypatch, p, a):
    sys = build_system(p, a)
    counts = _eliminated_row_counts(monkeypatch)
    space = nullspace(sys)
    # one elimination, of fewer rows than the system has distinct ones: the
    # selected rows passed the exact check against every row
    assert len(counts) == 1 and counts[0] < len(_distinct(sys)) <= len(sys.rows)
    full = _full_elimination(sys)
    assert counts[0] == len(a) - full.dim
    assert space.dim == full.dim
    assert space == full
    # the basis depends only on the space: neither the row order nor the
    # point that selects the rows changes it
    assert nullspace(ConstraintSystem(a, sys.rows[::-1])) == full
    monkeypatch.setattr(solver, "MOD_POINT", 65537)
    assert nullspace(sys) == full


@DIM_CASES
@DIM_DEGREES
@pytest.mark.parametrize("widen", [0, 2])
def test_selected_rows_give_the_full_nullspace(monkeypatch, alg, cls, parity, s, widen):
    p = builtin(alg)
    a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=SMALL.widen(widen))
    _assert_selected_rows_suffice(monkeypatch, p, a)


@pytest.mark.parametrize("alg,cls,parity,s", [
    ("w22q", "alpha_k_derivation", 0, 0),
    ("w22q", "commuting_map", 0, 0),
])
def test_selected_rows_give_the_full_linear_nullspace(monkeypatch, alg, cls, parity, s):
    p = builtin(alg)
    a = build_ansatz(p, "linear", cls, s=s, parity=parity, window=SMALL)
    _assert_selected_rows_suffice(monkeypatch, p, a)


def test_row_selection_stops_at_full_rank(monkeypatch, w22q):
    a = build_ansatz(w22q, "bilinear", "alpha_biderivation", s=0, window=SMALL)
    sys = build_system(w22q, a)
    read = []
    independent = solver._independent_mod_p

    def counted(rows, ncols, prime):
        def each():
            for row in rows:
                read.append(1)
                yield row
        return independent(each(), ncols, prime)

    imaged = []
    images = solver._images_mod_p

    def counted_images(rows, prime, point):
        def each():
            for row in rows:
                imaged.append(1)
                yield row
        return images(each(), prime, point)

    monkeypatch.setattr(solver, "_independent_mod_p", counted)
    monkeypatch.setattr(solver, "_images_mod_p", counted_images)
    space = nullspace(sys)
    # a vanishing space reaches full rank before its last row, and no row
    # past the last one read is imaged
    assert len(read) < len(_distinct(sys))
    assert len(imaged) == len(read)
    assert space == _full_elimination(sys)
    assert space.dim == 0


@pytest.mark.parametrize("alg,cls,parity,s", [
    ("wittq", "biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 1, -1),
    ("w22q", "alpha_biderivation", 0, 0),
])
def test_nullspace_at_an_unlucky_point_runs_the_full_elimination(monkeypatch, alg, cls,
                                                                 parity, s):
    p = builtin(alg)
    a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=SMALL)
    sys = build_system(p, a)
    expected = _full_elimination(sys)
    rank = len(a) - expected.dim
    # q -> 1 mod 2 loses rank, so the selected rows leave too large a space
    assert len(solver._independent_mod_p(solver._images_mod_p(sys.rows, 2, 1), len(a), 2)) < rank
    monkeypatch.setattr(solver, "MOD_PRIME", 2)
    monkeypatch.setattr(solver, "MOD_POINT", 1)
    counts = _eliminated_row_counts(monkeypatch)
    assert nullspace(sys) == expected
    assert counts[-1] == len(sys.rows) and counts[0] < rank
    # 14 is 0 mod 7, where q has no image: straight to the full elimination
    monkeypatch.setattr(solver, "MOD_PRIME", 7)
    monkeypatch.setattr(solver, "MOD_POINT", 14)
    counts.clear()
    assert nullspace(sys) == expected
    assert counts == [len(sys.rows)]


@pytest.mark.parametrize("alg,cls", [
    ("w22q", "biderivation"),
    ("wittq", "alpha_biderivation"),
    ("thirds", "biderivation"),
])
def test_duplicate_rows_change_no_answer(monkeypatch, alg, cls):
    # each row listed again, times -3 q^2: the same space on the selected
    # rows, on the full elimination, and at a specialized q
    p = _presentation(alg)
    a = build_ansatz(p, "bilinear", cls, s=0, window=SMALL)
    sys = build_system(p, a)
    scaled = [{j: {e + 2: -3 * c for e, c in pol.items()} for j, pol in row.items()}
              for row in sys.rows]
    doubled = ConstraintSystem(a, sys.rows + scaled)
    expected = nullspace(sys)
    assert nullspace(doubled) == expected
    for q0 in (2, 3):
        assert nullspace_dim_specialized(doubled, q0) == nullspace_dim_specialized(sys, q0)
    # 14 is 0 mod 7, where q has no image: every row is eliminated
    monkeypatch.setattr(solver, "MOD_PRIME", 7)
    monkeypatch.setattr(solver, "MOD_POINT", 14)
    counts = _eliminated_row_counts(monkeypatch)
    assert nullspace(doubled) == expected
    assert counts == [2 * len(sys.rows)]


@pytest.mark.parametrize("alg,cls", [
    ("w22q", "biderivation"),
    ("thirds", "biderivation"),
    ("hv", "biderivation"),
])
def test_nullspace_changes_no_term_dict(monkeypatch, alg, cls):
    # system rows are read, never changed: they share their term dicts with
    # the structure-constant tables, and elimination copies only the rows
    p = _presentation(alg)
    a = build_ansatz(p, "bilinear", cls, s=0, window=SMALL)
    sys = build_system(p, a)
    snapshot = copy.deepcopy(sys.rows)
    counts = _eliminated_row_counts(monkeypatch)
    expected = nullspace(sys)
    assert len(counts) == 1 and counts[0] < len(sys.rows)
    assert sys.rows == snapshot
    # 14 is 0 mod 7, where q has no image: every row is eliminated
    monkeypatch.setattr(solver, "MOD_PRIME", 7)
    monkeypatch.setattr(solver, "MOD_POINT", 14)
    assert nullspace(sys) == expected
    assert counts[1:] == [len(sys.rows)]
    assert sys.rows == snapshot


@pytest.mark.parametrize("alg,cls,parity,s", [
    ("wittq", "biderivation", 0, 0),
    ("wittq", "alpha_biderivation", 0, 0),
    ("w22q", "commuting_map", 0, 0),
])
def test_exact_check_catches_a_dropped_row(monkeypatch, alg, cls, parity, s):
    p = builtin(alg)
    kind = "linear" if cls == "commuting_map" else "bilinear"
    a = build_ansatz(p, kind, cls, s=s, parity=parity, window=SMALL)
    sys = build_system(p, a)
    expected = _full_elimination(sys)
    independent = solver._independent_mod_p
    monkeypatch.setattr(solver, "_independent_mod_p",
                        lambda rows, ncols, prime: independent(rows, ncols, prime)[1:])
    counts = _eliminated_row_counts(monkeypatch)
    assert nullspace(sys) == expected
    assert counts == [len(a) - expected.dim - 1, len(sys.rows)]


def _assert_reduced_echelon(space):
    """Leads (first nonzero slot of each vector) strictly increase, no other
    vector has an entry at a lead, and each vector is primitive."""
    index = space.ansatz.index
    leads = [min(index[k] for k in vec) for vec in space.basis]
    assert leads == sorted(set(leads))
    for vec in space.basis:
        assert solver._vec_canonical(space.ansatz, vec) == vec
        for lead, other in zip(leads, space.basis):
            if other is not vec:
                assert space.ansatz.slots[lead] not in vec


@pytest.mark.parametrize("alg,cls,parity", BILINEAR_DIM_CASES + LINEAR_DIM_CASES)
@DIM_DEGREES
def test_bases_are_in_reduced_echelon_form(alg, cls, parity, s):
    p = builtin(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
    _assert_reduced_echelon(nullspace(build_system(p, a)))
    _assert_reduced_echelon(
        stable_solve(p, _kind(cls), cls, s=s, parity=parity, window=SMALL, delta=2)
    )


@pytest.mark.parametrize("alg,cls,parity,s", [
    *[(alg, cls, parity, s)
      for alg, cls, parity in BILINEAR_DIM_CASES + LINEAR_DIM_CASES for s in (-2, 0, 1)],
    *[(alg, cls, 0, 0)
      for alg in ("thirds", "hv")
      for cls in ("biderivation", "alpha_biderivation", "commuting_map")],
])
def test_elimination_pivots_on_largest_columns(monkeypatch, alg, cls, parity, s):
    # on the selected rows and on all rows: `_eliminate` reads them shortest
    # first; each pivot row pivots on its largest column and holds no column
    # pivoted on before it; no zero column is a pivot; and back-substitution
    # through such rows already gives the reduced echelon form, up to scale
    p = _presentation(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
    sys = build_system(p, a)
    calls = []
    eliminate = solver._eliminate
    canonical = solver._canonical_basis

    def spy_eliminate(rows):
        out = eliminate(rows)
        calls.append((rows, *out))
        return out

    def spy_canonical(ansatz, idvecs):
        out = canonical(ansatz, idvecs)
        calls[-1] += (idvecs, out)
        return out

    monkeypatch.setattr(solver, "_eliminate", spy_eliminate)
    monkeypatch.setattr(solver, "_canonical_basis", spy_canonical)
    nullspace(sys)
    _full_elimination(sys)
    assert len(calls) == 2
    slots = a.slots
    for rows, pivots, zeros, idvecs, basis in calls:
        lengths = list(map(len, rows))
        assert lengths == sorted(lengths)
        made = set()
        for col, prow in pivots:
            assert len(prow) > 1 and col == max(prow)
            assert made.isdisjoint(prow)
            made.add(col)
        assert made.isdisjoint(zeros)
        assert [
            solver._vec_canonical(a, {slots[j]: v for j, v in vec.items()}) for vec in idvecs
        ] == basis


def test_equal_solves_compare_equal(wittq):
    a = stable_solve(wittq, "bilinear", "biderivation", s=0, window=SMALL, delta=2)
    b = stable_solve(wittq, "bilinear", "biderivation", s=0, window=SMALL, delta=2)
    assert a.ansatz is not b.ansatz
    assert a.ansatz == b.ansatz and hash(a.ansatz) == hash(b.ansatz)
    assert a == b
    other = stable_solve(
        wittq, "bilinear", "biderivation", s=0, window=SMALL.widen(1), delta=2
    )
    assert other.ansatz != a.ansatz
    assert other != a


def test_negative_delta_is_rejected(wittq):
    with pytest.raises(ValueError, match="delta"):
        stable_solve(wittq, "bilinear", "biderivation", s=0, window=SMALL, delta=-3)


def test_wittq_stable_space_is_inner(wittq):
    space = stable_solve(
        wittq, "bilinear", "biderivation", s=0, window=Window(-4, 4), delta=2
    )
    assert space.dim == 1
    ansatz = space.ansatz
    inner = ansatz.slot_vector_of_map(known_map("phi_ad", wittq))
    ivec = {ansatz.index[k]: v for k, v in inner.items()}
    vecs = space.id_vectors()
    assert span_rank(vecs + [ivec]) == span_rank(vecs)


def test_wittq_stable_dim_zero_off_degree(wittq):
    space = stable_solve(
        wittq, "bilinear", "biderivation", s=1, window=Window(-4, 4), delta=2
    )
    assert space.dim == 0


def test_w22q_stable_dim_two(w22q):
    space = stable_solve(
        w22q, "bilinear", "biderivation", s=0, window=Window(-3, 3), delta=2
    )
    assert space.dim == 2


def test_wittsuperq_odd_stable_dims(wittsuperq):
    at_minus1 = stable_solve(
        wittsuperq, "bilinear", "super_biderivation", s=-1, parity=1,
        window=Window(-3, 3), delta=2,
    )
    assert at_minus1.dim == 1
    at_zero = stable_solve(
        wittsuperq, "bilinear", "super_biderivation", s=0, parity=1,
        window=Window(-3, 3), delta=2,
    )
    assert at_zero.dim == 0


def test_solutions_round_trip_through_checker(w22q):
    win = Window(-3, 3)
    space = stable_solve(w22q, "bilinear", "biderivation", s=0, window=win, delta=2)
    assert space.dim == 2
    for concrete in space.maps():
        assert check_bilinear_class(w22q, concrete, "biderivation", win).passed


def test_linear_solution_round_trip(wittsuperq):
    win = Window(-3, 3)
    space = stable_solve(
        wittsuperq, "linear", "commuting_map", s=-1, parity=1, window=win, delta=2
    )
    assert space.dim == 1
    f = space.maps()[0]
    assert check_linear_class(wittsuperq, f, "commuting_map", win).passed


def test_scalar_presentation_solve(example49):
    # the even twisted-output solution family of the three-dimensional
    # superalgebra contains the two displayed generators
    p = example49
    win = Window(0, 0)
    a = build_ansatz(p, "bilinear", "alpha_super_biderivation", s=0, parity=0,
                     window=win)
    sys = build_system(p, a)
    space = nullspace(sys)
    from test_checker import _example49_phi

    vecs = space.id_vectors()
    for (aa, kk) in ((1, 0), (0, 1)):
        phi = _example49_phi(p, aa, kk)
        keyed = a.slot_vector_of_map(phi)
        target = {a.index[k]: v for k, v in keyed.items()}
        assert span_rank(vecs + [target]) == span_rank(vecs)
    for concrete in space.maps():
        assert check_bilinear_class(p, concrete, "alpha_super_biderivation", win).passed


# -- classical (q-free) algebras ---------------------------------------------------

# stable biderivation dims on SMALL at each s in Q_FREE_DEGREES, the number
# of basis maps at each s that are not skew, and the PAPER.md keys they
# stand for: the Witt algebra's biderivations are inner
# (\cite{Chen2016,wang2013,HWX}); those of W(2,2) are not all inner, but all
# skew-symmetric in the sense of \cite{B4}; the twisted Heisenberg-Virasoro
# algebra has biderivations that are not skew (\cite{Tang-Li2018}), one
# basis map at every degree
Q_FREE_DEGREES = range(-4, 5)
Q_FREE_DIMS = {
    "witt": ((0, 0, 0, 0, 1, 0, 0, 0, 0), (0,) * 9, "Chen2016,wang2013,HWX"),
    "w22": ((0, 0, 0, 0, 2, 0, 0, 0, 0), (0,) * 9, "B4"),
    "hv": ((1, 1, 1, 1, 2, 1, 1, 1, 1), (1,) * 9, "Tang-Li2018"),
}


def _q_free_space(alg, s):
    return stable_solve(_presentation(alg), "bilinear", "biderivation", s=s, window=SMALL)


@pytest.mark.parametrize("alg", Q_FREE_DIMS)
def test_q_free_biderivation_dims(alg):
    dims, _, key = Q_FREE_DIMS[alg]
    assert tuple(_q_free_space(alg, s).dim for s in Q_FREE_DEGREES) == dims, key


@pytest.mark.parametrize("alg,knowns,residual", [
    ("witt", ("phi_ad",), 0),
    ("w22", ("phi_ad", "phi_0"), 0),
    ("hv", ("phi_ad",), 1),
])
def test_q_free_biderivations_against_the_named_maps(alg, knowns, residual):
    space = _q_free_space(alg, 0)
    p = space.ansatz.p
    assert decompose(space, {name: known_map(name, p) for name in knowns}).residual_dim == residual


def test_q_free_named_map_of_another_degree_is_no_dependence(tmp_path, capsys):
    # phi_ad has degree 0, so its slot vector in hv's degree-1 ansatz is zero:
    # the whole stable space is residual, a failed classification (exit 1)
    # and not linearly dependent named maps (exit 2)
    space = _q_free_space("hv", 1)
    p = space.ansatz.p
    rep = decompose(space, {"phi_ad": known_map("phi_ad", p)})
    assert (space.dim, rep.residual_dim, rep.coefficients) == (1, 1, [None])
    path = tmp_path / "hv.alg"
    path.write_text(HV)
    code = main(["classify", "--algebra", str(path), "--class", "biderivation",
                 "--degree", "1", "--window=-2..2"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    assert "stable dim 1; residual outside span(phi_ad) = 1" in out.out


def test_q_free_skew_split():
    # the non-skew basis maps of Q_FREE_DIMS; on hv the failing skew checks
    # report witnesses unpacked from the packed pass
    for alg, (_, nonskew, _) in Q_FREE_DIMS.items():
        for s, failing in zip(Q_FREE_DEGREES, nonskew):
            space = _q_free_space(alg, s)
            p = space.ansatz.p
            verdicts = [check_bilinear_skew(p, phi, SMALL).passed for phi in space.maps()]
            assert verdicts.count(False) == failing, (alg, s)


# -- row and vector normalization ---------------------------------------------------


def test_normalize_row_strips_a_planted_factor():
    # three entries with no common factor, then each times (1 + q + q^2)(1 - q)
    plain = {0: {0: 1, 1: 2}, 1: {0: 3, 1: -1, 3: 1}, 2: {-1: 2, 1: 1}}
    factor = qfield.terms_mul({0: 1, 1: 1, 2: 1}, {0: 1, 1: -1})
    planted = {j: qfield.terms_mul(pol, factor) for j, pol in plain.items()}
    expected = {0: {1: 1, 2: 2}, 1: {1: 3, 2: -1, 4: 1}, 2: {0: 2, 2: 1}}
    for row in (planted, plain):
        assert qfield.primitive_part(row) == expected


def test_normalize_row_keeps_coprime_entries_with_common_values():
    # q + 1 and q^2 + 5 are coprime, but their values share 3 at q = 2 and 2 at q = 3
    row = {0: {0: 1, 1: 1}, 1: {0: 5, 2: 1}}
    assert qfield.primitive_part(row) == row


@pytest.mark.parametrize("num,den", [
    pytest.param({0: -1, 2: -1}, {0: 3, 1: 2}, id="-(q2+1)_over_(2q+3)"),
    # q - 1 is 1 at q = 2, so a common-factor test by values at q = 2
    # would miss it; the canonical form removes it
    pytest.param({0: -1, 1: 1}, {0: 2, 1: 1}, id="(q-1)_over_(q+2)"),
])
@pytest.mark.parametrize("alg,cls,s,parity", [
    ("wittq", "biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", -1, 1),
])
def test_canonical_vector_is_invariant_under_scaling(alg, cls, s, parity, num, den):
    space = stable_solve(builtin(alg), "bilinear", cls, s=s, parity=parity, window=SMALL)
    assert space.dim == 1
    scale = QRational.make(LaurentPoly(num), LaurentPoly(den))
    for vec in space.basis:
        scaled = {k: v * scale for k, v in vec.items()}
        assert solver._vec_canonical(space.ansatz, scaled) == vec


def test_exact_check_is_exact_and_needs_unit_denominators(wittq):
    a = build_ansatz(wittq, "bilinear", "biderivation", s=0, window=SMALL)
    system = build_system(wittq, a)
    vecs = nullspace(system).id_vectors()
    assert vecs
    for vec in vecs:
        assert solver._satisfies_all(system.rows, [vec])
        j = next(iter(vec))
        wrong = dict(vec)
        wrong[j] = vec[j] + Q1
        assert not solver._satisfies_all(system.rows, [wrong])
    row = next(r for r in system.rows if any(j in vecs[0] for j in r))
    scaled = {j: v / QRational(LaurentPoly({0: 1, 1: 1})) for j, v in vecs[0].items()}
    with pytest.raises(ValueError, match="unit denominator"):
        solver._satisfies_all([row], [scaled])


def _laurent_satisfies(row, vec):
    """Reference for `_satisfies_all` on one row and one vector: the
    products summed as Laurent polynomials."""
    acc = {}
    for j, pol in row.items():
        v = vec.get(j)
        if v is not None:
            for e, x in qfield.terms_mul(pol, v.num._t).items():
                acc[e] = acc.get(e, 0) + x
    return not any(acc.values())


@pytest.mark.parametrize("alg,cls,parity,s", [
    ("w22q", "biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 0, 0),
    ("wittsuperq", "super_biderivation", 1, -1),
])
def test_integer_check_agrees_with_laurent_products(alg, cls, parity, s):
    # Laurent combinations of the basis satisfy every row; one perturbed
    # entry, by a small or a large term, breaks the rows that read it
    p = builtin(alg)
    a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=SMALL)
    system = build_system(p, a)
    basis = nullspace(system).id_vectors()
    rng = random.Random(f"{alg}-{parity}")
    verdicts = set()
    for _ in range(100):
        vec = {}
        for b in basis:
            c = QRational(LaurentPoly({rng.randrange(-2, 3): rng.choice((-3, 1, 2))}))
            for j, v in b.items():
                vec[j] = vec.get(j, Q0) + c * v
        j = rng.randrange(len(a))
        if rng.random() < 0.8:
            term = LaurentPoly({rng.randrange(-3, 4): rng.choice((-1, 2, 2**40, -(2**40)))})
            vec[j] = vec.get(j, Q0) + QRational(term)
        vec = {k: v for k, v in vec.items() if not v.is_zero}
        rows = [r for r in system.rows if j in r] + rng.sample(system.rows, 10)
        for row in rows:
            verdict = _laurent_satisfies(row, vec)
            assert solver._satisfies_all([row], [vec]) == verdict
            verdicts.add(verdict)
        assert solver._satisfies_all(rows, [vec]) == all(
            _laurent_satisfies(row, vec) for row in rows)
    assert verdicts == {True, False}


def test_integer_check_sees_a_large_coefficient():
    # row . vector = 2^40 - q, which vanishes at q = 2^40: a B of 40, too
    # small for the coefficient, would call it satisfied
    q = QRational(LaurentPoly({1: 1}))
    big = QRational(2**40)
    assert not solver._satisfies_all([{0: {0: 2**40}, 1: {1: -1}}], [{0: Q1, 1: Q1}])
    assert not solver._satisfies_all([{0: {0: 1}, 1: {1: -1}}], [{0: big, 1: Q1}])
    assert not solver._satisfies_all([{0: {0: 2**40}}], [{0: Q1}])
    # 2^40 q - q 2^40 is 0
    assert solver._satisfies_all([{0: {0: 2**40}, 1: {1: -1}}], [{0: q, 1: big}])
    # (q - 2)(q - 4)...(q - 2^40) vanishes at q = 2^B for every B up to 40,
    # so only a B past its coefficients' size sees that it is not 0
    roots = {0: 1}
    for k in range(1, 41):
        roots = qfield.terms_mul(roots, {0: -(2**k), 1: 1})
    assert not solver._satisfies_all([{0: roots}], [{0: Q1}])
    head = {e: c for e, c in roots.items() if e < 40}
    assert not solver._satisfies_all([{0: head, 1: {40: 1}}], [{0: Q1, 1: Q1}])


# -- utility layer ------------------------------------------------------------------


def test_span_utilities():
    v1 = {0: Q1, 1: Q1}
    v2 = {1: Q1}
    assert span_rank([v1, v2, {0: Q1}]) == 2
    assert span_rank([v1, v2, {0: Q1, 1: QRational(2)}]) == 2
    assert span_rank([v1, v2, {2: Q1}]) == 3
    # reduced echelon form: unit leads, zero above and below each lead
    assert reduce_span([v1, v2]) == [{0: Q1}, {1: Q1}]
    assert reduce_span([v2, v1, {0: Q0, 2: QRational(3)}]) == [{0: Q1}, {1: Q1}, {2: Q1}]
    two = QRational(2)
    assert reduce_span([{1: two, 2: Q1}, {0: Q1, 1: Q1}]) == [
        {0: Q1, 2: -Q1 / two},
        {1: Q1, 2: Q1 / two},
    ]
    assert reduce_span([{0: Q0}]) == []
    assert express_in_span({0: QRational(3), 1: two}, [v1, v2]) == [QRational(3), -Q1]
    assert express_in_span({2: Q1}, [v1, v2]) is None
