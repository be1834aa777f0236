import random

import pytest

from homlie import qfield, solver
from homlie.algebra import Window, builtin
from homlie.checker import (
    _wrap_bilinear,
    _wrap_linear,
    check_bilinear_class,
    check_linear_class,
)
from homlie.classify import known_map
from homlie.dsl import parse
from homlie.identities import (
    BILINEAR_CLASSES,
    ClassModeMismatch,
    bilinear_instances,
    linear_instances,
    m_add,
    m_neg,
)
from homlie.qfield import LaurentPoly, QRational
from homlie.solver import (
    ConstraintSystem,
    HomogeneousAnsatz,
    build_ansatz,
    build_system,
    map_from_assignment,
    nullspace,
    nullspace_dim_specialized,
    reduce_span,
    restrict_space,
    span_rank,
    stable_solve,
)

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


# -- nullspace basics -----------------------------------------------------------


def _toy_system(nrows_unknowns):
    # an ansatz stub is only needed for slot bookkeeping; use a real tiny one
    p = builtin("wittq")
    return build_ansatz(p, "bilinear", "biderivation", s=0, window=Window(0, 1))


def test_empty_system_has_identity_basis(wittq):
    ansatz = build_ansatz(wittq, "bilinear", "biderivation", s=0, window=Window(0, 1))
    sys = ConstraintSystem(ansatz)
    sol = nullspace(sys)
    assert sol.dim == len(ansatz) == 4
    vecs = sol.id_vectors()
    assert span_rank(vecs) == 4
    for i, vec in enumerate(vecs):
        assert vec == {i: Q1}


def test_single_difference_row(wittq):
    ansatz = build_ansatz(wittq, "bilinear", "biderivation", s=0, window=Window(0, 1))
    sys = ConstraintSystem(ansatz)
    sys.rows.append({0: Q1, 1: -Q1})
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


@DIM_CASES
@DIM_DEGREES
def test_symbolic_dim_equals_specialized_dim(alg, cls, parity, s):
    p = builtin(alg)
    a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=SMALL)
    sys = build_system(p, a)
    assert nullspace(sys).dim == nullspace_dim_specialized(sys, 2)


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

PRESENTATIONS = {"wz": WZ, "qplus5": QPLUS5}


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
            p, a.cls, a.window, _wrap_bilinear(concrete, p, a.window), a.parity
        )
    else:
        stream = linear_instances(
            p, a.cls, a.window, _wrap_linear(concrete, p, a.window), a.parity, k=a.k
        )
    out = {}
    for eq_id, inputs, lhs, rhs in stream:
        for target, value in m_add(lhs, m_neg(rhs)).items():
            out[eq_id, inputs, target] = value
    return out


def _assert_rows_match_instance_residuals(p, a):
    rng = random.Random(20211)
    for _ in range(2):
        vec = {j: QRational(rng.randint(-5, 5)) for j in range(len(a))}
        vec = {j: v for j, v in vec.items() if not v.is_zero}
        expected = _instance_residuals(p, a, vec)
        assert expected
        assert _generator_residuals(p, a, vec) == expected


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
])
def test_rows_match_the_instance_residuals(alg, cls, parity, s):
    p = _presentation(alg)
    a = build_ansatz(p, _kind(cls), cls, s=s, parity=parity, window=SMALL)
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


# -- stable solving ----------------------------------------------------------------


def _two_window_stable_basis(p, cls, s, parity, window, delta):
    """The stable filter done in full: solve both windows, restrict the
    enlarged solutions, check each restriction against every window row,
    and reduce.  Returns the restrictions and the canonical basis."""
    small = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=window)
    big = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=window.widen(delta))
    rows = build_system(p, small).rows
    restricted = [
        {small.index[k]: v for k, v in vec.items()}
        for vec in restrict_space(nullspace(build_system(p, big)), small)
    ]
    for idvec in restricted:
        for row in rows:
            acc = Q0
            for j, c in row.items():
                if j in idvec:
                    acc = acc + c * idvec[j]
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
    assert windows == [SMALL, SMALL.widen(2)]


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
    return solver._mod_p_nullity(p, ansatz, solver.MOD_PRIME, solver.MOD_POINT)


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


THIRDS = """algebra thirds;
mode lie;
family L parity 0 degrees int;
bracket [L(m), L(n)] = (qnm(n) - qnm(m)) / 3 * L(m+n);
alpha L(m) = (1 + q^m) * L(m);
"""


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
    for cls, s in CLASSES_AND_DEGREES:
        a = build_ansatz(p, _kind(cls), cls, s=s, window=SMALL)
        assert _mod_p_nullity(p, a) == nullspace(build_system(p, a)).dim
        # 3 divides a denominator: the point has no image, so no certificate
        assert solver._mod_p_nullity(p, a, 3, 2) is None
    p = parse(QPLUS5)
    assert not p.fast_scalars
    dims = []
    for cls, s in CLASSES_AND_DEGREES:
        a = build_ansatz(p, _kind(cls), cls, s=s, window=SMALL)
        dims.append(nullspace(build_system(p, a)).dim)
        assert _mod_p_nullity(p, a) == dims[-1]
        # q + 5 vanishes at q = 2 mod 7, where the coefficients have no image
        assert solver._mod_p_nullity(p, a, 7, 2) is None
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
    small = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=window)
    raw = nullspace(build_system(p, small)).dim
    enlarged = None
    if raw:
        big = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=window.widen(delta))
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
    assert solver._mod_p_nullity(p, a, prime, point) != 0
    monkeypatch.setattr(solver, "MOD_PRIME", prime)
    monkeypatch.setattr(solver, "MOD_POINT", point)
    space = stable_solve(p, "bilinear", cls, s=s, parity=parity, window=SMALL, delta=2)
    assert _reported(space) == _exact_stable_space(p, cls, s, parity, SMALL, 2)


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
    # one elimination, of fewer rows than the system has: the selected rows
    # passed the exact check against every row
    assert len(counts) == 1 and counts[0] < len(sys.rows)
    full = _full_elimination(sys)
    assert counts[0] == len(a) - full.dim
    assert space.dim == full.dim
    assert space == full


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
    assert len(solver._rank_mod_p(solver._rows_mod_p(sys.rows, 2, 1), 2)) < rank
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
    rank_mod_p = solver._rank_mod_p
    monkeypatch.setattr(solver, "_rank_mod_p", lambda rows, prime: rank_mod_p(rows, prime)[1:])
    counts = _eliminated_row_counts(monkeypatch)
    assert nullspace(sys) == expected
    assert counts == [len(a) - expected.dim - 1, len(sys.rows)]


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


# -- homogeneity completeness ---------------------------------------------------


@pytest.mark.parametrize("alg,cls,parity", [
    ("wittq", "biderivation", 0),
    ("wittsuperq", "super_biderivation", 1),
])
def test_window_solve_decomposes_by_degree(alg, cls, parity):
    p = builtin(alg)
    degrees = range(-2, 3)
    total = 0
    for s in degrees:
        a = build_ansatz(p, "bilinear", cls, s=s, parity=parity, window=SMALL)
        total += nullspace(build_system(p, a)).dim
    summed = HomogeneousAnsatz(p, "bilinear", cls, tuple(degrees), parity, SMALL)
    joint = nullspace(build_system(p, summed))
    assert joint.dim == total


# -- row and vector normalization ---------------------------------------------------


def test_normalize_row_strips_a_planted_factor():
    # three entries with no common factor, then each times (1 + q + q^2)(1 - q)
    plain = {0: {0: 1, 1: 2}, 1: {0: 3, 1: -1, 3: 1}, 2: {-1: 2, 1: 1}}
    factor = solver._pmul({0: 1, 1: 1, 2: 1}, {0: 1, 1: -1})
    planted = {j: solver._pmul(pol, factor) for j, pol in plain.items()}
    expected = {0: {1: 1, 2: 2}, 1: {1: 3, 2: -1, 4: 1}, 2: {0: 2, 2: 1}}
    assert solver._normalize_row(planted) == expected
    assert solver._normalize_row(plain) == expected


def test_normalize_row_keeps_coprime_entries_with_common_values():
    # q + 1 and q^2 + 5 are coprime, but their values share 3 at q = 2 and 2 at q = 3
    row = {0: {0: 1, 1: 1}, 1: {0: 5, 2: 1}}
    assert solver._normalize_row(row) == row


@pytest.mark.parametrize("num,den", [
    pytest.param({0: -1, 2: -1}, {0: 3, 1: 2}, id="-(q2+1)_over_(2q+3)"),
    # q - 1 is 1 at q = 2, so the probe in `_normalize_row` would keep it
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
        assert all(solver._satisfies(row, vec) for row in system.rows)
        j = next(iter(vec))
        wrong = dict(vec)
        wrong[j] = vec[j] + Q1
        assert not all(solver._satisfies(row, wrong) for row in system.rows)
    row = next(r for r in system.rows if any(j in vecs[0] for j in r))
    scaled = {j: v / QRational(LaurentPoly({0: 1, 1: 1})) for j, v in vecs[0].items()}
    with pytest.raises(ValueError, match="unit denominator"):
        solver._satisfies(row, scaled)


# -- utility layer ------------------------------------------------------------------


def test_span_utilities():
    v1 = {0: Q1, 1: Q1}
    v2 = {1: Q1}
    assert span_rank([v1, v2, {0: Q1}]) == 2
    assert span_rank([v1, v2, {0: Q1, 1: QRational(2)}]) == 2
    assert span_rank([v1, v2, {2: Q1}]) == 3
    reduced = reduce_span([v1, v2])
    assert len(reduced) == 2
