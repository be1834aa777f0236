import math
import pickle
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie import qfield
from homlie.algebra import Generator, Vector
from homlie.qfield import (
    ForbiddenSpecialization,
    LaurentPoly,
    PoleAtPoint,
    QRational,
    poly_divexact,
    poly_gcd,
    primitive_part,
    qbracket,
    qbrace,
    qpow,
    specialize,
)

Q0 = QRational(0)
Q1 = QRational(1)


def laurents(max_terms=4):
    coeff = st.integers(min_value=-6, max_value=6)
    term = st.tuples(st.integers(min_value=-5, max_value=5), coeff)
    return st.lists(term, max_size=max_terms).map(LaurentPoly)


def qrationals():
    def make(num, den):
        if den.is_zero:
            den = LaurentPoly({0: 1})
        return QRational.make(num, den)

    return st.builds(make, laurents(), laurents())


def non_monomials():
    # at least two terms, so QRational.make must take the gcd path
    term = st.tuples(st.integers(min_value=-4, max_value=4),
                     st.integers(min_value=-5, max_value=5).filter(bool))
    return (st.lists(term, min_size=2, max_size=4, unique_by=lambda t: t[0])
            .map(LaurentPoly))


def nonzero_rationals():
    return st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


# -- Laurent polynomials ------------------------------------------------------


def test_zero_polynomial_is_empty():
    assert LaurentPoly({}).is_zero
    assert LaurentPoly({2: 0}).is_zero
    assert not LaurentPoly({0: 1}).is_zero


def test_sparse_canonical_form():
    p = LaurentPoly({3: 2, -1: Fraction(4, 2), 0: 0})
    assert dict(p.items()) == {3: 2, -1: 2}


def test_coefficients_are_integers():
    with pytest.raises(ValueError):
        LaurentPoly({0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        LaurentPoly.monomial(3, Fraction(-2, 3))
    with pytest.raises(TypeError):
        LaurentPoly({0: 1}) * Fraction(1, 2)
    # a rational constant lives in the denominator
    half = QRational(Fraction(1, 2))
    assert half.num == LaurentPoly.const(1) and half.den == LaurentPoly.const(2)


@given(laurents(), laurents(), laurents())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurents(), laurents())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero or b.is_zero:
        return
    g = poly_gcd(a, b)
    poly_divexact(a.shift(-a.min_exp), g)
    poly_divexact(b.shift(-b.min_exp), g)


def test_divexact_rejects_nondivisor():
    with pytest.raises(ValueError):
        poly_divexact(LaurentPoly({2: 1, 0: 1}), LaurentPoly({1: 1, 0: 1}))
    # q + 1 divides 2q + 2 over Q[q], with the quotient 1/2 outside Z[q]
    with pytest.raises(ValueError):
        poly_divexact(LaurentPoly({1: 1, 0: 1}), LaurentPoly({1: 2, 0: 2}))


# -- term dicts -----------------------------------------------------------------


def nonzero_laurents(max_terms=4):
    return laurents(max_terms).filter(bool)


@given(st.one_of(laurents(), st.just(LaurentPoly({0: 1}))),
       st.one_of(laurents(), st.just(LaurentPoly({0: 1}))))
@settings(max_examples=80, deadline=None)
def test_terms_mul_is_the_polynomial_product(a, b):
    t = qfield.terms_mul(a._t, b._t)
    assert t == (a * b)._t
    assert t is not a._t and t is not b._t


@given(st.dictionaries(st.integers(min_value=0, max_value=6), nonzero_laurents(),
                       min_size=1, max_size=4),
       nonzero_laurents(3))
@settings(max_examples=80, deadline=None)
def test_primitive_part_removes_one_common_factor(polys, h):
    terms = {k: p._t for k, p in polys.items()}
    planted = {k: qfield.terms_mul(t, h._t) for k, t in terms.items()}
    snapshot = {k: dict(t) for k, t in planted.items()}
    parts = primitive_part(terms)
    # a planted common factor changes nothing, and the inputs stay as they are
    assert primitive_part(planted) == parts
    assert planted == snapshot
    assert parts.keys() == terms.keys()
    first = min(parts)
    for inputs in (terms, planted):
        factor = poly_divexact(LaurentPoly(inputs[first]), LaurentPoly(parts[first]))
        for k, t in inputs.items():
            assert factor * LaurentPoly(parts[k]) == LaurentPoly(t)
    # what is left has no common factor, no common power of q, content 1
    # and a positive lowest coefficient in its first entry
    left = [LaurentPoly(t) for t in parts.values()]
    assert poly_gcd(*left) == LaurentPoly({0: 1})
    assert min(p.min_exp for p in left) == 0
    assert math.gcd(*(p.content() for p in left)) == 1
    assert parts[first][min(parts[first])] > 0


@given(st.lists(laurents(), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_n_ary_gcd_is_the_pairwise_fold(polys):
    assert poly_gcd(*polys) == reduce(poly_gcd, polys, LaurentPoly({}))


# -- values packed at q = 2^b -----------------------------------------------------


def _at(x):
    """The rational number a Packed value stands for."""
    return x.n * Fraction(2) ** (x.b * x.e)


@given(laurents(), laurents(), laurents(), st.sampled_from([3, 4, 8, 32]))
# 2 * 4 - q is 0 at q = 2^3
@example(LaurentPoly({0: 2}), LaurentPoly({0: 4}), LaurentPoly({1: -1}), 3)
@settings(max_examples=150, deadline=None)
def test_packed_arithmetic_is_evaluation_at_a_power_of_two(a, b, c, bits):
    # small bits make the bound overflow often: a zero test then raises
    # rather than answer, and never calls a nonzero value zero
    pa, pb, pc = (qfield.pack(QRational(x), bits) for x in (a, b, c))
    for packed, poly in ((pa * pb + pc, a * b + c), (-pa + pb * pc, -a + b * c)):
        assert _at(packed) == poly.evaluate(2 ** bits)
        assert packed.w >= sum(abs(k) for _, k in poly.items())
        try:
            assert packed.is_zero == poly.is_zero
        except qfield.PackingOverflow as e:
            assert e.bound >= 2 ** (bits - 1)
    try:
        assert (pa * pb == pc) == (a * b == c)
    except qfield.PackingOverflow as e:
        assert e.bound >= 2 ** (bits - 1)


@given(laurents(), laurents(), laurents(), st.sampled_from([3, 4, 8, 32]))
@settings(max_examples=150, deadline=None)
def test_unpack_reads_back_what_was_packed(a, b, c, bits):
    # below the bound the digits are the coefficients; at or past it,
    # unpack raises rather than answer
    packs = [qfield.pack(QRational(x), bits) for x in (a, b, c)]
    for x, packed in zip((a, b, c), packs):
        if packed.w < 2 ** (bits - 1):
            assert qfield.unpack(packed) == QRational(x)
        else:
            with pytest.raises(qfield.PackingOverflow):
                qfield.unpack(packed)
    pa, pb, pc = packs
    try:
        assert qfield.unpack(pa * pb + pc) == QRational(a * b + c)
    except qfield.PackingOverflow as e:
        assert e.bound >= 2 ** (bits - 1)


def test_pack_refuses_a_denominator():
    with pytest.raises(qfield.NotLaurent):
        qfield.pack(QRational(Fraction(1, 3)), 32)
    assert _at(qfield.pack(qpow(-3) * QRational(5), 32)) == Fraction(5, 2 ** 96)


# -- field arithmetic ----------------------------------------------------------


def test_formal_sum_of_powers():
    assert qpow(1) + qpow(-1) == QRational.make(
        LaurentPoly({2: 1, 0: 1}), LaurentPoly({1: 1})
    )


def test_inverse_is_exact():
    x = qpow(2) - QRational(3) + qpow(-1)
    assert x * x.inverse() == Q1
    assert Q1 / x == x.inverse()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q1 / Q0
    with pytest.raises(ZeroDivisionError):
        Q0.inverse()


def test_long_division_example():
    # (q^2 - q^-2) / (q - q^-1) reduces to a Laurent polynomial
    num = qpow(2) - qpow(-2)
    den = qpow(1) - qpow(-1)
    assert num / den == qpow(1) + qpow(-1)


def test_canonical_form_is_syntactic():
    a = QRational.make(LaurentPoly({1: 2, 0: -2}), LaurentPoly({0: 4}))
    b = QRational.make(LaurentPoly({2: 1, 1: -1}), LaurentPoly({1: 2}))
    assert a == b
    assert a.num == b.num and a.den == b.den
    assert hash(a) == hash(b)


def test_denominator_normalization():
    x = Q1 / (qpow(1) - QRational(2))
    # lowest denominator coefficient is a positive integer
    assert x.den.coeff(x.den.min_exp) > 0
    assert x.den.min_exp == 0
    assert x * (qpow(1) - QRational(2)) == Q1


@given(laurents(), nonzero_rationals(), st.integers(min_value=-4, max_value=4),
       non_monomials())
@settings(max_examples=80, deadline=None)
def test_constant_denominator_skips_gcd_soundly(num, c, k, r):
    # num / (c * q^k), written over Z[q, 1/q]
    num = num * c.denominator
    den = LaurentPoly.monomial(k, c.numerator)
    assert QRational.make(num, den) == QRational.make(num * r, den * r)


@given(st.integers(min_value=-10**6, max_value=10**6), non_monomials())
@settings(max_examples=60, deadline=None)
def test_integer_constructor_matches_gcd_path(n, r):
    x = QRational(n)
    assert x == QRational.make(LaurentPoly.const(n) * r, r)
    assert x.den is qfield._P1


def test_unit_denominator_is_shared():
    values = [QRational(n) for n in (-3, 0, 1, 7)]
    values += [QRational(Fraction(4, 2)), qpow(-2), qbracket(3)]
    values += list(Vector.of(Generator("L", 0, 0)).terms.values())
    values += [pickle.loads(pickle.dumps(v)) for v in values]
    for v in values:
        assert v.den is qfield._P1


@given(qrationals(), qrationals(), qrationals())
@settings(max_examples=40, deadline=None)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Q0
    if not a.is_zero:
        assert a * a.inverse() == Q1


@given(qrationals())
@settings(max_examples=40, deadline=None)
def test_canonicalization_idempotent(a):
    again = QRational.make(a.num, a.den)
    assert again.num == a.num and again.den == a.den


# -- q-numbers -----------------------------------------------------------------


def test_qbracket_values():
    assert qbracket(0) == Q0
    assert qbracket(1) == Q1
    assert qbracket(2) == qpow(1) + qpow(-1)
    # oracle: the negation identity
    assert qbracket(-3) == -qbracket(3)
    assert qbracket(-3) == -(qpow(2) + Q1 + qpow(-2))


def test_qbracket_by_polynomial_division():
    for n in range(-6, 7):
        num = qpow(n) - qpow(-n)
        den = qpow(1) - qpow(-1)
        assert qbracket(n) == num / den
        assert qbracket(n).den == LaurentPoly({0: 1})


def test_qbrace_values():
    assert qbrace(0) == Q0
    assert qbrace(1) == Q1
    # oracle: the step identity 1 + q*{n}
    assert qbrace(2) == Q1 + qpow(1) * qbrace(1)
    assert qbrace(2) == Q1 + qpow(1)
    # oracle: q^n {-n} = -{n}
    assert qbrace(-1) == -qbrace(1) / qpow(-1) * qpow(-2)
    assert qbrace(-1) == -qpow(-1)


@pytest.mark.parametrize("m", range(-8, 9))
@pytest.mark.parametrize("n", range(-8, 9))
def test_qnumber_identity_sweep(m, n):
    assert qpow(n) * qbracket(m) - qpow(m) * qbracket(n) == qbracket(m - n)
    assert qpow(-n) * qbracket(m) + qpow(m) * qbracket(n) == qbracket(m + n)
    assert qbrace(n + m) == qbrace(n) + qpow(n) * qbrace(m)


@pytest.mark.parametrize("n", range(-8, 9))
def test_qbrace_step_identities(n):
    assert qbrace(n + 1) == Q1 + qpow(1) * qbrace(n)
    assert qbrace(n + 1) == qbrace(n) + qpow(n)
    assert qpow(n) * qbrace(-n) == -qbrace(n)
    assert qbracket(-n) == -qbracket(n)


# -- specialization -------------------------------------------------------------


def test_specialize_values():
    assert specialize(qbracket(2), 2) == Fraction(5, 2)
    assert specialize(qbrace(3), 2) == 7


def test_specialize_forbidden_points():
    for q0 in (0, 1, -1):
        with pytest.raises(ForbiddenSpecialization):
            specialize(qbracket(2), q0)


def test_specialize_pole():
    x = Q1 / (qpow(1) - QRational(2))
    with pytest.raises(PoleAtPoint):
        specialize(x, 2)
    assert specialize(x, 3) == 1


@given(qrationals(), qrationals())
@settings(max_examples=40, deadline=None)
def test_specialize_is_a_homomorphism(a, b):
    try:
        va = specialize(a, 5)
        vb = specialize(b, 5)
        vab = specialize(a * b, 5)
        vsum = specialize(a + b, 5)
    except PoleAtPoint:
        return
    assert vab == va * vb
    assert vsum == va + vb


def test_rendering_round_trips_through_str():
    x = qbracket(3)
    assert str(x) == "q^2 + 1 + q^-2"
    y = Q1 / (Q1 - qpow(3))
    assert "/" in str(y)
