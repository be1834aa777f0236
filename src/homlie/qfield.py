"""Exact arithmetic in Q(q), the field of rational functions in one indeterminate q.

Values are fractions of sparse Laurent polynomials with integer coefficients,
kept in a canonical form so that equality and hashing are plain structural
comparisons.  `LaurentPoly` is the ring Z[q, 1/q]: its coefficients are ints
only, and a rational constant such as 1/2 lives in a `QRational`
denominator.  Every exact division in the ring divides by a primitive gcd
or divides an lcm by one of its factors, so by Gauss's lemma its quotient
has integer coefficients.  The module also provides the two q-number
families used by the q-deformed graded algebras (`qbracket` for the
symmetric one, `qbrace` for the geometric one) and exact evaluation at
rational points of q.  It is the one module that computes on bare term
dicts {exp: coeff}, the integer Laurent polynomials of the solver's rows:
`terms_mul` is their product (and the body of `LaurentPoly.__mul__`),
`primitive_part` divides several of them by their common factor, and
`packed_int` evaluates one at q = 2^b.  `Packed` is an element of
Z[q, 1/q] as one such integer with a coefficient bound, in which products
and zero tests are integer operations; `pack` converts a `QRational` to it,
and `unpack` reads the coefficients back from the integer's digits.

The unit denominator is the single object `_P1`: every value whose
denominator is 1 holds that object, so `__add__` and `__mul__` can test
`den is _P1` and skip the polynomial gcd.  Callers of `QRational._trusted`
must pass `_P1` itself, never another `LaurentPoly` equal to 1.

Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd


class ForbiddenSpecialization(ArithmeticError):
    """Raised when q is specialized to 0, 1 or -1."""


class PoleAtPoint(ArithmeticError):
    """Raised when a denominator vanishes at the requested point."""


def _as_int(c):
    # an int or an integral Fraction as an int; anything else fails loudly
    if c.denominator != 1:
        raise ValueError(f"Laurent polynomial coefficients are integers, got {c!r}")
    return int(c)


class LaurentPoly:
    """Element of Z[q, 1/q]: a sparse map exponent -> nonzero int coefficient.

    The zero polynomial is the empty map.  A rational constant lives in a
    `QRational` denominator, never here.  Instances are immutable by
    convention.
    """

    __slots__ = ("_t", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                c = _as_int(c)
                if c:
                    c0 = t.get(e)
                    if c0 is None:
                        t[e] = c
                    else:
                        c0 = c0 + c
                        if c0:
                            t[e] = c0
                        else:
                            del t[e]
        self._t = t
        self._hash = None

    @classmethod
    def _raw(cls, terms):
        # Trusted constructor: terms already canonical (no zeros, normalized).
        self = object.__new__(cls)
        self._t = terms
        self._hash = None
        return self

    @classmethod
    def monomial(cls, exp, coeff=1):
        coeff = _as_int(coeff)
        return cls._raw({exp: coeff} if coeff else {})

    @classmethod
    def const(cls, c):
        return cls.monomial(0, c)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def items(self):
        return self._t.items()

    def coeff(self, exp):
        return self._t.get(exp, 0)

    @property
    def min_exp(self):
        return min(self._t)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._t, other._t
        if not a:
            return other
        if not b:
            return self
        t = dict(a)
        for e, c in b.items():
            c0 = t.get(e)
            if c0 is None:
                t[e] = c
            else:
                c0 = c0 + c
                if c0:
                    t[e] = c0
                else:
                    del t[e]
        return LaurentPoly._raw(t)

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return _P0
            if other == 1:
                return self
            return LaurentPoly._raw({e: c * other for e, c in self._t.items()})
        # a unit factor returns the other operand itself, `_P1` included
        if self._t == _UNIT:
            return other
        if other._t == _UNIT:
            return self
        return LaurentPoly._raw(terms_mul(self._t, other._t))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly powers must be nonnegative integers")
        out = _P1
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k):
        """Multiply by q**k."""
        if k == 0 or not self._t:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self._t.items()})

    def scale_div(self, k):
        """Division by a nonzero int k that divides every coefficient."""
        return LaurentPoly._raw({e: c // k for e, c in self._t.items()})

    # -- structure -------------------------------------------------------

    def content(self):
        """The gcd of the coefficients, a positive int (0 for zero)."""
        return _igcd(*self._t.values())

    def evaluate(self, q0):
        """Exact value at q = q0 (nonzero rational)."""
        q0 = Fraction(q0)
        if q0 == 0 and self._t and self.min_exp < 0:
            raise ZeroDivisionError("negative power of q at q = 0")
        return sum((c * q0 ** e for e, c in self._t.items()), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._t == other._t
        if isinstance(other, int):
            if other == 0:
                return not self._t
            return self._t == {0: other}
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._t.items()))
        return h

    def __getstate__(self):
        return self._t

    def __setstate__(self, state):
        self._t = state
        self._hash = None

    def __str__(self):
        return _poly_str(self)

    def __repr__(self):
        return f"LaurentPoly({_poly_str(self)!r})"


_P0 = LaurentPoly._raw({})
_P1 = LaurentPoly._raw({0: 1})
_Pq = LaurentPoly._raw({1: 1})


def _poly_str(p):
    if p.is_zero:
        return "0"
    parts = []
    for e in sorted(p._t, reverse=True):
        c = p._t[e]
        neg = c < 0
        mag = -c if neg else c
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


# -- term-dict arithmetic --------------------------------------------------
#
# A term dict {exp: coeff} holds the nonzero integer coefficients of a Laurent
# polynomial.  These functions are the one place that computes on them: the
# product, the gcd over Q[q] and the primitive part.  They read their inputs
# and return fresh dicts, so inputs may be shared, e.g. with the term dicts of
# `LaurentPoly` values.  The gcd works on dense coefficient lists,
# constant term first, with the lowest power of q taken out (`_dense`).

_UNIT = {0: 1}


def terms_mul(a, b):
    """The product of two term dicts, as a new dict."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (e1, c1), = a.items()
        if c1 == 1:
            return {e + e1: c for e, c in b.items()}
        return {e + e1: c1 * c for e, c in b.items()}
    t = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            c0 = t.get(e)
            if c0 is None:
                t[e] = c1 * c2
            else:
                t[e] = c0 + c1 * c2
    return {e: c for e, c in t.items() if c}


def _dense(terms):
    """(lowest exponent, coefficients from it up) of a nonzero term dict."""
    lo = min(terms)
    out = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        out[e - lo] = c
    return lo, out


def _terms(lo, dense):
    """The term dict of q^lo times the dense list."""
    return {lo + i: c for i, c in enumerate(dense) if c}


def _strip(v):
    while v and not v[-1]:
        v.pop()
    return v


def _int_primitive(v):
    # v: nonempty int list -> content-free with positive leading coefficient
    c = _igcd(*v)
    if v[-1] < 0:
        c = -c
    if c != 1:
        v = [x // c for x in v]
    return v


def _int_pseudo_mod(x, y):
    # Pseudo-remainder of integer dense lists; y nonzero, both stripped.
    dy = len(y) - 1
    ly = y[-1]
    r = x[:]
    while len(r) - 1 >= dy:
        if not r[-1]:
            r.pop()
            continue
        f = r[-1]
        off = len(r) - 1 - dy
        for i in range(len(r)):
            r[i] *= ly
        for i in range(dy + 1):
            r[off + i] -= f * y[i]
        r.pop()
        _strip(r)
        if not r:
            break
    return _strip(r)


def _int_gcd(x, y):
    """Gcd of two nonzero stripped integer lists, primitive with a positive
    leading coefficient, by the primitive polynomial remainder sequence."""
    x, y = _int_primitive(x), _int_primitive(y)
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = _int_pseudo_mod(x, y)
        if not r:
            return y
        x, y = y, _int_primitive(r)
    return [1]


def _dense_gcd(denses):
    """Gcd over Q[q] of nonempty stripped integer lists, primitive with a
    positive leading coefficient; it stops at [1] as soon as it gets there."""
    g = None
    for d in denses:
        g = _int_primitive(d) if g is None else _int_gcd(g, d)
        if len(g) == 1:
            break
    return g


def _int_divexact(x, y):
    """Quotient of integer lists x / y, y stripped.  Raises ValueError when
    y does not divide x in Z[q]."""
    x = x[:]
    dq = len(x) - len(y)
    if dq < 0:
        raise ValueError("not divisible")
    quot = [0] * (dq + 1)
    ly = y[-1]
    while x and len(x) >= len(y):
        if not x[-1]:
            x.pop()
            continue
        f, rem = divmod(x[-1], ly)
        if rem:
            raise ValueError("the quotient is not in Z[q]")
        off = len(x) - len(y)
        quot[off] = f
        for i in range(len(y)):
            x[off + i] -= f * y[i]
        _strip(x)
    if x:
        raise ValueError("not divisible")
    return quot


def primitive_part(polys):
    """The primitive part of nonzero term dicts {key: terms}, as new dicts.

    Their gcd over Q[q], the largest power of q that divides all of them and
    their integer content are removed, and the sign is chosen so that the
    entry of the smallest key has a positive lowest coefficient.  Inputs on
    one line over Q(q) give the same result.
    """
    dense = {k: _dense(t) for k, t in polys.items()}
    g = _dense_gcd(d for _, d in dense.values())
    if len(g) > 1:
        dense = {k: (lo, _int_divexact(d, g)) for k, (lo, d) in dense.items()}
    shift = min(lo for lo, _ in dense.values())
    ic = 0
    for _, d in dense.values():
        ic = _igcd(ic, *d)
    if dense[min(dense)][1][0] < 0:
        ic = -ic
    return {k: {lo - shift + i: c // ic for i, c in enumerate(d) if c}
            for k, (lo, d) in dense.items()}


def poly_gcd(*polys):
    """Gcd over Q[q] of Laurent polynomials, up to units.

    The result is a primitive integer polynomial with nonzero constant term
    and positive lowest coefficient; it is 0 when every input is.
    """
    g = _dense_gcd(_dense(p._t)[1] for p in polys if p)
    if g is None:
        return _P0
    if g[0] < 0:
        g = [-c for c in g]
    return LaurentPoly._raw(_terms(0, g))


def poly_divexact(a, b):
    """Exact quotient a / b in Z[q, 1/q]; ValueError when b does not divide a there."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return _P0
    (la, da), (lb, db) = _dense(a._t), _dense(b._t)
    return LaurentPoly._raw(_terms(la - lb, _int_divexact(da, db)))


# -- the field -----------------------------------------------------------


class QRational:
    """Element of Q(q) in canonical reduced form.

    Invariants: the denominator is a nonzero polynomial in q with nonzero
    constant term, integer coefficients and positive constant coefficient;
    numerator and denominator have no common polynomial factor and no common
    integer content.  Two values are equal iff their parts compare equal.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, value=0):
        if isinstance(value, int):
            # an integer is already canonical over the shared unit denominator
            self.num, self.den = LaurentPoly.const(value), _P1
        elif isinstance(value, (LaurentPoly, Fraction)):
            if isinstance(value, Fraction):
                num = LaurentPoly.const(value.numerator)
                den = LaurentPoly.const(value.denominator)
            else:
                num, den = value, _P1
            q = _canonical(num, den)
            self.num, self.den = q.num, q.den
        else:
            raise TypeError(f"cannot build QRational from {type(value).__name__}")
        self._hash = None

    @classmethod
    def _trusted(cls, num, den):
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def make(cls, num, den):
        """Canonical fraction num/den of Laurent polynomials."""
        return _canonical(num, den)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, QRational):
            return other
        if isinstance(other, (int, Fraction)):
            return QRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _P1 and other.den is _P1:
            return QRational._trusted(self.num + other.num, _P1)
        return _canonical(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return QRational._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _P1 and other.den is _P1:
            return QRational._trusted(self.num * other.num, _P1)
        return _canonical(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero in Q(q)")
        return _canonical(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.num.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return _canonical(self.den, self.num)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = Q1
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num, self.den))
        return h

    def __getstate__(self):
        return (self.num, self.den)

    def __setstate__(self, state):
        num, den = state
        self.num = num
        self.den = _P1 if den == _P1 else den
        self._hash = None

    def __str__(self):
        if self.den is _P1 or self.den == _P1:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"QRational({str(self)!r})"


def _canonical(num, den):
    if den.is_zero:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if num.is_zero:
        return Q0
    a, b = num.min_exp, den.min_exp
    n = num.shift(-a)
    d = den.shift(-b)
    if len(d) > 1:  # a constant d has gcd 1 with anything
        g = poly_gcd(n, d)
        if g != _P1:
            n = poly_divexact(n, g)
            d = poly_divexact(d, g)
    c = _igcd(n.content(), d.content())
    if d.coeff(0) < 0:
        c = -c
    if c != 1:
        n = n.scale_div(c)
        d = d.scale_div(c)
    if d == _P1:
        d = _P1
    return QRational._trusted(n.shift(a - b), d)


Q0 = QRational._trusted(_P0, _P1)
Q1 = QRational._trusted(_P1, _P1)


def qpow(k):
    """The monomial q**k as a field element."""
    return QRational._trusted(LaurentPoly.monomial(k), _P1)


@lru_cache(maxsize=None)
def qbracket(n):
    """Symmetric q-number: (q^n - q^-n) / (q - q^-1).  Always a Laurent polynomial."""
    num = LaurentPoly({n: 1}) - LaurentPoly({-n: 1})
    den = _Pq - LaurentPoly({-1: 1})
    return QRational.make(num, den)


@lru_cache(maxsize=None)
def qbrace(n):
    """Geometric q-number: (1 - q^n) / (1 - q).  Always a Laurent polynomial."""
    num = _P1 - LaurentPoly({n: 1})
    den = _P1 - _Pq
    return QRational.make(num, den)


# -- values at q = 2^b ---------------------------------------------------------
#
# Kronecker substitution (von zur Gathen & Gerhard, Modern Computer Algebra):
# a Laurent polynomial P = sum c_i q^i whose exponents are all at least e is
# packed as the integer N = sum c_i 2^(b (i - e)), that is q^-e P(q) at
# q = 2^b.  When every |c_i| < 2^(b-1) the top term of a nonzero P outweighs
# all the others, so N = 0 iff P = 0.  A `Packed` value carries a bound w on
# the 1-norm sum |c_i| beside N: ||P + Q|| <= ||P|| + ||Q|| and
# ||PQ|| <= ||P|| ||Q||.  A nonzero N proves P nonzero whatever w is; a zero
# N proves P zero only while w < 2^(b-1), and otherwise raises
# `PackingOverflow`, so a caller redoes the work at a larger b and never
# reads an undecided value as zero.


class PackingOverflow(ArithmeticError):
    """A packed value reads zero, but its bound is too large to prove it."""

    def __init__(self, bound):
        super().__init__(f"coefficient bound {bound} too large for the packing")
        self.bound = bound


class NotLaurent(ValueError):
    """A value with a denominator other than 1 has no packed form."""


_new = object.__new__


class Packed:
    """An element of Z[q, 1/q] at q = 2^b: (e, N, w, b) as above.  The ring
    operations are those a term dict needs: +, unary -, * and `is_zero`,
    and == compares two values packed with the same b."""

    __slots__ = ("e", "n", "w", "b")

    def __add__(self, other):
        v = _new(Packed)
        d = other.e - self.e
        if d >= 0:
            v.e = self.e
            v.n = self.n + (other.n << self.b * d)
        else:
            v.e = other.e
            v.n = other.n + (self.n << -self.b * d)
        v.w = self.w + other.w
        v.b = self.b
        return v

    def __neg__(self):
        v = _new(Packed)
        v.e, v.n, v.w, v.b = self.e, -self.n, self.w, self.b
        return v

    def __mul__(self, other):
        v = _new(Packed)
        v.e = self.e + other.e
        v.n = self.n * other.n
        v.w = self.w * other.w
        v.b = self.b
        return v

    @property
    def is_zero(self):
        if self.n:
            return False
        if self.w >> (self.b - 1):
            raise PackingOverflow(self.w)
        return True

    def __eq__(self, other):
        d = other.e - self.e
        if d >= 0:
            same = self.n == other.n << self.b * d
        else:
            same = other.n == self.n << -self.b * d
        if same and (self.w + other.w) >> (self.b - 1):
            raise PackingOverflow(self.w + other.w)
        return same

    def __repr__(self):
        return f"Packed(e={self.e}, n={self.n}, w={self.w}, b={self.b})"


def packed_int(terms, b, lo):
    """The integer sum c q^(e - lo) at q = 2^b of a term dict whose
    exponents are all at least lo."""
    return sum(c << b * (e - lo) for e, c in terms.items())


def pack(x, b):
    """The `Packed` value of x at q = 2^b; `NotLaurent` unless x lies in
    Z[q, 1/q] over the shared unit denominator."""
    if x.den is not _P1:
        raise NotLaurent(f"{x} is not a Laurent polynomial")
    t = x.num._t
    v = _new(Packed)
    v.e = lo = min(t) if t else 0
    v.n = packed_int(t, b, lo)
    v.w = sum(map(abs, t.values()))
    v.b = b
    return v


def unpack(x):
    """The `QRational` a `Packed` value stands for: the base-2^b digits of N,
    each taken in (-2^(b-1), 2^(b-1)], are its coefficients, exactly while
    its bound is below 2^(b-1); `PackingOverflow` otherwise."""
    b, n, e = x.b, x.n, x.e
    if x.w >> (b - 1):
        raise PackingOverflow(x.w)
    half, mask = 1 << (b - 1), (1 << b) - 1
    t = {}
    while n:
        c = n & mask
        if c > half:
            c -= 1 << b
        if c:
            t[e] = c
        n = (n - c) >> b
        e += 1
    return QRational._trusted(LaurentPoly._raw(t), _P1)


def specialize(x, q0):
    """Exact rational value of x at q = q0; refuses q0 in {0, 1, -1}."""
    q0 = Fraction(q0)
    if q0 in (0, 1, -1):
        raise ForbiddenSpecialization(f"q = {q0} is not allowed")
    d = x.den.evaluate(q0)
    if d == 0:
        raise PoleAtPoint(f"denominator vanishes at q = {q0}")
    return x.num.evaluate(q0) / d
