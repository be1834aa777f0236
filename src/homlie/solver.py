"""Homogeneous map ansatz, exact constraint generation and nullspace solving.

Unknowns are the coefficients of a degree- and parity-homogeneous bilinear or
linear map over a window; the defining identities of the requested class,
instantiated on every interior input tuple, yield a sparse linear system over
Q(q).  One generator, `_rows`, writes those rows for every class and
presentation, with the structure constants in Z[q, 1/q], in Q(q) or in F_p.
The system is solved exactly: rows are cleared to primitive integer
Laurent rows, reduced by fraction-free elimination with per-row content
removal, and the nullspace basis is produced by back-substitution.

Most rows are redundant, so `nullspace` eliminates over Q(q) only a subset.
The rows are sent through q -> MOD_POINT into F_p, p = MOD_PRIME, where a
sparse elimination picks a maximal independent set of their images.  This
is a ring map, so rows independent mod p are independent over Q(q): the
subset has the full rank at worst, and its space contains the true one.
Every basis vector is then checked against every row in Q(q), which proves
the two spaces equal.  A failed check, or a point with no image, sends the
solve to the elimination of all rows; an unlucky point costs time, never a
wrong answer.

Window truncation leaves boundary unknowns under-constrained, so the raw
window nullspace can exceed the true solution space.  `stable_solve` filters
it by solving again on an enlarged window and keeping the restrictions, which
is the finite stand-in for a solution defined on the whole graded algebra.
When the window space is already 0 it returns at once: the restrictions must
satisfy the window system, so they can only be zero.  On graded
presentations a rank computed modulo the same prime proves that before any
exact solve.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd as _igcd
from typing import Dict, List, Optional, Tuple

from .algebra import Generator, Vector, Window
from .identities import ClassModeMismatch, OutOfWindow, check_class_mode
from .maps import BilinearMap, LinearMap
from .qfield import (
    _P1,
    LaurentPoly,
    QRational,
    _int_divexact,
    _int_gcd,
    _int_primitive,
    poly_divexact,
    poly_gcd,
)

Q0 = QRational(0)
Q1 = QRational(1)

_EQ_ORDER = {"eq1": 0, "eq2": 1, "eq": 0, "commute": 0, "twist-commute": 1}


class HomogeneousAnsatz:
    """Unknown homogeneous map of fixed parity over a window.

    Slots are keyed (family1, deg1, family2, deg2, target_family, target_deg)
    for bilinear maps and (family, deg, target_family, target_deg) for linear
    ones; keys are shared across windows so solutions restrict naturally.
    `degrees` lists the degree shifts covered (one entry for a homogeneous
    ansatz; several for a direct-sum ansatz).
    """

    def __init__(self, p, kind, cls, degrees, parity, window, k=1):
        if kind not in ("bilinear", "linear"):
            raise ValueError(f"unknown ansatz kind {kind!r}")
        check_class_mode(p, cls)
        if not p.is_super and parity != 0:
            raise ClassModeMismatch("odd maps need a super presentation")
        self.p = p
        self.kind = kind
        self.cls = cls
        self.k = k
        self.parity = parity
        self.window = window
        self.degrees = tuple(degrees) if not p.is_scalar else (0,)
        if len(set(self.degrees)) != len(self.degrees):
            raise ValueError("repeated degree shifts")
        fams = list(p.families.values())
        self._targets = {}
        for par in (0, 1):
            want = (par + parity) % 2
            self._targets[par] = tuple(f.name for f in fams if f.parity == want)
        slots = []
        gens = p.gens_in(window)
        if kind == "bilinear":
            for g1 in gens:
                for g2 in gens:
                    for tf in self._targets[(g1.parity + g2.parity) % 2]:
                        for s in self.degrees:
                            td = None if p.is_scalar else g1.degree + g2.degree + s
                            slots.append(
                                (g1.family, g1.degree, g2.family, g2.degree, tf, td)
                            )
        else:
            for g in gens:
                for tf in self._targets[g.parity]:
                    for s in self.degrees:
                        td = None if p.is_scalar else g.degree + s
                        slots.append((g.family, g.degree, tf, td))
        slots.sort(key=self._slot_sort_key)
        self.slots = slots
        self.index = {key: i for i, key in enumerate(slots)}

    def _key(self):
        return (self.p, self.kind, self.cls, self.degrees, self.parity, self.window, self.k)

    def __eq__(self, other):
        if not isinstance(other, HomogeneousAnsatz):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _slot_sort_key(self, key):
        order = self.p._order
        if self.kind == "bilinear":
            f1, d1, f2, d2, tf, td = key
            return (order[f1], order[f2], d1 or 0, d2 or 0, order[tf], td or 0)
        f, d, tf, td = key
        return (order[f], d or 0, order[tf], td or 0)

    @property
    def degree(self):
        return self.degrees[0] if len(self.degrees) == 1 else None

    def __len__(self):
        return len(self.slots)

    def slot_vector_of_map(self, concrete):
        """Coordinates of a concrete map in this ansatz's slots."""
        out = {}
        for key in self.slots:
            if self.kind == "bilinear":
                f1, d1, f2, d2, tf, td = key
                g1 = Generator(f1, d1, self.p.parity_of(f1))
                g2 = Generator(f2, d2, self.p.parity_of(f2))
                val = concrete(g1, g2)
                target = Generator(tf, td, self.p.parity_of(tf))
            else:
                f1, d1, tf, td = key
                g1 = Generator(f1, d1, self.p.parity_of(f1))
                val = concrete(g1)
                target = Generator(tf, td, self.p.parity_of(tf))
            if val is None:
                raise OutOfWindow(f"map undefined at slot {key}")
            c = val.get(target)
            if not c.is_zero:
                out[key] = c
        return out


def build_ansatz(p, kind, cls, s=0, parity=0, window=None, k=1):
    """Homogeneous degree-s, parity-`parity` ansatz for the given class."""
    if window is None:
        raise ValueError("a window is required")
    return HomogeneousAnsatz(p, kind, cls, (s,), parity, window, k=k)


@dataclass
class ConstraintSystem:
    """Sparse exact linear system over the ansatz unknowns."""

    ansatz: HomogeneousAnsatz
    rows: List[Dict[int, QRational]] = field(default_factory=list)

    @property
    def nunknowns(self):
        return len(self.ansatz.slots)


def build_system(p, ansatz):
    """Instantiate the class identities over all interior tuples."""
    p_key = p.gen_sort_key
    raw = sorted(
        _rows(p, ansatz),
        key=lambda r: (
            _EQ_ORDER.get(r[0], 9),
            tuple(p_key(g) for g in r[1]),
            p_key(r[2]),
        ),
    )
    sys = ConstraintSystem(ansatz)
    seen = set()
    for _, _, _, values in raw:
        row = _introw_of(values)
        if row is None:
            continue
        key = tuple(sorted((j, tuple(sorted(pol.items()))) for j, pol in row.items()))
        if key in seen:
            continue
        seen.add(key)
        sys.rows.append(
            {j: QRational._trusted(LaurentPoly._raw(pol), _P1) for j, pol in row.items()}
        )
    return sys


def single_instance_rows(p, ansatz, inputs):
    """Rows generated by one identity instance: {(eq id, target gen): row}.

    Rows come back as {slot id: coefficient} without content normalization,
    which keeps exact linear relations between them intact.
    """
    return {(eq_id, g): row for eq_id, _, g, row in _rows(p, ansatz, only=tuple(inputs))}


def _rows(p, ansatz, prime=None, point=None, only=None):
    """(eq id, inputs, target generator, {slot id: coefficient}) for each
    nonzero component of lhs - rhs of each identity instance of the ansatz's
    class on its window.

    The instances and signs are those of `identities.bilinear_instances` and
    `linear_instances`, which the test suite compares this stream against;
    an instance is skipped when it would evaluate the unknown map outside
    the window.  Coefficients come from the presentation's structure-constant
    tables: bare Laurent polynomials when `p.fast_scalars`, Q(q) elements
    otherwise, and, given a `prime`, their images under q -> `point` in
    F_prime (see `_mod_p_tables`), with each row entry reduced to a residue.
    `only` restricts the stream to one input tuple.
    """
    cls = ansatz.cls
    scalar = p.is_scalar
    index = ansatz.index
    targets = ansatz._targets
    degrees = ansatz.degrees
    contains = ansatz.window.contains
    fam_parity = {f.name: f.parity for f in p.families.values()}
    if prime is not None:
        bracket, alpha = _mod_p_tables(p, prime, point)
    elif p.fast_scalars:
        bracket, alpha = p.bracket_gens_fast, p.alpha_gens_fast
    else:
        bracket, alpha = p.bracket_gens, p.alpha_gens
    if only is None:
        gens = p.gens_in(ansatz.window)
        axes = (gens, gens, gens)
    else:
        gens = list(dict.fromkeys(only))
        axes = tuple([g] for g in only)

    def in_window(terms):
        return scalar or all(contains(g.degree) for g, _ in terms)

    def twist_power(g, k):
        # alpha^k(g) as (generator, coefficient), None when it is 0; alpha
        # maps a generator to one term, so alpha^k is one product
        c = 1
        for _ in range(k):
            t = alpha(g)
            if not t:
                return None
            g, a = t[0]
            c = c * a
        return g, c

    slot_cache = {}

    def slots(args):
        # (slot id, target generator) of each unknown coefficient at args
        out = slot_cache.get(args)
        if out is None:
            key = tuple(v for g in args for v in (g.family, g.degree))
            base = None if scalar else sum(g.degree for g in args)
            out = slot_cache[args] = tuple(
                (index[key + (tf, td)], Generator(tf, td, fam_parity[tf]))
                for tf in targets[sum(g.parity for g in args) % 2]
                for td in ((None,) if scalar else (base + s for s in degrees))
            )
        return out

    def put(acc, gen, j, c):
        row = acc.get(gen)
        if row is None:
            acc[gen] = {j: c}
            return
        c0 = row.get(j)
        if c0 is None:
            row[j] = c
        else:
            c0 = c0 + c
            if not c0:
                del row[j]
            else:
                row[j] = c0

    def put_map(acc, args, c):
        # contributions of c * phi(args)
        for j, gen in slots(args):
            put(acc, gen, j, c)

    def put_bracket(acc, args, right, c, flip):
        # contributions of c * [phi(args), right], or c * [right, phi(args)]
        # when flip is set; right is a concrete generator
        for j, mid in slots(args):
            for gfin, r in bracket(right, mid) if flip else bracket(mid, right):
                put(acc, gfin, j, c * r)

    def emit(eq_id, inputs, acc):
        for gen, row in acc.items():
            if prime is not None:
                row = {j: r for j, c in row.items() if (r := c % prime)}
            if row:
                yield eq_id, inputs, gen, row

    if cls == "alpha_k_derivation" and ansatz.k < 0:
        raise ValueError("twist power must be nonnegative")
    k = {"alpha_k_derivation": ansatz.k, "derivation": 0, "super_derivation": 0}.get(cls, 1)
    twists = {g: twist_power(g, k) for g in gens}
    parity = ansatz.parity
    if ansatz.kind == "bilinear":
        twisted = cls in ("biderivation", "super_biderivation")
        btab = {}
        for g1 in gens:
            for g2 in gens:
                bv = bracket(g1, g2)
                btab[g1, g2] = (bv, in_window(bv))
        xs, ys, zs = axes
        for x in xs:
            ax = twists[x]
            neg_phix = parity and x.parity
            for y in ys:
                ay = twists[y]
                bxy, bxy_ok = btab[x, y]
                neg_phixy = ((parity + x.parity) % 2) and y.parity
                for z in zs:
                    az = twists[z]
                    # phi([x,y], T z) - (-1)^{|y||z|} [phi(x,z), a y]
                    #   - (-1)^{|phi||x|} [a x, phi(y,z)], T = a on the
                    # twisted classes; phi([x,y], 0) needs no window
                    if bxy_ok or (twisted and az is None):
                        acc = {}
                        if not twisted:
                            for u, cu in bxy:
                                put_map(acc, (u, z), cu)
                        elif az is not None:
                            zz, caz = az
                            for u, cu in bxy:
                                put_map(acc, (u, zz), cu * caz)
                        if ay is not None:
                            yy, cay = ay
                            sgn = y.parity and z.parity
                            put_bracket(acc, (x, z), yy, cay if sgn else -cay, False)
                        if ax is not None:
                            xx, cax = ax
                            put_bracket(acc, (y, z), xx, cax if neg_phix else -cax, True)
                        yield from emit("eq1", (x, y, z), acc)
                    # phi(T x, [y,z]) - [phi(x,y), a z]
                    #   - (-1)^{(|phi|+|x|)|y|} [a y, phi(x,z)]
                    byz, byz_ok = btab[y, z]
                    if byz_ok or (twisted and ax is None):
                        acc = {}
                        if not twisted:
                            for v, cv in byz:
                                put_map(acc, (x, v), cv)
                        elif ax is not None:
                            xx, cax = ax
                            for v, cv in byz:
                                put_map(acc, (xx, v), cax * cv)
                        if az is not None:
                            zz, caz = az
                            put_bracket(acc, (x, y), zz, -caz, False)
                        if ay is not None:
                            yy, cay = ay
                            put_bracket(acc, (x, z), yy, cay if neg_phixy else -cay, True)
                        yield from emit("eq2", (x, y, z), acc)
        return
    xs, ys = axes[:2]
    if cls == "commuting_map":
        for x in xs:
            # f(a x) - a(f(x))
            acc = {}
            if twists[x] is not None:
                xx, cax = twists[x]
                put_map(acc, (xx,), cax)
            for j, gen in slots((x,)):
                for g, c in alpha(gen):
                    put(acc, g, j, -c)
            yield from emit("twist-commute", (x,), acc)
            for y in ys:
                # [f(x), y] + [f(y), x], with a minus sign when both are odd
                acc = {}
                put_bracket(acc, (x,), y, 1, False)
                put_bracket(acc, (y,), x, -1 if (x.parity and y.parity) else 1, False)
                yield from emit("commute", (x, y), acc)
        return
    for x in xs:
        ax = twists[x]
        negx = parity and x.parity
        for y in ys:
            # f([x,y]) - [f(x), a^k y] - (-1)^{|f||x|} [a^k x, f(y)]
            bxy = bracket(x, y)
            if not in_window(bxy):
                continue
            acc = {}
            for u, cu in bxy:
                put_map(acc, (u,), cu)
            ay = twists[y]
            if ay is not None:
                yy, cay = ay
                put_bracket(acc, (x,), yy, -cay, False)
            if ax is not None:
                xx, cax = ax
                put_bracket(acc, (y,), xx, cax if negx else -cax, True)
            yield from emit("eq", (x, y), acc)


# -- modular rank certificate ----------------------------------------------
#
# q -> MOD_POINT sends the Laurent rows to rows over F_p, p = MOD_PRIME.  This
# is a ring map, so an r x r minor that survives it was nonzero over Q(q): the
# rank can only drop: mod-p nullity 0 proves the exact nullity is 0, and rows
# whose images are independent were independent over Q(q), which `nullspace`
# uses to choose the rows it eliminates.  Any other outcome (and a structure
# constant whose denominator vanishes at the point) leaves the decision to
# the exact path, so an unlucky point costs time, never a wrong answer.

MOD_PRIME = 2**31 - 1
MOD_POINT = 123457


class _Unlucky(ArithmeticError):
    """A structure constant has no image at the chosen point."""


def _powers_mod_p(prime, point):
    """q^e -> point^e in F_prime, cached per exponent."""
    if point % prime == 0:
        raise _Unlucky("q cannot be sent to 0")
    cache = {}

    def power(e):
        pw = cache.get(e)
        if pw is None:
            pw = cache[e] = pow(point, e, prime)
        return pw

    return power


def _mod_p_value(pol, prime, power):
    acc = 0
    for e, c in pol.items():
        den = c.denominator
        if den % prime == 0:
            raise _Unlucky(f"{prime} divides a denominator")
        if den != 1:
            c = c.numerator * pow(den, -1, prime)
        acc += c * power(e)
    return acc % prime


def _mod_p_tables(p, prime, point):
    """`bracket_gens` and `alpha_gens` of p with F_p coefficients.

    A coefficient num/den goes to image(num) * image(den)^-1.  Terms whose
    coefficient vanishes mod p are kept, so the in-window flags of `_rows`
    match the exact ones term for term.
    """
    power = _powers_mod_p(prime, point)

    def image(c):
        num = _mod_p_value(c.num._t, prime, power)
        if c.den is _P1:
            return num
        den = _mod_p_value(c.den._t, prime, power)
        if not den:
            raise _Unlucky(f"a denominator vanishes at q = {point} mod {prime}")
        return num * pow(den, -1, prime) % prime

    def images(exact_table):
        cache = {}

        def table(*gens):
            out = cache.get(gens)
            if out is None:
                out = cache[gens] = tuple((g, image(c)) for g, c in exact_table(*gens))
            return out

        return table

    return images(p.bracket_gens), images(p.alpha_gens)


def _rows_mod_p(rows, prime, point):
    """Images of integer Laurent rows {col: QRational} under q -> point."""
    power = _powers_mod_p(prime, point)
    out = []
    for row in rows:
        image = {}
        for j, v in row.items():
            r = _mod_p_value(v.num._t, prime, power)
            if r:
                image[j] = r
        out.append(image)
    return out


def _rank_mod_p(rows, prime):
    """Indices of a maximal set of rows independent over F_p, in the order
    they were taken; its length is the rank.  The rows are consumed.

    The singleton zero cascade runs first, as in `_eliminate`, and takes each
    row that kills a column; the surviving rows are reduced one by one,
    shortest first, against monic pivot rows, and each row that leaves a
    remainder gives a pivot.
    """
    colrows = {}
    for i, r in enumerate(rows):
        for j in r:
            colrows.setdefault(j, []).append(i)
    taken = []
    queue = [i for i, r in enumerate(rows) if len(r) == 1]
    while queue:
        i = queue.pop()
        r = rows[i]
        if len(r) != 1:
            continue
        (col,) = r
        taken.append(i)
        for k in colrows.pop(col):
            rk = rows[k]
            del rk[col]
            if len(rk) == 1:
                queue.append(k)
    # pivot rows omit their pivot column (coefficient 1); a pivot row holds
    # only columns that were not pivots when it was made, so reduction ends
    pivots = {}
    for i in sorted((i for i, r in enumerate(rows) if r), key=lambda i: len(rows[i])):
        row = rows[i]
        todo = [j for j in row if j in pivots]
        while todo:
            col = todo.pop()
            f = row.pop(col, None)
            if f is None:
                continue
            for j, v in pivots[col].items():
                c = row.get(j)
                if c is None:
                    row[j] = -f * v % prime
                    if j in pivots:
                        todo.append(j)
                else:
                    c = (c - f * v) % prime
                    if c:
                        row[j] = c
                    else:
                        del row[j]
        if row:
            col = next(iter(row))
            inv = pow(row.pop(col), -1, prime)
            pivots[col] = {j: v * inv % prime for j, v in row.items()}
            taken.append(i)
    return taken


def _mod_p_nullity(p, ansatz, prime, point):
    """Nullity of the window system's image under q -> point in F_prime, or
    None when a structure constant has no image there."""
    try:
        rows = [row for _, _, _, row in _rows(p, ansatz, prime, point)]
    except _Unlucky:
        return None
    return len(ansatz.slots) - len(_rank_mod_p(rows, prime))


# -- integer Laurent rows --------------------------------------------------


def _poly_lcm(a, b):
    return poly_divexact(a * b, poly_gcd(a, b))


def _introw_of(values):
    """Linear-form values -> normalized integer-coefficient row (dicts)."""
    entries = {}
    laurent = all(isinstance(v, LaurentPoly) for v in values.values())
    if laurent:
        for j, v in values.items():
            if v._t:
                entries[j] = dict(v._t)
    else:
        dens = [v.den for v in values.values() if v.den is not _P1 and v.den != _P1]
        if not dens:
            for j, v in values.items():
                if v.num._t:
                    entries[j] = dict(v.num._t)
        else:
            lcm = reduce(_poly_lcm, dens)
            for j, v in values.items():
                num = v.num if v.den == lcm else v.num * poly_divexact(lcm, v.den)
                if num._t:
                    entries[j] = dict(num._t)
    if not entries:
        return None
    mul = 1
    saw_fraction = False
    for pol in entries.values():
        for c in pol.values():
            if isinstance(c, Fraction):
                saw_fraction = True
                mul = mul * c.denominator // _igcd(mul, c.denominator)
    if saw_fraction:
        entries = {
            j: {e: int(c * mul) for e, c in pol.items()}
            for j, pol in entries.items()
        }
    return _normalize_row(entries, strip=None)


# dense integer polynomial rows: {col: (lowest exponent, coefficient list)}


def _dense_of(pol):
    lo = min(pol)
    out = [0] * (max(pol) - lo + 1)
    for e, c in pol.items():
        out[e - lo] = c
    return lo, out


def _dense_eval_at(d, x):
    acc = 0
    for c in reversed(d):
        acc = acc * x + c
    return acc


def _strip_common_factor(dense):
    """Divide the entries of a dense row by their gcd."""
    g = None
    for _, d in dense.values():
        g = _int_primitive(d) if g is None else _int_gcd(g, d)
        if len(g) == 1:
            return dense
    return {j: (lo, _int_divexact(d, g)) for j, (lo, d) in dense.items()}


def _strip_poly_content(dense):
    """`_strip_common_factor`, skipped when the entries' values at q = 2 or at
    q = 3, each divided by its integer content, are coprime.

    The skip is a cheap filter for elimination rows, where a factor left in
    costs only time.  It misses a common factor whose value at 2 or 3 is
    +-1, such as q - 1, so canonical vectors strip with
    `_strip_common_factor` itself.
    """
    probe2 = 0
    probe3 = 0
    for _, d in dense.values():
        if probe2 == 1 or probe3 == 1:
            return dense
        cj = 0
        for c in d:
            if c:
                cj = _igcd(cj, c)
        probe2 = _igcd(probe2, _dense_eval_at(d, 2) // cj)
        probe3 = _igcd(probe3, _dense_eval_at(d, 3) // cj)
    return _strip_common_factor(dense)


def _normalize_row(entries, strip=_strip_poly_content):
    """Divide by common polynomial/monomial/integer content; fix the sign.

    `strip` removes the polynomial content of the dense entries (None keeps
    it); the sign makes the lowest coefficient of the first column positive.
    """
    if len(entries) == 1:
        # a single nonzero coefficient forces its unknown to vanish
        (j,) = entries
        return {j: {0: 1}}
    dense = {}
    for j, pol in entries.items():
        dense[j] = _dense_of(pol)
    if strip is not None:
        dense = strip(dense)
    shift = min(lo for lo, _ in dense.values())
    ic = 0
    for _, d in dense.values():
        for c in d:
            ic = _igcd(ic, c)
    lo0, d0 = dense[min(dense)]
    for c in d0:
        if c:
            if c < 0:
                ic = -ic
            break
    out = {}
    for j, (lo, d) in dense.items():
        base = lo - shift
        out[j] = {base + i: c // ic for i, c in enumerate(d) if c}
    return out


def _pmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _combine(piv, row, c, prow, skipcol):
    """piv*row - c*prow with the pivot column removed."""
    out = {}
    for j, pj in row.items():
        if j != skipcol:
            out[j] = _pmul(piv, pj)
    for j, pj in prow.items():
        if j == skipcol:
            continue
        t = _pmul(c, pj)
        cur = out.get(j)
        if cur is None:
            out[j] = {e: -v for e, v in t.items()}
        else:
            for e, v in t.items():
                nv = cur.get(e, 0) - v
                if nv:
                    cur[e] = nv
                else:
                    cur.pop(e, None)
            if not cur:
                del out[j]
    return out


def _eliminate(rows):
    """Sparse fraction-free elimination.

    rows: list of normalized integer rows (dict col -> dict exp -> int).
    Returns (pivots, zeros): pivots in elimination order as (col, row) with
    the row frozen at selection time; zeros are columns forced to vanish by
    single-entry rows.
    """
    active = dict(enumerate(rows))
    colindex = {}
    for i, r in active.items():
        for j in r:
            colindex.setdefault(j, set()).add(i)
    zeros = set()
    pivots = []
    queue = deque(i for i in sorted(active) if len(active[i]) == 1)

    def kill_zero(col):
        zeros.add(col)
        for i in list(colindex.get(col, ())):
            r = active.get(i)
            if r is None:
                continue
            r.pop(col, None)
            if not r:
                del active[i]
            elif len(r) == 1:
                queue.append(i)
        colindex.pop(col, None)

    def drain_singletons():
        while queue:
            i = queue.popleft()
            r = active.get(i)
            if r is None or len(r) != 1:
                continue
            col = next(iter(r))
            del active[i]
            colindex.get(col, set()).discard(i)
            if col not in zeros:
                kill_zero(col)

    # most unknowns die by the zero cascade; strip the survivors only
    drain_singletons()
    heap = []
    for i in sorted(active):
        r = _normalize_row(active[i])
        active[i] = r
        for j, pol in r.items():
            heapq.heappush(heap, (len(pol), max(pol) - min(pol), i, j))

    while True:
        drain_singletons()
        if not active:
            break
        # smallest remaining coefficient becomes the pivot
        entry = None
        while heap:
            nt, span, i, j = heapq.heappop(heap)
            r = active.get(i)
            if r is None:
                continue
            pol = r.get(j)
            if pol is None or len(pol) != nt or max(pol) - min(pol) != span:
                continue
            entry = (i, j)
            break
        if entry is None:
            # heap exhausted by stale entries; refill from live rows
            for i in sorted(active):
                for j, pol in active[i].items():
                    heapq.heappush(heap, (len(pol), max(pol) - min(pol), i, j))
            continue
        pi, pj = entry
        prow = active.pop(pi)
        for jj in prow:
            s = colindex.get(jj)
            if s is not None:
                s.discard(pi)
        piv = prow[pj]
        touched = colindex.pop(pj, set())
        for i in list(touched):
            r = active.get(i)
            if r is None:
                continue
            c = r.pop(pj, None)
            if c is None:
                continue
            new = _combine(piv, r, c, prow, pj)
            for jj in r:
                if jj != pj and jj not in new:
                    colindex.get(jj, set()).discard(i)
            if not new:
                del active[i]
                continue
            new = _normalize_row(new)
            for jj in new:
                if jj not in r:
                    colindex.setdefault(jj, set()).add(i)
            active[i] = new
            if len(new) == 1:
                queue.append(i)
            else:
                for jj, pol in new.items():
                    heapq.heappush(heap, (len(pol), max(pol) - min(pol), i, jj))
        pivots.append((pj, prow))
    return pivots, zeros


@dataclass
class SolutionSpace:
    """Exact nullspace basis; each element assigns a field value per slot key.

    `system` is the window system the space was solved from; when the
    modular certificate decided the space, it is built on first access.
    `witness` is that certificate, (p, a, mod-p nullity) for q -> a in F_p,
    and None when the exact path decided the space.
    """

    ansatz: HomogeneousAnsatz
    basis: List[Dict[tuple, QRational]]
    raw_window_dim: Optional[int] = None
    raw_enlarged_dim: Optional[int] = None
    witness: Optional[Tuple[int, int, int]] = None
    _system: Optional[ConstraintSystem] = field(default=None, repr=False, compare=False)

    @property
    def system(self):
        if self._system is None:
            self._system = build_system(self.ansatz.p, self.ansatz)
        return self._system

    @property
    def dim(self):
        return len(self.basis)

    def id_vectors(self):
        index = self.ansatz.index
        return [{index[k]: v for k, v in vec.items()} for vec in self.basis]

    def maps(self):
        return [map_from_assignment(self.ansatz, vec) for vec in self.basis]


def _vec_canonical(ansatz, vec):
    """The primitive integer multiple of a slot vector: its polynomial,
    monomial and integer content removed and its sign fixed as in
    `_normalize_row`, so vectors on one line over Q(q) give the same dict."""
    if not vec:
        return {}
    index = ansatz.index
    row = _introw_of({index[k]: v for k, v in vec.items()})
    slots = ansatz.slots
    return {
        slots[j]: QRational._trusted(LaurentPoly._raw(pol), _P1)
        for j, pol in _normalize_row(row, _strip_common_factor).items()
    }


def nullspace(sys):
    """Exact basis of the solution space of the constraint system.

    Only the rows whose images under q -> MOD_POINT in F_MOD_PRIME are
    independent are eliminated over Q(q).  They are independent over Q(q)
    too, so their space contains the true one.  The basis satisfies the
    eliminated rows by construction; it is checked against every other row,
    which makes the two spaces equal.  When a check fails, or the point has
    no image, all rows are eliminated.
    """
    rows = sys.rows
    try:
        images = _rows_mod_p(rows, MOD_PRIME, MOD_POINT)
    except _Unlucky:
        taken = None
    else:
        taken = _rank_mod_p(images, MOD_PRIME)
    if taken is not None and len(taken) < len(rows):
        chosen = set(taken)
        space = _solve_rows(sys, [rows[i] for i in sorted(chosen)])
        vecs = space.id_vectors()
        rest = [row for i, row in enumerate(rows) if i not in chosen]
        if all(_satisfies(row, vec) for vec in vecs for row in rest):
            return space
    return _solve_rows(sys, rows)


def _solve_rows(sys, rows):
    """Basis of the space cut out by `rows`, a subset of the rows of `sys`."""
    ansatz = sys.ansatz
    introws = [
        {j: dict(v.num._t) for j, v in row.items()} for row in rows
    ]
    pivots, zeros = _eliminate(introws)
    ncols = len(ansatz.slots)
    determined = {c for c, _ in pivots} | zeros
    free = [j for j in range(ncols) if j not in determined]
    basis = []
    for fcol in free:
        vec = {fcol: Q1}
        for col, prow in reversed(pivots):
            acc = Q0
            for j, pol in prow.items():
                if j == col:
                    continue
                v = vec.get(j)
                if v is not None:
                    acc = acc + QRational._trusted(LaurentPoly._raw(dict(pol)), _P1) * v
            if not acc.is_zero:
                vec[col] = -acc / QRational._trusted(LaurentPoly._raw(dict(prow[col])), _P1)
        slots = ansatz.slots
        keyed = {slots[j]: v for j, v in vec.items() if not v.is_zero}
        basis.append(_vec_canonical(ansatz, keyed))
    return SolutionSpace(ansatz, basis, _system=sys)


def nullspace_dim_specialized(sys, q0):
    """Nullspace dimension after specializing q, by dense rational elimination.

    Independent of the symbolic pivoting path; used as a cross-check oracle.
    """
    from .qfield import specialize

    ncols = len(sys.ansatz.slots)
    rows = []
    for row in sys.rows:
        dense = [Fraction(0)] * ncols
        for j, v in row.items():
            dense[j] = specialize(v, q0)
        rows.append(dense)
    rank = 0
    rowi = 0
    for col in range(ncols):
        piv = None
        for i in range(rowi, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rowi], rows[piv] = rows[piv], rows[rowi]
        pv = rows[rowi][col]
        for i in range(rowi + 1, len(rows)):
            f = rows[i][col]
            if f:
                ri = rows[i]
                rp = rows[rowi]
                scale = f / pv
                for j2 in range(col, ncols):
                    ri[j2] -= scale * rp[j2]
        rank += 1
        rowi += 1
        if rowi == len(rows):
            break
    return ncols - rank


def map_from_assignment(ansatz, vec):
    """Turn a slot assignment into a concrete table-backed map."""
    p = ansatz.p
    if ansatz.kind == "bilinear":
        table = {}
        for g1 in p.gens_in(ansatz.window):
            for g2 in p.gens_in(ansatz.window):
                table[(g1, g2)] = Vector({})
        for key, c in vec.items():
            f1, d1, f2, d2, tf, td = key
            g1 = Generator(f1, d1, p.parity_of(f1))
            g2 = Generator(f2, d2, p.parity_of(f2))
            target = Generator(tf, td, p.parity_of(tf))
            table[(g1, g2)] = table[(g1, g2)] + Vector.of(target, c)
        return BilinearMap.from_table(ansatz.parity, table, degree=ansatz.degree)
    table = {g: Vector({}) for g in p.gens_in(ansatz.window)}
    for key, c in vec.items():
        f1, d1, tf, td = key
        g1 = Generator(f1, d1, p.parity_of(f1))
        target = Generator(tf, td, p.parity_of(tf))
        table[g1] = table[g1] + Vector.of(target, c)
    return LinearMap.from_table(ansatz.parity, table, degree=ansatz.degree)


# -- span utilities over id vectors ----------------------------------------


def reduce_span(vectors):
    """Row-reduce a list of {col: QRational} vectors; returns independent ones."""
    reduced = []
    for vec in vectors:
        vec = dict(vec)
        for lead, rv in reduced:
            c = vec.get(lead)
            if c is not None and not c.is_zero:
                f = c / rv[lead]
                for j, v in rv.items():
                    nv = vec.get(j, Q0) - f * v
                    if nv.is_zero:
                        vec.pop(j, None)
                    else:
                        vec[j] = nv
        vec = {j: v for j, v in vec.items() if not v.is_zero}
        if vec:
            reduced.append((min(vec), vec))
    reduced.sort(key=lambda t: t[0])
    return [rv for _, rv in reduced]


def span_rank(vectors):
    return len(reduce_span(vectors))


def express_in_span(vec, vectors):
    """Coefficients writing vec as a combination of vectors, or None."""
    aug = []
    for i, v in enumerate(vectors):
        row = dict(v)
        row[("aux", i)] = Q1
        aug.append(row)
    target = dict(vec)
    coeffs = {}
    # echelonize the augmented basis, then reduce the target against it
    reduced = []
    for row in aug:
        work = dict(row)
        for lead, rv in reduced:
            c = work.get(lead)
            if c is not None and not c.is_zero:
                f = c / rv[lead]
                for j, v in rv.items():
                    nv = work.get(j, Q0) - f * v
                    if nv.is_zero:
                        work.pop(j, None)
                    else:
                        work[j] = nv
        main = {j for j in work if not isinstance(j, tuple)}
        if main:
            reduced.append((min(main), work))
    for lead, rv in reduced:
        c = target.get(lead)
        if c is not None and not c.is_zero:
            f = c / rv[lead]
            for j, v in rv.items():
                if isinstance(j, tuple):
                    coeffs[j[1]] = coeffs.get(j[1], Q0) - f * v
                else:
                    nv = target.get(j, Q0) - f * v
                    if nv.is_zero:
                        target.pop(j, None)
                    else:
                        target[j] = nv
    if any(not v.is_zero for v in target.values()):
        return None
    return [-(coeffs.get(i, Q0)) for i in range(len(vectors))]


def _satisfies(row, idvec):
    """Whether the vector {col: QRational} satisfies the row exactly.

    Both must hold Laurent polynomials over the shared unit denominator, as
    system rows and canonical vectors do; the products are summed as
    Laurent dicts.
    """
    acc = {}
    for j, c in row.items():
        v = idvec.get(j)
        if v is not None:
            if c.den is not _P1 or v.den is not _P1:
                raise ValueError("_satisfies needs entries over the unit denominator")
            for e, x in _pmul(c.num._t, v.num._t).items():
                acc[e] = acc.get(e, 0) + x
    return not any(acc.values())


def restrict_space(space, small_ansatz):
    """Restriction of solutions to the slots of a smaller-window ansatz."""
    out = []
    for vec in space.basis:
        rv = {k: v for k, v in vec.items() if k in small_ansatz.index}
        out.append(rv)
    return out


def stable_solve(p, kind, cls, s=0, parity=0, window=None, delta=2, k=1):
    """Solutions on the window that extend to a window enlarged by delta.

    Solves both systems, restricts the enlarged solutions, verifies they
    satisfy the window system, and returns an independent basis of the
    restriction span (the intersection with the raw window space).

    When the window space is 0 the enlarged system is not solved, and
    `raw_enlarged_dim` is None: every restriction satisfies the window
    system, so it is zero, and the stable space is 0 whatever the enlarged
    space is.  On a graded presentation a mod-p nullity of 0 (rows from
    `_rows` over F_p) proves that without the exact window solve; the space
    then carries the rank witness.  Scalar presentations keep the exact
    path, which reports `raw_enlarged_dim` as the window dimension.
    """
    if window is None:
        raise ValueError("a window is required")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    ansatz = build_ansatz(p, kind, cls, s=s, parity=parity, window=window, k=k)
    if delta and not p.is_scalar:
        prime, point = MOD_PRIME, MOD_POINT
        if _mod_p_nullity(p, ansatz, prime, point) == 0:
            return SolutionSpace(ansatz, [], raw_window_dim=0, witness=(prime, point, 0))
    sys_small = build_system(p, ansatz)
    small = nullspace(sys_small)
    if p.is_scalar or delta == 0:
        small.raw_window_dim = small.dim
        small.raw_enlarged_dim = small.dim
        return small
    if small.dim == 0:
        small.raw_window_dim = 0
        return small
    big_ansatz = build_ansatz(
        p, kind, cls, s=s, parity=parity, window=window.widen(delta), k=k
    )
    big = nullspace(build_system(p, big_ansatz))
    index = ansatz.index
    restricted = []
    for vec in restrict_space(big, ansatz):
        idvec = {index[kk]: v for kk, v in vec.items()}
        restricted.append(idvec)
    for idvec in restricted:
        for row in sys_small.rows:
            if not _satisfies(row, idvec):
                raise AssertionError(
                    "restriction of an enlarged-window solution violates the "
                    "window system; constraint generation is inconsistent"
                )
    slots = ansatz.slots
    stable_basis = [
        _vec_canonical(ansatz, {slots[j]: v for j, v in idvec.items()})
        for idvec in reduce_span(restricted)
    ]
    return SolutionSpace(
        ansatz,
        stable_basis,
        raw_window_dim=small.dim,
        raw_enlarged_dim=big.dim,
        _system=sys_small,
    )
