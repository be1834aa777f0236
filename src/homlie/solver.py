"""Homogeneous map ansatz, exact constraint generation and nullspace solving.

Unknowns are the coefficients of a degree- and parity-homogeneous bilinear or
linear map over a window; the defining identities of the requested class,
instantiated on every interior input tuple, yield a sparse linear system over
Q(q).  One generator, `_rows`, writes those rows for every class and
presentation, with the structure constants in Z[q, 1/q], in Q(q) or in F_p.
A presentation whose rules stay in Z[q, 1/q] (`fast_scalars`) gives rows of
integer Laurent polynomials; any other, rational constants included, gives
Q(q) rows whose denominators are cleared; `_rules` gives the constants in
each ring, once per presentation.  `build_system` keeps each row as these
integer Laurent entries, {col: {exp: coeff}}, as they are generated.
The system is solved exactly by one loop in the shape of the F_p rank pass
(`_eliminate`): the rows, shortest first, are reduced one at a time by
fraction-free elimination onto pivot rows, each pivoting on its largest
column; each reduced row is divided by the common factor of its entries
(`qfield.primitive_part`, whose gcd over Q[q] keeps the entries' degrees
down), and the nullspace basis is produced by back-substitution.  Every
basis the solver returns is then brought to one form, the reduced echelon
form over slot order (`_canonical_basis`), so it depends only on the space:
not on the row order, the pivots or the rows that were eliminated.

Most identity instances have a mirror: the instance with two inputs
swapped, whose rows are the instance's times a sign, so that they add
nothing to the system.  For commute that holds by its form; for eq1 and the
linear eq, swapping x and y, and for eq2, swapping y and z, it follows from
super-skew symmetry, [u, v] = -(-1)^{|u||v|} [v, u], and from alpha
preserving parity (see `_rows`).  Where the bracket is skew on the pairs
an exact stream reads (`_skew_on_stream`), and always for commute, `_rows`
writes one instance of each mirror pair, which about halves the raw rows
that every solve generates, images and checks.  An F_p stream skips mirrors
unchecked: on a bracket that is not skew it reads a subset of the true
rows, whose nullity still bounds the exact one, and 0 still proves it 0.

Most rows are redundant, so `nullspace` eliminates over Q(q) only a subset,
chosen by rank profile.  The rows, fewest entries first, are sent through
q -> MOD_POINT into F_p, p = MOD_PRIME, each as a sparse elimination reads
it, and the elimination picks a maximal independent set of their images.
This is a ring map, so rows independent mod p are independent over Q(q):
the subset has the full rank at worst, and its space contains the true one.
Only those rows are eliminated, and every basis vector is then checked
against every other row, exactly: `_satisfies_all` evaluates each product
at q = 2^B, with B large enough that the integer is 0 only when the Laurent
polynomial is.  That proves the two spaces equal.  A failed check, or a
point with no image, sends the solve to the elimination of all rows; an
unlucky point costs time, never a wrong answer.

Window truncation leaves boundary unknowns under-constrained, so the raw
window nullspace can exceed the true solution space.  `stable_solve` filters
it by solving again on an enlarged window and keeping the restrictions, which
is the finite stand-in for a solution defined on the whole graded algebra.
On graded presentations a rank computed modulo the same prime, in one pass
over the F_p rows that stops at full rank, bounds the window dimension
before any exact solve.  A bound of 0 proves the stable space 0: the
restrictions must satisfy the window system, so they can only be zero.
Otherwise the restrictions, checked against every window row, span a space
of the window dimension at most; when their rank meets the bound it is
that dimension, and the window system is not solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, product
from math import gcd as _igcd
from operator import itemgetter, mul
from typing import Dict, List, Optional, Tuple

from .algebra import Generator, Vector, Window
from .identities import ClassModeMismatch, OutOfWindow, check_class_mode
from .maps import BilinearMap, LinearMap
from .qfield import (
    _P1,
    ForbiddenSpecialization,
    LaurentPoly,
    QRational,
    packed_int,
    poly_divexact,
    poly_gcd,
    primitive_part,
    terms_mul,
)

Q0 = QRational(0)
Q1 = QRational(1)

class HomogeneousAnsatz:
    """Unknown map of degree shift `degree` and fixed parity over a window.

    Slots are keyed (family1, deg1, family2, deg2, target_family, target_deg)
    for bilinear maps and (family, deg, target_family, target_deg) for linear
    ones; keys are shared across windows so solutions restrict naturally.
    A target degree outside a finite family's index set has no slot
    (`targets_at`).  Scalar presentations have no grading; their ansatz has
    degree 0 and target degree None, and any other degree is refused.
    """

    def __init__(self, p, kind, cls, s, parity, window, k=1):
        if kind not in ("bilinear", "linear"):
            raise ValueError(f"unknown ansatz kind {kind!r}")
        check_class_mode(p, cls)
        if not p.is_super and parity != 0:
            raise ClassModeMismatch("odd maps need a super presentation")
        if p.is_scalar and s != 0:
            raise ClassModeMismatch(
                f"{p.name} is unindexed, so its maps have degree 0, not {s}"
            )
        self.p = p
        self.kind = kind
        self.cls = cls
        self.k = k
        self.parity = parity
        self.window = window
        self.degree = s
        fams = list(p.families.values())
        self._targets = {}
        for par in (0, 1):
            want = (par + parity) % 2
            self._targets[par] = tuple(f.name for f in fams if f.parity == want)
        self._finite = {
            f.name: f.degrees for f in fams if f.degrees not in ("all", None)
        }
        # only a finite family needs the per-degree rule of `targets_at`
        targets_at = self.targets_at if self._finite else None
        targets = self._targets
        slots = []
        gens = p.gens_in(window)
        if kind == "bilinear":
            for g1 in gens:
                for g2 in gens:
                    td = None if p.is_scalar else g1.degree + g2.degree + s
                    par = (g1.parity + g2.parity) % 2
                    for tf in targets_at(par, td) if targets_at else targets[par]:
                        slots.append((g1.family, g1.degree, g2.family, g2.degree, tf, td))
        else:
            for g in gens:
                td = None if p.is_scalar else g.degree + s
                for tf in targets_at(g.parity, td) if targets_at else targets[g.parity]:
                    slots.append((g.family, g.degree, tf, td))
        slots.sort(key=self._slot_sort_key)
        self.slots = slots
        self.index = {key: i for i, key in enumerate(slots)}

    def _key(self):
        return (self.p, self.kind, self.cls, self.degree, self.parity, self.window, self.k)

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

    def __len__(self):
        return len(self.slots)

    def targets_at(self, parity, degree):
        """Target families of the slots whose arguments have total parity
        `parity` and whose target degree is `degree`: a finite family has
        none at a degree outside its index set."""
        targets = self._targets[parity]
        finite = self._finite
        if not finite:
            return targets
        return tuple(tf for tf in targets if tf not in finite or degree in finite[tf])

    def decode(self, key):
        """(argument generators, target generator) of a slot key."""
        parity_of = self.p.parity_of
        args = tuple(
            Generator(key[i], key[i + 1], parity_of(key[i])) for i in range(0, len(key) - 2, 2)
        )
        return args, Generator(key[-2], key[-1], parity_of(key[-2]))

    def slot_vector_of_map(self, concrete):
        """Coordinates of a concrete map in this ansatz's slots."""
        out = {}
        for key in self.slots:
            args, target = self.decode(key)
            val = concrete(*args)
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
    return HomogeneousAnsatz(p, kind, cls, s, parity, window, k=k)


@dataclass
class ConstraintSystem:
    """Sparse exact linear system over the ansatz unknowns.

    `rows` holds one {col: {exp: coeff}} per row, the nonzero integer
    Laurent polynomials of each row as `build_system` writes them.  They may
    share term dicts with the structure-constant tables, so they are read,
    never changed.
    """

    ansatz: HomogeneousAnsatz
    rows: List[Dict[int, Dict[int, int]]] = field(default_factory=list)

    @property
    def nunknowns(self):
        return len(self.ansatz.slots)


def build_system(p, ansatz):
    """Instantiate the class identities over all interior tuples.

    Each row is kept as `_rows` writes it, in its order: straight from its
    Z[q, 1/q] values when `p.fast_scalars`, or after `_introw_of` clears
    the denominators of its Q(q) values.  No returned basis depends on the
    row order.
    """
    stream = (values for _, _, _, values in _rows(p, ansatz))
    if p.fast_scalars:
        rows = [{j: v._t for j, v in values.items()} for values in stream]
    else:
        rows = list(map(_introw_of, stream))
    return ConstraintSystem(ansatz, rows)


def single_instance_rows(p, ansatz, inputs):
    """Rows generated by one identity instance: {(eq id, target gen): row}.

    Rows come back as {slot id: coefficient} without content normalization,
    which keeps exact linear relations between them intact.
    """
    return {(eq_id, g): row for eq_id, _, g, row in _rows(p, ansatz, only=tuple(inputs))}


def _skew_on_stream(p, ansatz, twisted):
    """Whether [u, v] = -(-1)^{|u||v|} [v, u] on every generator pair that
    an exact `_rows` stream of the ansatz reads: the window pairs (a pair
    and its swap are skew together), and each slot target against each
    twisted window generator alpha^k(g) in `twisted`.  Only pairs of
    families declared in both orders are evaluated, by `skew_at`."""
    both = {pair for pair in p.brackets if pair[::-1] in p.brackets}
    if not both:
        return True
    gens = p.gens_in(ansatz.window)
    parity_of = p.parity_of
    targets = [Generator(f, d, parity_of(f)) for f, d in {key[-2:] for key in ansatz.slots}]
    pairs = chain(((u, v) for i, u in enumerate(gens) for v in gens[i:]),
                  product(targets, twisted))
    return all(p.skew_at(u, v) for u, v in pairs if (u.family, v.family) in both)


def _rules(p, prime=None, point=None):
    """(bracket, alpha): `p.bracket_gens` and `p.alpha_gens` with their
    coefficients in the ring a row stream computes in.  Without a prime that
    is Z[q, 1/q] when `p.fast_scalars`, where a coefficient is its Laurent
    numerator, and Q(q) otherwise, where the two are returned as they are.
    Given a prime it is F_prime, where num/den goes to image(num) *
    image(den)^-1 under q -> point; terms that vanish mod p are kept, so
    the in-window flags of `_rows` match the exact ones.

    The converted entries are plain (generator, coefficient) tuples in
    `p._tables[None]` or `p._tables[prime, point]`, so later streams reuse
    them and p stays picklable.  An entry is stored only once all its
    coefficients have images: a point with no image raises `_Unlucky` on
    every call that needs it.
    """
    if prime is None:
        if not p.fast_scalars:
            return p.bracket_gens, p.alpha_gens
        key = None

        def image(c):
            if c.den is not _P1:
                raise ValueError("coefficient is not a Laurent polynomial")
            return c.num
    else:
        key = (prime, point)
        power = _Powers(prime, point)

        def image(c):
            num = _mod_p_value(c.num._t, prime, power)
            if c.den is _P1:
                return num
            den = _mod_p_value(c.den._t, prime, power)
            if not den:
                raise _Unlucky(f"a denominator vanishes at q = {point} mod {prime}")
            return num * pow(den, -1, prime) % prime

    tables = p._tables.get(key)
    if tables is None:
        tables = p._tables[key] = ({}, {})
    brackets, alphas = tables

    def bracket(g1, g2):
        out = brackets.get((g1, g2))
        if out is None:
            out = brackets[g1, g2] = tuple((g, image(c)) for g, c in p.bracket_gens(g1, g2))
        return out

    def alpha(g):
        out = alphas.get(g)
        if out is None:
            out = alphas[g] = tuple((gg, image(c)) for gg, c in p.alpha_gens(g))
        return out

    return bracket, alpha


def _rows(p, ansatz, prime=None, point=None, only=None):
    """(eq id, inputs, target generator, {slot id: coefficient}) for each
    nonzero component of lhs - rhs of each identity instance of the ansatz's
    class on its window that the stream keeps.

    The instances and signs are those of `identities.bilinear_instances` and
    `linear_instances`, which the test suite compares this stream against;
    an instance is skipped when it would evaluate the unknown map outside
    the window.  Coefficients come from the structure-constant tables of
    `_rules`: bare Laurent polynomials when `p.fast_scalars`, Q(q) elements
    otherwise, and, given a `prime`, their images under q -> `point` in
    F_prime, with each row entry reduced to a residue.  `only` restricts
    the stream to one input tuple, and keeps every instance on it.

    Otherwise one instance of each mirror pair is kept: eq1 and eq for
    x <= y, eq2 for y <= z and commute for x <= y, in `gens_in` order.  A
    mirror's rows are the kept instance's times a sign, which add nothing
    to the system:

    - eq1(y, x, z) = -(-1)^{|x||y|} eq1(x, y, z)
    - eq2(x, z, y) = -(-1)^{|y||z|} eq2(x, y, z)
    - eq(y, x) = -(-1)^{|x||y|} eq(x, y)
    - commute(y, x) = (-1)^{|x||y|} commute(x, y)

    The last holds by the form of commute.  The others hold term by term
    under super-skew symmetry, [u, v] = -(-1)^{|u||v|} [v, u], since alpha
    preserves parity and |phi(u, v)| = |phi| + |u| + |v|.  For eq1:
    phi([y, x], T z) = -(-1)^{|x||y|} phi([x, y], T z), and
    -(-1)^{|x||z|} [phi(y, z), a x]
      = (-1)^{|x||z| + (|phi|+|y|+|z|)|x|} [a x, phi(y, z)]
      = -(-1)^{|x||y|} (-(-1)^{|phi||x|} [a x, phi(y, z)]),
    which is the sign times the third term of eq1(x, y, z); the third term
    of eq1(y, x, z) goes to the second alike, and eq2 and eq are the same
    computation.  The in-window tests of [x, y] and [y, z] agree with their
    mirrors' too.  These steps swap the window pairs and the pairs of a
    slot target with a twisted window generator, and a presentation need
    not be skew on them: a rule [L(m), L(n)] = m L(m+n), or [L, W] and
    [W, L] declared with clashing signs, breaks it.  So on an exact stream
    eq1, eq2 and eq skip their mirrors only when `_skew_on_stream` finds
    the bracket skew on all of those pairs; commute needs no such guard,
    and twist-commute has no mirror.  An F_p stream skips them unguarded:
    a subset of the true rows has no more rank, and its one reader,
    `_streamed_nullity`, needs only an upper bound on the nullity.
    """
    cls = ansatz.cls
    scalar = p.is_scalar
    index = ansatz.index
    targets_at = ansatz.targets_at
    degree = ansatz.degree
    contains = ansatz.window.contains
    fam_parity = {f.name: f.parity for f in p.families.values()}
    bracket, alpha = _rules(p, prime, point)
    if only is None:
        gens = p.gens_in(ansatz.window)
        axes = (gens, gens, gens)
    else:
        gens = list(dict.fromkeys(only))
        axes = tuple([g] for g in only)

    def in_window(terms):
        return scalar or all(contains(g.degree) for g, _ in terms)

    def twist_power(g, k):
        # alpha^k(g) as (generator, coefficient, -coefficient), None when it
        # is 0; alpha maps a generator to one term, so alpha^k is one product.
        # Both signs are made once, so each is one object in `products` keys
        c = 1
        for _ in range(k):
            t = alpha(g)
            if not t:
                return None
            g, a = t[0]
            c = c * a
        return g, c, -c

    slot_cache = {}

    def slots(args):
        # (slot id, target generator) of each unknown coefficient at args
        out = slot_cache.get(args)
        if out is None:
            key = tuple(v for g in args for v in (g.family, g.degree))
            td = None if scalar else sum(g.degree for g in args) + degree
            out = slot_cache[args] = tuple(
                (index[key + (tf, td)], Generator(tf, td, fam_parity[tf]))
                for tf in targets_at(sum(g.parity for g in args) % 2, td)
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

    products = {}

    def put_bracket(acc, args, right, c, flip):
        # contributions of c * [phi(args), right], or c * [right, phi(args)]
        # when flip is set; right is a concrete generator.  The products
        # c * r depend only on (mid, right, flip, c): each is made once
        for j, mid in slots(args):
            key = (mid, right, flip, c)
            terms = products.get(key)
            if terms is None:
                pairs = bracket(right, mid) if flip else bracket(mid, right)
                terms = products[key] = tuple((gfin, c * r) for gfin, r in pairs)
            for gfin, cr in terms:
                put(acc, gfin, j, cr)

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
    mirrored = only is None
    # keep one instance of each mirror pair of eq1, eq2 and eq (see above)
    skew = mirrored and cls != "commuting_map" and (
        prime is not None
        or _skew_on_stream(p, ansatz, [t[0] for t in twists.values() if t is not None])
    )
    if ansatz.kind == "bilinear":
        twisted = cls in ("biderivation", "super_biderivation")
        btab = {}
        for g1 in gens:
            for g2 in gens:
                bv = bracket(g1, g2)
                btab[g1, g2] = (bv, in_window(bv))
        xs, ys, zs = axes
        for ix, x in enumerate(xs):
            ax = twists[x]
            neg_phix = parity and x.parity
            for iy, y in enumerate(ys):
                ay = twists[y]
                bxy, bxy_ok = btab[x, y]
                neg_phixy = ((parity + x.parity) % 2) and y.parity
                eq1_on = not skew or ix <= iy
                for iz in range(0 if eq1_on else iy, len(zs)):
                    z = zs[iz]
                    az = twists[z]
                    # phi([x,y], T z) - (-1)^{|y||z|} [phi(x,z), a y]
                    #   - (-1)^{|phi||x|} [a x, phi(y,z)], T = a on the
                    # twisted classes; phi([x,y], 0) needs no window
                    if eq1_on and (bxy_ok or (twisted and az is None)):
                        acc = {}
                        if not twisted:
                            for u, cu in bxy:
                                put_map(acc, (u, z), cu)
                        elif az is not None:
                            zz, caz, _ = az
                            for u, cu in bxy:
                                put_map(acc, (u, zz), cu * caz)
                        if ay is not None:
                            yy, cay, ncay = ay
                            sgn = y.parity and z.parity
                            put_bracket(acc, (x, z), yy, cay if sgn else ncay, False)
                        if ax is not None:
                            xx, cax, ncax = ax
                            put_bracket(acc, (y, z), xx, cax if neg_phix else ncax, True)
                        yield from emit("eq1", (x, y, z), acc)
                    if skew and iz < iy:
                        continue
                    # phi(T x, [y,z]) - [phi(x,y), a z]
                    #   - (-1)^{(|phi|+|x|)|y|} [a y, phi(x,z)]
                    byz, byz_ok = btab[y, z]
                    if byz_ok or (twisted and ax is None):
                        acc = {}
                        if not twisted:
                            for v, cv in byz:
                                put_map(acc, (x, v), cv)
                        elif ax is not None:
                            xx, cax, _ = ax
                            for v, cv in byz:
                                put_map(acc, (xx, v), cax * cv)
                        if az is not None:
                            zz, _, ncaz = az
                            put_bracket(acc, (x, y), zz, ncaz, False)
                        if ay is not None:
                            yy, cay, ncay = ay
                            put_bracket(acc, (x, z), yy, cay if neg_phixy else ncay, True)
                        yield from emit("eq2", (x, y, z), acc)
        return
    xs, ys = axes[:2]
    if cls == "commuting_map":
        for ix, x in enumerate(xs):
            # f(a x) - a(f(x))
            acc = {}
            if twists[x] is not None:
                xx, cax, _ = twists[x]
                put_map(acc, (xx,), cax)
            for j, gen in slots((x,)):
                for g, c in alpha(gen):
                    put(acc, g, j, -c)
            yield from emit("twist-commute", (x,), acc)
            for y in ys[ix:] if mirrored else ys:
                # [f(x), y] + [f(y), x], with a minus sign when both are odd
                acc = {}
                put_bracket(acc, (x,), y, 1, False)
                put_bracket(acc, (y,), x, -1 if (x.parity and y.parity) else 1, False)
                yield from emit("commute", (x, y), acc)
        return
    for ix, x in enumerate(xs):
        ax = twists[x]
        negx = parity and x.parity
        for y in ys[ix:] if skew else ys:
            # f([x,y]) - [f(x), a^k y] - (-1)^{|f||x|} [a^k x, f(y)]
            bxy = bracket(x, y)
            if not in_window(bxy):
                continue
            acc = {}
            for u, cu in bxy:
                put_map(acc, (u,), cu)
            ay = twists[y]
            if ay is not None:
                yy, _, ncay = ay
                put_bracket(acc, (x,), yy, ncay, False)
            if ax is not None:
                xx, cax, ncax = ax
                put_bracket(acc, (y,), xx, cax if negx else ncax, True)
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
#
# One loop, `_independent_mod_p`, computes both: it reduces F_p rows one by
# one and stops as soon as their rank reaches the number of unknowns.
# `stable_solve` asks `_streamed_nullity`, which feeds it the F_p rows of
# `_rows` as they are generated: most windows of the paper's scan vanish,
# and need a small share of their rows for that.  A window that stays short
# of full rank reads the whole stream, which skips mirrors unguarded (see
# `_rows`), over F_p tables that `_rules` makes once per presentation and
# point.  `nullspace` feeds it `_images_mod_p` of the system's rows, fewest
# entries first, so a system that reaches full rank images no further rows.

MOD_PRIME = 2**31 - 1
MOD_POINT = 123457


class _Unlucky(ArithmeticError):
    """A structure constant has no image at the chosen point."""


class _Powers(dict):
    """q^e -> point^e in F_prime, indexed by e and made on first use."""

    def __init__(self, prime, point):
        if point % prime == 0:
            raise _Unlucky("q cannot be sent to 0")
        self.prime = prime
        self.point = point

    def __missing__(self, e):
        pw = self[e] = pow(self.point, e, self.prime)
        return pw


def _per_term_dict(value):
    """`of`, with of(terms) = value(terms) for Laurent term dicts
    {exp: coeff} made once per dict, and its memo `seen`.  Rows share their
    term dicts, so `seen` is keyed by id(terms); each item is
    (terms, value), and holding the terms keeps the id theirs."""
    seen = {}

    def of(terms):
        t = seen.get(id(terms))
        if t is None:
            t = seen[id(terms)] = (terms, value(terms))
        return t[1]

    return of, seen


def _mod_p_value(pol, prime, power):
    """Image in F_prime of the Laurent polynomial with terms {exp: coeff},
    `power` a `_Powers` of prime."""
    return sum(map(mul, pol.values(), map(power.__getitem__, pol))) % prime


def _images_mod_p(rows, prime, point):
    """The images {col: residue} in F_prime of integer Laurent rows
    {col: {exp: coeff}} under q -> point, each made as it is read.  Each
    term dict is imaged once (rows share them); a point that is 0 mod prime
    raises `_Unlucky` at once."""
    power = _Powers(prime, point)
    residue, _ = _per_term_dict(lambda pol: _mod_p_value(pol, prime, power))

    def images():
        for entries in rows:
            image = {}
            for j, pol in entries.items():
                r = residue(pol)
                if r:
                    image[j] = r
            yield image

    return images()


def _reduce_mod_p(row, pivots, zeros, prime):
    """Reduce the F_p row {col: residue} in place against the columns found
    zero and the monic pivot rows {pivot col: {col: residue}}, and add what
    is left, if anything, to them.  `len(pivots) + len(zeros)` is the rank of
    the rows added so far.

    A remainder with one entry adds its column to `zeros`.  Any other
    remainder becomes a pivot row on its largest column, which it omits
    (coefficient 1); a pivot row holds only columns that were not pivots
    when it was made, so reduction ends.  Which rows raise the rank does not
    depend on the pivot column, only the fill-in does: on the rows of
    `_rows`, in its order, the largest column read 0.8-1.9 pivot entries per
    raw entry on the paper's nonzero spaces at windows [-4,4] and [-6,6],
    where the first column read 2-68.
    """
    for j in zeros.intersection(row):
        del row[j]
    todo = [j for j in row if j in pivots]
    while todo:
        col = todo.pop()
        f = row.pop(col, None)
        if f is None:
            continue
        for j, v in pivots[col].items():
            if j in zeros:
                continue
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
    if len(row) == 1:
        zeros.update(row)
    elif row:
        col = max(row)
        inv = pow(row.pop(col), -1, prime)
        pivots[col] = {j: v * inv % prime for j, v in row.items()}


def _independent_mod_p(rows, ncols, prime):
    """Positions, in the order given, of the F_p rows {col: residue} that
    raise the rank when each is reduced in turn by `_reduce_mod_p`; their
    number is the rank.  The rows are consumed.  Reading stops once the rank
    reaches ncols, the number of columns: no later row can raise it.
    """
    pivots = {}
    zeros = set()
    taken = []
    for i, row in enumerate(rows):
        _reduce_mod_p(row, pivots, zeros, prime)
        if len(pivots) + len(zeros) > len(taken):
            taken.append(i)
            if len(taken) == ncols:
                break
    return taken


def _streamed_nullity(p, ansatz, prime, point):
    """An upper bound on the nullity of the window system's image under
    q -> point in F_prime, or None when a structure constant has no image
    there.

    The F_p rows of `_rows` go to `_independent_mod_p` as they are
    generated, so the pass ends as soon as the rank reaches the number of
    unknowns.  On a presentation that is not skew they are a subset of the
    image's rows, so the bound can exceed its nullity; 0 still certifies
    that the exact nullity is 0.
    """
    ncols = len(ansatz.slots)
    try:
        stream = map(itemgetter(3), _rows(p, ansatz, prime, point))
        return ncols - len(_independent_mod_p(stream, ncols, prime))
    except _Unlucky:
        return None


# -- integer Laurent rows --------------------------------------------------


def _poly_lcm(a, b):
    return poly_divexact(a * b, poly_gcd(a, b))


def _introw_of(values):
    """Q(q) values {col: value} -> integer Laurent entries {col: {exp: coeff}}:
    the nonzero values times the lcm of their denominators.  The entries may
    share the values' term dicts, so they are read, never changed."""
    dens = [v.den for v in values.values() if v.den is not _P1]
    lcm = reduce(_poly_lcm, dens) if dens else _P1
    entries = {}
    for j, v in values.items():
        num = v.num if v.den == lcm else v.num * poly_divexact(lcm, v.den)
        if num._t:
            entries[j] = num._t
    return entries


def _combine(piv, row, c, prow, skipcol):
    """piv*row - c*prow with the pivot column removed."""
    out = {}
    for j, pj in row.items():
        if j != skipcol:
            out[j] = terms_mul(piv, pj)
    for j, pj in prow.items():
        if j == skipcol:
            continue
        t = terms_mul(c, pj)
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
    """Fraction-free elimination (Bareiss 1968) over Z[q, 1/q], one row at a
    time, in the shape of `_reduce_mod_p`.

    rows: integer Laurent rows {col: {exp: coeff}}, shortest first for
    speed; they and their term dicts are only read.  Each row, without the
    columns found zero, is reduced by `_combine` on the earliest-made pivot
    column it holds, made primitive (`qfield.primitive_part`) and stripped
    of zero columns again, until it holds no pivot column.  A pivot row
    holds only columns that were not pivots when it was made, so each pivot
    column is eliminated at most once per row.  What is left is dropped when
    empty, adds its column to the zeros when it has one entry, and otherwise
    becomes a pivot row on its largest column.
    Returns (pivots, zeros): pivots in the order made as (col, row), each
    row holding its pivot column; zeros are the columns forced to vanish.
    """
    pivots = []
    made = {}  # pivot col -> its position in `pivots`
    zeros = set()
    for row in rows:
        row = {j: pol for j, pol in row.items() if j not in zeros}
        while True:
            k = min((made[j] for j in row if j in made), default=None)
            if k is None:
                break
            col, prow = pivots[k]
            row = _combine(prow[col], row, row[col], prow, col)
            for j in zeros.intersection(row):
                del row[j]
            if row:
                row = primitive_part(row)
        if len(row) == 1:
            zeros.update(row)
        elif row:
            col = max(row)
            made[col] = len(pivots)
            pivots.append((col, row))
    return pivots, zeros


@dataclass
class SolutionSpace:
    """Exact nullspace basis; each element assigns a field value per slot key.

    The solver returns the basis in reduced echelon form over slot order
    (see `_canonical_basis`), so it depends only on the space.  A
    `SolutionSpace` built by hand holds whatever vectors it is given.
    `system` is the window system the space was solved from or checked
    against, its rows as `build_system` writes them; when the modular
    certificate proved the space 0, it is built on first access.  `witness`
    is that certificate, (p, a, 0) for q -> a in F_p, and None when an
    exact solve decided the space.
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
    """The primitive integer multiple of a slot vector, its `primitive_part`,
    so vectors on one line over Q(q) give the same dict."""
    if not vec:
        return {}
    index = ansatz.index
    row = _introw_of({index[k]: v for k, v in vec.items()})
    slots = ansatz.slots
    return {
        slots[j]: QRational._trusted(LaurentPoly._raw(pol), _P1)
        for j, pol in primitive_part(row).items()
    }


def _canonical_basis(ansatz, idvecs):
    """The basis of span(idvecs) that depends only on the span: the reduced
    echelon form of `reduce_span` over slot order, with each vector scaled
    by `_vec_canonical`.  Every basis the solver returns is made here."""
    slots = ansatz.slots
    return [
        _vec_canonical(ansatz, {slots[j]: v for j, v in vec.items()})
        for vec in reduce_span(idvecs)
    ]


def nullspace(sys):
    """Exact basis of the solution space of the constraint system, in the
    reduced echelon form of `_canonical_basis`.

    The rows go to `_independent_mod_p` fewest entries first, each imaged
    under q -> MOD_POINT in F_MOD_PRIME as it is read, so a system that
    reaches full rank images no further rows.  Only the rows whose images
    are independent are eliminated over Q(q).  They are independent over
    Q(q) too, so their space contains the true one.  The basis satisfies
    the eliminated rows by construction; `_satisfies_all` checks it against
    every other row, which makes the two spaces equal.  When the check
    fails, or the point has no image, all the rows are eliminated.  Either
    way the basis is the same.
    """
    rows = sys.rows
    order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    try:
        images = _images_mod_p(map(rows.__getitem__, order), MOD_PRIME, MOD_POINT)
    except _Unlucky:
        pass
    else:
        taken = _independent_mod_p(images, len(sys.ansatz.slots), MOD_PRIME)
        chosen = {order[k] for k in taken}
        space = _solve_rows(sys, [rows[order[k]] for k in taken])
        rest = (row for i, row in enumerate(rows) if i not in chosen)
        if _satisfies_all(rest, space.id_vectors()):
            return space
    return _solve_rows(sys, rows)


def _solve_rows(sys, rows):
    """Basis of the space cut out by `rows`, rows of `sys` as mappings
    {col: {exp: coeff}}: `_eliminate` reads them shortest first, and the
    basis is back-substituted through its pivot rows, last made first."""
    ansatz = sys.ansatz
    pivots, zeros = _eliminate(sorted(rows, key=len))
    ncols = len(ansatz.slots)
    determined = {c for c, _ in pivots} | zeros
    free = [j for j in range(ncols) if j not in determined]
    vecs = []
    for fcol in free:
        vec = {fcol: Q1}
        for col, prow in reversed(pivots):
            acc = Q0
            for j, pol in prow.items():
                if j == col:
                    continue
                v = vec.get(j)
                if v is not None:
                    acc = acc + QRational._trusted(LaurentPoly._raw(pol), _P1) * v
            if not acc.is_zero:
                vec[col] = -acc / QRational._trusted(LaurentPoly._raw(prow[col]), _P1)
        vecs.append(vec)
    return SolutionSpace(ansatz, _canonical_basis(ansatz, vecs), _system=sys)


def nullspace_dim_specialized(sys, q0):
    """Nullspace dimension after specializing q, by sparse integer elimination.

    Each row is evaluated at q0 = a/b and multiplied by a^-lo * b^hi, lo and
    hi its lowest and highest exponents, which makes it an integer row, and
    divided by its content; q0 in {0, 1, -1} is refused.  The rows are
    eliminated over Z, the shortest row becoming the pivot and each new row
    divided by its content.
    Independent of the symbolic path (no Laurent polynomials, no mod p, no
    row selection); used as a cross-check oracle.
    """
    q0 = Fraction(q0)
    if q0 in (0, 1, -1):
        raise ForbiddenSpecialization(f"q = {q0} is not allowed")
    a, b = q0.numerator, q0.denominator
    rows = []
    for row in sys.rows:
        lo = min(map(min, row.values()))
        hi = max(map(max, row.values()))
        apow = [a**i for i in range(hi - lo + 1)]
        bpow = [b**i for i in range(hi - lo + 1)]
        vals = {}
        for j, pol in row.items():
            v = sum(c * apow[e - lo] * bpow[hi - e] for e, c in pol.items())
            if v:
                vals[j] = v
        if vals:
            g = _igcd(*vals.values())
            rows.append({j: v // g for j, v in vals.items()})
    rank = 0
    while rows:
        piv = min(rows, key=len)
        col = min(piv)
        pv = piv.pop(col)
        rank += 1
        out = []
        for r in rows:
            if r is piv:
                continue
            f = r.pop(col, None)
            if f is not None:
                for j, v in r.items():
                    r[j] = v * pv
                for j, v in piv.items():
                    nv = r.get(j, 0) - f * v
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
                if not r:
                    continue
                g = _igcd(*r.values())
                if g != 1:
                    for j in r:
                        r[j] //= g
            out.append(r)
        rows = out
    return len(sys.ansatz.slots) - rank


def map_from_assignment(ansatz, vec):
    """Turn a slot assignment into a concrete table-backed map."""
    bilinear = ansatz.kind == "bilinear"
    gens = ansatz.p.gens_in(ansatz.window)
    table = {args: Vector({}) for args in product(gens, repeat=2 if bilinear else 1)}
    for key, c in vec.items():
        args, target = ansatz.decode(key)
        table[args] = table[args] + Vector.of(target, c)
    cls = BilinearMap if bilinear else LinearMap
    return cls(ansatz.parity, lambda *args: table.get(args), degree=ansatz.degree)


# -- span utilities over id vectors ----------------------------------------


def _subtract(vec, c, row):
    """vec -= c * row in place, dropping entries that become zero."""
    for j, v in row.items():
        nv = vec.get(j, Q0) - c * v
        if nv.is_zero:
            vec.pop(j, None)
        else:
            vec[j] = nv


def reduce_span(vectors):
    """Reduced echelon form of the span of {col: QRational} vectors.

    Explicit zero entries are dropped; each vector's leading column is its
    smallest column, with entry 1, every other vector is zero there, and the
    vectors are sorted by leading column.  The result depends only on the
    span; its length is the rank.
    """
    reduced = {}
    for vec in vectors:
        vec = {j: v for j, v in vec.items() if not v.is_zero}
        for lead, rv in reduced.items():
            c = vec.get(lead)
            if c is not None:
                _subtract(vec, c, rv)
        if not vec:
            continue
        lead = min(vec)
        inv = Q1 / vec[lead]
        vec = {j: v * inv for j, v in vec.items()}
        for rv in reduced.values():
            c = rv.get(lead)
            if c is not None:
                _subtract(rv, c, vec)
        reduced[lead] = vec
    return [reduced[lead] for lead in sorted(reduced)]


def span_rank(vectors):
    return len(reduce_span(vectors))


def express_in_span(vec, vectors):
    """Coefficients writing vec as a combination of vectors, or None.

    Vector i gets a unit entry in column aux + i, past every column in use;
    in the reduced echelon form those columns record which combination of
    the vectors each row is.
    """
    aux = 1 + max((j for v in (vec, *vectors) for j in v), default=0)
    rest = {j: v for j, v in vec.items() if not v.is_zero}
    for row in reduce_span([{**v, aux + i: Q1} for i, v in enumerate(vectors)]):
        lead = min(row)
        if lead >= aux:
            break
        c = rest.get(lead)
        if c is not None:
            _subtract(rest, c, row)
    if any(j < aux for j in rest):
        return None
    return [-rest.get(aux + i, Q0) for i in range(len(vectors))]


def _satisfies_all(rows, vecs):
    """Whether every vector {col: QRational} satisfies every row of integer
    Laurent entries {col: {exp: coeff}} exactly.

    The vectors must hold Laurent polynomials over the shared unit
    denominator, as canonical vectors do.  A product row . vector is a
    Laurent polynomial whose coefficients are at most C = (the largest sum
    of coefficient 1-norms over a row's entries on the vectors' support) *
    (the largest 1-norm of a vector entry) in absolute value.  At q = 2^B with 2^(B-1) > C its
    leading term outweighs all the others, so its value is 0 iff it is 0.
    With every exponent shifted by one constant, each entry's value is one
    integer, made once per term dict (rows share them), and each product
    one integer sum.  Only the row entries on the vectors' support are read.
    """
    vecs = [vec for vec in vecs if vec]
    for vec in vecs:
        if any(v.den is not _P1 for v in vec.values()):
            raise ValueError("the exact check needs vector entries over the unit denominator")
    support = set().union(*vecs)
    norm, seen = _per_term_dict(lambda pol: sum(map(abs, pol.values())))
    parts = []
    rnorm = 0
    for row in rows:
        part = []
        size = 0
        for j, pol in row.items():
            if j in support:
                size += norm(pol)
                part.append((j, id(pol)))
        if part:
            parts.append(part)
            rnorm = max(rnorm, size)
    if not parts:
        return True
    vterms = [v.num._t for vec in vecs for v in vec.values()]
    b = (rnorm * max(sum(map(abs, t.values())) for t in vterms)).bit_length() + 1

    def values(pols, lo):
        return {key: packed_int(pol, b, lo) for key, pol in pols}

    at = values([(key, pol) for key, (pol, _) in seen.items()],
                min(min(pol) for pol, _ in seen.values()))
    lo = min(map(min, vterms))
    vvals = [values([(j, v.num._t) for j, v in vec.items()], lo) for vec in vecs]
    for part in parts:
        for vals in vvals:
            if sum(at[key] * vals[j] for j, key in part if j in vals):
                return False
    return True


def restrict_space(space, small_ansatz):
    """Restriction of solutions to the slots of a smaller-window ansatz."""
    out = []
    for vec in space.basis:
        rv = {k: v for k, v in vec.items() if k in small_ansatz.index}
        out.append(rv)
    return out


def stable_solve(p, kind, cls, s=0, parity=0, window=None, delta=2, k=1):
    """Solutions on the window that extend to a window enlarged by delta.

    Solves the enlarged system, restricts its solutions, checks them
    against every row of the window system with `_satisfies_all`, and
    returns the `_canonical_basis` of the restriction span (the
    intersection with the raw window space).

    On a graded presentation `_streamed_nullity` first bounds the window
    dimension from above by the nullity of the rows' images under
    q -> point in F_p, since rank can only drop there.  It decides that in
    one pass over the F_p rows of `_rows`, which stops as soon as their rank
    reaches the number of unknowns, and it reads F_p structure tables made
    once per presentation.  A bound of 0 proves the stable space 0 with no
    exact solve: the restrictions satisfy the window system, so they can
    only be zero.  The space then carries the rank witness, and
    `raw_enlarged_dim` is None.  Otherwise the enlarged system is solved
    first.  The restrictions lie in the window space, so their rank r is at
    most its dimension: r equal to the bound proves that dimension r with
    no exact window solve, and r above it fails.  Below it, and on a point
    with no image, the window system is solved exactly and checked against
    the bound; a window space of 0 is then reported as above, without the
    enlarged dimension.  Scalar presentations and delta 0 keep the exact
    window solve alone, which reports `raw_enlarged_dim` as the window
    dimension.
    """
    if window is None:
        raise ValueError("a window is required")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    ansatz = build_ansatz(p, kind, cls, s=s, parity=parity, window=window, k=k)
    if p.is_scalar or delta == 0:
        small = nullspace(build_system(p, ansatz))
        small.raw_window_dim = small.raw_enlarged_dim = small.dim
        return small
    prime, point = MOD_PRIME, MOD_POINT
    bound = _streamed_nullity(p, ansatz, prime, point)
    if bound == 0:
        return SolutionSpace(ansatz, [], raw_window_dim=0, witness=(prime, point, 0))
    big_ansatz = build_ansatz(
        p, kind, cls, s=s, parity=parity, window=window.widen(delta), k=k
    )
    big = nullspace(build_system(p, big_ansatz))
    sys_small = build_system(p, ansatz)
    index = ansatz.index
    restricted = [
        {index[kk]: v for kk, v in vec.items()} for vec in restrict_space(big, ansatz)
    ]
    if not _satisfies_all(sys_small.rows, restricted):
        raise AssertionError(
            "restriction of an enlarged-window solution violates the "
            "window system; constraint generation is inconsistent"
        )
    basis = _canonical_basis(ansatz, restricted)
    small = nullspace(sys_small) if bound is None or len(basis) < bound else None
    raw = len(basis) if small is None else small.dim
    if bound is not None and raw > bound:
        raise AssertionError(
            f"window nullity {raw} exceeds the mod-p nullity {bound}; "
            "the F_p rows are inconsistent with the window system"
        )
    if raw == 0:
        small.raw_window_dim = 0
        return small
    return SolutionSpace(
        ansatz,
        basis,
        raw_window_dim=raw,
        raw_enlarged_dim=big.dim,
        _system=sys_small,
    )
