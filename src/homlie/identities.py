"""Instance generation for the defining identities of every map class.

The checker evaluates these instance streams on concrete maps.  They are
also the reference for the solver's row generator (`solver._rows`), which
writes the same identities directly as linear rows in the map's unknowns:
the test suite compares the residuals of the two on the same maps; the
streams read neither those rows nor the solver's tables.  Values are term
dicts generator -> coefficient, in the ring of the stream's `EvalContext`:
Q(q) by default, or with `bits` set, Z[q, 1/q] packed at q = 2^bits
(`qfield.Packed`), where a product is one integer product and a zero test
one integer test, exact while a carried coefficient bound stays below
2^(bits - 1).  Brackets, twists and the map are all evaluated through
`algebra.extend_bilinear` and `extend_linear`, which extend a rule on
generators over term dicts; the context supplies the bracket and twist
rules and the unit coefficient in its ring.

Each stream evaluates every map value, twist and generator bracket once and
reuses it across instances (`EvalContext.generator_values`, `map_values`);
everything else an instance reads it computes from those.  Values a stream
yields may be shared with its memos, so they are read, never changed.

An instance is skipped (OutOfWindow) when it would evaluate the unknown map
outside the window.  In strict mode, used by the checker, an instance is
also skipped when any intermediate or final value leaves the window, so a
truncated table never produces a spurious witness.
"""

from __future__ import annotations

from .algebra import add_terms as m_add
from .algebra import extend_bilinear, extend_linear
from .algebra import neg_terms as m_neg
from .qfield import QRational, pack

Q1 = QRational(1)

BILINEAR_CLASSES = (
    "biderivation",
    "super_biderivation",
    "alpha_biderivation",
    "alpha_super_biderivation",
)
LINEAR_CLASSES = (
    "derivation",
    "super_derivation",
    "alpha_k_derivation",
    "commuting_map",
)


class OutOfWindow(Exception):
    pass


class ClassModeMismatch(ValueError):
    pass


def check_class_mode(p, cls):
    if cls in ("alpha_k_derivation", "commuting_map"):
        return  # these adapt to the presentation's mode
    sup = "super" in cls
    if sup and not p.is_super:
        raise ClassModeMismatch(f"{cls} requires a super presentation")
    if not sup and p.is_super:
        raise ClassModeMismatch(f"{cls} requires a lie presentation; use the super variant")


class _Once(dict):
    """Values made on first read, one per key, within one check: key ->
    make(key), or None where make raises OutOfWindow."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        try:
            v = self.make(key)
        except OutOfWindow:
            v = None
        self[key] = v
        return v

    def need(self, key):
        """The value at key; OutOfWindow where there is none."""
        v = self[key]
        if v is None:
            raise OutOfWindow
        return v


def _packer(b):
    """`qfield.pack` at q = 2^b, made once per distinct coefficient:
    `NotLaurent` when a coefficient is off Z[q, 1/q]."""
    packs = {}

    def packed(c):
        v = packs.get(c)
        if v is None:
            v = packs[c] = pack(c, b)
        return v

    return packed


def _packed_rule(rule, packed):
    """A generator rule of the presentation with its values packed, each
    made once."""
    memo = {}

    def packed_rule(*gens):
        v = memo.get(gens)
        if v is None:
            v = memo[gens] = tuple([(g, packed(c)) for g, c in rule(*gens)])
        return v

    return packed_rule


class EvalContext:
    """Evaluation helpers bound to one presentation, window, strictness and
    coefficient ring.

    With bits None the coefficients are the presentation's own, in Q(q).
    With bits b every structure constant, twist coefficient and map value
    is packed at q = 2^b (`qfield.Packed`), each distinct one once per
    context: a value in another ring raises `NotLaurent`, and a zero the
    packing cannot prove raises `PackingOverflow`.  The memos it hands out refer to it, but it
    keeps none of them, so a check leaves no reference cycle behind.
    """

    def __init__(self, p, window, strict, bits=None):
        self.p = p
        self.window = window
        self.strict = strict and not p.is_scalar and window is not None
        if bits is None:
            self.one = Q1
            self.bracket_gens = p.bracket_gens
            self.alpha_gens = p.alpha_gens
            self.values_of = dict
        else:
            packed = _packer(bits)
            self.one = packed(Q1)
            self.bracket_gens = _packed_rule(p.bracket_gens, packed)
            self.alpha_gens = _packed_rule(p.alpha_gens, packed)
            self.values_of = lambda items: {g: packed(c) for g, c in items}

    def guard(self, d):
        if self.strict:
            w = self.window
            for g in d:
                if g.degree is not None and not w.contains(g.degree):
                    raise OutOfWindow
        return d

    def bracket(self, u, v):
        return self.guard(extend_bilinear(self.bracket_gens, u, v))

    def alpha(self, u):
        return self.guard(extend_linear(self.alpha_gens, u))

    def alpha_k(self, u, k):
        for _ in range(k):
            u = self.alpha(u)
        return u

    def generator_values(self):
        """Memos of alpha(g) and of [g, h] by (g, h), on generators."""
        one = self.one
        return (
            _Once(lambda g: self.alpha({g: one})),
            _Once(lambda gh: self.bracket({gh[0]: one}, {gh[1]: one})),
        )

    def map_values(self, fn):
        """fn's values on argument tuples, each made once: the term dicts
        that extend fn over other values, and the same dicts guarded, as
        values in their own right."""
        values = _Once(lambda args: self.values_of(fn(*args)))
        return values, _Once(lambda args: self.guard(values.need(args)))


def bilinear_instances(p, cls, window, phi, phi_parity, strict=False, bits=None):
    """Yield (equation id, inputs, lhs, rhs) for each interior instance.

    phi(g1, g2) must return its value as the items of a term dict and raise
    OutOfWindow when an argument is not available.

    Each instance is computed from the context's memos of alpha(g), [g, h]
    and phi's values: its left side is phi extended over ([x, y], T z) or
    (T x, [y, z]), where T is alpha or the identity, and each term of its
    right side one bracket of a value of phi and a twist.  Only whole
    values are guarded: their parts may leave the window and cancel.
    """
    check_class_mode(p, cls)
    ctx = EvalContext(p, window, strict, bits)
    gens = p.gens_in(window)
    twist, pair = ctx.generator_values()
    values, shown = ctx.map_values(phi)
    # T z: alpha(z) in the (super) biderivation identities, z in the
    # alpha-twisted ones
    if cls in ("biderivation", "super_biderivation"):
        T = twist
    else:
        T = {g: {g: ctx.one} for g in gens}

    def rule(g, h):
        return values.need((g, h)).items()

    for x in gens:
        ax, tx = twist[x], T[x]
        neg_phix = phi_parity and x.parity
        for y in gens:
            ay = twist[y]
            neg_phixy = ((phi_parity + x.parity) % 2) and y.parity
            bxy = pair[x, y]
            eq1_ready = bxy is not None and ax is not None and ay is not None
            for z in gens:
                az, tz = twist[z], T[z]
                # first identity: phi([x,y], T z) vs
                #   (-1)^{|y||z|} [phi(x,z), a y] + (-1)^{|phi||x|} [a x, phi(y,z)]
                if eq1_ready and tz is not None:
                    try:
                        lhs = ctx.guard(extend_bilinear(rule, bxy, tz))
                        t1 = ctx.bracket(shown.need((x, z)), ay)
                        if y.parity and z.parity:
                            t1 = m_neg(t1)
                        t2 = ctx.bracket(ax, shown.need((y, z)))
                        if neg_phix:
                            t2 = m_neg(t2)
                        yield ("eq1", (x, y, z), lhs, m_add(t1, t2))
                    except OutOfWindow:
                        pass
                # second identity: phi(T x, [y,z]) vs
                #   [phi(x,y), a z] + (-1)^{(|phi|+|x|)|y|} [a y, phi(x,z)]
                if ay is not None and az is not None and tx is not None:
                    try:
                        lhs = ctx.guard(extend_bilinear(rule, tx, pair.need((y, z))))
                        t1 = ctx.bracket(shown.need((x, y)), az)
                        t2 = ctx.bracket(ay, shown.need((x, z)))
                        if neg_phixy:
                            t2 = m_neg(t2)
                        yield ("eq2", (x, y, z), lhs, m_add(t1, t2))
                    except OutOfWindow:
                        pass


def linear_instances(p, cls, window, f, f_parity, k=1, strict=False, bits=None):
    """Yield identity instances for a linear map class over window pairs.

    f(g) must return its value as the items of a term dict and raise
    OutOfWindow when g is not available; each f(g) and each alpha^k(g) is
    made once.
    """
    check_class_mode(p, cls)
    if cls == "alpha_k_derivation" and k < 0:
        raise ValueError("twist power must be nonnegative")
    ctx = EvalContext(p, window, strict, bits)
    gens = p.gens_in(window)
    twist, pair = ctx.generator_values()
    values, images = ctx.map_values(f)

    def rule(g):
        return values.need((g,)).items()

    if cls == "commuting_map":
        for x in gens:
            try:
                lhs = ctx.guard(extend_linear(rule, twist.need(x)))
                rhs = ctx.alpha(images.need((x,)))
                yield ("twist-commute", (x,), lhs, rhs)
            except OutOfWindow:
                pass
            for y in gens:
                try:
                    lhs = ctx.bracket(images.need((x,)), {y: ctx.one})
                    rhs = ctx.bracket(images.need((y,)), {x: ctx.one})
                    if not (x.parity and y.parity):
                        rhs = m_neg(rhs)
                    yield ("commute", (x, y), lhs, rhs)
                except OutOfWindow:
                    pass
        return
    kk = 0 if cls in ("derivation", "super_derivation") else k
    twists = _Once(lambda g: ctx.alpha_k({g: ctx.one}, kk))
    for x in gens:
        negx = f_parity and x.parity
        for y in gens:
            try:
                lhs = ctx.guard(extend_linear(rule, pair.need((x, y))))
                t1 = ctx.bracket(images.need((x,)), twists.need(y))
                t2 = ctx.bracket(twists.need(x), images.need((y,)))
                if negx:
                    t2 = m_neg(t2)
                yield ("eq", (x, y), lhs, m_add(t1, t2))
            except OutOfWindow:
                pass


def axiom_instances(p, window, strict=True, bits=None):
    """Skew/super-skew pairs and (super) twisted Jacobi triples; each alpha(g)
    and each [g, h] of window generators is made once."""
    ctx = EvalContext(p, window, strict, bits)
    twist, pair = ctx.generator_values()
    gens = p.gens_in(window)
    skew_name = "super-skew-symmetry" if p.is_super else "skew-symmetry"
    jac_name = "super-hom-jacobi" if p.is_super else "hom-jacobi"
    for x in gens:
        for y in gens:
            try:
                lhs = pair.need((x, y))
                rhs = pair.need((y, x))
                if not (x.parity and y.parity):
                    rhs = m_neg(rhs)
                yield (skew_name, (x, y), lhs, rhs)
            except OutOfWindow:
                pass
    for x in gens:
        for y in gens:
            for z in gens:
                try:
                    acc = {}
                    for (a, b, c) in ((x, y, z), (z, x, y), (y, z, x)):
                        term = ctx.bracket(twist.need(a), pair.need((b, c)))
                        if a.parity and c.parity:
                            term = m_neg(term)
                        acc = m_add(acc, term)
                    yield (jac_name, (x, y, z), acc, {})
                except OutOfWindow:
                    pass
                if p.is_super:
                    # equivalent two-sided form of the twisted Jacobi identity
                    try:
                        lhs = ctx.bracket(twist.need(x), pair.need((y, z)))
                        t2 = ctx.bracket(twist.need(y), pair.need((x, z)))
                        if x.parity and y.parity:
                            t2 = m_neg(t2)
                        rhs = m_add(ctx.bracket(pair.need((x, y)), twist.need(z)), t2)
                        yield ("hom-jacobi-two-sided", (x, y, z), lhs, rhs)
                    except OutOfWindow:
                        pass


def multiplicative_instances(p, window, strict=True, bits=None):
    ctx = EvalContext(p, window, strict, bits)
    twist, pair = ctx.generator_values()
    gens = p.gens_in(window)
    for x in gens:
        for y in gens:
            try:
                lhs = ctx.alpha(pair.need((x, y)))
                rhs = ctx.bracket(twist.need(x), twist.need(y))
                yield ("multiplicative", (x, y), lhs, rhs)
            except OutOfWindow:
                pass


def skew_instances(p, phi, window, strict=True, bits=None):
    """Pairs testing phi(x,y) = -(-1)^{|x||y|} phi(y,x)."""
    ctx = EvalContext(p, window, strict, bits)
    gens = p.gens_in(window)
    _, shown = ctx.map_values(phi)
    for x in gens:
        for y in gens:
            try:
                lhs = shown.need((x, y))
                rhs = shown.need((y, x))
                if not (x.parity and y.parity):
                    rhs = m_neg(rhs)
                yield ("skew-symmetry", (x, y), lhs, rhs)
            except OutOfWindow:
                pass
