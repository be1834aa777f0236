"""Instance generation for the defining identities of every map class.

The checker evaluates these instance streams on concrete maps.  They are
also the reference for the solver's row generator (`solver._rows`), which
writes the same identities directly as linear rows in the map's unknowns:
the test suite compares the residuals of the two on the same maps.  Values
are term dicts generator -> Q(q) coefficient.  Brackets, twists and the map
are all evaluated through `algebra.extend_bilinear` and `extend_linear`,
which extend a rule on generators over term dicts.

An instance is skipped (OutOfWindow) when it would evaluate the unknown map
outside the window.  In strict mode, used by the checker, an instance is
also skipped when any intermediate or final value leaves the window, so a
truncated table never produces a spurious witness.
"""

from __future__ import annotations

from .algebra import add_terms as m_add
from .algebra import extend_bilinear, extend_linear
from .algebra import neg_terms as m_neg
from .qfield import QRational

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


class EvalContext:
    """Evaluation helpers bound to one presentation, window and strictness."""

    def __init__(self, p, window, strict):
        self.p = p
        self.window = window
        self.strict = strict and not p.is_scalar and window is not None

    def _guard(self, d):
        if self.strict:
            w = self.window
            for g in d:
                if g.degree is not None and not w.contains(g.degree):
                    raise OutOfWindow
        return d

    def bracket(self, u, v):
        return self._guard(extend_bilinear(self.p.bracket_gens, u, v))

    def alpha(self, u):
        return self._guard(extend_linear(self.p.alpha_gens, u))

    def alpha_k(self, u, k):
        for _ in range(k):
            u = self.alpha(u)
        return u

    def apply_bilinear(self, phi, u, v):
        """Bilinear extension of phi over two concrete vectors."""
        return self._guard(extend_bilinear(phi, u, v))

    def apply_linear(self, f, u):
        return self._guard(extend_linear(f, u))


def bilinear_instances(p, cls, window, phi, phi_parity, strict=False):
    """Yield (equation id, inputs, lhs, rhs) for each interior instance.

    phi(g1, g2) must return its value as (generator, coefficient) pairs,
    such as a term dict's items(), and raise OutOfWindow when an argument is
    not available.
    """
    check_class_mode(p, cls)
    ctx = EvalContext(p, window, strict)
    twisted = cls in ("biderivation", "super_biderivation")
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    alphas = {}
    for g in gens:
        try:
            alphas[g] = ctx.alpha(singles[g])
        except OutOfWindow:
            alphas[g] = None
    for x in gens:
        sx = singles[x]
        ax = alphas[x]
        neg_phix = phi_parity and x.parity
        for y in gens:
            sy = singles[y]
            ay = alphas[y]
            neg_phixy = ((phi_parity + x.parity) % 2) and y.parity
            try:
                bxy = ctx.bracket(sx, sy)
            except OutOfWindow:
                bxy = None
            eq1_ready = bxy is not None and ax is not None and ay is not None
            for z in gens:
                sz = singles[z]
                az = alphas[z]
                # first identity: phi([x,y], T z) vs
                #   (-1)^{|y||z|} [phi(x,z), a y] + (-1)^{|phi||x|} [a x, phi(y,z)]
                if eq1_ready and (not twisted or az is not None):
                    try:
                        lhs = ctx.apply_bilinear(phi, bxy, az if twisted else sz)
                        t1 = ctx.bracket(ctx.apply_bilinear(phi, sx, sz), ay)
                        if y.parity and z.parity:
                            t1 = m_neg(t1)
                        t2 = ctx.bracket(ax, ctx.apply_bilinear(phi, sy, sz))
                        if neg_phix:
                            t2 = m_neg(t2)
                        yield ("eq1", (x, y, z), lhs, m_add(t1, t2))
                    except OutOfWindow:
                        pass
                # second identity: phi(T x, [y,z]) vs
                #   [phi(x,y), a z] + (-1)^{(|phi|+|x|)|y|} [a y, phi(x,z)]
                if ay is not None and az is not None and (not twisted or ax is not None):
                    try:
                        byz = ctx.bracket(sy, sz)
                        lhs = ctx.apply_bilinear(phi, ax if twisted else sx, byz)
                        t1 = ctx.bracket(ctx.apply_bilinear(phi, sx, sy), az)
                        t2 = ctx.bracket(ay, ctx.apply_bilinear(phi, sx, sz))
                        if neg_phixy:
                            t2 = m_neg(t2)
                        yield ("eq2", (x, y, z), lhs, m_add(t1, t2))
                    except OutOfWindow:
                        pass


def linear_instances(p, cls, window, f, f_parity, k=1, strict=False):
    """Yield identity instances for a linear map class over window pairs."""
    check_class_mode(p, cls)
    if cls == "alpha_k_derivation" and k < 0:
        raise ValueError("twist power must be nonnegative")
    ctx = EvalContext(p, window, strict)
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    if cls == "commuting_map":
        for x in gens:
            sx = singles[x]
            try:
                lhs = ctx.apply_linear(f, ctx.alpha(sx))
                rhs = ctx.alpha(ctx.apply_linear(f, sx))
                yield ("twist-commute", (x,), lhs, rhs)
            except OutOfWindow:
                pass
            for y in gens:
                sy = singles[y]
                try:
                    lhs = ctx.bracket(ctx.apply_linear(f, sx), sy)
                    rhs = ctx.bracket(ctx.apply_linear(f, sy), sx)
                    if not (x.parity and y.parity):
                        rhs = m_neg(rhs)
                    yield ("commute", (x, y), lhs, rhs)
                except OutOfWindow:
                    pass
        return
    kk = 0 if cls in ("derivation", "super_derivation") else k
    for x in gens:
        sx = singles[x]
        negx = f_parity and x.parity
        for y in gens:
            sy = singles[y]
            try:
                bxy = ctx.bracket(sx, sy)
                lhs = ctx.apply_linear(f, bxy)
                t1 = ctx.bracket(ctx.apply_linear(f, sx), ctx.alpha_k(sy, kk))
                t2 = ctx.bracket(ctx.alpha_k(sx, kk), ctx.apply_linear(f, sy))
                if negx:
                    t2 = m_neg(t2)
                yield ("eq", (x, y), lhs, m_add(t1, t2))
            except OutOfWindow:
                pass


def axiom_instances(p, window, strict=True):
    """Skew/super-skew pairs and (super) twisted Jacobi triples."""
    ctx = EvalContext(p, window, strict)
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    skew_name = "super-skew-symmetry" if p.is_super else "skew-symmetry"
    jac_name = "super-hom-jacobi" if p.is_super else "hom-jacobi"
    for x in gens:
        for y in gens:
            try:
                lhs = ctx.bracket(singles[x], singles[y])
                rhs = ctx.bracket(singles[y], singles[x])
                if not (x.parity and y.parity):
                    rhs = m_neg(rhs)
                yield (skew_name, (x, y), lhs, rhs)
            except OutOfWindow:
                pass
    for x in gens:
        sx = singles[x]
        for y in gens:
            sy = singles[y]
            for z in gens:
                sz = singles[z]
                try:
                    acc = {}
                    for (a, b, c) in ((x, y, z), (z, x, y), (y, z, x)):
                        term = ctx.bracket(
                            ctx.alpha(singles[a]), ctx.bracket(singles[b], singles[c])
                        )
                        if a.parity and c.parity:
                            term = m_neg(term)
                        acc = m_add(acc, term)
                    yield (jac_name, (x, y, z), acc, {})
                except OutOfWindow:
                    pass
                if p.is_super:
                    # equivalent two-sided form of the twisted Jacobi identity
                    try:
                        lhs = ctx.bracket(ctx.alpha(sx), ctx.bracket(sy, sz))
                        t2 = ctx.bracket(ctx.alpha(sy), ctx.bracket(sx, sz))
                        if x.parity and y.parity:
                            t2 = m_neg(t2)
                        rhs = m_add(ctx.bracket(ctx.bracket(sx, sy), ctx.alpha(sz)), t2)
                        yield ("hom-jacobi-two-sided", (x, y, z), lhs, rhs)
                    except OutOfWindow:
                        pass


def multiplicative_instances(p, window, strict=True):
    ctx = EvalContext(p, window, strict)
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    for x in gens:
        for y in gens:
            try:
                lhs = ctx.alpha(ctx.bracket(singles[x], singles[y]))
                rhs = ctx.bracket(ctx.alpha(singles[x]), ctx.alpha(singles[y]))
                yield ("multiplicative", (x, y), lhs, rhs)
            except OutOfWindow:
                pass


def skew_instances(p, phi, window, strict=True):
    """Pairs testing phi(x,y) = -(-1)^{|x||y|} phi(y,x)."""
    ctx = EvalContext(p, window, strict)
    gens = p.gens_in(window)
    singles = {g: {g: Q1} for g in gens}
    for x in gens:
        for y in gens:
            try:
                lhs = ctx.apply_bilinear(phi, singles[x], singles[y])
                rhs = ctx.apply_bilinear(phi, singles[y], singles[x])
                if not (x.parity and y.parity):
                    rhs = m_neg(rhs)
                yield ("skew-symmetry", (x, y), lhs, rhs)
            except OutOfWindow:
                pass
