"""Instance generation for the defining identities of every map class.

The checker and the solver consume the same instance stream so that a
solution of the generated linear system is, by construction, a map the
checker accepts on the same window.  Values are dicts generator ->
coefficient; the coefficient type is the exact field for concrete checks, a
bare Laurent polynomial on the solver fast path, and a linear form in ansatz
unknowns for the unknown map itself.  All of them support addition,
negation and multiplication with the structure-constant scalars.

An instance is skipped (OutOfWindow) when it would evaluate the unknown map
outside the window.  In strict mode, used by the checker, an instance is
also skipped when any intermediate or final value leaves the window, so a
truncated table never produces a spurious witness.
"""

from __future__ import annotations

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


# -- generic vector-with-coefficients helpers ------------------------------


def m_add(a, b):
    out = dict(a)
    for g, c in b.items():
        c0 = out.get(g)
        if c0 is None:
            out[g] = c
        else:
            c0 = c0 + c
            if c0.is_zero:
                del out[g]
            else:
                out[g] = c0
    return out


def m_neg(a):
    return {g: -c for g, c in a.items()}


class EvalContext:
    """Evaluation helpers bound to one presentation, window and strictness.

    With fast=True the structure constants are taken as bare Laurent
    polynomials (available whenever no rule divides by a polynomial), which
    keeps the hot solver loops off the field wrapper.
    """

    def __init__(self, p, window, strict, fast=False):
        self.p = p
        self.window = window
        self.strict = strict and not p.is_scalar and window is not None
        fast = fast and p.fast_scalars
        self.one = p.laurent_one if fast else Q1
        self.bracket_gens = p.bracket_gens_fast if fast else p.bracket_gens
        self.alpha_gens = p.alpha_gens_fast if fast else p.alpha_gens

    def _guard(self, d):
        if self.strict:
            w = self.window
            for g in d:
                if g.degree is not None and not w.contains(g.degree):
                    raise OutOfWindow
        return d

    def bracket(self, u, v):
        bracket_gens = self.bracket_gens
        acc = {}
        for g1, c1 in u.items():
            for g2, c2 in v.items():
                rules = bracket_gens(g1, g2)
                if not rules:
                    continue
                c12 = c1 * c2
                if c12.is_zero:
                    continue
                for g, r in rules:
                    c = c12 * r
                    c0 = acc.get(g)
                    if c0 is None:
                        acc[g] = c
                    else:
                        c0 = c0 + c
                        if c0.is_zero:
                            del acc[g]
                        else:
                            acc[g] = c0
        return self._guard(acc)

    def alpha(self, u):
        alpha_gens = self.alpha_gens
        acc = {}
        for g1, c1 in u.items():
            for g, r in alpha_gens(g1):
                c = c1 * r
                c0 = acc.get(g)
                if c0 is None:
                    acc[g] = c
                else:
                    c0 = c0 + c
                    if c0.is_zero:
                        del acc[g]
                    else:
                        acc[g] = c0
        return self._guard(acc)

    def alpha_k(self, u, k):
        for _ in range(k):
            u = self.alpha(u)
        return u

    def apply_bilinear(self, phi, u, v):
        """Bilinear extension of phi over two concrete vectors."""
        acc = {}
        for g1, c1 in u.items():
            for g2, c2 in v.items():
                c12 = c1 * c2
                if c12.is_zero:
                    continue
                for g, c in phi(g1, g2).items():
                    c = c12 * c
                    if c.is_zero:
                        continue
                    c0 = acc.get(g)
                    if c0 is None:
                        acc[g] = c
                    else:
                        c0 = c0 + c
                        if c0.is_zero:
                            del acc[g]
                        else:
                            acc[g] = c0
        return self._guard(acc)

    def apply_linear(self, f, u):
        acc = {}
        for g1, c1 in u.items():
            for g, c in f(g1).items():
                c = c1 * c
                if c.is_zero:
                    continue
                c0 = acc.get(g)
                if c0 is None:
                    acc[g] = c
                else:
                    c0 = c0 + c
                    if c0.is_zero:
                        del acc[g]
                    else:
                        acc[g] = c0
        return self._guard(acc)


def bilinear_instances(p, cls, window, phi, phi_parity, strict=False, fast=False,
                       only=None):
    """Yield (equation id, inputs, lhs, rhs) for each interior instance.

    phi(g1, g2) must return a dict generator -> coefficient and raise
    OutOfWindow when an argument is not available.  `only` restricts the
    stream to a single input triple.
    """
    check_class_mode(p, cls)
    ctx = EvalContext(p, window, strict, fast=fast)
    twisted = cls in ("biderivation", "super_biderivation")
    if only is None:
        gens = p.gens_in(window)
        xs = ys = zs = gens
    else:
        xs, ys, zs = ([g] for g in only)
        gens = list(dict.fromkeys(only))
    one = ctx.one
    singles = {g: {g: one} for g in gens}
    alphas = {}
    for g in gens:
        try:
            alphas[g] = ctx.alpha(singles[g])
        except OutOfWindow:
            alphas[g] = None
    for x in xs:
        sx = singles[x]
        ax = alphas[x]
        neg_phix = phi_parity and x.parity
        for y in ys:
            sy = singles[y]
            ay = alphas[y]
            neg_phixy = ((phi_parity + x.parity) % 2) and y.parity
            try:
                bxy = ctx.bracket(sx, sy)
            except OutOfWindow:
                bxy = None
            eq1_ready = bxy is not None and ax is not None and ay is not None
            for z in zs:
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


def linear_instances(p, cls, window, f, f_parity, k=1, strict=False, fast=False):
    """Yield identity instances for a linear map class over window pairs."""
    check_class_mode(p, cls)
    if cls == "alpha_k_derivation" and k < 0:
        raise ValueError("twist power must be nonnegative")
    ctx = EvalContext(p, window, strict, fast=fast)
    gens = p.gens_in(window)
    singles = {g: {g: ctx.one} for g in gens}
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
