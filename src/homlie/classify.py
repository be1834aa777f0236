"""Interpretation of solution spaces: matching against the named maps,
deriving linear commuting maps, and deciding which commuting maps are
automorphisms or derivations.

The named (super-)biderivations are the maps the paper's linear commuting
maps induce, (x, y) -> [x, f(y)], or [f(x), y] on a super presentation.
Each commuting map is declared once, as a family move (`COMMUTING_MAPS`),
so a named map's values come from the bracket rules alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .algebra import Vector, Window, extend_linear
from .maps import BilinearMap, LinearMap
from .qfield import _P1, QRational, primitive_part
from .solver import (
    SolutionSpace,
    express_in_span,
    map_from_assignment,
    span_rank,
    stable_solve,
)

Q0 = QRational(0)


class DependentKnowns(ValueError):
    pass


class NonQuadraticConstraint(ValueError):
    pass


class UnknownMap(KeyError):
    pass


# -- the named maps ---------------------------------------------------------


# the paper's linear commuting maps, as family moves: name -> (source family,
# target family, degree shift, parity) for the map sending each generator of
# the source to the target generator `shift` degrees away with coefficient 1,
# and every other generator to 0; no families means the identity
COMMUTING_MAPS = {
    "identity": (None, None, 0, 0),
    "L->W": ("L", "W", 0, 0),
    "L->G": ("L", "G", -1, 1),
}

# named (super-)biderivation -> the commuting map that induces it
KNOWN_MAPS = {"phi_ad": "identity", "phi_0": "L->W", "phi_minus1": "L->G"}

# (algebra, parity) -> the named maps spanning its (super-)biderivations of
# that parity; the commuting maps inducing them span its commuting maps
PAPER_MAPS = {
    ("w22q", 0): ("phi_ad", "phi_0"),
    ("wittq", 0): ("phi_ad",),
    ("wittsuperq", 0): ("phi_ad",),
    ("wittsuperq", 1): ("phi_minus1",),
}


def commuting_map(name, p):
    """The commuting map `name` on p; UnknownGenerator when p lacks its
    source or target family."""
    source, target, shift, parity = COMMUTING_MAPS[name]
    if source is None:
        return LinearMap.from_rule(parity, Vector.of, degree=None if p.is_scalar else shift)
    p.generator(source, 0)
    p.generator(target, 0)

    def rule(g):
        if g.family != source:
            return Vector({})
        return Vector.of(p.generator(target, g.degree + shift))

    return LinearMap.from_rule(parity, rule, degree=shift)


def induced(p, f):
    """The bilinear map a linear map f induces: (x, y) -> [f(x), y] on a
    super presentation, [x, f(y)] otherwise; None wherever f is None."""
    if p.is_super:
        def rule(g1, g2):
            img = f(g1)
            return None if img is None else p.bracket(img, Vector.of(g2))
    else:
        def rule(g1, g2):
            img = f(g2)
            return None if img is None else p.bracket(Vector.of(g1), img)
    return BilinearMap.from_rule(f.parity, rule, degree=f.degree)


def known_map(name, p):
    """The named map on p; UnknownGenerator when p lacks one of its families."""
    if name not in KNOWN_MAPS:
        raise UnknownMap(f"unknown named map {name!r}")
    return induced(p, commuting_map(KNOWN_MAPS[name], p))


# -- decomposition -----------------------------------------------------------


@dataclass
class DecompositionReport:
    names: List[str]
    coefficients: List[Optional[Dict[str, QRational]]]
    residual_dim: int

    @property
    def complete(self):
        return self.residual_dim == 0


def decompose(space, knowns):
    """Express the space's basis in the span of the named maps.

    knowns: mapping name -> concrete map.  residual_dim counts the part of
    the space that lies outside that span.  A named map with no slot in the
    ansatz, such as one of another degree, is zero there: it is left out of
    the span and gets coefficient 0.
    """
    ansatz = space.ansatz
    index = ansatz.index
    names = list(knowns)
    live = []
    kvecs = []
    for name in names:
        keyed = ansatz.slot_vector_of_map(knowns[name])
        if keyed:
            live.append(name)
            kvecs.append({index[k]: v for k, v in keyed.items()})
    if span_rank(kvecs) < len(kvecs):
        raise DependentKnowns("the named maps are linearly dependent on this window")
    vecs = space.id_vectors()
    coefficients = []
    for vec in vecs:
        coeffs = express_in_span(vec, kvecs)
        if coeffs is None:
            coefficients.append(None)
        else:
            coefficients.append(dict.fromkeys(names, Q0) | dict(zip(live, coeffs)))
    residual = span_rank(kvecs + vecs) - len(kvecs)
    return DecompositionReport(names, coefficients, residual)


# -- commuting maps -----------------------------------------------------------


@dataclass
class CommutingFamily:
    """Parametric family of linear commuting maps found on a window."""

    parity: int
    window: Window
    parameters: List[str]
    instances: List[tuple]  # (degree shift, slot vector, LinearMap)
    domain: List = field(default_factory=list)
    spaces: Dict[int, SolutionSpace] = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.instances)

    def instantiate(self, values):
        """The member with the given parameter values (list or dict)."""
        if isinstance(values, dict):
            values = [values.get(i, Q0) for i in range(len(self.instances))]
        values = [v if isinstance(v, QRational) else QRational(v) for v in values]
        maps = [f for _, _, f in self.instances]
        coeffs = {i: v for i, v in enumerate(values[:len(maps)]) if not v.is_zero}

        def image(i, g):
            # member i's image of g as terms; a member undefined at g adds nothing
            img = maps[i](g)
            return () if img is None else img.items()

        table = {g: Vector._raw(extend_linear(lambda i: image(i, g), coeffs))
                 for g in self.domain}
        return LinearMap.from_table(self.parity, table)


def solve_commuting_maps(p, parity, window, delta=2, degree_range=(-4, 4)):
    """Stable space of linear maps with [f(x),y] = -(-1)^{|x||y|}[f(y),x]
    and f commuting with the twist, scanned over homogeneous degrees."""
    instances = []
    spaces = {}
    if p.is_scalar:
        degrees = [0]
    else:
        degrees = range(degree_range[0], degree_range[1] + 1)
    for s in degrees:
        space = stable_solve(
            p, "linear", "commuting_map", s=s, parity=parity, window=window,
            delta=delta,
        )
        spaces[s] = space
        for vec in space.basis:
            instances.append((s, vec, map_from_assignment(space.ansatz, vec)))
    return CommutingFamily(
        parity=parity,
        window=window,
        parameters=[f"c{i}" for i in range(len(instances))],
        instances=instances,
        domain=p.gens_in(window),
        spaces=spaces,
    )


# -- parameter constraints ----------------------------------------------------


def _poly_put(poly, mono, c):
    c0 = poly.get(mono)
    c0 = c if c0 is None else c0 + c
    if c0.is_zero:
        poly.pop(mono, None)
    else:
        poly[mono] = c0


def _poly_subs(poly, var, expr):
    """Substitute t_var = expr (a linear poly) into a quadratic poly."""
    out = {}
    for mono, c in poly.items():
        k = mono.count(var)
        if k == 0:
            _poly_put(out, mono, c)
            continue
        rest = tuple(v for v in mono if v != var)
        if k == 1:
            for m2, c2 in expr.items():
                _poly_put(out, tuple(sorted(rest + m2)), c * c2)
        else:
            for m2, c2 in expr.items():
                for m3, c3 in expr.items():
                    _poly_put(out, tuple(sorted(m2 + m3)), c * c2 * c3)
    return out


def _constraint_key(poly):
    """A key that two polys share iff one is a Q(q) multiple of the other:
    the `primitive_part` of their numerators over a common denominator, as
    sorted tuples.  A poly with Laurent coefficients, the usual case, needs
    no division."""
    den = _P1
    for c in poly.values():
        if c.den is not _P1:
            den = den * c.den
    if den is not _P1:
        scale = QRational._trusted(den, _P1)
        poly = {m: c * scale for m, c in poly.items()}
    prim = primitive_part({m: c.num._t for m, c in poly.items()})
    return tuple(sorted((m, tuple(sorted(t.items()))) for m, t in prim.items()))


def _solve_constraints(constraints, depth=0):
    """Solution points of <= quadratic constraints, by factoring and
    substitution.  Returns a list of dicts var -> value; variables absent
    from a dict are free in that branch."""
    if depth > 32:
        raise NonQuadraticConstraint("constraint recursion did not terminate")
    work = []
    for poly in constraints:
        poly = {m: c for m, c in poly.items() if not c.is_zero}
        if not poly:
            continue
        if set(poly) == {()}:
            return []  # a nonzero constant: inconsistent branch
        work.append(poly)
    if not work:
        return [{}]
    # linear constraints: solve for the lowest variable and substitute
    for poly in work:
        if all(len(m) <= 1 for m in poly):
            var = min(m[0] for m in poly if m)
            cvar = poly[(var,)]
            expr = {m: -(c / cvar) for m, c in poly.items() if m != (var,)}
            rest = [_poly_subs(q, var, expr) for q in work if q is not poly]
            out = []
            for sol in _solve_constraints(rest, depth + 1):
                val = Q0
                ok = True
                for m, c in expr.items():
                    if not m:
                        val = val + c
                    elif m[0] in sol:
                        val = val + c * sol[m[0]]
                    else:
                        ok = False
                        break
                if not ok:
                    raise NonQuadraticConstraint(
                        "a solved variable depends on a free parameter"
                    )
                sol = dict(sol)
                sol[var] = val
                out.append(sol)
            return out
    # quadratic: factor out a variable that divides every monomial
    for poly in work:
        common = None
        for mono in poly:
            s = set(mono)
            common = s if common is None else (common & s)
            if not common:
                break
        if common:
            var = min(common)
            zero_branch = [_poly_subs(q, var, {}) for q in work]
            sols = []
            for sol in _solve_constraints(zero_branch, depth + 1):
                sol = dict(sol)
                sol[var] = Q0
                sols.append(sol)
            quotient = {}
            for mono, c in poly.items():
                reduced = list(mono)
                reduced.remove(var)
                _poly_put(quotient, tuple(reduced), c)
            others = [q for q in work if q is not poly] + [quotient]
            for sol in _solve_constraints(others, depth + 1):
                if sol not in sols:
                    sols.append(sol)
            return sols
    raise NonQuadraticConstraint(
        "constraints do not factor into linear pieces over the field"
    )


@dataclass
class CorollaryReport:
    property: str
    parameters: List[str]
    solutions: List[Dict[str, QRational]]
    classifications: List[str]  # zero | identity | other, aligned with solutions

    @property
    def admissible(self):
        return list(zip(self.solutions, self.classifications))


def corollary_check(p, family, prop, window):
    """Which members of a commuting family satisfy the extra property.

    prop is one of automorphism, derivation, super_derivation.  The induced
    parameter constraints (at most quadratic for the automorphism property)
    are collected over interior pairs and solved by factoring; automorphism
    points must also be invertible on the window.
    """
    if prop not in ("automorphism", "derivation", "super_derivation"):
        raise ValueError(f"unknown property {prop!r}")
    if prop == "super_derivation" and not p.is_super:
        raise ValueError("super_derivation needs a super presentation")
    if prop == "derivation" and p.is_super:
        raise ValueError("use super_derivation on a super presentation")
    maps = [f for (_, _, f) in family.instances]
    n = len(maps)
    gens = p.gens_in(window)
    inw = (lambda g: True) if p.is_scalar else (
        lambda g: window.contains(g.degree)
    )
    constraints = {}

    def add_constraint(poly):
        poly = {m: c for m, c in poly.items() if not c.is_zero}
        if poly:
            constraints[_constraint_key(poly)] = poly

    for x in gens:
        vx = Vector.of(x)
        for y in gens:
            vy = Vector.of(y)
            bxy = p.bracket(vx, vy)
            if not all(inw(g) for g in bxy.support()):
                continue
            fx = [f(x) for f in maps]
            fy = [f(y) for f in maps]
            if any(v is None for v in fx + fy) or any(
                f(g) is None for f in maps for g in bxy.terms
            ):
                continue
            fbxy = [extend_linear(lambda g, f=f: f(g).items(), bxy.terms) for f in maps]
            per_gen = {}

            def put(gen, mono, c):
                _poly_put(per_gen.setdefault(gen, {}), mono, c)

            for i in range(n):
                for g, c in fbxy[i].items():
                    put(g, (i,), c)
            if prop == "automorphism":
                for i in range(n):
                    for j in range(n):
                        for g, c in p.bracket(fx[i], fy[j]).items():
                            put(g, tuple(sorted((i, j))), -c)
            else:
                sign = -1 if (x.parity and family.parity) else 1
                for i in range(n):
                    for g, c in p.bracket(fx[i], vy).items():
                        put(g, (i,), -c)
                    for g, c in p.bracket(vx, fy[i]).items():
                        put(g, (i,), -c if sign > 0 else c)
            for poly in per_gen.values():
                add_constraint(poly)
    solutions = _solve_constraints(list(constraints.values()))
    named = []
    classes = []
    for sol in solutions:
        if len(sol) < n:
            continue  # underdetermined branch: not a concrete member
        values = [sol.get(i, Q0) for i in range(n)]
        f = family.instantiate(values)
        if prop == "automorphism" and not _invertible_on_window(p, f, window):
            continue
        named.append({family.parameters[i]: values[i] for i in range(n)})
        classes.append(_classify_map(p, f, window))
    return CorollaryReport(prop, family.parameters, named, classes)


def _classify_map(p, f, window):
    gens = p.gens_in(window)
    if all((f(g) is not None and f(g).is_zero) for g in gens):
        return "zero"
    if all((f(g) is not None and f(g) == Vector.of(g)) for g in gens):
        return "identity"
    return "other"


def _invertible_on_window(p, f, window):
    gens = p.gens_in(window)
    blocks = {}
    for g in gens:
        blocks.setdefault(g.degree, []).append(g)
    for deg, block in blocks.items():
        rows = []
        for g in block:
            img = f(g)
            if img is None:
                return False
            row = {}
            for gg, c in img.items():
                if gg not in block:
                    return False  # the image leaves the block: not bijective
                row[block.index(gg)] = c
            if not row:
                return False
            rows.append(row)
        if span_rank(rows) < len(block):
            return False
    return True
