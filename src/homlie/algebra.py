"""Graded, parity-tagged algebra presentations given by structure-constant rules.

A presentation lists basis families (each either indexed by all integers, by a
finite set of integers, or a single unindexed symbol), bracket rules for
ordered family pairs, and one twist rule per family.  Brackets for undeclared
ordered pairs are resolved through the declared symmetry mode (skew for plain
algebras, super-skew for superalgebras) or are zero when neither orientation
is declared.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from importlib.resources import files
from typing import NamedTuple, Optional, Union

from . import coeffexpr as ce
from .qfield import QRational

Q0 = QRational(0)
Q1 = QRational(1)


# -- term dicts: generator -> nonzero coefficient in a ring without zero
# divisors, a QRational in Q(q) or a qfield.Packed in Z[q, 1/q], so a product
# of two coefficients is never zero and only sums are tested for zero


def add_terms(a, b):
    """The sum of two term dicts, as a new dict."""
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


def neg_terms(a):
    return {g: -c for g, c in a.items()}


def extend_bilinear(rule, x, y):
    """Bilinear extension over two term dicts of a rule that maps each pair
    of their generators, in order, to (generator, coefficient) pairs."""
    acc = {}
    for g1, c1 in x.items():
        for g2, c2 in y.items():
            terms = rule(g1, g2)
            if not terms:
                continue
            c12 = c1 * c2
            for g, r in terms:
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
    return acc


def extend_linear(rule, x):
    """Linear extension of a generator rule over a term dict."""
    acc = {}
    for g1, c1 in x.items():
        for g, r in rule(g1):
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
    return acc


class UnknownBuiltin(ValueError):
    pass


class UnknownGenerator(KeyError):
    pass


class PresentationError(ValueError):
    """A presentation violates a structural invariant."""


class Generator(NamedTuple):
    family: str
    degree: Optional[int]
    parity: int

    def __str__(self):
        if self.degree is None:
            return self.family
        return f"{self.family}({self.degree})"


class Window(NamedTuple):
    lo: int
    hi: int

    def contains(self, degree):
        return self.lo <= degree <= self.hi

    def widen(self, delta):
        return Window(self.lo - delta, self.hi + delta)

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


class Family(NamedTuple):
    name: str
    parity: int
    degrees: Union[str, tuple, None]  # "all" | finite tuple of ints | None (unindexed)


class BracketTerm(NamedTuple):
    coeff: tuple  # coefficient expression in the two degree slots
    target: str
    shift: int  # target degree is m + n + shift


class AlphaRule(NamedTuple):
    coeff: tuple  # coefficient expression in the single degree slot m
    target: str


class Vector:
    """Finite linear combination of generators with field coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for g, c in items:
                if not isinstance(c, QRational):
                    c = QRational(c)
                if c.is_zero:
                    continue
                c0 = t.get(g)
                if c0 is None:
                    t[g] = c
                else:
                    c0 = c0 + c
                    if c0.is_zero:
                        del t[g]
                    else:
                        t[g] = c0
        self.terms = t

    @classmethod
    def _raw(cls, terms):
        v = object.__new__(cls)
        v.terms = terms
        return v

    @classmethod
    def of(cls, gen, coeff=1):
        coeff = coeff if isinstance(coeff, QRational) else QRational(coeff)
        return cls._raw({gen: coeff}) if not coeff.is_zero else cls._raw({})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return Vector._raw(add_terms(self.terms, other.terms))

    def __neg__(self):
        return Vector._raw(neg_terms(self.terms))

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, QRational):
            if not isinstance(scalar, (int, Fraction)):
                return NotImplemented
            scalar = QRational(scalar)
        if scalar.is_zero:
            return Vector._raw({})
        return Vector._raw({g: scalar * c for g, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def items(self):
        return self.terms.items()

    def get(self, gen):
        return self.terms.get(gen, Q0)

    def support(self):
        return set(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms, key=lambda g: (g.family, g.degree if g.degree is not None else 0)):
            c = self.terms[g]
            cs = str(c)
            if cs == "1":
                parts.append(str(g))
            elif cs == "-1":
                parts.append(f"-{g}")
            elif "+" in cs or "-" in cs.lstrip("-") or "/" in cs:
                parts.append(f"({cs})*{g}")
            else:
                parts.append(f"{cs}*{g}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Vector({str(self)!r})"


class AlgebraPresentation:
    """Immutable structure-constant presentation of a (super)algebra with twist."""

    def __init__(self, name, mode, families, brackets, alphas):
        if mode not in ("lie", "super"):
            raise PresentationError(f"unknown symmetry mode {mode!r}")
        self.name = name
        self.mode = mode
        self.families = {}
        for fam in families:
            if fam.name in self.families:
                raise PresentationError(f"duplicate family {fam.name!r}")
            if fam.parity not in (0, 1):
                raise PresentationError(f"family {fam.name!r}: parity must be 0 or 1")
            if mode == "lie" and fam.parity == 1:
                raise PresentationError(
                    f"family {fam.name!r} is odd but the mode is lie"
                )
            self.families[fam.name] = fam
        if not self.families:
            raise PresentationError("presentation has no families")
        kinds = {fam.degrees is None for fam in self.families.values()}
        if len(kinds) > 1:
            raise PresentationError("cannot mix indexed and unindexed families")
        self.is_scalar = kinds.pop()
        self.brackets = {}
        for (f1, f2), terms in brackets.items():
            self._check_family(f1)
            self._check_family(f2)
            p12 = (self.families[f1].parity + self.families[f2].parity) % 2
            for term in terms:
                self._check_family(term.target)
                if self.families[term.target].parity != p12:
                    raise PresentationError(
                        f"bracket [{f1},{f2}] -> {term.target}: parity mismatch"
                    )
                allowed = set() if self.is_scalar else {"m", "n"}
                bad = ce.variables(term.coeff) - allowed
                if bad:
                    raise PresentationError(
                        f"bracket [{f1},{f2}]: coefficient uses {sorted(bad)}"
                    )
                if self.is_scalar and term.shift:
                    raise PresentationError("unindexed bracket rules cannot shift")
            self.brackets[(f1, f2)] = tuple(terms)
        self.alphas = {}
        for f, rule in alphas.items():
            self._check_family(f)
            self._check_family(rule.target)
            if self.families[rule.target].parity != self.families[f].parity:
                raise PresentationError(f"alpha on {f!r} changes parity")
            allowed = set() if self.is_scalar else {"m"}
            bad = ce.variables(rule.coeff) - allowed
            if bad:
                raise PresentationError(f"alpha on {f!r}: coefficient uses {sorted(bad)}")
            self.alphas[f] = rule
        missing = set(self.families) - set(self.alphas)
        if missing:
            raise PresentationError(f"families without a twist rule: {sorted(missing)}")
        self._order = {f: i for i, f in enumerate(self.families)}
        self._bracket_cache = {}
        self._alpha_cache = {}
        # images of the two tables above in the ring a row stream computes
        # in, one pair of dicts per ring: None for Z[q, 1/q], (prime, point)
        # for F_prime; `solver._rules` fills them
        self._tables = {}
        exprs = [t.coeff for terms in self.brackets.values() for t in terms]
        exprs += [r.coeff for r in self.alphas.values()]
        self.fast_scalars = all(ce.is_laurent_valued(e) for e in exprs)

    @property
    def is_super(self):
        return self.mode == "super"

    def _check_family(self, f):
        if f not in self.families:
            raise PresentationError(f"unknown family {f!r}")

    # -- basis ------------------------------------------------------------

    def generator(self, family, degree=None):
        fam = self.families.get(family)
        if fam is None:
            raise UnknownGenerator(family)
        if fam.degrees is None:
            if degree is not None:
                raise UnknownGenerator(f"{family} takes no degree")
            return Generator(family, None, fam.parity)
        if degree is None:
            raise UnknownGenerator(f"{family} needs a degree")
        return Generator(family, degree, fam.parity)

    def in_domain(self, gen):
        fam = self.families.get(gen.family)
        if fam is None:
            return False
        if fam.degrees is None:
            return gen.degree is None
        if fam.degrees == "all":
            return gen.degree is not None
        return gen.degree in fam.degrees

    def gen_sort_key(self, gen):
        return (self._order[gen.family], gen.degree if gen.degree is not None else 0)

    def gens_in(self, window):
        """Window basis, ordered by family then degree (whole basis if unindexed)."""
        out = []
        for fam in self.families.values():
            if fam.degrees is None:
                out.append(Generator(fam.name, None, fam.parity))
            elif fam.degrees == "all":
                out.extend(
                    Generator(fam.name, d, fam.parity)
                    for d in range(window.lo, window.hi + 1)
                )
            else:
                out.extend(
                    Generator(fam.name, d, fam.parity)
                    for d in sorted(fam.degrees)
                    if window.contains(d)
                )
        return out

    # -- evaluation -------------------------------------------------------

    def _coeff(self, expr, m, n):
        try:
            return ce.evaluate(expr, m, n)
        except ZeroDivisionError:
            raise PresentationError(
                f"coefficient {ce.render(expr)} divides by zero at (m, n) = ({m}, {n})"
            ) from None

    def _terms_at(self, terms, m, n):
        # one entry per target: rule terms aimed at one generator are summed
        out = {}
        for term in terms:
            c = self._coeff(term.coeff, m or 0, n or 0)
            if c.is_zero:
                continue
            fam = self.families[term.target]
            deg = None if fam.degrees is None else m + n + term.shift
            if fam.degrees not in ("all", None) and deg not in fam.degrees:
                continue  # finite index set: targets outside it are truncated away
            g = Generator(term.target, deg, fam.parity)
            out[g] = out[g] + c if g in out else c
        return [(g, c) for g, c in out.items() if not c.is_zero]

    def bracket_gens(self, g1, g2):
        """Bracket of two basis generators as ((generator, coefficient), ...),
        each generator once and each coefficient nonzero."""
        key = (g1, g2)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        if not (self.in_domain(g1) and self.in_domain(g2)):
            raise UnknownGenerator(f"{g1} or {g2}")
        terms = self.brackets.get((g1.family, g2.family))
        if terms is not None:
            out = tuple(self._terms_at(terms, g1.degree, g2.degree))
        else:
            mirror = self.brackets.get((g2.family, g1.family))
            if mirror is not None:
                sign = -1 if (g1.parity * g2.parity) % 2 == 0 else 1
                out = tuple(
                    (g, c * sign)
                    for g, c in self._terms_at(mirror, g2.degree, g1.degree)
                )
            else:
                out = ()
        self._bracket_cache[key] = out
        return out

    def skew_at(self, g1, g2):
        """Whether [g1, g2] = -(-1)^{|g1||g2|} [g2, g1].  A pair whose
        bracket resolves through the mirror rule, or that is declared in
        neither order, is skew by construction; any other is evaluated from
        its two rules without filling the bracket memo, so that testing
        pairs that are never bracketed costs no memory."""
        terms = self.brackets.get((g1.family, g2.family))
        mirror = self.brackets.get((g2.family, g1.family))
        if terms is None or mirror is None:
            return True
        uv = dict(self._terms_at(terms, g1.degree, g2.degree))
        vu = dict(self._terms_at(mirror, g2.degree, g1.degree))
        return uv == (vu if g1.parity and g2.parity else neg_terms(vu))

    def alpha_gens(self, g):
        cached = self._alpha_cache.get(g)
        if cached is not None:
            return cached
        if not self.in_domain(g):
            raise UnknownGenerator(str(g))
        rule = self.alphas[g.family]
        c = self._coeff(rule.coeff, g.degree or 0, 0)
        fam = self.families[rule.target]
        if c.is_zero:
            out = ()
        else:
            out = ((Generator(rule.target, g.degree, fam.parity), c),)
        self._alpha_cache[g] = out
        return out

    def bracket(self, x, y):
        """Bilinear extension of the bracket rules to vectors."""
        return Vector._raw(extend_bilinear(self.bracket_gens, x.terms, y.terms))

    def alpha(self, x):
        """Linear extension of the twist rules to vectors."""
        return Vector._raw(extend_linear(self.alpha_gens, x.terms))

    def parity_of(self, family):
        return self.families[family].parity

    def __repr__(self):
        return f"<AlgebraPresentation {self.name} mode={self.mode} families={list(self.families)}>"


# -- built-in presentations -------------------------------------------------

BUILTIN_NAMES = ("w22q", "wittq", "wittsuperq", "example49")


@cache
def builtin(name):
    """One of the shipped presentations: w22q, wittq, wittsuperq, example49.

    Each is parsed from `data/<name>.alg` once per process; the result is
    shared, which is safe because a presentation changes only its memos.
    """
    if name not in BUILTIN_NAMES:
        raise UnknownBuiltin(name)
    from . import dsl  # dsl imports this module

    return dsl.parse(files(__package__).joinpath("data", f"{name}.alg").read_text("utf-8"))
