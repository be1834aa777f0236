"""Exhaustive exact verification of algebra axioms and map-class membership
over a truncation window.

Each check runs an instance stream of `identities`, which evaluates through
the extension kernel of `algebra` and makes every map value, twist and
generator bracket once per pass; the map under test enters it as a
generator rule (`_wrap_map`).

On a presentation whose rules stay in Z[q, 1/q] (`fast_scalars`) a check
runs its stream once, at q = 2^BITS (`qfield.Packed`), where each product
is one integer product and each zero test exact (`_check`), and reads its
witnesses back into Q(q) with `qfield.unpack`, so a report does not depend
on the ring.  A zero or a witness the packing cannot prove is redone at a
larger b.  The check runs in Q(q) only off Z[q, 1/q]: on presentations with
rational constants, and when a map value has a denominator other than 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .algebra import Vector
from .identities import (
    BILINEAR_CLASSES,
    LINEAR_CLASSES,
    ClassModeMismatch,
    OutOfWindow,
    axiom_instances,
    bilinear_instances,
    linear_instances,
    multiplicative_instances,
    skew_instances,
)
from .qfield import NotLaurent, PackingOverflow, unpack

__all__ = [
    "CheckReport",
    "ClassModeMismatch",
    "check_axioms",
    "check_multiplicative",
    "check_bilinear_class",
    "check_linear_class",
    "check_bilinear_skew",
    "BILINEAR_CLASSES",
    "LINEAR_CLASSES",
]

# the first packing: q = 2^BITS decides every zero whose coefficient bound
# is below 2^(BITS - 1)
BITS = 32


@dataclass
class CheckReport:
    """Outcome of a window check; witnesses hold every failing instance."""

    checked: int = 0
    witnesses: List[Tuple[str, tuple, Vector, Vector]] = field(default_factory=list)

    @property
    def passed(self):
        return not self.witnesses

    def __str__(self):
        if self.passed:
            return f"passed ({self.checked} instances)"
        name, inputs, lhs, rhs = self.witnesses[0]
        args = ", ".join(str(g) for g in inputs)
        return (
            f"failed {len(self.witnesses)}/{self.checked} instances; first: "
            f"{name} at ({args}): {lhs} != {rhs}"
        )


def _collect(p, stream, packed=False):
    """The report of an instance stream; a packed stream's witnesses are
    unpacked into Q(q)."""
    report = CheckReport()
    for name, inputs, lhs, rhs in stream:
        report.checked += 1
        if lhs != rhs:
            if packed:
                lhs = {g: unpack(c) for g, c in lhs.items()}
                rhs = {g: unpack(c) for g, c in rhs.items()}
            report.witnesses.append((name, inputs, Vector(lhs), Vector(rhs)))
    report.witnesses.sort(key=lambda w: (w[0], tuple(p.gen_sort_key(g) for g in w[1])))
    return report


def _check(p, streams):
    """The report of the instances streams(bits) yields, evaluated at
    q = 2^bits or, for bits None, in Q(q).

    A presentation with Laurent rules is read once, at q = 2^BITS; a zero
    or a witness the bound does not prove is redone with more bits, and a
    value off Z[q, 1/q] leaves the report to Q(q).
    """
    bits = BITS if p.fast_scalars else None
    while bits is not None:
        try:
            return _collect(p, streams(bits), packed=True)
        except PackingOverflow as e:
            bits = max(2 * bits, e.bound.bit_length() + 2)
        except NotLaurent:
            bits = None
    return _collect(p, streams(None))


def check_axioms(p, window):
    """Skew/super-skew symmetry and the (super) twisted Jacobi identity."""
    return _check(p, lambda bits: axiom_instances(p, window, bits=bits))


def check_multiplicative(p, window):
    """Whether the twist map is a bracket homomorphism on the window."""
    return _check(p, lambda bits: multiplicative_instances(p, window, bits=bits))


def _wrap_map(fn, p, window):
    """A linear or bilinear map as a generator rule of the instance streams:
    its value as term dict items, or OutOfWindow when an argument lies
    outside the window or fn has no value there.  A stream makes each
    value once (`EvalContext.map_values`)."""
    scalar = p.is_scalar

    def call(*args):
        if not scalar and not all(window.contains(g.degree) for g in args):
            raise OutOfWindow
        v = fn(*args)
        if v is None:
            raise OutOfWindow
        return v.terms.items()

    return call


def check_bilinear_class(p, phi, cls, window):
    """Both defining identities of the selected bilinear class on the window.

    cls is one of biderivation, super_biderivation, alpha_biderivation,
    alpha_super_biderivation.
    """
    if cls not in BILINEAR_CLASSES:
        raise ValueError(f"unknown bilinear class {cls!r}")
    call = _wrap_map(phi, p, window)
    return _check(p, lambda bits: bilinear_instances(
        p, cls, window, call, phi.parity, strict=True, bits=bits
    ))


def check_linear_class(p, f, cls, window, k=1):
    """The defining identity of the selected linear class on the window.

    cls is one of derivation, super_derivation, alpha_k_derivation (with
    twist power k) or commuting_map.
    """
    if cls not in LINEAR_CLASSES:
        raise ValueError(f"unknown linear class {cls!r}")
    call = _wrap_map(f, p, window)
    return _check(p, lambda bits: linear_instances(
        p, cls, window, call, f.parity, k=k, strict=True, bits=bits
    ))


def check_bilinear_skew(p, phi, window):
    """Whether phi(x,y) = -(-1)^{|x||y|} phi(y,x) holds on window pairs."""
    call = _wrap_map(phi, p, window)
    return _check(p, lambda bits: skew_instances(p, call, window, bits=bits))
