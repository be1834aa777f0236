"""Exhaustive exact verification of algebra axioms and map-class membership
over a truncation window.

Each check runs an instance stream of `identities`, which evaluates through
the extension kernel of `algebra` and makes every map value, twist and
generator bracket once per check; the map under test enters it as a
generator rule (`_wrap_map`), which the stream's memo
(`EvalContext.map_values`) calls once per argument tuple.
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


def _collect(p, stream):
    report = CheckReport()
    for name, inputs, lhs, rhs in stream:
        report.checked += 1
        if lhs != rhs:
            report.witnesses.append((name, inputs, Vector(lhs), Vector(rhs)))
    report.witnesses.sort(key=lambda w: (w[0], tuple(p.gen_sort_key(g) for g in w[1])))
    return report


def check_axioms(p, window):
    """Skew/super-skew symmetry and the (super) twisted Jacobi identity."""
    return _collect(p, axiom_instances(p, window))


def check_multiplicative(p, window):
    """Whether the twist map is a bracket homomorphism on the window."""
    return _collect(p, multiplicative_instances(p, window))


def _wrap_map(fn, p, window):
    """A linear or bilinear map as a generator rule of the instance streams:
    its value as term dict items, or OutOfWindow when an argument lies
    outside the window or fn has no value there.  The streams make each
    value once per check (`EvalContext.map_values`)."""
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
    stream = bilinear_instances(
        p, cls, window, _wrap_map(phi, p, window), phi.parity, strict=True
    )
    return _collect(p, stream)


def check_linear_class(p, f, cls, window, k=1):
    """The defining identity of the selected linear class on the window.

    cls is one of derivation, super_derivation, alpha_k_derivation (with
    twist power k) or commuting_map.
    """
    if cls not in LINEAR_CLASSES:
        raise ValueError(f"unknown linear class {cls!r}")
    stream = linear_instances(
        p, cls, window, _wrap_map(f, p, window), f.parity, k=k, strict=True
    )
    return _collect(p, stream)


def check_bilinear_skew(p, phi, window):
    """Whether phi(x,y) = -(-1)^{|x||y|} phi(y,x) holds on window pairs."""
    stream = skew_instances(p, _wrap_map(phi, p, window), window)
    return _collect(p, stream)
