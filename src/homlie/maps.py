"""Concrete linear and bilinear maps on a presentation's basis.

A map is given either by a closed-form rule (a Python callable on generators)
or by a finite table.  Evaluations outside a table return None, which the
checker treats as a window boundary.  Maps carry their parity and, when
degree-homogeneous, the degree shift.
"""

from __future__ import annotations


class LinearMap:
    __slots__ = ("parity", "degree", "_fn")

    def __init__(self, parity, fn, degree=None):
        self.parity = parity
        self.degree = degree
        self._fn = fn

    @classmethod
    def from_table(cls, parity, table, degree=None):
        return cls(parity, table.get, degree=degree)

    @classmethod
    def from_rule(cls, parity, rule, degree=None):
        return cls(parity, rule, degree=degree)

    def __call__(self, *gens):
        return self._fn(*gens)


class BilinearMap(LinearMap):
    """A LinearMap of two generators; a table is keyed by their pair."""

    __slots__ = ()

    @classmethod
    def from_table(cls, parity, table, degree=None):
        return cls(parity, lambda g1, g2: table.get((g1, g2)), degree=degree)
