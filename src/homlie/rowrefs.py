"""Hand-coded reference rows for the constraint generator.

Each entry fixes one displayed coefficient relation: the class identity it
comes from, the input triple shape, the target family, and the row it must
produce as a function of the integer degrees (m, n, p) and the map degree s.
The cross-check asserts that the generated row for that instance is a scalar
multiple of the reference (scaling is free: rows are only defined up to
content).  Rows that were displayed after earlier unknown tables had been
proved zero list those tables; the comparison drops the corresponding slots
from the generated row.

Naming: `first` / `second` refer to the two defining identities of a
bilinear class, in the order the checker and solver instantiate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from .qfield import QRational, qbracket, qbrace, qpow

Q1 = QRational(1)


def _AB(k):
    # twist coefficient of the two-family deformation: q^k + q^-k
    return qpow(k) + qpow(-k)


def _A(k):
    # twist coefficient of the geometric deformations: 1 + q^k
    return Q1 + qpow(k)


def _B(c, d):
    # bracket coefficient pattern {d} - {c}
    return qbrace(d) - qbrace(c)


def _K(x):
    return qbracket(x)


@dataclass(frozen=True)
class RowRef:
    name: str
    algebra: str
    cls: str
    parity: int
    eq: str  # "eq1" | "eq2"
    inputs: Callable  # (m, n, p) -> ((fam, deg), (fam, deg), (fam, deg))
    target: str
    entries: Callable  # (m, n, p, s) -> [((f1, d1, f2, d2, tf), coeff), ...]
    zero_tables: Tuple = ()
    samples: Tuple = ((0, 1, -1), (2, -1, 1), (-1, 3, 2))


REFS: List[RowRef] = []


def _ref(**kw):
    REFS.append(RowRef(**kw))


# -- one-family deformation, plain biderivations ----------------------------

_ref(
    name="wittq/first/LLL",
    algebra="wittq", cls="biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("L", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("L", m, "L", p, "L"), _A(n) * _B(m + p + s, n)),
        (("L", n, "L", p, "L"), _A(m) * _B(m, n + p + s)),
        (("L", m + n, "L", p, "L"), -(_A(p) * _B(m, n))),
    ],
)

_ref(
    name="wittq/second/LLL",
    algebra="wittq", cls="biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("L", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("L", m, "L", p, "L"), _A(n) * _B(n, m + p + s)),
        (("L", m, "L", n + p, "L"), -(_A(m) * _B(n, p))),
        (("L", m, "L", n, "L"), _A(p) * _B(m + n + s, p)),
    ],
)

# -- two-family deformation, plain biderivations -----------------------------

for _i, _tf in ((1, "L"), (2, "W")):
    _ref(
        name=f"w22q/first/LLL/{_tf}",
        algebra="w22q", cls="biderivation", parity=0, eq="eq1",
        inputs=lambda m, n, p: (("L", m), ("L", n), ("L", p)),
        target=_tf,
        entries=lambda m, n, p, s, tf=_tf: [
            (("L", m, "L", p, tf), _AB(n) * _K(m + p + s - n)),
            (("L", n, "L", p, tf), -(_AB(m) * _K(n + p + s - m))),
            (("L", m + n, "L", p, tf), _AB(p) * _K(n - m)),
        ],
    )
    _ref(
        name=f"w22q/first/LLW/{_tf}",
        algebra="w22q", cls="biderivation", parity=0, eq="eq1",
        inputs=lambda m, n, p: (("L", m), ("L", n), ("W", p)),
        target=_tf,
        entries=lambda m, n, p, s, tf=_tf: [
            (("L", m, "W", p, tf), _AB(n) * _K(m + p + s - n)),
            (("L", n, "W", p, tf), -(_AB(m) * _K(n + p + s - m))),
            (("L", m + n, "W", p, tf), _AB(p) * _K(n - m)),
        ],
    )
    _ref(
        name=f"w22q/second/LLL/{_tf}",
        algebra="w22q", cls="biderivation", parity=0, eq="eq2",
        inputs=lambda m, n, p: (("L", m), ("L", n), ("L", p)),
        target=_tf,
        entries=lambda m, n, p, s, tf=_tf: [
            (("L", m, "L", p, tf), _AB(n) * _K(m + p + s - n)),
            (("L", m, "L", n + p, tf), -(_AB(m) * _K(p - n))),
            (("L", m, "L", n, tf), -(_AB(p) * _K(m + n + s - p))),
        ],
    )
    _ref(
        name=f"w22q/second/WLL/{_tf}",
        algebra="w22q", cls="biderivation", parity=0, eq="eq2",
        inputs=lambda m, n, p: (("W", m), ("L", n), ("L", p)),
        target=_tf,
        entries=lambda m, n, p, s, tf=_tf: [
            (("W", m, "L", p, tf), _AB(n) * _K(m + p + s - n)),
            (("W", m, "L", n + p, tf), -(_AB(m) * _K(p - n))),
            (("W", m, "L", n, tf), -(_AB(p) * _K(m + n + s - p))),
        ],
    )

_ref(
    name="w22q/first/LWL/L",
    algebra="w22q", cls="biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("W", n), ("L", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("W", n, "L", p, "L"), _AB(m) * _K(n + p + s - m)),
        (("W", m + n, "L", p, "L"), -(_AB(p) * _K(n - m))),
    ],
)

_ref(
    name="w22q/first/LWL/W",
    algebra="w22q", cls="biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("W", n), ("L", p)),
    target="W",
    entries=lambda m, n, p, s: [
        (("L", m, "L", p, "L"), _AB(n) * _K(m + p + s - n)),
        (("W", n, "L", p, "W"), -(_AB(m) * _K(n + p + s - m))),
        (("W", m + n, "L", p, "W"), _AB(p) * _K(n - m)),
    ],
)

_ref(
    name="w22q/first/LWW/L",
    algebra="w22q", cls="biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("W", n), ("W", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("W", n, "W", p, "L"), _AB(m) * _K(n + p + s - m)),
        (("W", m + n, "W", p, "L"), -(_AB(p) * _K(n - m))),
    ],
)

_ref(
    name="w22q/first/LWW/W",
    algebra="w22q", cls="biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("W", n), ("W", p)),
    target="W",
    entries=lambda m, n, p, s: [
        (("L", m, "W", p, "L"), _AB(n) * _K(m + p + s - n)),
        (("W", n, "W", p, "W"), -(_AB(m) * _K(n + p + s - m))),
        (("W", m + n, "W", p, "W"), _AB(p) * _K(n - m)),
    ],
)

_ref(
    name="w22q/second/LLW/L",
    algebra="w22q", cls="biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("W", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("L", m, "W", p, "L"), _AB(n) * _K(m + p + s - n)),
        (("L", m, "W", n + p, "L"), -(_AB(m) * _K(p - n))),
    ],
)

_ref(
    name="w22q/second/LLW/W",
    algebra="w22q", cls="biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("W", p)),
    target="W",
    entries=lambda m, n, p, s: [
        (("L", m, "W", p, "W"), _AB(n) * _K(m + p + s - n)),
        (("L", m, "W", n + p, "W"), -(_AB(m) * _K(p - n))),
        (("L", m, "L", n, "L"), -(_AB(p) * _K(m + n + s - p))),
    ],
)

_ref(
    name="w22q/second/WLW/L",
    algebra="w22q", cls="biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("W", m), ("L", n), ("W", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("W", m, "W", p, "L"), _AB(n) * _K(m + p + s - n)),
        (("W", m, "W", n + p, "L"), -(_AB(m) * _K(p - n))),
    ],
)

_ref(
    name="w22q/second/WLW/W",
    algebra="w22q", cls="biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("W", m), ("L", n), ("W", p)),
    target="W",
    entries=lambda m, n, p, s: [
        (("W", m, "W", p, "W"), _AB(n) * _K(m + p + s - n)),
        (("W", m, "W", n + p, "W"), -(_AB(m) * _K(p - n))),
        (("W", m, "L", n, "L"), -(_AB(p) * _K(m + n + s - p))),
    ],
)

# -- two-family super deformation, even super-biderivations -------------------

_ref(
    name="wsuper/even/first/LLG",
    algebra="wittsuperq", cls="super_biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("G", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("L", m, "G", p, "G"), _A(n) * _B(m + p + s + 1, n)),
        (("L", n, "G", p, "G"), _A(m) * _B(m, n + p + s + 1)),
        (("L", m + n, "G", p, "G"), -(_A(p + 1) * _B(m, n))),
    ],
)

_ref(
    name="wsuper/even/second/LLG",
    algebra="wittsuperq", cls="super_biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("G", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("L", m, "G", p, "G"), _A(n) * _B(n, m + p + s + 1)),
        (("L", m, "G", n + p, "G"), -(_A(m) * _B(n, p + 1))),
        (("L", m, "L", n, "L"), _A(p + 1) * _B(m + n + s, p + 1)),
    ],
)

_ref(
    name="wsuper/even/first/GLL",
    algebra="wittsuperq", cls="super_biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("L", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m, "L", p, "G"), _A(n) * _B(m + p + s + 1, n)),
        (("L", n, "L", p, "L"), _A(m + 1) * _B(m + 1, n + p + s)),
        (("G", m + n, "L", p, "G"), -(_A(p) * _B(m + 1, n))),
    ],
)

_ref(
    name="wsuper/even/second/GLL",
    algebra="wittsuperq", cls="super_biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("L", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m, "L", p, "G"), _A(n) * _B(n, m + p + s + 1)),
        (("G", m, "L", n + p, "G"), -(_A(m + 1) * _B(n, p))),
        (("G", m, "L", n, "G"), _A(p) * _B(m + n + s + 1, p)),
    ],
)

_ref(
    name="wsuper/even/first/GLG",
    algebra="wittsuperq", cls="super_biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("G", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("G", m, "G", p, "L"), _A(n) * _B(m + p + s, n)),
        (("G", m + n, "G", p, "L"), -(_A(p + 1) * _B(m + 1, n))),
    ],
)

_ref(
    name="wsuper/even/second/GLG",
    algebra="wittsuperq", cls="super_biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("G", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("G", m, "G", p, "L"), _A(n) * _B(n, m + p + s)),
        (("G", m, "G", n + p, "L"), -(_A(m + 1) * _B(n, p + 1))),
    ],
)

# -- odd super-biderivations ---------------------------------------------------

_ref(
    name="wsuper/odd/first/LLL",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("L", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("L", m, "L", p, "G"), _A(n) * _B(m + p + s + 1, n)),
        (("L", n, "L", p, "G"), _A(m) * _B(m, n + p + s + 1)),
        (("L", m + n, "L", p, "G"), -(_A(p) * _B(m, n))),
    ],
)

_ref(
    name="wsuper/odd/second/LLL",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq2",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("L", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("L", m, "L", p, "G"), _A(n) * _B(n, m + p + s + 1)),
        (("L", m, "L", n + p, "G"), -(_A(m) * _B(n, p))),
        (("L", m, "L", n, "G"), _A(p) * _B(m + n + s + 1, p)),
    ],
)

_ref(
    name="wsuper/odd/first/LLG",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq1",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("G", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("L", m, "G", p, "L"), _A(n) * _B(m + p + s, n)),
        (("L", n, "G", p, "L"), _A(m) * _B(m, n + p + s)),
        (("L", m + n, "G", p, "L"), -(_A(p + 1) * _B(m, n))),
    ],
)

_ref(
    name="wsuper/odd/second/LLG",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq2",
    inputs=lambda m, n, p: (("L", m), ("L", n), ("G", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("L", m, "G", p, "L"), _A(n) * _B(n, m + p + s)),
        (("L", m, "G", n + p, "L"), -(_A(m) * _B(n, p + 1))),
    ],
)

_ref(
    name="wsuper/odd/first/GLL",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq1",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("L", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("G", m, "L", p, "L"), _A(n) * _B(m + p + s, n)),
        (("G", m + n, "L", p, "L"), -(_A(p) * _B(m + 1, n))),
    ],
)

_ref(
    name="wsuper/odd/second/GLL",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq2",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("L", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("G", m, "L", p, "L"), _A(n) * _B(n, m + p + s)),
        (("G", m, "L", n + p, "L"), -(_A(m + 1) * _B(n, p))),
        (("G", m, "L", n, "L"), _A(p) * _B(m + n + s, p)),
    ],
)

_ref(
    name="wsuper/odd/first/GLG",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq1",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("G", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m, "G", p, "G"), _A(n) * _B(m + p + s + 1, n)),
        (("L", n, "G", p, "L"), -(_A(m + 1) * _B(m + 1, n + p + s))),
        (("G", m + n, "G", p, "G"), -(_A(p + 1) * _B(m + 1, n))),
    ],
)

_ref(
    name="wsuper/odd/second/GLG",
    algebra="wittsuperq", cls="super_biderivation", parity=1, eq="eq2",
    inputs=lambda m, n, p: (("G", m), ("L", n), ("G", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m, "G", p, "G"), _A(n) * _B(n, m + p + s + 1)),
        (("G", m, "G", n + p, "G"), -(_A(m + 1) * _B(n, p + 1))),
        (("G", m, "L", n, "L"), _A(p + 1) * _B(m + n + s, p + 1)),
    ],
)

# -- twisted-output (alpha) super-biderivations on the super deformation ------
# These relations were displayed with the tables on mixed-parity pairs
# already proved zero, so the generated rows are compared after dropping
# those slots.

_MIXED_ZERO = (("L", "L"), ("L", "G"), ("G", "L"))

_ref(
    name="wsuper/alpha-even/second/GGL",
    algebra="wittsuperq", cls="alpha_super_biderivation", parity=0, eq="eq2",
    inputs=lambda m, n, p: (("G", m), ("G", n), ("L", p)),
    target="L",
    entries=lambda m, n, p, s: [
        (("G", m, "G", n + p, "L"), _B(n + 1, p)),
        (("G", m, "G", n, "L"), -(_A(p) * _B(m + n + s, p))),
    ],
    zero_tables=_MIXED_ZERO,
    samples=((0, 1, 3), (2, -1, 1), (-1, 3, 2)),
)

_ref(
    name="wsuper/alpha-even/first/GGG",
    algebra="wittsuperq", cls="alpha_super_biderivation", parity=0, eq="eq1",
    inputs=lambda m, n, p: (("G", m), ("G", n), ("G", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m, "G", p, "L"), _A(n + 1) * _B(m + p + s, n + 1)),
        (("G", n, "G", p, "L"), -(_A(m + 1) * _B(m + 1, n + p + s))),
    ],
    zero_tables=_MIXED_ZERO,
)

_ref(
    name="wsuper/alpha-odd/second/GGL",
    algebra="wittsuperq", cls="alpha_super_biderivation", parity=1, eq="eq2",
    inputs=lambda m, n, p: (("G", m), ("G", n), ("L", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m, "G", n + p, "G"), _B(n + 1, p)),
        (("G", m, "G", n, "G"), -(_A(p) * _B(m + n + s + 1, p))),
    ],
    zero_tables=_MIXED_ZERO,
    samples=((0, 1, 3), (2, -1, 1), (-1, 3, 2)),
)

_ref(
    name="wsuper/alpha-odd/first/LGG",
    algebra="wittsuperq", cls="alpha_super_biderivation", parity=1, eq="eq1",
    inputs=lambda m, n, p: (("L", n), ("G", m), ("G", p)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m + n, "G", p, "G"), _B(n, m + 1)),
        (("G", m, "G", p, "G"), -(_A(n) * _B(n, m + p + s + 1))),
    ],
    zero_tables=_MIXED_ZERO,
)

_ref(
    name="wsuper/alpha-odd/first/LGG-swapped",
    algebra="wittsuperq", cls="alpha_super_biderivation", parity=1, eq="eq1",
    inputs=lambda m, n, p: (("L", p), ("G", m), ("G", n)),
    target="G",
    entries=lambda m, n, p, s: [
        (("G", m + p, "G", n, "G"), _B(p, m + 1)),
        (("G", m, "G", n, "G"), -(_A(p) * _B(p, m + n + s + 1))),
    ],
    zero_tables=_MIXED_ZERO,
)


@dataclass(frozen=True)
class CompositeRef:
    """A displayed relation that is an exact sum of two generated rows."""

    name: str
    algebra: str
    cls: str
    parity: int
    parts: Tuple  # names of RowRef entries whose generated rows sum to it
    entries: Callable
    samples: Tuple = ((0, 1, -1), (2, -1, 1), (-1, 3, 2))


COMPOSITES = [
    CompositeRef(
        name="wsuper/alpha-odd/index-exchange",
        algebra="wittsuperq",
        cls="alpha_super_biderivation",
        parity=1,
        parts=("wsuper/alpha-odd/second/GGL", "wsuper/alpha-odd/first/LGG-swapped"),
        entries=lambda m, n, p, s: [
            (("G", m + p, "G", n, "G"), _B(p, m + 1)),
            (("G", m, "G", n + p, "G"), -(_B(p, n + 1))),
        ],
        samples=((0, 1, 3), (2, -1, 1), (-1, 3, 2)),
    ),
]


def ref_by_name(name):
    for ref in REFS:
        if ref.name == name:
            return ref
    raise KeyError(name)


def _instance_row(p, ansatz, ref, sample, s):
    from .qfield import QRational as QR
    from .solver import single_instance_rows

    m, n, pp = sample
    inputs = tuple(p.generator(f, d) for f, d in ref.inputs(m, n, pp))
    total = sum(g.degree for g in inputs) + s
    target = p.generator(ref.target, total)
    rows = single_instance_rows(p, ansatz, inputs)
    row = rows.get((ref.eq, target))
    if row is None:
        raise AssertionError(f"{ref.name}: no generated row at {sample}, s={s}")
    out = {}
    slots = ansatz.slots
    for j, c in row.items():
        key = slots[j]
        fams = (key[0], key[2])
        if fams in ref.zero_tables:
            continue
        out[j] = c if isinstance(c, QR) else QR(c)
    return out


def _reference_row(ansatz, ref, sample, s):
    m, n, pp = sample
    out = {}
    for key, coeff in ref.entries(m, n, pp, s):
        f1, d1, f2, d2, tf = key
        j = ansatz.index[(f1, d1, f2, d2, tf, d1 + d2 + s)]
        c0 = out.get(j)
        c0 = coeff if c0 is None else c0 + coeff
        if c0.is_zero:
            out.pop(j, None)
        else:
            out[j] = c0
    return out


def check_reference(p, ref, sample, s, window):
    """Assert the generated row is a scalar multiple of the reference."""
    from .solver import build_ansatz, span_rank

    ansatz = build_ansatz(
        p, "bilinear", ref.cls, s=s, parity=ref.parity, window=window
    )
    gen = _instance_row(p, ansatz, ref, sample, s)
    refrow = _reference_row(ansatz, ref, sample, s)
    if not gen or not refrow:
        raise AssertionError(f"{ref.name}: empty row at {sample}, s={s}")
    if span_rank([gen, refrow]) != 1:
        raise AssertionError(f"{ref.name}: generated row differs at {sample}, s={s}")
    return True


def check_composite(p, comp, sample, s, window):
    """Assert the displayed relation is an exact combination of two rows."""
    from .solver import build_ansatz, span_rank

    parts = [ref_by_name(name) for name in comp.parts]
    ansatz = build_ansatz(
        p, "bilinear", comp.cls, s=s, parity=comp.parity, window=window
    )
    rows = [_instance_row(p, ansatz, ref, sample, s) for ref in parts]
    out = _reference_row(ansatz, comp, sample, s)
    if span_rank(rows + [out]) != span_rank(rows):
        raise AssertionError(f"{comp.name}: relation not implied at {sample}, s={s}")
    for row in rows:
        if span_rank([row, out]) == 1:
            raise AssertionError(f"{comp.name}: relation trivially equals one row")
    return True


def check_all(window=None, s_values=(0, 1, -2)):
    """Run every reference comparison; returns the number of comparisons."""
    from .algebra import Window, builtin

    if window is None:
        window = Window(-12, 12)
    algebras = {}
    count = 0
    for ref in REFS:
        p = algebras.setdefault(ref.algebra, builtin(ref.algebra))
        for sample, s in zip(ref.samples, s_values):
            check_reference(p, ref, sample, s, window)
            count += 1
    for comp in COMPOSITES:
        p = algebras.setdefault(comp.algebra, builtin(comp.algebra))
        for sample, s in zip(comp.samples, s_values):
            check_composite(p, comp, sample, s, window)
            count += 1
    return count
