"""Spans around the public functions of homlie's layers.

`Tracer.install` replaces each listed function, in every homlie module that
binds it, with a wrapper that records a span: name, start, end, the index of
the enclosing span and the job id.  Counts come from the public return
values.  Nothing under `src/` knows about this; calls inside `identities`,
`qfield`, `coeffexpr` and `maps` show up as the self time of their callers.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# layer -> (module, public functions)
LAYERS = {
    "algebra": ("homlie.algebra", ("builtin",)),
    "solver": ("homlie.solver", ("build_ansatz", "build_system", "nullspace", "stable_solve")),
    "checker": ("homlie.checker", ("check_bilinear_class", "check_linear_class")),
    "classify": ("homlie.classify", ("decompose", "solve_commuting_maps", "corollary_check")),
}


def _window(w):
    return [w.lo, w.hi]


def _max_bits(basis):
    """Bit length of the largest integer coefficient in a solution basis."""
    bits = 0
    for vec in basis:
        for value in vec.values():
            for pol in (value.num, value.den):
                for _, c in pol.items():  # int or Fraction
                    bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


# span name -> attributes read from the call's return value
ATTRS = {
    "solver.build_ansatz": lambda out: {"window": _window(out.window)},
    "solver.build_system": lambda out: {
        "window": _window(out.ansatz.window), "unknowns": out.nunknowns, "rows": len(out.rows),
    },
    "solver.nullspace": lambda out: {"window": _window(out.ansatz.window), "dim": out.dim},
    "solver.stable_solve": lambda out: {
        "window": _window(out.ansatz.window), "raw_window_dim": out.raw_window_dim,
        "basis_bits": _max_bits(out.basis),
    },
    "checker.check_bilinear_class": lambda out: {"instances": out.checked},
    "checker.check_linear_class": lambda out: {"instances": out.checked},
}


class Tracer:
    """In-memory spans of one process; `take` hands them over per job."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, attrs]
        self.job = None
        self._stack = []
        self._saved = []

    def install(self):
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("homlie")
                            and getattr(mod, fname, None) is original):
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved = []

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        spans = self.spans  # take() empties this list in place
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """The spans recorded since the last call, in call order."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(span_lists):
    """Per-layer metrics of one pass from its jobs' span lists.

    Parent indexes are local to each list.  A span's self time is its
    duration minus the durations of its direct children, which nest inside it.
    """
    total, self_time, calls, counts = Counter(), Counter(), Counter(), Counter()
    enlarged = 0.0
    solves = useful = max_bits = 0
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            duration = end - start
            total[name] += duration
            self_time[name] += duration - covered[i]
            calls[name] += 1
            for key in ("unknowns", "rows", "instances"):
                counts[key] += attrs.get(key, 0)
            if name == "solver.stable_solve":
                solves += 1
                useful += attrs["raw_window_dim"] > 0
                max_bits = max(max_bits, attrs["basis_bits"])
            elif (parent is not None and spans[parent][0] == "solver.stable_solve"
                  and attrs["window"] != spans[parent][5]["window"]):
                enlarged += duration
    metrics = {
        "algebra.builtin.s": total["algebra.builtin"],
        "algebra.builtin.calls": calls["algebra.builtin"],
        "solver.build_system.s": total["solver.build_system"],
        "solver.build_system.calls": calls["solver.build_system"],
        "solver.unknowns": counts["unknowns"],
        "solver.rows": counts["rows"],
        "solver.enlarged.s": enlarged,
        "solver.enlarged_useful_frac": useful / solves if solves else 0.0,
        "solver.nullspace.s": total["solver.nullspace"],
        "solver.stable_solve.self_s": self_time["solver.stable_solve"],
        "solver.basis_max_bits": max_bits,
        "checker.s": total["checker.check_bilinear_class"] + total["checker.check_linear_class"],
        "checker.check_bilinear_class.s": total["checker.check_bilinear_class"],
        "checker.check_linear_class.calls": calls["checker.check_linear_class"],
        "checker.instances": counts["instances"],
        "classify.s": sum(v for k, v in self_time.items() if k.startswith("classify.")),
        "classify.decompose.s": total["classify.decompose"],
        "classify.solve_commuting_maps.calls": calls["classify.solve_commuting_maps"],
        "classify.corollary_check.calls": calls["classify.corollary_check"],
    }
    table = {name: [calls[name], total[name], self_time[name]] for name in sorted(calls)}
    return metrics, table
