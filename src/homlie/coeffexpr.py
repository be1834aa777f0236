"""Structure-constant coefficient expressions.

A coefficient expression is a small immutable AST (nested tuples) over the
field indeterminate q and the symbolic degree variables m, n.  It evaluates
to an exact field element once integer degrees are substituted.  Node forms:

    ("num", int | Fraction)        rational literal
    ("q",)                         the indeterminate
    ("var", "m" | "n")             a degree variable
    ("qpow", affine)               q raised to an integer-affine exponent
    ("qbr", affine)                symmetric q-number of an affine argument
    ("qnm", affine)                geometric q-number of an affine argument
    ("+", a, b)  ("-", a, b)  ("*", a, b)  ("/", a, b)
    ("neg", a)   ("pow", a, int)

where affine is a triple (cm, cn, c) standing for cm*m + cn*n + c.
"""

from __future__ import annotations

from fractions import Fraction

from .qfield import QRational, qbracket, qbrace, qpow


def _aff_val(aff, m, n):
    cm, cn, c = aff
    return cm * m + cn * n + c


def evaluate(expr, m=0, n=0):
    """Exact value of the expression at integer degrees (m, n)."""
    tag = expr[0]
    if tag == "num":
        return QRational(expr[1])
    if tag == "q":
        return qpow(1)
    if tag == "var":
        return QRational(m if expr[1] == "m" else n)
    if tag == "qpow":
        return qpow(_aff_val(expr[1], m, n))
    if tag == "qbr":
        return qbracket(_aff_val(expr[1], m, n))
    if tag == "qnm":
        return qbrace(_aff_val(expr[1], m, n))
    if tag == "+":
        return evaluate(expr[1], m, n) + evaluate(expr[2], m, n)
    if tag == "-":
        return evaluate(expr[1], m, n) - evaluate(expr[2], m, n)
    if tag == "*":
        return evaluate(expr[1], m, n) * evaluate(expr[2], m, n)
    if tag == "/":
        return evaluate(expr[1], m, n) / evaluate(expr[2], m, n)
    if tag == "neg":
        return -evaluate(expr[1], m, n)
    if tag == "pow":
        return evaluate(expr[1], m, n) ** expr[2]
    raise ValueError(f"bad expression node {expr!r}")


def variables(expr):
    """Set of degree variables the expression depends on."""
    tag = expr[0]
    if tag == "var":
        return {expr[1]}
    if tag in ("qpow", "qbr", "qnm"):
        cm, cn, _ = expr[1]
        out = set()
        if cm:
            out.add("m")
        if cn:
            out.add("n")
        return out
    if tag in ("num", "q"):
        return set()
    if tag in ("+", "-", "*", "/"):
        return variables(expr[1]) | variables(expr[2])
    if tag == "neg":
        return variables(expr[1])
    if tag == "pow":
        return variables(expr[1])
    raise ValueError(f"bad expression node {expr!r}")


def is_laurent_valued(expr):
    """True when every evaluation lies in Z[q, 1/q]: integer literals, no
    division."""
    tag = expr[0]
    if tag == "num":
        return expr[1].denominator == 1  # an int or an integral Fraction
    if tag in ("q", "var", "qpow", "qbr", "qnm"):
        return True
    if tag in ("+", "-", "*"):
        return is_laurent_valued(expr[1]) and is_laurent_valued(expr[2])
    if tag == "neg":
        return is_laurent_valued(expr[1])
    if tag == "pow":
        return expr[2] >= 0 and is_laurent_valued(expr[1])
    return False


def as_affine(expr):
    """Reduce an AST to an affine triple over m, n; None if not affine-integral."""
    tag = expr[0]
    if tag == "num":
        v = expr[1]
        if isinstance(v, Fraction):
            if v.denominator != 1:
                return None
            v = int(v)
        return (0, 0, v)
    if tag == "var":
        return (1, 0, 0) if expr[1] == "m" else (0, 1, 0)
    if tag == "neg":
        a = as_affine(expr[1])
        return None if a is None else (-a[0], -a[1], -a[2])
    if tag in ("+", "-"):
        a = as_affine(expr[1])
        b = as_affine(expr[2])
        if a is None or b is None:
            return None
        if tag == "+":
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    if tag == "*":
        a = as_affine(expr[1])
        b = as_affine(expr[2])
        if a is None or b is None:
            return None
        if a[0] == a[1] == 0:
            return (a[2] * b[0], a[2] * b[1], a[2] * b[2])
        if b[0] == b[1] == 0:
            return (a[0] * b[2], a[1] * b[2], a[2] * b[2])
        return None
    return None


# -- rendering ------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4}
_ATOM = 5


def render_affine(aff):
    cm, cn, c = aff
    parts = []
    for coeff, name in ((cm, "m"), (cn, "n")):
        if coeff == 0:
            continue
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{coeff}*{name}"
        parts.append(term)
    if c or not parts:
        parts.append(str(c))
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _aff_is_simple(aff):
    cm, cn, c = aff
    nz = (cm != 0) + (cn != 0) + (c != 0)
    if nz > 1:
        return False
    return cm in (0, 1) and cn in (0, 1) and c >= 0


def render(expr):
    """Deterministic text form, parseable back by the presentation grammar."""
    text, _ = _render(expr)
    return text


def _render(expr):
    tag = expr[0]
    if tag == "num":
        v = expr[1]
        if isinstance(v, Fraction):
            if v < 0:
                return f"-{-v.numerator}/{v.denominator}", _PREC["neg"]
            return f"{v.numerator}/{v.denominator}", _PREC["/"]
        return (str(v), _ATOM) if v >= 0 else (str(v), _PREC["neg"])
    if tag == "q":
        return "q", _ATOM
    if tag == "var":
        return expr[1], _ATOM
    if tag == "qpow":
        aff = expr[1]
        if aff == (0, 0, 1):
            return "q", _ATOM
        if _aff_is_simple(aff):
            return f"q^{render_affine(aff)}", _PREC["pow"]
        return f"q^({render_affine(aff)})", _PREC["pow"]
    if tag == "qbr":
        return f"qbr({render_affine(expr[1])})", _ATOM
    if tag == "qnm":
        return f"qnm({render_affine(expr[1])})", _ATOM
    if tag in ("+", "-", "*", "/"):
        p = _PREC[tag]
        lt, lp = _render(expr[1])
        rt, rp = _render(expr[2])
        if lp < p:
            lt = f"({lt})"
        if rp < p or (rp == p and tag in ("-", "/")):
            rt = f"({rt})"
        return f"{lt} {tag} {rt}", p
    if tag == "neg":
        t, p = _render(expr[1])
        if p < _PREC["neg"]:
            t = f"({t})"
        return f"-{t}", _PREC["neg"]
    if tag == "pow":
        t, p = _render(expr[1])
        if p < _ATOM:
            t = f"({t})"
        k = expr[2]
        return (f"{t}^{k}" if k >= 0 else f"{t}^({k})"), _PREC["pow"]
    raise ValueError(f"bad expression node {expr!r}")
