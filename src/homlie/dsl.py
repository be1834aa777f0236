"""Textual format for algebra presentations (.alg files).

A presentation is a sequence of ';'-terminated statements; '#' starts a line
comment.  Example::

    algebra wittq;
    mode lie;
    family L parity 0 degrees int;
    bracket [L(m), L(n)] = (qnm(n) - qnm(m)) * L(m+n);
    alpha L(m) = (1 + q^m) * L(m);

`degrees int` indexes a family by all integers, `degrees {0, 1, 2}` by a
finite set, and `degrees none` declares a single unindexed symbol (whose
rules then take no degree arguments).  Bracket targets must shift degrees by
exactly m+n, unless the rule carries an explicit trailing `shift <k>`.
Coefficients are expressions in q and the degree variables m, n; sums used
as coefficients must be parenthesized.  qbr(e) and qnm(e) are the two
q-number families, with e integer-affine in m, n.
"""

from __future__ import annotations

import re

from . import coeffexpr as ce
from .algebra import (
    AlgebraPresentation,
    AlphaRule,
    BracketTerm,
    Family,
    PresentationError,
)

ValidationError = PresentationError


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


_RESERVED = frozenset(
    "q m n qbr qnm shift algebra mode family parity degrees bracket alpha "
    "int none lie super".split()
)

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()\[\]{},;=*+\-/^])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    line = 1
    linestart = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - linestart + 1
            )
        kind = m.lastgroup
        val = m.group()
        if kind in ("ws", "comment"):
            line += val.count("\n")
            if "\n" in val:
                linestart = m.start() + val.rindex("\n") + 1
        else:
            tokens.append((kind, val, line, m.start() - linestart + 1))
        pos = m.end()
    tokens.append(("eof", "", line, pos - linestart + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            self.fail(f"expected {value!r}, found {tok[1]!r}", tok)
        return tok

    def expect_name(self):
        tok = self.next()
        if tok[0] != "name":
            self.fail(f"expected an identifier, found {tok[1]!r}", tok)
        return tok[1]

    def expect_int(self):
        sign = 1
        tok = self.next()
        if tok[1] == "-":
            sign = -1
            tok = self.next()
        if tok[0] != "int":
            self.fail(f"expected an integer, found {tok[1]!r}", tok)
        return sign * int(tok[1])

    # -- expressions -----------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term()
            node = (op, node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.parse_factor()
            node = (op, node, rhs)
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok[1] == "-":
            self.next()
            return ("neg", self.parse_factor())
        if tok[1] == "+":
            self.next()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        if base == ("q",):
            aff = self.parse_exponent_affine()
            return ("qpow", aff)
        k = self.parse_exponent_int()
        return ("pow", base, k)

    def parse_exponent_affine(self):
        tok = self.peek()
        if tok[1] == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            aff = ce.as_affine(expr)
            if aff is None:
                self.fail("exponent of q must be integer-affine in m, n", tok)
            return aff
        if tok[0] == "int":
            return (0, 0, int(self.next()[1]))
        if tok[1] == "-":
            self.next()
            inner = self.parse_exponent_affine()
            return (-inner[0], -inner[1], -inner[2])
        if tok[1] in ("m", "n"):
            self.next()
            return (1, 0, 0) if tok[1] == "m" else (0, 1, 0)
        self.fail("expected an exponent", tok)

    def parse_exponent_int(self):
        tok = self.peek()
        if tok[1] == "(":
            self.next()
            k = self.expect_int()
            self.expect(")")
            return k
        return self.expect_int()

    def parse_atom(self):
        tok = self.next()
        if tok[0] == "int":
            return ("num", int(tok[1]))
        if tok[1] == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok[1] == "q":
            return ("q",)
        if tok[1] in ("m", "n"):
            return ("var", tok[1])
        if tok[1] in ("qbr", "qnm"):
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            aff = ce.as_affine(inner)
            if aff is None:
                self.fail(f"argument of {tok[1]} must be integer-affine in m, n", tok)
            return (tok[1], aff)
        self.fail(f"unexpected token {tok[1]!r} in expression", tok)

    # -- targets ---------------------------------------------------------

    def parse_target(self):
        """family name plus affine degree (None for unindexed families)."""
        fam = self.expect_name()
        if self.peek()[1] != "(":
            return fam, None
        self.next()
        expr = self.parse_expr()
        self.expect(")")
        aff = ce.as_affine(expr)
        if aff is None:
            self.fail("degree argument must be integer-affine in m, n")
        return fam, aff

    def parse_rhs_terms(self):
        """Sum of coefficient * target chunks, or a literal 0."""
        tok = self.peek()
        if tok[0] == "int" and tok[1] == "0":
            nxt = self.tokens[self.i + 1]
            if nxt[1] == ";":
                self.next()
                return []
        terms = []
        while True:
            expr = self.parse_term_coeff_target()
            terms.append(expr)
            if self.peek()[1] == "+":
                self.next()
                continue
            return terms

    def parse_term_coeff_target(self):
        """One `<coeff> * F(deg)` chunk (the coefficient may be omitted)."""
        start = self.i
        # try bare target first: IDENT followed by '(' ... ')' then + or ;
        tok = self.peek()
        if tok[0] == "name" and tok[1] not in ("q", "m", "n", "qbr", "qnm"):
            fam, aff = self.parse_target()
            if self.peek()[1] in ("+", ";", "shift"):
                return ("num", 1), fam, aff
            self.i = start
        coeff = self.parse_term_until_target()
        fam, aff = self.parse_target()
        return coeff, fam, aff

    def parse_term_until_target(self):
        """Product whose final factor before a '*' is the target generator."""
        node = None
        while True:
            factor = self.parse_factor()
            node = factor if node is None else ("*", node, factor)
            while self.peek()[1] == "/":
                self.next()
                node = ("/", node, self.parse_factor())
            tok = self.next()
            if tok[1] != "*":
                self.fail("expected '*' before the next factor or the target", tok)
            tok = self.peek()
            if tok[0] == "name" and tok[1] not in ("q", "m", "n", "qbr", "qnm"):
                return node


def parse(text, name=None):
    """Parse a presentation document into an AlgebraPresentation."""
    p = _Parser(text)
    alg_name = name
    mode = None
    families = []
    fam_kinds = {}
    brackets = {}
    alphas = {}
    while p.peek()[0] != "eof":
        head = p.expect_name()
        if head == "algebra":
            alg_name = p.expect_name()
            p.expect(";")
        elif head == "mode":
            mode = p.expect_name()
            if mode not in ("lie", "super"):
                p.fail(f"mode must be lie or super, found {mode!r}")
            p.expect(";")
        elif head == "family":
            fname = p.expect_name()
            if fname in _RESERVED:
                raise ValidationError(f"family name {fname!r} is reserved")
            p.expect("parity")
            parity = p.expect_int()
            p.expect("degrees")
            tok = p.next()
            if tok[1] == "int":
                degrees = "all"
            elif tok[1] == "none":
                degrees = None
            elif tok[1] == "{":
                vals = []
                while True:
                    vals.append(p.expect_int())
                    tok2 = p.next()
                    if tok2[1] == "}":
                        break
                    if tok2[1] != ",":
                        p.fail("expected ',' or '}' in degree list", tok2)
                degrees = tuple(sorted(set(vals)))
            else:
                p.fail("degrees must be 'int', 'none' or a {list}", tok)
            p.expect(";")
            families.append(Family(fname, parity, degrees))
            fam_kinds[fname] = degrees
        elif head == "bracket":
            p.expect("[")
            f1 = p.expect_name()
            v1 = None
            if p.peek()[1] == "(":
                p.next()
                v1 = p.expect_name()
                p.expect(")")
            p.expect(",")
            f2 = p.expect_name()
            v2 = None
            if p.peek()[1] == "(":
                p.next()
                v2 = p.expect_name()
                p.expect(")")
            p.expect("]")
            if (v1, v2) not in ((None, None), ("m", "n")):
                p.fail("bracket slots must be (m, n) or both unindexed")
            p.expect("=")
            chunks = p.parse_rhs_terms()
            shift = 0
            if p.peek()[1] == "shift":
                p.next()
                shift = p.expect_int()
            p.expect(";")
            terms = []
            for coeff, fam, aff in chunks:
                if v1 is None:
                    if aff is not None:
                        raise ValidationError(
                            f"bracket [{f1},{f2}]: unindexed target takes no degree"
                        )
                    terms.append(BracketTerm(coeff, fam, 0))
                else:
                    if aff is None:
                        raise ValidationError(
                            f"bracket [{f1},{f2}]: target {fam} needs a degree"
                        )
                    if aff[:2] != (1, 1):
                        raise ValidationError(
                            f"bracket [{f1},{f2}]: target degree must be m+n plus a constant"
                        )
                    if aff[2] != shift:
                        raise ValidationError(
                            f"bracket [{f1},{f2}]: target degree m+n{aff[2]:+d} "
                            f"does not match the declared shift {shift}"
                        )
                    terms.append(BracketTerm(coeff, fam, aff[2]))
            if (f1, f2) in brackets:
                raise ValidationError(f"duplicate bracket rule [{f1},{f2}]")
            brackets[(f1, f2)] = terms
        elif head == "alpha":
            fname = p.expect_name()
            v = None
            if p.peek()[1] == "(":
                p.next()
                v = p.expect_name()
                p.expect(")")
                if v != "m":
                    p.fail("the twist slot must be named m")
            p.expect("=")
            chunks = p.parse_rhs_terms()
            p.expect(";")
            if len(chunks) != 1:
                raise ValidationError(f"alpha on {fname}: exactly one term required")
            coeff, fam, aff = chunks[0]
            if v is None:
                if aff is not None:
                    raise ValidationError(f"alpha on {fname}: unindexed target takes no degree")
            else:
                if aff != (1, 0, 0):
                    raise ValidationError(f"alpha on {fname}: target degree must be m")
            if fname in alphas:
                raise ValidationError(f"duplicate alpha rule for {fname}")
            alphas[fname] = AlphaRule(coeff, fam)
        else:
            p.fail(f"unknown statement {head!r}")
    if mode is None:
        raise ValidationError("missing 'mode' statement")
    return AlgebraPresentation(
        name=alg_name or "anonymous",
        mode=mode,
        families=families,
        brackets=brackets,
        alphas=alphas,
    )


def load(path):
    """Parse the presentation in the file at path; a file that is not UTF-8
    text raises ParseError, and one that cannot be read, OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse(text)


def _render_coeff(expr):
    text = ce.render(expr)
    return f"({text})"


def serialize(p):
    """Canonical text form; parse(serialize(p)) agrees with p."""
    out = [f"algebra {p.name};", f"mode {p.mode};"]
    for fam in p.families.values():
        if fam.degrees is None:
            deg = "none"
        elif fam.degrees == "all":
            deg = "int"
        else:
            deg = "{" + ", ".join(str(d) for d in fam.degrees) + "}"
        out.append(f"family {fam.name} parity {fam.parity} degrees {deg};")
    for (f1, f2), terms in p.brackets.items():
        indexed = p.families[f1].degrees is not None
        lhs = f"[{f1}(m), {f2}(n)]" if indexed else f"[{f1}, {f2}]"
        if not terms:
            out.append(f"bracket {lhs} = 0;")
            continue
        shift = terms[0].shift if indexed else 0
        chunks = []
        for t in terms:
            if indexed:
                deg = "m+n" if t.shift == 0 else f"m+n{t.shift:+d}"
                chunks.append(f"{_render_coeff(t.coeff)} * {t.target}({deg})")
            else:
                chunks.append(f"{_render_coeff(t.coeff)} * {t.target}")
        stmt = f"bracket {lhs} = " + " + ".join(chunks)
        if indexed and shift:
            stmt += f" shift {shift}"
        out.append(stmt + ";")
    for fname, rule in p.alphas.items():
        indexed = p.families[fname].degrees is not None
        if indexed:
            out.append(
                f"alpha {fname}(m) = {_render_coeff(rule.coeff)} * {rule.target}(m);"
            )
        else:
            out.append(f"alpha {fname} = {_render_coeff(rule.coeff)} * {rule.target};")
    return "\n".join(out) + "\n"
