import pytest

from homlie import coeffexpr as ce
from homlie.algebra import Vector, Window, builtin
from homlie.dsl import ParseError, ValidationError, load, parse, serialize

try:
    from importlib.resources import files as _files
except ImportError:  # pragma: no cover
    _files = None


def semantically_equal(p1, p2, window=Window(-6, 6)):
    if p1.mode != p2.mode or list(p1.families) != list(p2.families):
        return False
    gens = p1.gens_in(window)
    for g1 in gens:
        if p1.alpha_gens(g1) != p2.alpha_gens(g1):
            return False
        for g2 in gens:
            if p1.bracket_gens(g1, g2) != p2.bracket_gens(g1, g2):
                return False
    return True


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq", "example49"])
def test_round_trip_of_builtins(name):
    p = builtin(name)
    assert semantically_equal(p, parse(serialize(p)))


@pytest.mark.parametrize("name", ["w22q", "wittq", "wittsuperq", "example49"])
def test_shipped_files_agree_with_builtins(name):
    # builtin() hands out one cached presentation per process; after use (its
    # memos filled on a wider window) it must still equal a fresh parse.
    p = builtin(name)
    gens = p.gens_in(Window(-8, 8))
    for g1 in gens:
        p.alpha(Vector.of(g1))
        for g2 in gens:
            p.bracket(Vector.of(g1), Vector.of(g2))
    path = _files("homlie").joinpath("data", f"{name}.alg")
    p2 = parse(path.read_text())
    assert p2 is not p
    assert semantically_equal(builtin(name), p2)


def test_serialized_wittq_mentions_qnm():
    text = serialize(builtin("wittq"))
    assert "qnm(n) - qnm(m)" in text


def test_shift_declaration_round_trip():
    src = """algebra shifted; mode lie;
    family L parity 0 degrees int;
    bracket [L(m), L(n)] = qbr(n-m) * L(m+n+1) shift 1;
    alpha L(m) = (1 + q^m) * L(m);
    """
    p = parse(src)
    again = parse(serialize(p))
    assert semantically_equal(p, again)
    out = p.bracket(Vector.of(p.generator("L", 0)), Vector.of(p.generator("L", 2)))
    (g,) = out.support()
    assert g.degree == 3


def test_undeclared_shift_is_rejected():
    src = """algebra bad; mode lie;
    family L parity 0 degrees int;
    bracket [L(m), L(n)] = qbr(m-n) * L(m+n+1);
    alpha L(m) = (1 + q^m) * L(m);
    """
    with pytest.raises(ValidationError):
        parse(src)


def test_parity_violation_is_rejected():
    src = """algebra bad; mode super;
    family G parity 1 degrees int;
    bracket [G(m), G(n)] = qnm(n) * G(m+n);
    alpha G(m) = (1) * G(m);
    """
    with pytest.raises(ValidationError):
        parse(src)


def test_odd_family_in_lie_mode_is_rejected():
    src = "algebra bad; mode lie; family G parity 1 degrees int; alpha G(m) = (1) * G(m);"
    with pytest.raises(ValidationError):
        parse(src)


def test_alpha_may_retarget_within_parity():
    src = """algebra twisty; mode lie;
    family A parity 0 degrees int;
    family B parity 0 degrees int;
    alpha A(m) = (q^m) * B(m);
    alpha B(m) = (1) * B(m);
    """
    p = parse(src)
    out = p.alpha(Vector.of(p.generator("A", 2)))
    (g,) = out.support()
    assert g.family == "B" and g.degree == 2


# -- grammar productions: accept and reject pairs ------------------------------

_HEADER = """algebra g; mode lie; family L parity 0 degrees int;
alpha L(m) = (1) * L(m);
"""

ACCEPT = [
    "bracket [L(m), L(n)] = 0;",
    "bracket [L(m), L(n)] = qbr(m-n) * L(m+n);",
    "bracket [L(m), L(n)] = (qnm(n) - qnm(m)) * L(m+n);",
    "bracket [L(m), L(n)] = 2 * q^m * L(m+n);",
    "bracket [L(m), L(n)] = q^(m - n + 1) * L(m+n);",
    "bracket [L(m), L(n)] = (1/2) * L(m+n);",
    "bracket [L(m), L(n)] = -qbr(2*m) * L(m+n);",
    "bracket [L(m), L(n)] = (m - n) * L(m+n);",
    "bracket [L(m), L(n)] = (1 + q)^2 * L(m+n);",
    "bracket [L(m), L(n)] = qbr(n-m) * L(m+n) + qnm(m) * L(m+n);",
]

REJECT = [
    "bracket [L(m) L(n)] = 0;",                       # missing comma
    "bracket [L(m), L(n)] = qbr(q) * L(m+n);",        # non-affine q-number arg
    "bracket [L(m), L(n)] = q^q * L(m+n);",           # non-affine exponent
    "bracket [L(m), L(n)] = qbr(m-n) L(m+n);",        # missing '*'
    "bracket [L(m), L(n)] = qbr(m-n) * L(m*n);",      # non-affine degree
    "bracket [L(m), L(n)] = qbr(m-n) * L(n);",        # degree not m+n
    "bracket [L(m), L(n)] = qbr(m-n) * M(m+n);",      # unknown family
    "bracket [L(m), L(n)] = ;",                       # empty right side
    "bracket [L(n), L(m)] = 0;",                      # slots must be (m, n)
    "family shift parity 0 degrees int;",             # reserved name
]


@pytest.mark.parametrize("stmt", ACCEPT)
def test_grammar_accepts(stmt):
    parse(_HEADER + stmt)


@pytest.mark.parametrize("stmt", REJECT)
def test_grammar_rejects(stmt):
    with pytest.raises((ParseError, ValidationError)):
        parse(_HEADER + stmt)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("algebra x;\nmode lie;\nfamily L parity zero degrees int;")
    assert "line 3" in str(err.value)


def test_missing_mode_rejected():
    with pytest.raises(ValidationError):
        parse("algebra x; family L parity 0 degrees int; alpha L(m) = (1) * L(m);")


def test_comments_and_load(tmp_path):
    text = "# a comment\n" + serialize(builtin("wittq"))
    path = tmp_path / "wq.alg"
    path.write_text(text)
    assert semantically_equal(load(path), builtin("wittq"))


def test_finite_degree_list_round_trip():
    src = """algebra finite; mode lie;
    family L parity 0 degrees {0, 1, 2};
    bracket [L(m), L(n)] = (m - n) * L(m+n);
    alpha L(m) = (1) * L(m);
    """
    p = parse(src)
    assert p.families["L"].degrees == (0, 1, 2)
    assert semantically_equal(p, parse(serialize(p)), window=Window(-4, 4))


# -- expression rendering ------------------------------------------------------


@pytest.mark.parametrize("expr", [
    ("qbr", (-1, 1, 0)),
    ("-", ("qnm", (0, 1, 0)), ("qnm", (1, 0, 0))),
    ("+", ("num", 1), ("qpow", (1, 0, 1))),
    ("*", ("num", -2), ("qpow", (0, 0, 3))),
    ("/", ("-", ("num", 1), ("qpow", (0, 0, 3))), ("-", ("num", 1), ("q",))),
    ("pow", ("+", ("num", 1), ("q",)), 2),
    ("neg", ("var", "m")),
])
def test_render_evaluate_round_trip(expr):
    # rendering then parsing through a bracket statement preserves values
    src = _HEADER + f"bracket [L(m), L(n)] = ({ce.render(expr)}) * L(m+n);"
    p = parse(src)
    term = p.brackets[("L", "L")][0]
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert ce.evaluate(term.coeff, m, n) == ce.evaluate(expr, m, n)


def test_field_values_render_parseably():
    # str(QRational) feeds back through the coefficient grammar unchanged
    from homlie.qfield import QRational, qbracket, qbrace, qpow

    values = [
        qbracket(3),
        qbrace(-2),
        qpow(2) + qpow(-2),
        QRational(1) / (QRational(1) - qpow(3)),
        qbracket(2) / (qpow(1) + QRational(5)),
    ]
    for value in values:
        src = _HEADER + f"bracket [L(m), L(n)] = ({value}) * L(m+n);"
        p = parse(src)
        term = p.brackets[("L", "L")][0]
        assert ce.evaluate(term.coeff, 0, 0) == value
