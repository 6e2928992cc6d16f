from fractions import Fraction

import pytest

from birsphere.cli import main
from birsphere.errors import ParseError
from birsphere.parsing import parse_diag, parse_matrix, parse_poly, parse_scalar
from birsphere.poly import Poly
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar, TowerReal

Z = Poly.z()
I = CoeffScalar.i()


def test_grammar_example():
    p = parse_poly("(1-1/2*i)*z^2 + sqrt(3)*z - 2")
    expected = (
        Z.scale(CoeffScalar(TowerReal.sqrt_rational(3)))
        + (Z * Z).scale(CoeffScalar(1, Fraction(-1, 2)))
        - 2
    )
    assert p == expected


def test_rationals_and_powers():
    assert parse_poly("3/4") == Poly.const(Fraction(3, 4))
    assert parse_poly("z^3 - z") == Z**3 - Z
    assert parse_poly("2^-1") == Poly.const(Fraction(1, 2))
    assert parse_poly("-z^2") == -(Z * Z)
    assert parse_poly("2z") == Z.scale(2)
    assert parse_scalar("1/2+i") == CoeffScalar(Fraction(1, 2), 1)


def test_sqrt_literals():
    assert parse_poly("sqrt(9/4)") == Poly.const(Fraction(3, 2))
    assert parse_poly("sqrt(2)*sqrt(2)") == Poly.const(2)
    with pytest.raises(ParseError):
        parse_poly("sqrt(z)")
    with pytest.raises(ParseError):
        parse_poly("sqrt(-2)")


def test_matrix_literal():
    m = parse_matrix("[[0, 1-z^2],[1, 0]]")
    assert m == ProjMat.of(Poly(), Poly([1, 0, -1]), Poly.const(1), Poly())
    with pytest.raises(ParseError):
        parse_matrix("[[1,2],[3]]")


def test_diag_literal():
    """diag(p, q) splits at the comma outside parentheses."""
    assert parse_diag("((z+1)*(z-1), 2-i)") == ProjMat.diag(Z * Z - 1, Poly.const(CoeffScalar(2, -1)))
    for text, message in (("(z)", "diag(...) needs two comma-separated entries"),
                          ("(z, 1) 2", "trailing input from token '2'"), ("(z, 1, 2)", "expected ')', got ','")):
        with pytest.raises(ParseError, match=message.replace("(", r"\(").replace(")", r"\)")):
            parse_diag(text)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("z +")
    with pytest.raises(ParseError):
        parse_poly("q + 1")
    with pytest.raises(ParseError):
        parse_poly("1/(z+1)")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("nope", "unknown builtin 'nope'"),
        ("nope:1/2", "unknown builtin 'nope:1/2'"),
        ("g1p", "rational parameter expected in 'g1p'"),
        ("tau:1", "builtin tau takes no parameter"),
    ],
)
def test_builtin_parse_messages(spec, message, capsys):
    assert main(["classify", f"builtin:{spec}"]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("entry", ["1/0", "0^-1", "z/(z-z)"])
def test_division_by_zero_parse_message(entry, capsys):
    """A zero divisor is reported as such, not as a non-constant one: the
    zero polynomial has degree -1."""
    assert main(["order", f"[[{entry},1],[1,0]]"]) == 2
    assert capsys.readouterr().err == "parse error: division by zero\n"


def test_roundtrip_through_str(rng):
    from conftest import random_poly

    for _ in range(20):
        p = random_poly(rng, rng.randint(0, 4))
        assert parse_poly(str(p)) == p
