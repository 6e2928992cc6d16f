from fractions import Fraction

import pytest

from birsphere.errors import NotRealPolynomial, UnsupportedExtension
from birsphere.poly import Poly
from birsphere.positivity import (
    is_real_positive,
    norm_factor,
    quadratic_decomp,
    real_quadratic_factors,
    v_decomp,
)
from birsphere.scalars import CoeffScalar, TowerReal

Z = Poly.z()
I = CoeffScalar.i()
W = Poly([-1, 0, 1])  # z^2 - 1


def test_is_real_positive_examples():
    assert is_real_positive(Z * Z + 3)
    assert not is_real_positive(Z * Z)
    assert not is_real_positive(2 * Z * Z - 1)
    assert not is_real_positive(Poly())
    assert is_real_positive(Poly.const(5))
    with pytest.raises(NotRealPolynomial):
        is_real_positive(Z + Poly.const(I))


def test_norm_factor_examples():
    assert norm_factor(Z * Z + 1) == Z + Poly.const(I)
    assert norm_factor((Z * Z + 1) ** 2) == Z * Z + 1
    p = norm_factor(Z**4 + 5 * Z * Z + 4)
    assert p == Z * Z + Z.scale(3 * I) - 2  # (z+i)(z+2i)


def test_norm_factor_random_products(rng):
    for _ in range(10):
        f = Poly.const(Fraction(rng.randint(1, 5)))
        for _ in range(rng.randint(1, 3)):
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            c = Fraction(rng.randint(1, 9))
            f = f * Poly([b * b + c, -2 * b, 1])
        p = norm_factor(f)
        assert p * p.conj() == f


def test_norm_factor_even_irreducible():
    p = norm_factor(Z**4 + 1)
    assert p * p.conj() == Z**4 + 1
    p = norm_factor(Z**4 + 3 * Z * Z + 1)  # real roots in w, splits over sqrt(5)
    assert p * p.conj() == Z**4 + 3 * Z * Z + 1


def test_norm_factor_unsupported():
    with pytest.raises(UnsupportedExtension):
        norm_factor(Z**4 + Z + 1)  # irreducible non-even quartic needs cube roots


def test_quadratic_decomp_paper_values():
    a, c = quadratic_decomp(Z * Z + 4)
    assert a == Poly.const(CoeffScalar(TowerReal.sqrt_rational(5)))
    assert c == TowerReal.from_rational(1)
    a, c = quadratic_decomp(Z * Z + 1)
    assert a == Poly.const(CoeffScalar(TowerReal.sqrt_rational(2)))
    assert c == TowerReal.from_rational(1)


def test_quadratic_decomp_offcenter():
    f = Z * Z - 2 * Z + 2
    a, c = quadratic_decomp(f)
    assert c == (TowerReal.sqrt_rational(5) - 1) / 2  # root of c^2 + c - 1 in (0,1)
    assert a * a + W.scale(CoeffScalar(c)) == f
    one = TowerReal.from_rational(1)
    assert TowerReal().sign() < c.sign() and not one < c


def test_quadratic_decomp_random(rng):
    for _ in range(10):
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        d = Fraction(rng.randint(1, 5), rng.randint(1, 2))
        f = Poly([b * b + d * d, -2 * b, 1])
        a, c = quadratic_decomp(f)
        assert a * a + W.scale(CoeffScalar(c)) == f
        assert c.sign() > 0 and not TowerReal.from_rational(1) < c


def test_v_decomp_identities():
    for f in (Z * Z + 4, (Z * Z + 4) * (Z * Z + 1), (Z * Z + 1) ** 2 * (Z * Z + 9)):
        a, p = v_decomp(f)
        assert a * a + p * W == f
        assert is_real_positive(p)
    a, p = v_decomp(Z * Z + 4)
    assert a == Poly.const(CoeffScalar(TowerReal.sqrt_rational(5)))
    assert p == Poly.const(1)


def test_v_decomp_constant_boundary():
    a, p = v_decomp(Poly.const(9))
    assert a == Poly.const(3) and not p
    assert a * a + p * W == Poly.const(9)


def test_real_quadratic_factors_reconstruct(rng):
    for f in ((Z * Z + 2) * (Z * Z + 2), (Z * Z + 1) * (Z * Z + 4) * (Z * Z + 9)):
        lead, quads = real_quadratic_factors(f)
        acc = Poly.const(CoeffScalar(lead))
        for q, mult in quads:
            acc = acc * q**mult
        assert acc == f
