import math
import random
from fractions import Fraction

import pytest

from birsphere.errors import UnsupportedExtension
from birsphere.factor import PSI_12
from birsphere.scalars import CoeffScalar, TowerReal, squarefree_decompose


def sqrt2():
    return TowerReal.sqrt_rational(2)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)


def test_squarefree_decompose_beyond_the_primality_bound():
    """PSI_12 = 399165290221 * 798330580441 passes is_prime, so a cofactor
    at or above it is not trusted as a prime: the square 399165290221^2
    would stay hidden and one real number would get two tower forms."""
    with pytest.raises(UnsupportedExtension):
        squarefree_decompose(PSI_12 * 399165290221)
    # below the bound the test is exact: PSI_12 - 2 is prime
    assert squarefree_decompose(4 * (PSI_12 - 2)) == (2, PSI_12 - 2)


def test_radicand_normalisation():
    # sqrt(8) = 2 sqrt(2), sqrt(1/2) = sqrt(2)/2
    assert TowerReal.sqrt_rational(8) == 2 * sqrt2()
    assert TowerReal.sqrt_rational(Fraction(1, 2)) == sqrt2() / 2


def test_field_axioms_random():
    rng = random.Random(7)
    elems = []
    for _ in range(12):
        x = (
            TowerReal.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            + rng.randint(-3, 3) * TowerReal.sqrt_rational(rng.randint(2, 11))
            + rng.randint(-2, 2) * TowerReal.sqrt_rational(rng.randint(2, 7))
        )
        elems.append(x)
    for x in elems:
        for y in elems:
            assert (x + y) - y == x
            assert x * y == y * x
        if x:
            assert x * x.inverse() == TowerReal.from_rational(1)


def test_sign_decisions():
    x = sqrt2() + TowerReal.sqrt_rational(3) - TowerReal.from_rational(Fraction(314, 100))
    assert x.sign() == 1  # sqrt2+sqrt3 = 3.1462...
    y = sqrt2() + TowerReal.sqrt_rational(3) - TowerReal.from_rational(Fraction(315, 100))
    assert y.sign() == -1
    assert TowerReal().sign() == 0


def test_sign_stable_under_refinement():
    # once decided, finer enclosures agree with the decision: x lies in
    # [lo, lo + 2^-bits] with lo = isqrt(2 4^bits) / 2^bits - q
    q = Fraction(141421356, 100000000)
    x = sqrt2() - TowerReal.from_rational(q)
    s = x.sign()
    for bits in (32, 64, 128, 256):
        lo = Fraction(math.isqrt(2 << 2 * bits), 1 << bits) - q
        assert not (lo > 0 and s < 0)
        assert not (lo + Fraction(1, 1 << bits) < 0 and s > 0)
    assert s == x.sign()


def test_sqrt_denesting():
    v = (TowerReal.from_rational(3) - TowerReal.sqrt_rational(5)) / 2
    r = v.sqrt()
    assert r * r == v
    assert r == (TowerReal.sqrt_rational(5) - 1) / 2
    w = TowerReal.from_rational(9) + 6 * sqrt2()
    assert w.sqrt() == TowerReal.sqrt_rational(3) + TowerReal.sqrt_rational(6)


def test_sqrt_outside_tower():
    with pytest.raises(UnsupportedExtension):
        (TowerReal.from_rational(2) - sqrt2()).sqrt()
    with pytest.raises(ValueError):
        (-TowerReal.from_rational(1)).sqrt()


def test_random_square_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        t = TowerReal.from_rational(rng.randint(-5, 5)) + rng.randint(-3, 3) * TowerReal.sqrt_rational(
            rng.randint(2, 13)
        )
        sq = t * t
        r = sq.sqrt()
        assert r * r == sq
        assert r == abs(t)


def test_complex_scalars():
    i = CoeffScalar.i()
    z = CoeffScalar(Fraction(3, 5), Fraction(4, 5))
    assert z * z.conj() == CoeffScalar(1)
    assert z.conj().conj() == z
    assert (i * i) == CoeffScalar(-1)
    assert z.inverse() * z == CoeffScalar(1)
    assert CoeffScalar(0, -2).sqrt() == CoeffScalar(1, -1)  # (1-i)^2 = -2i
    assert CoeffScalar(3, 4).sqrt() == CoeffScalar(2, 1)  # (2+i)^2 = 3+4i
    with pytest.raises(UnsupportedExtension):
        CoeffScalar(1, 1).sqrt()  # needs the fourth root of 2


def test_conj_fixes_exactly_reals():
    z = CoeffScalar(sqrt2(), TowerReal())
    assert z.conj() == z
    w = CoeffScalar(TowerReal(), sqrt2())
    assert w.conj() != w


def test_equal_values_of_every_kind_hash_alike():
    """Equal values are one dict key whatever their kind: a rational
    TowerReal hashes as its Fraction, a real CoeffScalar as its TowerReal,
    and so do the parts re and im of a complex CoeffScalar."""
    for q in (2, -7, 0, Fraction(3, 4), Fraction(-5, 12)):
        kinds = (
            q,
            Fraction(q),
            TowerReal.from_rational(q),
            CoeffScalar(q),
            CoeffScalar(TowerReal.from_rational(q)),
            CoeffScalar(q, Fraction(1, 7)).re,
            CoeffScalar(sqrt2(), q).im,
        )
        assert all(a == b for a in kinds for b in kinds)
        table = {kinds[0]: q}
        for key in kinds[1:]:
            table[key] = q
        assert len(table) == 1 and all(table[key] == q for key in kinds)
    r = sqrt2() / 3 + 1
    assert {r: 1, CoeffScalar(r): 2, CoeffScalar(r, 5).re: 3, CoeffScalar(sqrt2() * 6, r * 3).im / 3: 4} == {r: 4}
    assert len({CoeffScalar(1, 1), CoeffScalar(1), 1}) == 2


def test_sqrt_calls_are_bounded_by_the_support(monkeypatch):
    """The termination argument of TowerReal.sqrt: an input with k support
    primes takes at most (3^(k+1) - 1)/2 calls of _sqrt, whether it has a
    root or not.  3 + sqrt(2) has none, as 3^2 - 2 = 7 is no rational
    square: its discriminant's root sqrt(7) lies outside Q."""
    calls = []
    inner = TowerReal._sqrt

    def counted(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(TowerReal, "_sqrt", counted)
    s3, s5 = TowerReal.sqrt_rational(3), TowerReal.sqrt_rational(5)
    roots = [1 + sqrt2(), sqrt2() + s3, 1 + sqrt2() - s3 / 2, sqrt2() + s3 + s5, 2 * sqrt2() - s3 + s5 / 3 + 1]
    for x in [r * r for r in roots] + [3 + sqrt2(), 2 - sqrt2(), 5 + sqrt2() + s3]:
        calls.clear()
        try:
            root = x.sqrt()
        except UnsupportedExtension:
            root = None
        k = len(x.support_primes())
        assert len(calls) <= (3 ** (k + 1) - 1) // 2, (x, len(calls))
        assert root is None or (root * root == x and root.sign() >= 0)
    assert [r * r for r in roots] and all(abs(r) == (r * r).sqrt() for r in roots)
    with pytest.raises(UnsupportedExtension):
        (3 + sqrt2()).sqrt()
