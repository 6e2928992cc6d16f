"""Differential tests of the integer-backed scalar core.

The references below are the plain algorithms the core replaced: tower
reals as dicts {radicand: Fraction} with exact Fraction enclosures, and
polynomial multiplication and division as loops of CoeffScalar operations.
The integer representation must give equal results on every input.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from birsphere.poly import Poly
from birsphere.scalars import ZERO, CoeffScalar, TowerReal, rational_content

RADICANDS = (1, 2, 3, 5, 6)

# -- dict-of-Fraction reference for tower reals ------------------------------------------


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m, c in a.items():
        for n, d in b.items():
            g = math.gcd(m, n)
            key = (m // g) * (n // g)
            out[key] = out.get(key, Fraction(0)) + c * d * g
    return {m: c for m, c in out.items() if c}


def _sqrt_interval(m: int, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    lo = math.isqrt(m * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def ref_interval(a: dict, bits: int) -> tuple[Fraction, Fraction]:
    lo = hi = Fraction(0)
    for m, c in a.items():
        slo, shi = _sqrt_interval(m, bits)
        if c >= 0:
            lo, hi = lo + c * slo, hi + c * shi
        else:
            lo, hi = lo + c * shi, hi + c * slo
    return lo, hi


def ref_sign(a: dict) -> int:
    if not a:
        return 0
    bits = 16
    while True:
        lo, hi = ref_interval(a, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


# -- CoeffScalar-loop reference for polynomial multiplication and division -----------------


def ref_poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly()
    out = [CoeffScalar(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def ref_poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    lead_inv = b.lead().inverse()
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return Poly(), a
    quo = [CoeffScalar(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        if len(rem) < len(b.coeffs) + k:
            continue
        c = rem[len(b.coeffs) + k - 1] * lead_inv
        if not c:
            continue
        quo[k] = c
        for j, y in enumerate(b.coeffs):
            rem[j + k] = rem[j + k] - c * y
        while rem and not rem[-1]:
            rem.pop()
    return Poly(quo), Poly(rem)


# -- strategies --------------------------------------------------------------------------------

fractions = st.fractions(min_value=-12, max_value=12, max_denominator=12)
sparse_fractions = st.one_of(st.just(Fraction(0)), fractions)


def tower_terms(radicands=RADICANDS):
    return st.dictionaries(st.sampled_from(radicands), sparse_fractions, max_size=len(radicands))


def coeff_scalars(radicands=RADICANDS):
    parts = tower_terms(radicands).map(TowerReal)
    return st.builds(CoeffScalar, parts, parts)


gaussian_scalars = coeff_scalars((1,))
scalars_any = st.one_of(gaussian_scalars, coeff_scalars())


def polys(coeffs=scalars_any, max_degree=5):
    # zero coefficients are drawn on purpose, also in the leading position
    return st.lists(st.one_of(st.just(ZERO), coeffs), max_size=max_degree + 1).map(Poly)


nonzero_polys = polys().filter(bool)


def assert_canonical(x: TowerReal) -> None:
    num, den = x._num, x._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in num.values())
    assert math.gcd(den, *num.values()) == 1
    if not num:
        assert den == 1


# -- tower reals ---------------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(a=tower_terms(), b=tower_terms())
def test_tower_matches_fraction_reference(a, b):
    x, y = TowerReal(a), TowerReal(b)
    a = {m: c for m, c in a.items() if c}
    b = {m: c for m, c in b.items() if c}
    assert x.terms == a
    assert (x + y).terms == ref_add(a, b)
    assert (x - y).terms == ref_add(a, {m: -c for m, c in b.items()})
    assert (x * y).terms == ref_mul(a, b)
    assert x.sign() == ref_sign(a)
    for bits in (8, 64):
        assert x.interval(bits) == ref_interval(a, bits)
    for v in (x, y, x + y, x * y, -x, x - x):
        assert_canonical(v)


@settings(max_examples=100, deadline=None)
@given(a=tower_terms(), bits=st.integers(4, 80))
def test_tower_sign_near_zero(a, bits):
    # subtracting a rational approximation leaves an element close to zero,
    # whose sign needs several steps of the refinement ladder
    lo, hi = ref_interval(a, bits)
    for q in (lo, hi, (lo + hi) / 2):
        near = ref_add(a, {1: -q})
        assert (TowerReal(a) - q).sign() == ref_sign(near)


@settings(max_examples=200, deadline=None)
@given(a=tower_terms(), b=tower_terms(), k=st.integers(1, 6))
def test_tower_equality_and_hash(a, b, k):
    x, y = TowerReal(a), TowerReal(b)
    # the same value reached two ways has one representation
    again = (x * k + y * k - y * k) / k
    assert again == x and hash(again) == hash(x)
    assert (x == y) == (x.terms == y.terms)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=100, deadline=None)
@given(a=tower_terms())
def test_tower_inverse_is_canonical(a):
    x = TowerReal(a)
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        assert x * inv == TowerReal.from_rational(1)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(scalars_any, max_size=4))
def test_rational_content_matches_fractions(values):
    fracs = [f for c in values for part in (c.re, c.im) for f in part.terms.values()]
    num = math.gcd(*(f.numerator for f in fracs))
    den = math.lcm(*(f.denominator for f in fracs))
    assert rational_content(values) == (Fraction(num, den) if num else 1)


# -- polynomials ---------------------------------------------------------------------------------


def assert_poly_canonical(p: Poly) -> None:
    assert not p.coeffs or p.coeffs[-1]
    for c in p.coeffs:
        assert_canonical(c.re)
        assert_canonical(c.im)


@settings(max_examples=100, deadline=None)
@given(a=polys(gaussian_scalars), b=polys(gaussian_scalars))
def test_gaussian_poly_mul_matches_reference(a, b):
    prod = a * b
    assert prod == ref_poly_mul(a, b)
    assert_poly_canonical(prod)


@settings(max_examples=100, deadline=None)
@given(a=polys(), b=polys())
def test_tower_poly_mul_matches_reference(a, b):
    prod = a * b
    assert prod == ref_poly_mul(a, b)
    assert_poly_canonical(prod)


@settings(max_examples=100, deadline=None)
@given(a=polys(max_degree=7), b=nonzero_polys)
def test_poly_divmod_matches_reference(a, b):
    q, r = a.divmod(b)
    assert (q, r) == ref_poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert_poly_canonical(q)
    assert_poly_canonical(r)


@settings(max_examples=60, deadline=None)
@given(q=polys(), b=nonzero_polys, r=polys())
def test_poly_divmod_recovers_exact_quotient(q, b, r):
    # a = q*b + r cancels its leading terms step after step
    r = r % b
    q2, r2 = (q * b + r).divmod(b)
    assert (q2, r2) == (q, r)
    assert (q * b).exact_div(b) == q
