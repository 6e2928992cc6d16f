import functools
import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birsphere import factor
from birsphere.errors import NotRationalPolynomial, NotRealPolynomial
from birsphere.poly import (
    ONE_MINUS_Z2,
    Poly,
    RealAlgebraic,
    _canonical_minpoly,
    _integer_coeffs,
    cauchy_bound,
    factor_rational_poly,
    galois_norm_poly,
    isolate_real_roots_poly,
    monic_square_root,
    poly_gcd,
    real_roots_in_tower_poly,
    real_sign_at,
    squarefree_decomposition,
    sturm_count,
)
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import HyperellipticModel

from conftest import ref_roots_of_rational_poly, ref_square_split

Z = Poly.z()
I = CoeffScalar.i()


def test_conjugation_examples():
    assert (Z + Poly.const(I)).conj() == Z - Poly.const(I)
    assert (Z * Z - 2).conj() == Z * Z - 2
    assert (Z * Z).scale(CoeffScalar(1, 1)).conj() == (Z * Z).scale(CoeffScalar(1, -1))


def test_reflect_examples():
    assert (Z * Z + Z).reflect_z() == Z * Z - Z
    assert ONE_MINUS_Z2.reflect_z() == ONE_MINUS_Z2
    assert Z.scale(I).reflect_z() == Z.scale(-I)


def test_involutions_commute(rng):
    from conftest import random_poly

    for _ in range(20):
        p = random_poly(rng, rng.randint(0, 5))
        assert p.conj().conj() == p
        assert p.reflect_z().reflect_z() == p
        assert p.conj().reflect_z() == p.reflect_z().conj()


def test_degree_marker():
    assert Poly().degree == -1
    assert Poly.const(3).degree == 0


def test_divmod_and_gcd():
    a = (Z * Z + 1) * (Z - 2)
    b = (Z * Z + 1) * (Z + 5)
    assert poly_gcd(a, b) == Z * Z + 1
    q, r = a.divmod(Z * Z + 1)
    assert q == Z - 2 and not r


def test_sturm_examples():
    assert sturm_count(2 * Z * Z - 1) == 2
    assert sturm_count(Z * Z + 3) == 0
    assert sturm_count(Z - Fraction(1, 2)) == 1
    # roots at 0 and at the first split point 1 of (0, inf) count once each
    assert sturm_count(Z * (Z - 1)) == 2


_ROOT_FACTOR = st.tuples(
    st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(lambda c: c[-1]), st.integers(1, 3)
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ROOT_FACTOR, min_size=1, max_size=3))
def test_sturm_counts_repeated_roots_like_sympy(parts):
    """Products with repeated factors: sturm_count counts the distinct real
    roots."""
    from conftest import ref_real_roots

    p = Poly.const(1)
    for coeffs, k in parts:
        p = p * Poly.from_rational_coeffs(coeffs) ** k
    b = cauchy_bound(p)
    assert sturm_count(p) == len(ref_real_roots(p, -b, b))


def reference_strip(p: Poly) -> Poly:
    """p divided by gcd(p, dp/dz): the square-free part that the real-root
    paths once took before building a Sturm chain."""
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g) if g.degree > 0 else p


# -- the Sturm oracle: real-root counts and isolation by Sturm's theorem --------------------


def _euclid_chain(p: Poly) -> list[Poly]:
    """p, dp/dz and the negated remainders, ending in a multiple of gcd(p, p')."""
    chain, q = [p], p.derivative()
    while q:
        chain.append(q)
        q = -(chain[-2] % q)
    return chain


def sturm_chain(p: Poly) -> list[Poly]:
    """The Sturm chain of the square-free part s of a real p: Euclid's chain
    of p and dp/dz, every member divided exactly by the monic associate of
    its last member g = gcd(p, dp/dz).  Consecutive divided members have
    gcd 1, the remainder relations still hold, and (dp/dz)/g has the sign of
    s' at every root, so V(lo) - V(hi) counts the distinct real roots of p
    in (lo, hi]."""
    chain = _euclid_chain(p)
    if chain[-1].degree > 0:
        g = chain[-1].monic()
        chain = [q.exact_div(g) for q in chain]
    return chain


def _chain_variations_at(chain, x: Fraction | None, side: int) -> int:
    """Sign variations of the chain at x; None is -infinity (side -1) or
    +infinity (side +1)."""
    signs = []
    for q in chain:
        if x is None:
            s = q.lead().as_real().sign()
            s = -s if side < 0 and q.degree % 2 else s
        else:
            s = real_sign_at(q, x)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_count(chain: list[Poly], lo: Fraction | None, hi: Fraction | None) -> int:
    """The roots of chain[0] in (lo, hi), given its Sturm chain: V counts
    (lo, hi], so hi is dropped when it is a root."""
    count = _chain_variations_at(chain, lo, -1) - _chain_variations_at(chain, hi, +1)
    return count - (hi is not None and real_sign_at(chain[0], hi) == 0)


_Q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _repeated_factor_polys(draw):
    """p = c f g^2 (z - q)^3: f a monic quadratic, g monic linear or
    quadratic, plus sqrt(2) or sqrt(3) in the tower case.  Leads are nonzero
    by construction, so nothing is filtered."""
    q = draw(_Q)
    f = Poly.from_rational_coeffs([draw(_Q), draw(_Q), 1])
    if draw(st.booleans()):
        g = Z - draw(_Q)
    else:
        g = Poly.from_rational_coeffs([draw(_Q), draw(_Q), 1])
    if draw(st.booleans()):
        g = g + Poly.const(CoeffScalar(TowerReal.sqrt_rational(draw(st.sampled_from([2, 3])))))
    c = draw(st.sampled_from([Fraction(-3), Fraction(1), Fraction(1, 2)]))
    return (f * g * g * (Z - q) ** 3).scale(c)


@settings(max_examples=40, deadline=None)
@given(_repeated_factor_polys())
def test_counts_and_roots_match_the_stripped_reference(p):
    """p with multiple roots answers as its gcd-stripped s does, on the
    rational and the tower path alike: the count of the Sturm oracle, and
    the same real roots with the same intervals."""
    s = reference_strip(p)
    assert sturm_chain(p)[0] == s
    assert sturm_count(p) == sturm_count(s) == _sturm_reference_count(s, None, None)
    roots = [(r.minpoly, r.lo, r.hi) for r in real_roots_in_tower_poly(p)]
    assert roots == [(r.minpoly, r.lo, r.hi) for r in real_roots_in_tower_poly(s)]


def _sturm_reference_count(p: Poly, lo, hi) -> int:
    """sturm_count as the Sturm chain computes it, for any real p."""
    if p.degree <= 0 or (lo is not None and hi is not None and lo >= hi):
        return 0
    return _chain_count(_euclid_chain(p) if lo is None and hi is None else sturm_chain(p), lo, hi)


def _sturm_reference_isolation(s: Poly) -> list[tuple[Fraction, Fraction]]:
    """The Sturm isolation of a square-free rational s: bisect (-b, b) at
    midpoints, each moved halfway to the upper end while it is a root, and
    report the intervals that hold one root."""
    chain = sturm_chain(s)
    b = cauchy_bound(s)
    out, todo = [], [(-b, b, _chain_count(chain, -b, b))]
    while todo:
        lo, hi, n = todo.pop()
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            while not s(mid):
                mid = (mid + hi) / 2
            left = _chain_count(chain, lo, mid)
            todo += [(lo, mid, left), (mid, hi, n - left)]
    return sorted(out)


# roots at 0 (the first split point of (-b, b)), at dyadic split points of
# (0, 1) and (-1, 1), and elsewhere; factors with 2^70-sized coefficients
# and a tiny lead; every root may be multiple
_DYADIC = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1)])
_BIG = st.integers(-(2**70), 2**70)
_DIFF_FACTOR = st.one_of(
    st.builds(lambda q: Z - q, st.one_of(_DYADIC, _Q)),
    st.builds(lambda a, b: Poly.from_rational_coeffs([a, b, 1]), st.one_of(_Q, _BIG), st.one_of(_Q, _BIG)),
    st.builds(lambda a, c: Poly.from_rational_coeffs([a, 1, Fraction(1, c)]), _Q, st.sampled_from([2**70, 3])),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_DIFF_FACTOR, st.integers(1, 2)), min_size=1, max_size=4), st.data())
def test_descartes_matches_the_sturm_reference(parts, data):
    """Counts and isolating intervals of rational polynomials by Descartes'
    rule equal those of the Sturm chain: the count on the whole line, and
    the intervals exactly."""
    p = Poly.const(data.draw(st.sampled_from([1, -3, Fraction(1, 2)])))
    for f, k in parts:
        p = p * f**k
    assert sturm_count(p) == _sturm_reference_count(p, None, None)
    s = sturm_chain(p)[0]
    assert isolate_real_roots_poly(s) == _sturm_reference_isolation(s)


def _reference_norm(p: Poly) -> Poly:
    """The Galois norm from CoeffScalar coefficients: p times its conjugate
    for every nonempty subset of the primes of its coefficients' radicands,
    each rebuilt coefficient by coefficient from its terms {m: q}, the term
    negated when an odd number of the subset's primes divide m."""
    primes = sorted(set().union(*(c.as_real().support_primes() for c in p.coeffs)))
    result = p
    for mask in range(1, 1 << len(primes)):
        flips = [q for k, q in enumerate(primes) if mask >> k & 1]

        def conj(c):
            terms = c.as_real().terms.items()
            return TowerReal({m: -x if sum(m % q == 0 for q in flips) % 2 else x for m, x in terms})

        result = result * Poly([conj(c) for c in p.coeffs])
    return result


_SQRT = st.sampled_from([2, 3, 6]).map(lambda d: CoeffScalar(TowerReal.sqrt_rational(d)))
# rational roots (ends at roots), z - q - a sqrt(d), and quadratics with a
# tower coefficient; each factor may be squared
_TOWER_FACTOR = st.one_of(
    st.builds(lambda q: Z - q, st.one_of(_DYADIC, _Q)),
    st.builds(lambda q, a, r: Z - q - Poly.const(r * a), _Q, st.sampled_from([1, -1, Fraction(1, 2)]), _SQRT),
    st.builds(lambda b, c, r: Z * Z + Z.scale(r + b) + c, _Q, _Q, _SQRT),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(_TOWER_FACTOR, st.integers(1, 2)), min_size=1, max_size=3), st.data())
def test_tower_paths_match_the_sturm_oracle(parts, data):
    """Tower polynomials, counted and solved through their rational Galois
    norm, against the Sturm oracle: a count on the whole line, and real
    roots that number as many as the oracle counts, increase strictly, and
    are roots of p: a rational one is a zero of p, and an irrational one,
    narrowed until the oracle finds no other root of the norm in its
    interval, has an oracle count of 1 there.  The norm equals the one
    rebuilt coefficient by coefficient."""
    p = Poly.const(data.draw(st.sampled_from([1, -3, CoeffScalar(TowerReal.sqrt_rational(2)) - 1])))
    for f, k in parts:
        p = p * f**k
    norm = galois_norm_poly(p)
    assert norm == _reference_norm(p)
    found = real_roots_in_tower_poly(p)
    assert len(found) == sturm_count(p) == _sturm_reference_count(p, None, None)
    assert all(a < b for a, b in zip(found, found[1:]))
    for r in found:
        if r.is_rational():
            assert not p(r.as_rational())
            continue
        bits = 16
        while _sturm_reference_count(norm, r.lo, r.hi) > 1:
            r, bits = r.refined(bits), 2 * bits
        assert _sturm_reference_count(p, r.lo, r.hi) == 1


def test_rational_paths_reject_other_input():
    """isolate_real_roots_poly, cauchy_bound and roots_of_rational_poly take
    rational polynomials only; a tower or Gaussian one is a typed error, not
    wrong intervals or roots."""
    r2 = CoeffScalar(TowerReal.sqrt_rational(2))
    for p in (Z * Z - Poly.const(r2), Z + Poly.const(I)):
        for rational_only in (isolate_real_roots_poly, cauchy_bound, RealAlgebraic.roots_of_rational_poly):
            with pytest.raises(NotRationalPolynomial):
                rational_only(p)


def test_root_finding_rejects_the_zero_polynomial():
    """The zero polynomial vanishes everywhere, so root finding raises, as
    sturm_count does, instead of answering "no roots"; a nonzero constant
    has none."""
    for find in (real_roots_in_tower_poly, RealAlgebraic.roots_of_rational_poly):
        with pytest.raises(ValueError, match="zero polynomial"):
            find(Poly())
        assert find(Poly.const(Fraction(-7, 3))) == []


def test_sturm_rejects_imaginary():
    with pytest.raises(NotRealPolynomial):
        sturm_count(Z + Poly.const(I))


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_sturm_against_scanning_oracle():
    """Every isolated root is witnessed by a sign change at bracketing
    rational samples, and a scan between the brackets finds no other."""
    rng = random.Random(99)
    for _ in range(100):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = Poly.from_rational_coeffs(coeffs)
        g = poly_gcd(p, p.derivative())
        reduced = p.exact_div(g) if g.degree > 0 else p
        rcoeffs = reduced.rational_coeffs()
        lo, hi = Fraction(-8), Fraction(8)  # beyond the Cauchy bound for these polys
        intervals = isolate_real_roots_poly(reduced)
        assert sturm_count(p) == len(intervals)
        for a, b in intervals:
            assert _horner(rcoeffs, a) * _horner(rcoeffs, b) < 0, (coeffs, a, b)
        # no sign change away from the isolating intervals
        samples = sorted(
            [lo, hi]
            + [x for pair in intervals for x in pair]
            + [lo + (hi - lo) * Fraction(k, 64) for k in range(65)]
        )
        inside = lambda x: any(a <= x <= b for a, b in intervals)
        prev = None
        for x in samples:
            if inside(x):
                prev = None
                continue
            val = _horner(rcoeffs, x)
            s = (val > 0) - (val < 0)
            assert s != 0 or inside(x)
            if prev is not None:
                assert s == prev, (coeffs, x)
            prev = s


def test_squarefree_decomposition_examples():
    """The radicals (z^2 + 1)(z^2 + 4), z and -(z^2 - 1), read off the split
    p = lead * prod f_k^k with the f_k monic."""
    assert squarefree_decomposition((Z * Z + 1) ** 2 * (Z * Z + 4)) == [(Z * Z + 4, 1), (Z * Z + 1, 2)]
    assert squarefree_decomposition(Z**3) == [(Z, 3)]
    assert squarefree_decomposition(-2 * Z * Z + 2) == [(Z * Z - 1, 1)]
    assert HyperellipticModel.of_determinant(2 * Z * Z - 2).m == Z * Z - 1
    assert ref_square_split(2 * Z * Z - 2) == (Z * Z - 1, Poly.const(1), 2)


def test_monic_square_root_examples():
    """p = lead(p) s^2, s monic, or None: odd degree; a lead that is not a
    square; a negative lead; z^2 + 1, a sum of squares, and (z + 1)^2 + 1,
    whose recurrence divides exactly; squares over the tower and over Q(i);
    and entries above 2^64."""
    r2 = CoeffScalar(TowerReal.sqrt_rational(2))
    i = CoeffScalar.i()
    assert monic_square_root(Z**3) is None and monic_square_root(Z**3 + 1) is None
    assert monic_square_root(2 * (Z + 1) ** 2) == Z + 1
    assert monic_square_root(-3 * (Z + 1) ** 2 * (Z - 2) ** 2) == (Z + 1) * (Z - 2)
    assert monic_square_root(Z * Z + 1) is None and monic_square_root((Z + 1) ** 2 + 1) is None
    assert monic_square_root(Poly.const(Fraction(-2, 3))) == Poly.const(1)
    assert monic_square_root((Z.scale(r2) + 1) ** 2) == Z + Poly.const(r2 / 2)
    assert monic_square_root((Z.scale(r2) + 1) ** 2 + Z) is None
    assert monic_square_root((Z + Poly.const(i)) ** 2 * (Z - 2).scale(i) ** 2) == (Z + Poly.const(i)) * (Z - 2)
    big = Z**3 + Z * Z * 2**70 + Poly.const(3**45)
    assert monic_square_root((big * big).scale(Fraction(5, 7))) == big
    assert monic_square_root(big * big + Poly.const(1)) is None
    assert monic_square_root(((big * (Z + Poly.const(r2))) ** 2).scale(1 + r2)) == big * (Z + Poly.const(r2))


def test_split_square_class():
    """The square class of p is -m in the fixed-curve model of
    D = -p, for p of negative lead, as -D always has."""
    for p, m in (
        (-(Z * Z - 1) ** 2, Poly.const(1)),
        (-3 * (Z * Z + 1) ** 2 * (Z * Z + 4), Z * Z + 4),
    ):
        _, scale, content = ref_square_split(-p)
        assert HyperellipticModel.of_determinant(-p).m == m and p == (m * scale * scale).scale(-content)


def test_factor_rational():
    const, factors = factor_rational_poly(Z**4 + 5 * Z * Z + 4)
    polys = sorted(str(f) for f, _ in factors)
    assert const == 1 and polys == ["z^2+1", "z^2+4"]


def _sympy_factor(coeffs):
    """factor_rational_poly's contract computed by sympy.factor_list: the
    lead, and the monic factors' ascending coefficients with multiplicity."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))
    const, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    lead = Fraction(const.p, const.q)
    out = []
    for f, mult in factors:
        fc = [Fraction(c.p, c.q) for c in reversed(f.all_coeffs())]
        lead *= fc[-1] ** mult
        out.append(([c / fc[-1] for c in fc], mult))
    return lead, out


def _assert_factors_like_sympy(p):
    const, factors = factor_rational_poly(p)
    assert (const, [(f.rational_coeffs(), m) for f, m in factors]) == _sympy_factor(p.rational_coeffs())


SD4 = Z**4 - 10 * Z**2 + 1  # the minimal polynomial of sqrt2 + sqrt3
SD8 = Z**8 - 40 * Z**6 + 352 * Z**4 - 960 * Z**2 + 576  # of sqrt2 + sqrt3 + sqrt5
# lead 3*5*7*11*13, so the small primes are skipped
LEAD_15015 = (3 * Z - 1) * (5 * Z + 2) * (7 * Z - 3) * (11 * Z + 4) * (13 * Z - 5) * (Z * Z + 1)


@pytest.mark.parametrize(
    "p",
    [
        SD4,
        SD8,
        Z**6 + 1,
        Z**12 - 1,
        (Z * Z - 2) ** 3 * (Z + 1) ** 2,
        LEAD_15015,
        Poly(),
        Poly.const(Fraction(-7, 3)),
    ],
    ids=["SD4", "SD8", "x6+1", "x12-1", "sq-cube", "lead-15015", "zero", "constant"],
)
def test_factor_rational_matches_sympy_examples(p):
    _assert_factors_like_sympy(p)


def test_factor_rational_contract_examples():
    const, factors = factor_rational_poly(Fraction(-2, 3) * SD4 * (Z - Fraction(1, 2)) ** 2)
    assert const == Fraction(-2, 3) and factors == [(Z - Fraction(1, 2), 2), (SD4, 1)]


def test_least_suitable_prime():
    """The prime is the least one not dividing lead(f) disc(f)."""
    import sympy

    from birsphere.factor import suitable_prime

    x = sympy.Symbol("x")
    for p, expected in ((LEAD_15015, 19), (SD8, 7)):
        f = [int(c) for c in p.rational_coeffs()]
        sp = sympy.Poly(list(reversed(f)), x)
        witness = sp.LC() * sp.discriminant()
        assert all(witness % q == 0 for q in sympy.primerange(2, expected))
        assert witness % expected != 0
        assert suitable_prime(f)[0] == expected


def test_factors_found_below_the_bound_are_primitive():
    """3x^2 + x with p = 2: at m = 4 the symmetric residue of 3 x is -x,
    a factor with negative lead until it is made primitive."""
    assert factor.factor_squarefree([0, 1, 3]) == [[0, 1], [1, 3]]


@pytest.mark.parametrize(
    "parts, prime, modular, steps",
    [
        # 3x^2+x+2 and x^2-7 stay irreducible modulo 5; Mignotte's bound needs 5^8
        (([2, 1, 3], [-7, 0, 1]), 5, 2, 1),
        # x^2+2 splits modulo 3, x^2+1 does not; the bound needs 3^8
        (([1, 0, 1], [2, 0, 1]), 3, 3, 4),
    ],
    ids=["two-modular-factors", "three-modular-factors"],
)
def test_lifting_stops_once_the_factors_are_proved(monkeypatch, parts, prime, modular, steps):
    """Hensel steps of g and h, counted over the whole factor tree: a
    factor whose image is one modular factor is found by exact division
    after the first step, so lifting to Mignotte's bound (three steps per
    tree node) is not needed.  With two modular factors one step ends it;
    with three, x^2+1 is found at 9 and its cofactor x^2+2, whose bound is
    24, needs one more step on both nodes."""
    f = factor.mul(*parts)
    p, fp = factor.suitable_prime(f)
    assert p == prime and len(factor._berlekamp(fp, p)) == modular
    calls = []
    real = factor._hensel_step
    monkeypatch.setattr(factor, "_hensel_step", lambda *args: calls.append(args[0]) or real(*args))
    assert sorted(factor.factor_squarefree(f)) == sorted(parts)
    assert len(calls) == steps


_COEFF = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)),
    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**80)),
)
_FACTOR = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(_COEFF, min_size=d, max_size=d), _COEFF.filter(bool), st.integers(1, 3))
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FACTOR, min_size=1, max_size=4))
def test_factor_rational_matches_sympy(parts):
    p = Poly.const(1)
    for low, lead, mult in parts:
        p = p * Poly.from_rational_coeffs([*low, lead]) ** mult
    _assert_factors_like_sympy(p)


_RATIONAL_ROOT = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)
_SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_ROOT_FACTOR = st.one_of(
    _RATIONAL_ROOT.map(lambda r: Z - r),
    # positive quadratics: no real root
    st.builds(lambda t, c: (Z - t) ** 2 + c, _SMALL, st.builds(Fraction, st.integers(1, 99), st.integers(1, 9))),
    # k z^2 - d: real roots, irrational unless d/k is a square
    st.builds(lambda k, d: Z * Z * k - d, st.integers(1, 9), st.integers(1, 99)),
    # quartics with integer entries, irreducible or not, with 0, 2 or 4 real roots
    st.builds(lambda low, lead: Poly([*low, lead]), st.lists(st.integers(-20, 20), min_size=4, max_size=4),
              st.integers(1, 5)),
)
_LEAD = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 50))


@settings(max_examples=200, deadline=None)
@given(lead=_LEAD, parts=st.lists(st.tuples(_ROOT_FACTOR, st.integers(1, 3)), min_size=1, max_size=4))
@example(lead=Fraction(1), parts=[(Z - 40000, 1)])  # lifted to 2^16 < 2 (1 + 40000) < 2^32
@example(lead=Fraction(-3), parts=[(Z - Fraction(1, 2), 1), (Z * Z + 1, 1)])
@example(lead=Fraction(-2, 7), parts=[(Z, 2), (Z - Fraction(999999, 1000000), 1), (Z**4 - 10 * Z * Z + 1, 1)])
@example(lead=Fraction(5), parts=[(Z * Z * 4 - 3, 1), (5 * Z - 4, 3), (Z * Z + 3, 1), (Z, 1)])
def test_roots_of_rational_poly_match_the_full_factorisation(lead, parts):
    """roots_of_rational_poly, rational roots by a p-adic lift and Zassenhaus
    only where a real root is left, gives byte-equal (minpoly, lo, hi) to
    the roots of every irreducible factor (`ref_roots_of_rational_poly`):
    products of rational linear factors with the root 0, denominators up to
    10^6 and repeated roots, positive quadratics, quadratics and quartics
    with irrational real roots, under negative and rational leads.  The
    lift alone finds every rational root (a missed one would be left to
    Zassenhaus, which answers the same)."""
    p = Poly.const(lead)
    for f, mult in parts:
        p = p * f**mult
    got = [(r.minpoly, r.lo, r.hi) for r in RealAlgebraic.roots_of_rational_poly(p)]
    assert got == [(r.minpoly, r.lo, r.hi) for r in ref_roots_of_rational_poly(p)]
    s = factor.squarefree_part(_integer_coeffs(p))
    s = s if s[-1] > 0 else [-c for c in s]
    linear, _ = factor.rational_roots(s, factor.suitable_prime(s)[0])
    rational = {f[0].as_rational() for f, _ in factor_rational_poly(p)[1] if f.degree == 1}
    assert {Fraction(-a, b) for a, b in linear} == {-c for c in rational}


def test_real_roots_sorted_exactly():
    # a is a convergent just below sqrt2: the roots of different factors
    # agree to more than 40 bits
    a = Fraction(54608393, 38613965)
    roots = RealAlgebraic.roots_of_rational_poly((Z - a) * (Z * Z - 2))
    assert roots[1] == RealAlgebraic.from_rational(a)
    assert roots[0] < roots[1] < roots[2]
    assert roots[2].to_tower() == TowerReal.sqrt_rational(2)
    # a rational value may carry the point interval [a, a]
    point = RealAlgebraic(roots[1].minpoly, a, a)
    assert not point < point and not point < roots[1] and roots[0] < point < roots[2]
    # q agrees with sqrt2 to 1100 bits, beyond any fixed refinement cap
    q = Fraction(math.isqrt(2 << 2200), 1 << 1100)
    roots = RealAlgebraic.roots_of_rational_poly((Z - q) * (Z * Z - 2))
    assert roots[0] < roots[1] == RealAlgebraic.from_rational(q) < roots[2]


def test_root_isolation_and_real_algebraic():
    roots = RealAlgebraic.roots_of_rational_poly(2 * Z * Z - 1)
    assert len(roots) == 2
    assert roots[0] == -roots[1]
    assert roots[1].sign() > 0 and roots[1] < Fraction(1)
    assert roots[1].to_tower() == TowerReal.sqrt_rational(2) / 2
    r = RealAlgebraic.from_rational(Fraction(3, 7))
    assert r.is_rational() and r.as_rational() == Fraction(3, 7)


def test_tower_coefficient_roots():
    r2 = CoeffScalar(TowerReal.sqrt_rational(2))
    p = Z * Z - Poly.const(r2)
    roots = real_roots_in_tower_poly(p)
    assert len(roots) == 2
    assert str(roots[0].minpoly) == "z^4-2"
    for root in roots:
        assert _sturm_reference_count(p, root.lo, root.hi) == 1


@pytest.mark.parametrize("e", [40, 70])
def test_tower_root_near_a_conjugate_root(e):
    # a is within 2^-e of 1 - sqrt2, the root of the Galois conjugate of
    # z - 1 - sqrt2, so both are candidates for the root a of p
    a = Fraction((1 << e) - math.isqrt(2 << 2 * e), 1 << e)
    r2 = CoeffScalar(TowerReal.sqrt_rational(2))
    roots = real_roots_in_tower_poly((Z - a) * (Z - 1 - Poly.const(r2)))
    assert roots[0].is_rational() and roots[0].as_rational() == a
    assert roots[1].to_tower() == 1 + TowerReal.sqrt_rational(2) and len(roots) == 2


def test_to_tower_picks_the_root_in_the_interval():
    # the roots 1 +- sqrt(2) 2^-100 lie 2^-99 apart, and the interval ends
    # 2^-190 below the upper one (isqrt(2 4^200) / 2^300 is sqrt(2) 2^-100
    # to within 2^-300), so 64-bit enclosures meet both roots
    d = Fraction(2, 4**100)
    hi = 1 + Fraction(math.isqrt(2 << 400), 1 << 300) - Fraction(1, 1 << 190)
    minpoly = _canonical_minpoly(Z * Z - Z.scale(2) + Poly.const(1 - d))
    r = RealAlgebraic(minpoly, hi - 1, hi)
    assert r.to_tower() == 1 - TowerReal.from_rational(d).sqrt()


def test_is_prime_matches_trial_division():
    for n in range(-2, 3000):
        assert factor.is_prime(n) == (n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))), n
    # strong pseudoprimes to the first 4 and to the first 9 prime bases
    assert not factor.is_prime(3215031751) and not factor.is_prime(3825123056546413051)
    # the least strong pseudoprime to all 12 bases passes: the exact range ends there
    assert factor.is_prime(factor.PSI_12) and factor.PSI_12 == 399165290221 * 798330580441
    assert factor.is_prime((1 << 61) - 1)


def test_isolation_with_a_tiny_lead():
    # the lead s is below 2^-140, so its root 1/s lies beyond 2^140
    s = TowerReal.sqrt_rational(2) - Fraction(math.isqrt(2 << 280), 1 << 140)
    p = Poly.const(CoeffScalar(s)) * Z - 1
    [root] = real_roots_in_tower_poly(p)
    assert root.to_tower() == s.inverse()
    assert sturm_count(p) == _sturm_reference_count(p, root.lo, root.hi) == 1
    assert p(root.lo).as_real().sign() == -1 and p(root.hi).as_real().sign() == 1


def test_square_free_inputs_skip_the_gcd(monkeypatch):
    """Counts the gcds of both kinds: `poly_gcd` and the integer kernel's
    `factor.gcd`.  A rational count takes exactly one, `factor.gcd(c, c')`
    for the square-free part of its integer column c; an irreducible
    minimal polynomial is square-free already, so equality of real
    algebraic numbers takes none.  A tower count takes one of each: the
    tower gcd(p, p') of its square-free part s (`cofactors`), and the
    integer gcd of the square-free part n of s's norm, however often a
    factor divides the norm.  Tower root finding isolates on that n and
    takes no further gcd; it took one more, a second square-free part of
    n, before the count and the roots shared one record (`RealRoots`)."""
    import birsphere.poly as poly_mod

    calls = {"poly_gcd": 0, "factor.gcd": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(poly_mod, "poly_gcd", counted("poly_gcd", poly_mod.poly_gcd))
    monkeypatch.setattr(factor, "gcd", counted("factor.gcd", factor.gcd))

    def gcds(run, *args):
        """run(*args) and the gcds of each kind that it takes."""
        calls.update({"poly_gcd": 0, "factor.gcd": 0})
        return run(*args), calls["poly_gcd"], calls["factor.gcd"]

    r2 = CoeffScalar(TowerReal.sqrt_rational(2))
    quadratic = Z * Z - Poly.const(r2) * Z - 1
    # the norm's factors are irreducible, so isolating them takes no gcd,
    # and squaring the input adds none: the norm is of its square-free part
    for p in (quadratic, quadratic**2):
        assert gcds(lambda: len(real_roots_in_tower_poly(p))) == (2, 1, 1)
        assert gcds(sturm_count, p) == (2, 1, 1)
    # z - 3 divides the norm twice, and n once
    assert gcds(lambda: len(real_roots_in_tower_poly(quadratic * (Z - 3)))) == (3, 1, 1)
    p = (Z - 1) ** 2 * (Z + 2) * (Z * Z - 2) ** 3
    assert gcds(sturm_count, p) == (4, 0, 1)
    assert gcds(sturm_count, Z**3 - 2) == (1, 0, 1)
    a = RealAlgebraic(Z * Z - 2, Fraction(1), Fraction(2))
    b = RealAlgebraic(Z * Z - 2, Fraction(7, 5), Fraction(3, 2))
    c = RealAlgebraic(Z * Z - 2, Fraction(-2), Fraction(-1))
    assert gcds(lambda: (a == b, a == c)) == ((True, False), 0, 0)


def test_isolation_intervals_disjoint():
    p = (Z - 1) * (Z - 2) * (Z + 3) * (2 * Z - 1)
    ivs = isolate_real_roots_poly(p)
    assert len(ivs) == 4
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 <= a2


# -- the integer kernel: modular gcd and Yun's split on Z[x] ------------------------------


def _euclid_gcd(a: list[int], b: list[int]) -> list[Fraction]:
    """Reference: the monic gcd over Q by Euclid's algorithm on Fractions."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            a = [c - q * b[k - shift] if k >= shift else c for k, c in enumerate(a)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


def _sympy_poly(coeffs):
    import sympy

    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), domain="ZZ")


def _from_sympy(f) -> list[int]:
    """Ascending coefficients of a sympy Poly, primitive with positive lead."""
    c = [int(x) for x in reversed(f.all_coeffs())]
    g = math.gcd(*c) * (1 if c[-1] > 0 else -1)
    return [x // g for x in c]


_INT_POLY = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)), min_size=1, max_size=4).filter(
    lambda c: c[-1] != 0
)


@settings(max_examples=150, deadline=None)
@given(_INT_POLY, _INT_POLY, _INT_POLY)
def test_gcd_matches_sympy_and_euclid(g, u, v):
    a, b = factor.mul(g, u), factor.mul(g, v)
    out = factor.gcd(a, b)
    assert out == _from_sympy(_sympy_poly(a).gcd(_sympy_poly(b)))
    assert [Fraction(c, out[-1]) for c in out] == _euclid_gcd(a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_INT_POLY.filter(lambda c: len(c) > 1), st.integers(1, 3)), min_size=1, max_size=3))
def test_squarefree_matches_sympy(parts):
    f = [1]
    for g, k in parts:
        for _ in range(k):
            f = factor.mul(f, g)
    _, expected = _sympy_poly(f).sqf_list()
    assert factor.squarefree(f) == [(_from_sympy(h), k) for h, k in expected]


def _counted_primes(used: list, limit: int):
    """`factor.large_primes`, recording each prime drawn in used and failing
    once more than limit are drawn."""
    real = factor.large_primes

    def counted():
        for p in real():
            assert len(used) < limit, f"the gcd did not settle within {limit} primes"
            used.append(p)
            yield p

    return counted


@pytest.fixture
def used_primes(monkeypatch):
    """The primes drawn from `factor.large_primes`, at most eight."""
    used = []
    monkeypatch.setattr(factor, "large_primes", _counted_primes(used, 8))
    return used


def test_gcd_discards_an_unlucky_first_image(used_primes):
    p0, p1 = islice(factor.large_primes(), 2)
    used_primes.clear()
    # modulo p0 the cofactors x and x - p0 meet: the image x(x + 1) is too big
    assert factor.gcd([0, 1, 1], [-p0, 1 - p0, 1]) == [1, 1]
    assert used_primes == [p0, p1]


@pytest.mark.parametrize("unlucky", [False, True])
def test_gcd_joins_images_over_several_primes(used_primes, unlucky):
    p0, p1, p2 = islice(factor.large_primes(), 3)
    used_primes.clear()
    c = p0 * p2 // 3  # above p0 / 2, so one image cannot hold it
    assert c % p0
    # cofactors x and x - p1 meet modulo p1, whose image is dropped
    cofactors = ([0, 1], [-p1, 1]) if unlucky else ([1, 1], [-1, 1])
    assert factor.gcd(factor.mul([c, 1], cofactors[0]), factor.mul([c, 1], cofactors[1])) == [c, 1]
    assert used_primes == ([p0, p1, p2] if unlucky else [p0, p1])


def test_gcd_of_coprime_inputs_needs_no_division(used_primes, monkeypatch):
    monkeypatch.setattr(factor, "_exact_quotient", None)
    assert factor.gcd([1, 0, 1], [-3, 1]) == [1] and len(used_primes) == 1


# -- the kernel over Z[i]: Gaussian inputs --------------------------------------------------


def _q(re, im=0) -> tuple[Fraction, Fraction]:
    return Fraction(re), Fraction(im)


def _qmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _qinv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return a[0] / n, -a[1] / n


def _monic_q(f):
    inv = _qinv(f[-1])
    return [_qmul(c, inv) for c in f]


def _gaussian_euclid(*fs) -> list[tuple[Fraction, Fraction]]:
    """Reference: the monic gcd over Q(i) by Euclid's algorithm on pairs of
    Fractions, folded over the inputs, each a list of such pairs."""
    g = []
    for f in fs:
        a, b = list(g), list(f)
        while b:
            while len(a) >= len(b):
                q, shift = _qmul(a[-1], _qinv(b[-1])), len(a) - len(b)
                for k, c in enumerate(b):
                    d = _qmul(q, c)
                    a[k + shift] = (a[k + shift][0] - d[0], a[k + shift][1] - d[1])
                while a and not any(a[-1]):
                    a.pop()
            a, b = b, a
        g = _monic_q(a)
    return g


def _gaussian_pair(f):
    """A list of Gaussian integer pairs as the kernel's (re, im) input."""
    return [int(c[0]) for c in f], [int(c[1]) for c in f]


def _pair_to_q(out):
    re, im = out
    return [_q(x, im[k] if im else 0) for k, x in enumerate(re)]


def _gmul(f, g):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for j, x in enumerate(f):
        for k, y in enumerate(g):
            p = _qmul(x, y)
            out[j + k] = (out[j + k][0] + p[0], out[j + k][1] + p[1])
    return out


def _sympy_gcd_qi(fs):
    """The monic gcd over QQ_I from sympy, as pairs of Fractions."""
    import sympy

    x = sympy.Symbol("x")
    polys = [sympy.Poly([sympy.Integer(int(a)) + sympy.I * sympy.Integer(int(b)) for a, b in reversed(f)], x,
                        domain="QQ_I") for f in fs]
    g = functools.reduce(lambda a, b: a.gcd(b), polys)
    out = []
    for c in reversed(g.all_coeffs()):
        re, im = (sympy.Rational(part) for part in (sympy.re(c), sympy.im(c)))
        out.append((Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))))
    return out


_GAUSSIAN_INT = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
_GAUSSIAN_POLY = st.lists(st.tuples(_GAUSSIAN_INT, _GAUSSIAN_INT), min_size=1, max_size=4).filter(lambda f: any(f[-1]))
_CONTENTS = st.sampled_from([(1, 0), (1, 1), (0, 2)])  # 1, 1 + i, 2i
_SHARED = st.sampled_from([[(1, 0)], [(1, 0), (0, 0), (-1, 0)]])  # 1, 1 - z^2


@settings(max_examples=120, deadline=None)
@given(_GAUSSIAN_POLY, _GAUSSIAN_POLY, _GAUSSIAN_POLY, _SHARED, _CONTENTS, _CONTENTS, st.booleans())
def test_gaussian_gcd_matches_sympy_and_euclid(g, u, v, shared, ca, cb, conjugate):
    """Cofactors over Z[i] sharing g (and 1 - z^2), with Gaussian contents
    and 2^70-sized coefficients; with `conjugate`, the conjugate of the first
    input joins as a third one.  The kernel must settle within 16 primes."""
    from unittest import mock

    a = _gmul([ca], _gmul(shared, _gmul(g, u)))
    b = _gmul([cb], _gmul(shared, _gmul(g, v)))
    fs = [a, b] + ([[(x, -y) for x, y in a]] if conjugate else [])
    with mock.patch.object(factor, "large_primes", _counted_primes([], 16)):
        out = factor.gaussian_gcd(*map(_gaussian_pair, fs))
    assert factor._zi_primitive(*out) == out
    expected = _gaussian_euclid(*([_q(*c) for c in f] for f in fs))
    assert _monic_q(_pair_to_q(out)) == expected == _sympy_gcd_qi(fs)


@pytest.fixture
def gaussian_primes(used_primes):
    """The first primes of `factor.large_primes` and, apart, the first three
    that are 1 mod 4, with their square roots of -1; no prime counts as used."""
    drawn = list(islice(factor.large_primes(), 8))
    used_primes.clear()
    split = [p for p in drawn if p % 4 == 1][:3]
    return drawn, split, [factor._sqrt_minus_one(p) for p in split]


def _drawn_through(drawn, p):
    return drawn[: drawn.index(p) + 1]


@pytest.mark.parametrize("sign", [1, -1])
def test_gaussian_gcd_skips_a_lead_vanishing_in_one_image(used_primes, gaussian_primes, sign):
    drawn, (q0, q1, _), (r0, r1, _) = gaussian_primes
    # the lead r0 - sign*i vanishes under i -> sign*r0 modulo q0, but not under
    # i -> -sign*r0, nor modulo q1
    assert (r0 - r1) % q1 and (r0 + r1) % q1
    f = ([-1, 1 - r0, r0], [0, sign, -sign])  # (z - 1)((r0 - sign*i) z + 1)
    assert factor.gaussian_gcd(f, ([-2, 1, 1], [])) == ([-1, 1], [0, 0])
    assert used_primes == _drawn_through(drawn, q1)


def test_gaussian_gcd_discards_images_of_unequal_degree(used_primes, gaussian_primes):
    drawn, (q0, q1, _), (r0, r1, _) = gaussian_primes
    # z - i and z - r0 meet under i -> r0 modulo q0 only
    assert (r0 - r1) % q1 and (r0 + r1) % q1
    f = ([0, -1, 1], [1, -1, 0])  # (z - 1)(z - i)
    assert factor.gaussian_gcd(f, ([r0, -1 - r0, 1], [])) == ([-1, 1], [0, 0])
    assert used_primes == _drawn_through(drawn, q1)


def test_gaussian_gcd_joins_two_primes(used_primes, gaussian_primes):
    drawn, (q0, q1, _), _ = gaussian_primes
    c = q0 * q1 // 3  # above q0 / 2, so one image cannot hold it
    g = [(c, c), (1, 0)]  # z + c(1 + i)
    fs = [_gmul(g, [(1, 0), (1, 0)]), _gmul(g, [(0, -1), (1, 0)])]
    assert factor.gaussian_gcd(*map(_gaussian_pair, fs)) == ([c, 1], [c, 0])
    assert used_primes == _drawn_through(drawn, q1)


def test_gaussian_gcd_of_coprime_inputs_needs_no_division(used_primes, gaussian_primes, monkeypatch):
    drawn, (q0, _, _), _ = gaussian_primes
    monkeypatch.setattr(factor, "_zi_quotient", None)
    assert factor.gaussian_gcd(([0, 0, 1], [1]), ([-3, 1], [])) == ([1], [])
    assert used_primes == _drawn_through(drawn, q0)


def test_poly_gcd_edge_cases():
    assert poly_gcd(Poly(), Poly()) == Poly()
    assert poly_gcd(Poly(), 2 * Z - 4) == Z - 2 == poly_gcd(2 * Z - 4, Poly())
    assert poly_gcd(Poly.const(3), Z) == Poly.const(1)
    assert poly_gcd(Z * Z + 1, Z - 3) == Poly.const(1)
    assert poly_gcd(Fraction(1, 3) * (Z - 1) * (Z + 2), Fraction(1, 2) * Z - Fraction(1, 2)) == Z - 1
    assert poly_gcd(-2 * Z * Z + 2, -Z - 1) == Z + 1
    # variadic: over Q(i) in one kernel call, over the tower by Euclid
    assert poly_gcd(Z * Z - 1, Z - 1, Z + 1) == Poly.const(1)
    assert poly_gcd((Z - I) * (Z + 1), (Z - I) * (Z - 2), (Z - I) * Z.scale(I), Poly()) == Z - I
    r2 = CoeffScalar(TowerReal.sqrt_rational(2))
    assert poly_gcd((Z - 1) * (Z + r2), (Z - 1) * Z, Z * Z - 1) == Z - 1
