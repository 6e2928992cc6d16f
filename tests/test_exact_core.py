"""Differential tests of the integer-backed scalar and polynomial core.

The references below are the plain algorithms the core replaced: tower
reals as dicts {radicand: Fraction} with exact Fraction enclosures, and
every polynomial operation as a loop of CoeffScalar operations over the
coefficient lists the polynomials were built from.  Results are compared
coefficient by coefficient, so a wrong column constructor cannot hide behind
Poly equality.  The integer representation must give equal results on every
input.  The projective checks are compared with the form they replaced:
the reality condition written as two matrix products with the twist,
compared by the six-minor proportionality test.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from birsphere.classify import _route, classify_spheremap
from birsphere.errors import NotRealityMember
from birsphere.poly import ONE_MINUS_Z2, Poly, RealAlgebraic, cauchy_bound, poly_gcd
from birsphere.positivity import is_real_positive
from birsphere.projmat import ProjMat, raw_mul
from birsphere.scalars import ZERO, CoeffScalar, TowerReal
from birsphere.sphere import (
    BaseMobius,
    FiberPattern,
    SphereMap,
    _primitive_real,
    canonical_pattern,
    contracted_fibers,
    diffeo_orientation,
    in_diffeo_group,
    reality_twist,
    y_flip,
)

from conftest import (
    MOVING_MAPS,
    checked_pattern,
    coeff_lists,
    coeff_scalars,
    gaussian_scalars,
    member_entries,
    polys,
    rational_scalars,
    ref_in_reality_group,
    ref_lift_is_constant_multiple,
    ref_poly_mul,
    ref_real_roots,
    same_up_to_positive_rational,
    scalars_any,
    tower_terms,
    trim,
)

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


# -- CoeffScalar-loop references for polynomials ------------------------------------------------


def padded(a, b) -> tuple[list, list]:
    n = max(len(a), len(b))
    return list(a) + [ZERO] * (n - len(a)), list(b) + [ZERO] * (n - len(b))


def ref_poly_divmod(a, b) -> tuple[tuple, tuple]:
    a, b = trim(a), trim(b)
    lead_inv = b[-1].inverse()
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return (), a
    quo = [CoeffScalar(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        if len(rem) < len(b) + k:
            continue
        c = rem[len(b) + k - 1] * lead_inv
        if not c:
            continue
        quo[k] = c
        for j, y in enumerate(b):
            rem[j + k] = rem[j + k] - c * y
        while rem and not rem[-1]:
            rem.pop()
    return trim(quo), trim(rem)


def ref_horner(a, x) -> CoeffScalar:
    acc = CoeffScalar(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_derivative(a) -> tuple:
    return trim([k * c for k, c in enumerate(a)][1:])


# -- strategies --------------------------------------------------------------------------------

nonzero_lists = coeff_lists().filter(lambda cs: any(cs))
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


def ref_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def ref_complex_mul(x: tuple, y: tuple) -> tuple:
    """(a + b i)(c + d i) on pairs of reference dicts."""
    (a, b), (c, d) = x, y
    return ref_add(ref_mul(a, c), ref_neg(ref_mul(b, d))), ref_add(ref_mul(a, d), ref_mul(b, c))


def parts(x: CoeffScalar) -> tuple:
    return x.re.terms, x.im.terms


@settings(max_examples=150, deadline=None)
@given(a=tower_terms((1, 2, 3, 6)), b=tower_terms((1, 2, 3, 6)), c=tower_terms((1, 2, 3, 6)), d=tower_terms((1, 2, 3, 6)))
def test_one_layout_matches_fraction_reference(a, b, c, d):
    """Scalars of Q(i, sqrt 2, sqrt 3) against the dict-of-Fraction
    reference, read back through the public parts re and im: sums,
    products, conjugates, inverses (their product with the scalar is 1 in
    the reference), signs of the parts, and square roots of squares (a
    root's reference square is the square, and a real root is not
    negative)."""
    x, y = CoeffScalar(TowerReal(a), TowerReal(b)), CoeffScalar(TowerReal(c), TowerReal(d))
    a, b, c, d = ({m: q for m, q in t.items() if q} for t in (a, b, c, d))
    assert parts(x) == (a, b)
    assert parts(x + y) == (ref_add(a, c), ref_add(b, d))
    assert parts(x - y) == (ref_add(a, ref_neg(c)), ref_add(b, ref_neg(d)))
    assert parts(x * y) == ref_complex_mul((a, b), (c, d))
    assert parts(x.conj()) == (a, ref_neg(b))
    assert x.re.sign() == ref_sign(a) and x.im.sign() == ref_sign(b)
    for v in (x, x.re, x.im, x + y, x * y, x.conj()):
        assert_canonical(v)
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        assert ref_complex_mul((a, b), parts(inv)) == ({1: Fraction(1)}, {})
    square = ref_complex_mul((a, b), (a, b))
    root = (x * x).sqrt()
    assert ref_complex_mul(parts(root), parts(root)) == square
    real_root = (x.re * x.re).sqrt()
    assert ref_mul(real_root.terms, real_root.terms) == ref_mul(a, a) and ref_sign(real_root.terms) >= 0
    assert type(real_root) is TowerReal and type(x.re * x.re) is TowerReal and type(x.re * x) is CoeffScalar


@settings(max_examples=100, deadline=None)
@given(values=st.lists(scalars_any, max_size=4))
def test_rational_content_matches_fractions(values):
    """primitive divides by the content that Fraction's gcd and lcm give."""
    p = Poly(values)
    assert p.primitive().scale(CoeffScalar(ref_content(values))) == p


def ref_content(values) -> Fraction:
    """The largest rational r such that every rational coefficient of every
    real and imaginary part divided by r is an integer; 1 for no nonzero one."""
    fracs = [f for c in values for part in (c.re, c.im) for f in part.terms.values()]
    num = math.gcd(*(f.numerator for f in fracs))
    den = math.lcm(*(f.denominator for f in fracs))
    return Fraction(num, den) if num else Fraction(1)


# -- polynomials ---------------------------------------------------------------------------------


def squarefree_int(m: int) -> bool:
    return all(m % (q * q) for q in range(2, math.isqrt(m) + 1))


def assert_poly_canonical(p: Poly) -> None:
    cols, den = p._cols, p._den
    assert type(cols) is dict and type(den) is int and den > 0
    for (m, t), c in cols.items():
        assert type(m) is int and m >= 1 and squarefree_int(m) and t in (0, 1)
        assert type(c) is tuple and c and c[-1] != 0
        assert all(type(x) is int for x in c)
    assert math.gcd(den, *(x for c in cols.values() for x in c)) == 1
    if not cols:
        assert den == 1
    for c in p.coeffs:
        assert_canonical(c.re)
        assert_canonical(c.im)


@settings(max_examples=200, deadline=None)
@given(a=coeff_lists(), b=coeff_lists(), c=scalars_any)
def test_poly_rows_match_coefficient_loops(a, b, c):
    pa, pb = Poly(a), Poly(b)
    ta = trim(a)
    assert pa.coeffs == ta
    assert pa.degree == len(ta) - 1
    xa, xb = padded(a, b)
    cases = [
        (pa + pb, [x + y for x, y in zip(xa, xb)]),
        (pa - pb, [x - y for x, y in zip(xa, xb)]),
        (-pa, [-x for x in a]),
        (pa.scale(c), [x * c for x in a]),
        (pa.conj(), [x.conj() for x in a]),
        (pa.reflect_z(), [-x if j % 2 else x for j, x in enumerate(a)]),
        (pa.derivative(), ref_derivative(a)),
        (pa * pb, ref_poly_mul(a, b)),
    ]
    for got, want in cases:
        assert got.coeffs == trim(want)
        assert_poly_canonical(got)
    for j in range(-1, len(ta) + 2):
        assert pa[j] == (ta[j] if 0 <= j < len(ta) else ZERO)
    assert pa.is_real() == all(x.is_real() for x in a)
    assert pa.is_rational() == all(x.is_rational() for x in a)
    assert pa.is_even() == all(not x for j, x in enumerate(a) if j % 2)
    if pa.is_rational():
        assert pa.rational_coeffs() == [x.as_rational() for x in ta]


def test_scale_and_monic_multiply_columns_directly(monkeypatch):
    # sqrt(2)*sqrt(6) = 2*sqrt(3): the radicands share the factor 2;
    # i*i = -1 on the imaginary columns
    r2, r6 = TowerReal.sqrt_rational(2), TowerReal.sqrt_rational(6)
    a = [CoeffScalar(r6, 1), ZERO, CoeffScalar(Fraction(1, 3), r6 * 5), CoeffScalar(r6 + 2, Fraction(-2, 7))]
    p = Poly(a)
    cases = [(c, [x * c for x in a]) for c in (CoeffScalar(r2), CoeffScalar.i(), CoeffScalar(r2 / 3, -r6))]
    monic_want = [x * a[-1].inverse() for x in a]
    init_calls = []
    init = Poly.__init__

    def counted_init(self, *args):
        init_calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    for c, want in cases:
        got = p.scale(c)
        assert got.coeffs == trim(want)
        assert_poly_canonical(got)
    got = p.monic()
    assert got.coeffs == trim(monic_want)
    assert_poly_canonical(got)
    assert init_calls == []


@settings(max_examples=100, deadline=None)
@given(a=nonzero_lists)
def test_poly_monic_and_primitive(a):
    p = Poly(a)
    ta = trim(a)
    lead_inv = ta[-1].inverse()
    assert p.lead() == ta[-1]
    assert p.monic().coeffs == trim([x * lead_inv for x in a])
    prim = p.primitive()
    assert_poly_canonical(prim)
    assert prim._den == 1
    assert ref_content(prim.coeffs) == 1
    assert prim.coeffs == trim([x / CoeffScalar(ref_content(a)) for x in a])


@settings(max_examples=150, deadline=None)
@given(a=coeff_lists(), x=st.one_of(gaussian_scalars, coeff_scalars(), rational_scalars))
def test_poly_call_matches_horner_loop(a, x):
    p = Poly(a)
    assert p(x) == ref_horner(a, x)
    if x.is_rational():
        assert p(x.as_rational()) == ref_horner(a, x)


@settings(max_examples=150, deadline=None)
@given(a=coeff_lists(), b=coeff_lists(), k=st.integers(1, 6))
def test_poly_equality_and_hash(a, b, k):
    pa, pb = Poly(a), Poly(b)
    # the same value reached two ways has one representation
    again = (pa.scale(k) + pb - pb).scale(Fraction(1, k))
    assert again == pa and hash(again) == hash(pa)
    assert (pa == pb) == (trim(a) == trim(b))
    if pa == pb:
        assert hash(pa) == hash(pb)


@settings(max_examples=100, deadline=None)
@given(a=coeff_lists(gaussian_scalars), b=coeff_lists(gaussian_scalars))
def test_gaussian_poly_mul_matches_reference(a, b):
    prod = Poly(a) * Poly(b)
    assert prod.coeffs == ref_poly_mul(a, b)
    assert_poly_canonical(prod)


@settings(max_examples=100, deadline=None)
@given(a=coeff_lists(), b=coeff_lists())
def test_tower_poly_mul_matches_reference(a, b):
    prod = Poly(a) * Poly(b)
    assert prod.coeffs == ref_poly_mul(a, b)
    assert_poly_canonical(prod)


@settings(max_examples=100, deadline=None)
@given(a=coeff_lists(max_degree=7), b=nonzero_lists)
def test_poly_divmod_matches_reference(a, b):
    pa, pb = Poly(a), Poly(b)
    q, r = pa.divmod(pb)
    assert (q.coeffs, r.coeffs) == ref_poly_divmod(a, b)
    assert pa % pb == r
    assert q * pb + r == pa
    assert r.degree < pb.degree
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


@settings(max_examples=60, deadline=None)
@given(a=nonzero_lists, b=nonzero_lists, x=scalars_any)
@example(a=[CoeffScalar(5), CoeffScalar(2), ZERO, CoeffScalar(1)], b=[CoeffScalar(-1), CoeffScalar(1)], x=CoeffScalar(2))
def test_poly_operations_leave_operands_unchanged(a, b, x):
    # reflect_z shares rows with its input, and the remainder of a division
    # starts from the dividend's rows: no operation may write them
    pa, pb = Poly(a), Poly(b)
    operands = [pa, pb, pa.reflect_z(), pb.conj(), pb.monic()]
    before = [p.coeffs for p in operands]
    for p in operands:
        p.scale(x), p.monic(), p.conj(), p.reflect_z(), p.derivative(), -p
        p(x), p.primitive(), hash(p)
        for q in operands:
            p + q, p - q, p * q, p.divmod(q), p % q
    assert [p.coeffs for p in operands] == before
    assert (pa.coeffs, pb.coeffs) == (trim(a), trim(b))


# -- projective checks --------------------------------------------------------------------------


small_polys = st.one_of(polys(gaussian_scalars, max_degree=2), polys(coeff_scalars((1, 2, 3)), max_degree=2))
quads = st.tuples(small_polys, small_polys, small_polys, small_polys)


def route_verdict(g: SphereMap) -> bool:
    """Whether classify's routing accepts the map; a refusal must carry
    routing's own message."""
    try:
        _route(g)
    except NotRealityMember as exc:
        assert str(exc) == "element does not commute with the real structure"
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(a=small_polys, b=small_polys, e=quads, k=st.integers(0, 3))
def test_reality_check_matches_twist_products(a, b, e, k):
    """SphereMap.reality_check with base z -> z or z -> -z, which reads
    reality off canonical_pattern, and routing's verdict on the same map all
    equal the twist-product reference for that base.  So they do with a
    moving base: the map followed by an interval shift, with or without
    z -> -z (real exactly when the map is), and the fiber alone over that
    base (mostly non-real)."""
    candidates = [member_entries(a, b), e]
    perturbed = list(member_entries(a, b))
    perturbed[k] = perturbed[k] * Poly([1, 2])  # breaks the pattern unless that entry is 0
    candidates.append(perturbed)
    for entries in candidates:
        try:
            mat = ProjMat.of(*entries)
        except ValueError:  # zero matrix or zero determinant
            continue
        for base, m in ((BaseMobius.identity(), Poly.z()), (BaseMobius.negation(), -Poly.z())):
            g = SphereMap(mat, base)
            assert g.reality_check() == ref_in_reality_group(mat, m) == route_verdict(g)
        for mover in MOVING_MAPS:
            for g in (SphereMap.trivial_base(mat).compose(mover), SphereMap(mat, mover.base)):
                assert g.reality_check() == ref_in_reality_group(g.fiber, *g.base.num_den_polys()) == route_verdict(g)
        if entries is candidates[0]:
            assert ref_in_reality_group(mat)
            h = ONE_MINUS_Z2
            x, y, z, w = mat.entries()
            assert ProjMat._canonical([y, h * x, w, h * z]) == mat * reality_twist()


def ref_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The rational function num/den as a pair in lowest terms with a monic
    denominator; zero is 0/1."""
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    c = den.lead().inverse()
    return num.scale(c), den.scale(c)


def ref_strip_common_real_factors(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """The strip canonical_pattern's lemma proves to be the identity: divide
    a and b by the monic real part gcd(g, conj g) of g = gcd(a, b)."""
    if a and b:
        g = poly_gcd(a, b)
        real_part = poly_gcd(g, g.conj())
        if real_part.degree > 0:
            a, b = a.exact_div(real_part), b.exact_div(real_part)
    return a, b


def ref_canonical_pattern(mat: ProjMat) -> FiberPattern:
    """The Hilbert-90 step through rational functions, each a reduced
    (numerator, denominator) pair: the quotient relating mat to its twisted
    conjugate is a norm-one unit u, and mu = 1 + u (or i when u = -1)
    satisfies mu/conj(mu) = u.  The pattern (a, b) = (a11 conj(mu),
    mu conj(a21)) is cleared by the product of both denominators and their
    conjugates; the pairs must be in lowest terms first, or the cleared
    pattern keeps factors that canonical_pattern does not have."""
    if not ref_in_reality_group(mat):
        raise NotRealityMember(f"{mat} does not satisfy the reality condition")
    a11, a12, a21, a22 = mat.entries()
    h = ONE_MINUS_Z2
    lam_num, lam_den = (a11 * h, a22.conj()) if a11 else (a12, a21.conj())
    mu_num, mu_den = ref_fraction(lam_den * h + lam_num, lam_den * h)
    if not mu_num:
        mu_num, mu_den = Poly.const(CoeffScalar.i()), Poly.const(1)
    a_num, a_den = ref_fraction(a11 * mu_num.conj(), mu_den.conj())
    b_num, b_den = ref_fraction(mu_num * a21.conj(), mu_den)
    a = a_num * a_den.conj() * b_den * b_den.conj()
    b = b_num * a_den * a_den.conj() * b_den.conj()
    return FiberPattern(*ref_strip_common_real_factors(a, b))


def ref_diffeo_orientation(mat: ProjMat) -> int:
    """Two canonicalisations: the pattern of mat, then that of mat * tau."""

    def preserving(m):
        return is_real_positive(_primitive_real(ref_canonical_pattern(m).determinant()))

    if preserving(mat):
        return 1
    a, b, c, d = mat.entries()
    return -1 if preserving(ProjMat._canonical([b, ONE_MINUS_Z2 * a, d, ONE_MINUS_Z2 * c])) else 0


TAU = ProjMat.of(Poly(), ONE_MINUS_Z2, Poly.const(1), Poly())
QUARTER_TURN = ProjMat.diag(Poly.const(1), Poly.const(CoeffScalar.i()))


@settings(max_examples=150, deadline=None)
@given(a=small_polys, b=small_polys, e=quads, shape=st.sampled_from(("ab", "a0", "0b")))
@example(a=Poly.const(1), b=Poly(), e=(Poly.const(1), Poly(), Poly(), Poly.const(-1)), shape="ab")
def test_closed_form_pattern_matches_hilbert90(a, b, e, shape):
    """canonical_pattern and diffeo_orientation give the (a, b), up to a
    positive rational factor, and the orientation of the rational-function
    references on reality elements, their products with tau and diag(1, i),
    and b = 0 and a = 0 shapes.  The matrix e is mostly non-real; the
    example's diag(1, -1) is the l = -1 branch."""
    a, b = (a, Poly()) if shape == "a0" else (Poly(), b) if shape == "0b" else (a, b)
    mats = []
    for entries in (member_entries(a, b), e):
        try:
            mats.append(ProjMat.of(*entries))
        except ValueError:  # zero matrix or zero determinant
            continue
    for mat in mats + [m * t for m in mats for t in (TAU, QUARTER_TURN)]:
        if not ref_in_reality_group(mat):
            with pytest.raises(NotRealityMember):
                canonical_pattern(mat)
            continue
        pat, ref = canonical_pattern(mat), ref_canonical_pattern(mat)
        assert same_up_to_positive_rational((pat.a, pat.b), (ref.a, ref.b))
        assert diffeo_orientation(mat) == ref_diffeo_orientation(mat)


def twisted_sum(mat: ProjMat) -> tuple[Poly, ...]:
    """S = M + tau conj(M) tau^-1 from the twist products, tau^-1 = tau / h."""
    h = ONE_MINUS_Z2
    tw = (Poly(), h, Poly.const(1), Poly())
    twisted = raw_mul(raw_mul(tw, tuple(p.conj() for p in mat.entries())), tw)
    return tuple(m + t.exact_div(h) for m, t in zip(mat.entries(), twisted))


def constant_ratio(p, q) -> CoeffScalar | None:
    """The constant kappa with p = kappa q (0 when p = 0), or None."""
    k = next(k for k in range(4) if q[k])
    kappa = p[k].lead() * q[k].lead().inverse() if p[k] else CoeffScalar(0)
    return kappa if all(x == y.scale(kappa) for x, y in zip(p, q)) else None


@settings(max_examples=100, deadline=None)
@given(a=small_polys, b=small_polys, c=small_polys, d=small_polys, k=st.integers(0, 3))
@example(a=Poly.const(1), b=Poly.const(1), c=Poly.const(2), d=Poly.z(), k=0)
def test_canonical_pattern_lemma(a, b, c, d, k):
    """The lemma of canonical_pattern on reality elements: two patterns,
    the diagonal diag(a, ~a) (B = 0), the involution with p = a + ~a (S = 0
    whenever p != 0), products and a conjugate.  S = M + tau ~M tau^-1 is a
    constant multiple kappa M, the pattern lifts to a constant multiple of
    M, and the real part of gcd(a, b) is 1, so the reference's gcd strip has
    nothing to strip; canonical_pattern runs no gcd.
    Multiplying one entry by 1 + 2z raises NotRealityMember exactly when the
    twist-product reference finds the result non-real."""
    from unittest import mock

    import birsphere.poly as poly_mod
    import birsphere.projmat as projmat_mod

    p = a + a.conj()
    involution = member_entries(p.scale(CoeffScalar.i()), b)
    mats = []
    for entries in (member_entries(a, b), member_entries(c, d), member_entries(a, Poly()), involution):
        try:
            mats.append((ProjMat.of(*entries), entries is involution and bool(p)))
        except ValueError:  # zero matrix or zero determinant
            continue
    for (x, _), (y, _) in zip(mats, mats[1:]):
        mats += [(x * y, False), (y * x * y.inverse(), False)]
    perturbed = []
    for mat, _ in mats:
        entries = list(mat.entries())
        entries[k] = entries[k] * Poly([1, 2])
        try:
            perturbed.append(ProjMat.of(*entries))
        except ValueError:
            continue
    work = mock.Mock(side_effect=AssertionError("canonical_pattern took a gcd"))
    with mock.patch.object(poly_mod, "poly_gcd", work), mock.patch.object(projmat_mod, "cofactors", work):
        patterns = [canonical_pattern(mat) for mat, _ in mats]
    for (mat, s_is_zero), pat in zip(mats, patterns):
        kappa = constant_ratio(twisted_sum(mat), mat.entries())
        assert kappa is not None and not (s_is_zero and kappa)
        assert constant_ratio(member_entries(pat.a, pat.b), mat.entries())
        g = poly_gcd(pat.a, pat.b)
        assert poly_gcd(g, g.conj()).degree == 0
        assert ref_strip_common_real_factors(pat.a, pat.b) == (pat.a, pat.b)
    for mat in perturbed:
        if ref_in_reality_group(mat):
            canonical_pattern(mat)
        else:
            with pytest.raises(NotRealityMember):
                canonical_pattern(mat)


@settings(max_examples=150, deadline=None)
@given(
    a=small_polys,
    b=small_polys,
    kappa=gaussian_scalars.filter(bool),
    e=quads,
    k=st.integers(0, 3),
    extra=small_polys.filter(bool),
)
@example(a=Poly.const(1), b=Poly(), kappa=CoeffScalar(3, 4), e=(Poly.const(1),) * 4, k=3, extra=Poly.const(1))
@example(
    a=Poly.z(), b=Poly.const(1), kappa=CoeffScalar(0, 1), e=(Poly.z(), Poly(), Poly(), Poly.const(2)), k=1, extra=Poly.z()
)
def test_two_entry_reality_check_matches_the_four_entry_one(a, b, kappa, e, k, extra):
    """The checked closed form (`_summed_pattern`, checked) refuses a matrix
    exactly when the four-entry comparison of its lift with kappa M does:
    it accepts pattern lifts scaled by a Gaussian constant, and refuses
    random matrices and pattern lifts with one entry perturbed exactly when
    the reference does, which agrees with the twist-product reference."""
    entries = member_entries(a, b)
    perturbed = list(entries)
    perturbed[k] = perturbed[k] + extra
    for quad, is_lift in ((tuple(x.scale(kappa) for x in entries), True), (e, False), (perturbed, False)):
        try:
            mat = ProjMat.of(*quad)
        except ValueError:  # zero matrix or zero determinant
            continue
        ref = ref_lift_is_constant_multiple(mat)
        assert ref == ref_in_reality_group(mat) and (ref or not is_lift)
        assert (checked_pattern(mat) is None) == (not ref)


@st.composite
def stripped_pattern_matrices(draw):
    """A matrix [[a, b h], [~b, ~a]] over the Gaussian rationals, so its
    canonical_pattern is stripped and its determinant rational.  a takes the
    factors z - 1 and z + 1 on demand, a or b may be 0, and b is scaled by 1
    or 4: with 4 the determinant |a|^2 - 16 |b|^2 h often dips below 0 inside
    (-1, 1), an engineered non-member."""
    gaussian = polys(gaussian_scalars, max_degree=2).filter(bool)
    a, b = draw(gaussian), draw(gaussian)
    for e in (1, -1):
        if draw(st.booleans()):
            a = a * Poly([-e, 1])
    b = b * Poly.const(draw(st.sampled_from((1, 4))))
    shape = draw(st.sampled_from(("ab", "ab", "a0", "0b")))
    a, b = (a, Poly()) if shape == "a0" else (Poly(), b) if shape == "0b" else (a, b)
    assume(FiberPattern(a, b).determinant())
    return FiberPattern(a, b).matrix()


@settings(max_examples=150, deadline=None)
@given(mat=stripped_pattern_matrices())
@example(mat=TAU)
@example(mat=ProjMat.of(Poly.z(), ONE_MINUS_Z2, Poly.const(1), Poly.z()))
def test_stripped_determinant_lemma(mat):
    """The lemma of FiberPattern.stripped_determinant on canonical patterns:
    D has no real root outside [-1, 1]; D(e) = 0 for e = +-1 exactly when
    a(e) = 0, and then e is a simple root; and contracted_fibers are the real
    roots of D in the open (-1, 1) found by sympy, in number, minimal
    polynomial (which divides D) and increasing order."""
    pat = canonical_pattern(mat)
    det = pat.determinant()
    b = cauchy_bound(det)
    assert ref_real_roots(det, -b, Fraction(-1)) == ref_real_roots(det, Fraction(1), b) == []
    north, south, stripped = pat.stripped_determinant
    divided = stripped
    for e, zero in ((1, north), (-1, south)):
        assert zero == (not pat.a(e)) == (not det(e))
        assert not zero or det.derivative()(e)
        assert stripped(e)
        if zero:
            divided = divided * Poly([-e, 1])
    assert divided == _primitive_real(det)
    fibers, ref = contracted_fibers(mat), ref_real_roots(det, Fraction(-1), Fraction(1))
    assert [root.minpoly for root in fibers] == [minpoly for minpoly, _ in ref]
    for root, (minpoly, inside) in zip(fibers, ref):
        assert not det % minpoly
        # a linear minimal polynomial is its root; another one has it in the interval
        assert root.is_rational() or inside(root.lo, root.hi)


def test_membership_builds_one_determinant(monkeypatch):
    """in_diffeo_group then contracted_fibers on one matrix builds the
    pattern determinant once, and one record of the real roots of D'
    (`poly.RealRoots`, memoised on the pattern), which takes its square-free
    part once: one gcd for a member and a non-member alike, none for a
    constant D'.  Root finding never sees the roots of z - 1 or z + 1:
    a(+-1) = 0 is read off the pattern and divided out before any root is
    sought.  A member, whose count is 0, never reaches root finding; a
    non-member seeks the real-root factors of the square-free part once.
    Its rational roots come from a p-adic lift, and Zassenhaus runs only on
    a cofactor with a real root left: a D' whose real roots are all
    rational makes no run, also when a positive quadratic is left;
    4 z^2 - 3 and an irreducible quartic make one each.  Before the record,
    the count (`sturm_count`) and the roots (`roots_of_rational_poly`) each
    took the square-free part of a non-member's D', two gcds; before the
    rational-root stage this test counted factor_rational_poly calls, one
    per non-member."""
    import birsphere.factor as factor
    import birsphere.poly as poly_mod
    import birsphere.sphere as sphere

    dets, records, gcds, sought, runs = [], [], [], [], []
    real_det, real_record, real_gcd = FiberPattern.determinant, sphere.RealRoots, factor.gcd
    real_factors, real_zassenhaus = poly_mod.real_root_factors, factor.zassenhaus
    monkeypatch.setattr(FiberPattern, "determinant", lambda self: dets.append(1) or real_det(self))
    monkeypatch.setattr(sphere, "RealRoots", lambda p: records.append(p) or real_record(p))
    monkeypatch.setattr(factor, "gcd", lambda *fs: gcds.append(fs) or real_gcd(*fs))
    monkeypatch.setattr(poly_mod, "real_root_factors", lambda f: sought.append(f) or real_factors(f))
    monkeypatch.setattr(factor, "zassenhaus", lambda f, p: runs.append(f) or real_zassenhaus(f, p))
    z = Poly.z()
    for a, b, member, fibers, zassenhaus_runs in (
        (Poly(), Poly.const(1), True, 0, 0),  # tau: D = z^2 - 1, both ends divided out
        (z - Poly.const(1), Poly.const(1), False, 1, 0),  # D = 2 z (z - 1): one end, a root at 0
        (Poly.const(1), Poly.const(2), False, 2, 1),  # D = 4 z^2 - 3
        (z * z - Poly.const(1), Poly.const(3), True, 0, 0),  # D = (z^2 - 1)(z^2 + 8)
        (z * z - Poly.const(1), Poly.const(Fraction(1, 2)), False, 2, 1),  # D = (z^2 - 1)(z^2 - 3/4)
        (Poly.const(1), z.scale(3), False, 4, 1),  # D = 9 z^4 - 9 z^2 + 1, irreducible
        (2 * z * z - 2 * z + 2, z + 2, False, 2, 0),  # D = z (5 z - 4)(z^2 + 3)
    ):
        mat = FiberPattern(a, b).matrix()
        for counter in (dets, records, gcds, sought, runs):
            counter.clear()
        assert in_diffeo_group(mat) == member
        assert len(contracted_fibers(mat)) == fibers
        assert (len(dets), len(records), len(sought)) == (1, 1, 0 if member else 1)
        assert len(gcds) == (records[0].degree > 0)
        assert len(runs) == zassenhaus_runs
        assert all(sum(f) and sum(f[0::2]) != sum(f[1::2]) for f in sought)


def test_reality_twist_is_one_constant():
    tw = reality_twist()
    before = [p.coeffs for p in tw.entries()]
    assert tw == ProjMat.of(Poly(), ONE_MINUS_Z2, Poly.const(1), Poly())
    oval = ProjMat.of(Poly(), ONE_MINUS_Z2 * Poly([CoeffScalar(0, 1), 1]), Poly([CoeffScalar(0, -1), 1]), Poly())
    assert in_diffeo_group(oval) and in_diffeo_group(tw)
    assert classify_spheremap(y_flip()).family == 4
    assert reality_twist() is tw
    assert [p.coeffs for p in tw.entries()] == before


def test_no_module_imports_random():
    """No chance decides: no module of the package imports random.  The
    package runs on the standard library alone: none imports sympy.  One
    polynomial type: no module defines or imports a rational-function type
    RatFn."""
    import ast
    from pathlib import Path

    import birsphere

    for path in Path(birsphere.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                assert node.name != "RatFn", f"{path.name} defines RatFn"
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                assert all(alias.name != "RatFn" for alias in node.names), f"{path.name} imports RatFn"
            else:
                continue
            for banned in ("random", "sympy"):
                assert not any(n.split(".")[0] == banned for n in names), f"{path.name} imports {banned}"


def test_poly_columns_read_only_in_poly():
    """The coefficient layout is known to two modules only.  No package
    module but poly, and nothing in perfbench, reads a Poly's private
    coefficient columns; no package module but scalars and poly, and nothing
    in perfbench, reads a scalar's private row or denominator; by attribute
    or by name.  A scalar is stored as the row that a coefficient is across
    the columns, so nothing converts between them: the names to_row and
    from_row are gone from the package, the tests and perfbench."""
    import ast
    from pathlib import Path

    import birsphere

    package = Path(birsphere.__file__).parent
    root = package.parent.parent
    sources = [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]
    owners = {"_cols": {"poly.py"}, "_num": {"poly.py", "scalars.py"}, "_den": {"poly.py", "scalars.py"}}
    readers = sorted(
        f"{path.name}:{node.lineno}:{name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        for name, modules in owners.items()
        if not (path.parent == package and path.name in modules)
        and (
            (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Constant) and node.value == name)
        )
    )
    converters = sorted(
        f"{path.name}:{node.lineno}"
        for path in [*sources, *(root / "tests").glob("*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)} & {"to_row", "from_row"}
    )
    assert len(sources) > 10 and readers == [] and converters == []


def test_no_undefined_names():
    """Every name a module of the package loads is bound in that module (by
    def, class, import, assignment, argument or except target) or is a
    builtin: an unbound one is a NameError at its first call.  Annotations
    are exempt, since `from __future__ import annotations` never evaluates
    them."""
    import ast
    import builtins
    from pathlib import Path

    import birsphere

    undefined = []
    for path in sorted(Path(birsphere.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound, annotations = set(dir(builtins)), []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
                annotations.append(getattr(node, "returns", None))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
                annotations.append(node.annotation)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
        exempt = {id(sub) for ann in annotations if ann is not None for sub in ast.walk(ann)}
        undefined += [
            f"{path.name}:{node.lineno} {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and id(node) not in exempt and node.id not in bound
        ]
    assert undefined == []


# Definitions kept for the tests alone: each is the basis of an open
# roadmap item, the certified base-flip conjugator.
TEST_ONLY_DEFINITIONS = {
    "TwistedAlgebra",  # criterion 8: the twisted algebra of a class
    "coboundary_witness",  # criterion 8: its coboundary witnesses
    "factor_even",  # the base-flip certificate is to be built from it
}


def test_no_unreferenced_definitions():
    """Every function, method and class the package defines has a caller
    outside its own body, in a package module other than __init__.py or in
    perfbench.  A method (a def or class in a class body) is called through
    an attribute, or a string constant that is its name or a dotted path
    ending in it (tracers name methods so).  Any other definition is called
    that way too, or through a bare name in its own module or in a module
    that imports it from there or from the package.  A reference from the
    tests or an export from __init__.py does not count; TEST_ONLY_DEFINITIONS
    lists the few definitions kept for the tests.  Dunder methods are
    exempt, as the language calls them.  The check goes by name, so a method
    stays blind to a same-named method of another class (Poly.compose and
    SphereMap.compose) or a same-named attribute."""
    import ast
    from collections import defaultdict
    from pathlib import Path

    import birsphere

    package = Path(birsphere.__file__).parent
    root = package.parent.parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "__init__.py")
    trees = {path: ast.parse(path.read_text()) for path in [*modules, *(root / "perfbench").glob("*.py")]}
    bare, dotted = defaultdict(list), defaultdict(list)  # name -> [(path, node id)]
    imports = defaultdict(set)  # path -> {(last part of the source module, name)}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare[node.id].append((path, id(node)))
            elif isinstance(node, ast.Attribute):
                dotted[node.attr].append((path, id(node)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                dotted[node.value.rpartition(".")[2]].append((path, id(node)))
            elif isinstance(node, ast.ImportFrom):
                imports[path].update(((node.module or "").rpartition(".")[2], a.name) for a in node.names)

    def called(path, node, method) -> bool:
        body = {id(sub) for sub in ast.walk(node)}
        sources = {(path.stem, node.name), (package.name, node.name)}
        if any(where != path or ref not in body for where, ref in dotted[node.name]):
            return True
        return not method and any(
            ref not in body if where == path else bool(sources & imports[where]) for where, ref in bare[node.name]
        )

    unreferenced = set()
    for path in modules:
        tree = trees[path]
        members = {id(child) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for child in cls.body}
        unreferenced |= {
            (path.name, node.lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not called(path, node, id(node) in members)
        }
    # an exempt definition that gains a caller, or goes, leaves the set
    assert TEST_ONLY_DEFINITIONS <= {name for _, _, name in unreferenced}
    assert sorted(f"{m}:{line} {name}" for m, line, name in unreferenced if name not in TEST_ONLY_DEFINITIONS) == []


def test_projmat_constructed_only_in_projmat():
    """ProjMat's closed forms (reflect_z, inverse, the identity products)
    are correct only because every ProjMat is canonical, so the constructor
    is called directly, as ProjMat(...) or as cls(...) inside the class,
    only by the projmat methods that prove their result canonical:
    _monic_lead (entries of gcd 1, reached from _canonical, inverse and
    of_coprime), identity and reflect_z.  Everything else, in the package,
    the tests and perfbench, goes through ProjMat.of or those methods."""
    import ast
    from pathlib import Path

    import birsphere

    package = Path(birsphere.__file__).parent
    root = package.parent.parent
    constructors = set()

    def visit(node, path, function, in_projmat):
        if isinstance(node, ast.ClassDef):
            in_projmat = node.name == "ProjMat"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ProjMat" or (name == "cls" and in_projmat):
                constructors.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function, in_projmat)

    for path in [*package.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        visit(ast.parse(path.read_text()), path, None, False)
    assert constructors == {("projmat.py", "_monic_lead"), ("projmat.py", "identity"), ("projmat.py", "reflect_z")}


def test_canonical_form_called_only_in_projmat():
    """ProjMat._canonical is the one normalisation of a matrix; package
    modules outside projmat.py reach it through ProjMat.of, and tests may
    call it directly."""
    import ast
    from pathlib import Path

    import birsphere

    callers = sorted(
        f"{path.name}:{node.lineno}"
        for path in Path(birsphere.__file__).parent.glob("*.py")
        if path.name != "projmat.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_canonical"
    )
    assert callers == []


def test_queries_leave_sympy_unloaded():
    """A classification and a root isolation through the factoriser, in a
    fresh interpreter, load no sympy."""
    import subprocess
    import sys
    from pathlib import Path

    import birsphere

    script = (
        "import sys\n"
        "from birsphere.cli import main\n"
        "from birsphere.poly import ONE_MINUS_Z2, Poly\n"
        "from birsphere.projmat import ProjMat\n"
        "from birsphere.sphere import contracted_fibers\n"
        "assert main(['classify', 'builtin:g2p:1/2']) == 0\n"
        "z = Poly.z()\n"
        "assert len(contracted_fibers(ProjMat.of(z, ONE_MINUS_Z2, Poly.const(1), z))) == 2\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = str(Path(birsphere.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
