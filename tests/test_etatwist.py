from fractions import Fraction

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birsphere.classify import classify_flip_involution
from birsphere.errors import NotEvenFunction, UnsupportedExtension
from birsphere.etatwist import (
    TwistClass,
    TwistedAlgebra,
    factor_even,
    h2_invariant,
    h2_reduce,
    twisted_square,
)
from birsphere.poly import Poly
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar
from birsphere.sphere import (
    BaseMobius,
    FiberPattern,
    SphereMap,
    antipodal_map,
    builtin_map,
    x_flip,
    y_flip,
    z_flip,
)

from conftest import ref_h2_reduce, random_reality_element, same_triple, same_up_to_positive_rational

Z = Poly.z()
I = CoeffScalar.i()


def test_twisted_square_examples():
    """Each square is read off the fiber's pattern, so it is pinned up to
    the square of that pattern's positive rational factor."""
    d = ProjMat.diag(Poly([2, I]), Poly([2, -I]))  # diag(iz+2, -iz+2)
    for mat, square in ((ProjMat.identity(), Poly.const(1)), (d, Z * Z + 4), (y_flip().fiber, -(Z * Z) + 1),
                        (antipodal_map().fiber, Poly.const(-1))):
        assert same_up_to_positive_rational((twisted_square(mat),), (square,))
    # non-involution: the twisted product is not scalar
    a = Poly([CoeffScalar(1, 1), CoeffScalar(1)])  # z + 1 + i
    not_inv = ProjMat.diag(a, a.conj())
    assert twisted_square(not_inv) is None


def test_h2_reduce_examples():
    assert h2_reduce(Poly.const(-1)) == TwistClass(-1, ())
    cls = h2_reduce(Z * Z + 4)
    assert cls.sign == 1 and len(cls.gens) == 1 and cls.gens[0] == Fraction(4)
    assert h2_reduce(Z * Z - 1) == TwistClass(-1, ())
    assert h2_reduce(-(Z * Z) + 1) == TwistClass(1, ())
    assert h2_reduce(Z * Z) == TwistClass(-1, ())
    # norms are trivial: (z^2+b)(z^2+b) ~ 1
    assert h2_reduce((Z * Z + 7) ** 2) == TwistClass(1, ())
    with pytest.raises(NotEvenFunction):
        h2_reduce(Z + 1)


def test_h2_reduce_irrational_generators():
    # z^4 - 2 has w-roots +-sqrt(2): one flip, one generator sqrt(2)
    cls = h2_reduce(Z**4 - 2)
    assert cls.sign == -1 and len(cls.gens) == 1
    gen = cls.gens[0]
    assert str(gen.minpoly) == "z^2-2" and gen.compare(Fraction(1)) > 0 and gen < Fraction(2)


W = Poly.z()
# w-factors: rational roots of each sign and 0, irrational real roots, and
# factors with no real root (positive quadratics, w^4 + 1, an irreducible
# quartic with two imaginary pairs)
W_FACTORS = (W, W - 1, W + Fraction(1, 4), W - Fraction(9, 4), W + 3, W * W - 2, W * W + 1, 3 * W * W - 2 * W + 1,
             W * W - W + 1, W**4 + 1, W**4 + 3 * W * W + 1, 4 * W * W - 3)


def _even(w_poly: Poly) -> Poly:
    """w_poly(z^2)."""
    return Poly([c for x in w_poly.coeffs for c in (x, CoeffScalar(0))][:-1])


@settings(max_examples=150, deadline=None)
@given(lead=st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
       parts=st.lists(st.tuples(st.sampled_from(W_FACTORS), st.integers(1, 3)), max_size=4))
@example(lead=Fraction(-2, 3), parts=[])
@example(lead=Fraction(-1), parts=[(W * W + 1, 1), (W**4 + 1, 3)])  # no real root at all
@example(lead=Fraction(5), parts=[(W, 3), (W + 3, 2), (W * W - W + 1, 1)])
@example(lead=Fraction(-7, 2), parts=[(W - 1, 1), (W * W + 1, 2), (4 * W * W - 3, 1), (W + Fraction(1, 4), 1)])
def test_h2_reduce_matches_the_full_factorisation(lead, parts):
    """h2_reduce, which factors only the real-root parts of the odd Yun
    parts (`factor.real_root_factors`), gives the class of the full
    factorisation (`conftest.ref_h2_reduce`, `factor_rational_poly`), byte
    for byte in its report, on even polynomials with a negative or positive
    lead and planted factors with and without real roots, of odd and even
    multiplicity, a factor drawn twice adding its multiplicities."""
    w_poly = Poly.const(lead)
    for f, k in parts:
        w_poly = w_poly * f**k
    mu = _even(w_poly)
    got, want = h2_reduce(mu), ref_h2_reduce(mu)
    assert got == want and json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_group_law():
    a = h2_reduce(Z * Z + 4)
    b = h2_reduce(Z * Z + 9)
    ab = a.combine(b)
    assert len(ab.gens) == 2
    assert ab.combine(a) == b
    assert a.combine(a) == TwistClass(1, ())
    assert ab == h2_reduce((Z * Z + 4) * (Z * Z + 9))


def test_invariants_of_builtins():
    assert h2_invariant(z_flip()) == TwistClass(1, ())
    assert h2_invariant(antipodal_map()) == TwistClass(-1, ())
    tau_pair = SphereMap(y_flip().fiber, BaseMobius.negation())
    assert h2_invariant(tau_pair) == TwistClass(1, ())
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5)):
        g = builtin_map(f"g2p:{t}")
        assert g.order() == 2
        cls = h2_invariant(g)
        assert cls.sign == 1 and len(cls.gens) == 1
        assert cls.gens[0] == t * t


def test_pair_conjugacy():
    """Conjugacy in the fiber-compatible birational group: equal twist
    classes."""
    tau_pair = SphereMap(y_flip().fiber, BaseMobius.negation())
    assert h2_invariant(z_flip()) == h2_invariant(tau_pair)
    assert h2_invariant(antipodal_map()) != h2_invariant(z_flip())
    assert h2_invariant(builtin_map("g2p:1/2")) != h2_invariant(builtin_map("g2p:1/3"))
    assert h2_invariant(builtin_map("g2p:1/2")) == h2_invariant(builtin_map("g2p:-1/2"))


def test_coboundary_invariance(rng):
    pairs = [z_flip(), antipodal_map(), builtin_map("g2p:1/2")]
    for pair in pairs:
        base_cls = h2_invariant(pair)
        for _ in range(12):
            c = random_reality_element(rng, max_degree=1)
            twisted_fiber = c.reflect_z() * pair.fiber * c.inverse()
            twisted = SphereMap(twisted_fiber, BaseMobius.negation())
            assert twisted.order() == 2
            assert h2_invariant(twisted) == base_cls


def test_factor_even_examples():
    assert factor_even(Z * Z) == Z.scale(I)
    assert factor_even(Poly.const(4)) == Poly.const(2)
    # the rational function (z^2 + 1)/(z^2 + 9) factors as its numerator
    # and denominator do
    for f in (Z**4 - 1, Z * Z + 4, Z * Z + 1, Z * Z + 9):
        g = factor_even(f)
        assert g * g.reflect_z() == f
    neg = factor_even(Poly.const(-9))
    assert neg * neg.reflect_z() == Poly.const(-9)
    # w^2 -+ w - 1 needs sqrt(-1 +- 2i), whose real part is outside the tower
    for f in (Z**4 - Z * Z - 1, Z**4 + Z * Z - 1):
        with pytest.raises(UnsupportedExtension, match="no tower splitting of the even factor"):
            factor_even(f)


def test_twisted_algebra_coboundary(rng):
    alg, one = TwistedAlgebra, (Poly.const(1), Poly(), Poly.const(1))
    for _ in range(10):
        b = (
            Poly([CoeffScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]),
            Poly([CoeffScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]),
            Poly.const(1),
        )
        try:
            binv = alg.inverse(b)
        except ZeroDivisionError:
            continue
        assert same_triple(alg.mul(b, binv), one) and same_triple(alg.mul(binv, b), one)
        u = alg.mul(b, alg.reflect(binv))
        assert same_triple(alg.mul(u, alg.reflect(u)), one)
        witness = alg.coboundary_witness(u)
        recovered = alg.mul(witness, alg.inverse(alg.reflect(witness)))
        assert same_triple(recovered, u)
    with pytest.raises(ZeroDivisionError):
        alg.inverse((Poly(), Poly(), Poly.const(1)))


def test_classification():
    assert classify_flip_involution(antipodal_map()).family == 5
    assert classify_flip_involution(z_flip()).family == "linear-stratum"
    g = builtin_map("g2p:1/2")
    rep = classify_flip_involution(g)
    assert rep.family == 8
    assert rep.moduli == {"twist_class": h2_invariant(g).to_json()}
    assert h2_invariant(g).gens[0] == Fraction(1, 4)
    linear = classify_flip_involution(SphereMap(y_flip().fiber, BaseMobius.negation()))
    assert linear.family == "linear-stratum" and linear.caveats
    # (w:-x:y:-z): fiber upsilon, base flip, a rotation by pi about the
    # y-axis: trivial twist class, two real fixed points on the equator
    ups_pair = SphereMap(x_flip().fiber, BaseMobius.negation())
    assert h2_invariant(ups_pair) == TwistClass(1, ())
    assert classify_flip_involution(ups_pair).family == "linear-stratum"


FLIP_FAMILIES = (
    (antipodal_map(), 5),
    (z_flip(), "linear-stratum"),
    (SphereMap(y_flip().fiber, BaseMobius.negation()), "linear-stratum"),  # the fiber of tau
    (SphereMap(x_flip().fiber, BaseMobius.negation()), "linear-stratum"),  # the fiber of upsilon
)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def diffeo_conjugators(draw) -> ProjMat:
    """A reality element [[a, b h], [~b, ~a]] of degree <= 1 that is a
    birational diffeomorphism by construction, as perfbench's
    diffeo_conjugator builds one: a = a0 + a1 z, b = b0 + b1 z with a0 real
    and a0 > |a1| + |b0| + |b1| (each modulus bounded by |re| + |im|), so
    |a| > |b| on [-1, 1] and D = |a|^2 - |b|^2 (1 - z^2) > 0 on R."""
    parts = draw(st.lists(small_fractions, min_size=6, max_size=6))
    a0 = sum(map(abs, parts)) + draw(st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3))
    a1, b0, b1 = (CoeffScalar(re, im) for re, im in zip(parts[::2], parts[1::2]))
    return FiberPattern(Poly([CoeffScalar(a0), a1]), Poly([b0, b1])).matrix()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FLIP_FAMILIES), diffeo_conjugators())
def test_flip_family_is_a_conjugacy_invariant(case, c):
    """Conjugating a linear base-flip involution (A, flip) by a diffeomorphism
    c, to (c(-z) A c^-1, flip), keeps its family: 5 for antipodal, whose
    conjugates fix no real point, and "linear-stratum" for z_flip and the
    fibers of tau and upsilon over the flip."""
    g, family = case
    conj = SphereMap(c.reflect_z() * g.fiber * c.inverse(), BaseMobius.negation())
    assert classify_flip_involution(conj).family == family
