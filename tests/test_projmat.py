from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from birsphere.classify import classify_spheremap, decide_conjugacy, spheremap_from_json
from birsphere.errors import BasePointHit, IndeterminateFiber, UndecidedExact
from birsphere.involutions import HyperellipticModel, basis_equiv_moduli
from birsphere.parsing import parse_poly
from birsphere.poly import ONE_MINUS_Z2, Poly
from birsphere.projmat import INF, TWO_COS, ProjMat, raw_mul
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import (
    BaseMobius,
    ConjugacyCertificate,
    FiberPattern,
    SphereMap,
    builtin_map,
    interval_shift,
    z_flip,
)
from conftest import gaussian_scalars, polys, ref_in_reality_group, ref_proportional

Z = Poly.z()
I = CoeffScalar.i()
TAU = ProjMat.of(Poly(), ONE_MINUS_Z2, Poly.const(1), Poly())


def test_hash_is_computed_once_per_matrix():
    """A ProjMat hashes as the tuple of its entries, which it compares by."""
    m = ProjMat.of(Z + I, ONE_MINUS_Z2, Poly.const(3), Z * Z - 2)
    assert hash(m) == hash(m) == hash(m.entries())


def test_canonical_form():
    scaled = ProjMat.of(Poly(), ONE_MINUS_Z2 * (Z * Z + 5), (Z * Z + 5), Poly())
    assert scaled == TAU
    assert ProjMat.of(*(p.scale(7) for p in TAU.entries())) == TAU


def test_gaussian_canonical_form_takes_no_euclid_step(monkeypatch):
    """The entry gcd of a matrix over Q(i) is one call of the modular
    kernel over Z[i]: no polynomial remainder is taken."""
    calls = []
    real_mod = Poly.__mod__
    monkeypatch.setattr(Poly, "__mod__", lambda a, b: calls.append(1) or real_mod(a, b))
    entries = [Z + I, Z.scale(2) - 3 * I, Poly.const(1 + I), Z * Z + 1 + I]
    mat = ProjMat.of(*(ONE_MINUS_Z2 * (Z - 2 * I) * e for e in entries))
    assert mat == ProjMat.of(*entries) and not calls


def test_products_and_inverses(rng):
    from conftest import random_reality_element

    assert (TAU * TAU).is_identity()
    di = ProjMat.diag(Poly.const(1), Poly.const(I))
    assert di * di == ProjMat.diag(Poly.const(1), Poly.const(-1))
    for _ in range(10):
        a = random_reality_element(rng)
        assert (a * a.inverse()).is_identity()
        b = random_reality_element(rng)
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_orders():
    assert TAU.order() == 2
    assert ProjMat.diag(Poly.const(1), Poly.const(I)).order() == 4
    unipotent = ProjMat.of(Poly.const(1), Poly.const(1), Poly(), Poly.const(1))
    assert unipotent.order() is None
    assert unipotent.inverse() == ProjMat.of(Poly.const(1), Poly.const(-1), Poly(), Poly.const(1))


def test_order_table():
    c = ProjMat.of(Z + Poly.const(1), Poly.const(2), Poly.const(1), Z)
    for (k, n), two_cos in TWO_COS.items():
        kappa = CoeffScalar(2 + two_cos)
        if n == 1:
            mat = ProjMat.identity()
        elif n == 2:
            mat = ProjMat.of(1, 1, 1, -1)
        else:  # trace kappa and determinant kappa
            mat = ProjMat.of(Poly.const(kappa - 1), Poly.const(-1), 1, 1)
        a = c * mat * c.inverse()
        assert a.order() == n, (k, n)
        power = ProjMat.identity()
        for d in range(1, n + 1):  # a^d, from the product loop
            power = power * a
            assert power.is_identity() == (d == n), (k, n, d)
    assert ProjMat.of(1, 1, 0, 1).order() is None  # unipotent
    assert ProjMat.of(Z + Poly.const(2), ONE_MINUS_Z2, 1, Z + Poly.const(2)).order() is None
    assert ProjMat.diag(1, Poly.const(2 * I)).order() is None  # kappa not real


CATALOGUE = ("tau", "upsilon", "antipodal", "tilde_eta", "rot:1/3", "rot:1/4", "rot:1/6",
             "rot:3/8", "rot:5/12", "rot:5/24", "g1p:1/2", "g2p:1/2")


@st.composite
def reality_elements(draw):
    """A reality element from a random pattern of degree <= 2 or the
    catalogue, or a product of two of them."""

    def one():
        if draw(st.booleans()):
            return builtin_map(draw(st.sampled_from(CATALOGUE))).fiber
        pat = FiberPattern(draw(polys(gaussian_scalars, max_degree=2)), draw(polys(gaussian_scalars, max_degree=2)))
        assume(pat.determinant())
        return pat.matrix()

    return one() * one() if draw(st.booleans()) else one()


@settings(max_examples=60, deadline=None)
@given(m=reality_elements())
@example(m=builtin_map("g2p:1/2").fiber)
@example(m=builtin_map("antipodal").fiber)
def test_closed_forms_match_canonical_route(m):
    """reflect_z, inverse and products with the identity equal the gcd-chain
    canonical form of the same entries; the flip's substitution is the
    cleared substitution of z -> -z; and the diffeomorphism test of a flip
    reads its own fiber, as (A(-z), id) is conjugate to (A, id) by z_flip."""
    from birsphere.sphere import cleared_substitution, diffeo_orientation

    assert m.reflect_z() == ProjMat._canonical([p.reflect_z() for p in m.entries()])
    assert m.inverse() == ProjMat._canonical([m.a22, -m.a12, -m.a21, m.a11])
    one = ProjMat.identity()
    assert one * m == m * one == m
    assert m.is_identity() == (m == ProjMat._canonical([Poly.const(1), Poly(), Poly(), Poly.const(1)]))
    flip = BaseMobius.negation()
    d = max(p.degree for p in m.entries())
    assert flip.substitute_matrix(m) == ProjMat._canonical([cleared_substitution(p, -Z, Poly.const(1), d)
                                                            for p in m.entries()])
    orientation = diffeo_orientation(m)
    assert diffeo_orientation(m.reflect_z()) == orientation
    pair = SphereMap(m, flip)
    assert pair.trivial_base_part().fiber == m.reflect_z()
    assert pair.is_diffeo() == (orientation != 0)
    assert pair.orientation() == -orientation


@st.composite
def diffeo_conjugators(draw):
    """[[a, b h], [~b, ~a]] with a = a0 + s i z and |b| < a0 - 1 on [-1, 1],
    so the determinant |a|^2 - |b|^2 (1 - z^2) is positive on R."""
    small = st.integers(-1, 1)
    a = Poly([CoeffScalar(draw(st.integers(5, 40))), CoeffScalar(0, draw(small))])
    b = Poly([CoeffScalar(draw(small), draw(small)), CoeffScalar(draw(small), draw(small))])
    return FiberPattern(a, b).matrix()


@st.composite
def sphere_conjugators(draw):
    """A diffeomorphic fiber conjugator, composed with an interval shift, a
    z-flip, both, or neither."""
    c = SphereMap.trivial_base(draw(diffeo_conjugators()))
    if draw(st.booleans()):
        c = c.compose(interval_shift(draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3))))))
    if draw(st.booleans()):
        c = c.compose(z_flip())
    return c


def _curve_model(curve: dict) -> HyperellipticModel:
    assert curve["sign"] == "-"  # w^2 = -m for every real involution
    return HyperellipticModel(parse_poly(curve["m"]))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(CATALOGUE), c=sphere_conjugators())
@example(name="g1p:1/2", c=interval_shift(Fraction(1, 2)))
@example(name="g2p:1/2", c=interval_shift(Fraction(1, 2)).compose(z_flip()))
def test_order_and_family_conjugation_invariant(name, c):
    """Family, order, angle, genus, parameter and twist class agree.  The
    fixed curve's m is a representative that a shift moves, so it is
    compared under the interval group, after its degree."""
    assert c.is_diffeo()
    g = builtin_map(name)
    h = c.compose(g).compose(c.inverse())
    assert h.order() == g.order()
    want, have = classify_spheremap(g), classify_spheremap(h)
    want_curve, have_curve = want.moduli.pop("fixed_curve", None), have.moduli.pop("fixed_curve", None)
    assert (have.family, have.moduli) == (want.family, want.moduli)
    assert (want_curve is None) == (have_curve is None)
    if want_curve is not None:
        model_g, model_h = _curve_model(want_curve), _curve_model(have_curve)
        assert model_h.degree == model_g.degree
        assert basis_equiv_moduli(model_g, model_h) is not None


CONJ_NAMES = ("tau", "upsilon", "antipodal", "tilde_eta", "rot:1/3", "rot:2/3", "rot:1/4", "rot:3/4",
              "rot:1/8", "rot:3/8", "g1p:1/2", "g1p:-1/2", "g2p:1/2", "g2p:-1/2")


@settings(max_examples=20, deadline=None)
@given(names=st.tuples(st.sampled_from(CONJ_NAMES), st.sampled_from(CONJ_NAMES)),
       conjugators=st.tuples(sphere_conjugators(), sphere_conjugators()))
@example(names=("tau", "g2p:1/2"), conjugators=(SphereMap.identity(), SphereMap.identity()))
@example(names=("g1p:1/2", "g1p:-1/2"), conjugators=(SphereMap.identity(), interval_shift(Fraction(1, 2))))
def test_conj_symmetric_with_verified_certificates(names, conjugators):
    """Both directions get one answer, and every conjugator verifies: a
    trivial-base one by the reference checks, one that moves the base as a
    certificate after its JSON round trip.  Elements of one order with
    different base actions are undecided both ways."""
    g1, g2 = (c.compose(builtin_map(n)).compose(c.inverse()) for n, c in zip(names, conjugators))
    answers = []
    for a, b in ((g1, g2), (g2, g1)):
        try:
            answers.append(decide_conjugacy(a, b))
        except UndecidedExact:
            answers.append(None)
    forward, backward = answers
    if forward is None or backward is None:
        assert forward is backward is None
        assert g1.order() == g2.order() and g1.base.flip != g2.base.flip
        return
    assert forward["conjugate"] == backward["conjugate"]
    for (a, b), res in (((g1, g2), forward), ((g2, g1), backward)):
        if isinstance(res.get("conjugator"), dict):
            assert ConjugacyCertificate("conjugation", a, b, spheremap_from_json(res["conjugator"])).verify()
        elif "conjugator" in res:
            c = ProjMat.of(*(parse_poly(e) for row in res["conjugator"] for e in row))
            assert ref_in_reality_group(c)
            assert ref_proportional(raw_mul(c.entries(), a.fiber.entries()), raw_mul(b.fiber.entries(), c.entries()))


def test_act_on_fiber():
    assert TAU.act_on_fiber(1, 0) == CoeffScalar(1)
    assert ProjMat.identity().act_on_fiber(CoeffScalar(5), 3) == CoeffScalar(5)
    # contracted fiber: the Möbius action degenerates to a constant
    a = ProjMat.of(Z, ONE_MINUS_Z2, Poly.const(1), Z)
    z0 = CoeffScalar(TowerReal.sqrt_rational(Fraction(1, 2)))
    assert a.act_on_fiber(5, z0) == z0
    assert a.act_on_fiber(INF, z0) == z0
    with pytest.raises(BasePointHit):
        a.act_on_fiber(-z0, z0)  # the single 0/0 point
    # canonicalisation strips common factors, so a would-be indeterminate
    # fiber heals into an honest evaluation
    healed = ProjMat.of(Z * Z, Z, Z, Z * (Z + Poly.const(1)))
    assert healed.act_on_fiber(1, 0) == CoeffScalar(Fraction(1, 2))


def test_infinity_handling():
    assert TAU.act_on_fiber(INF, 0) == CoeffScalar(0)
    up = ProjMat.of(Poly.const(1), Poly.const(1), Poly(), Poly.const(1))
    assert up.act_on_fiber(INF, 0) is INF


def test_eigen_ratio_trace_invariant():
    """kappa = trace^2/det is 2, 0 and 4 on these, the angles 1/4, 1/2 and 0."""
    assert ProjMat.diag(Poly.const(1), Poly.const(I)).rotation_angle() == (1, 4)
    assert TAU.rotation_angle() == (1, 2)
    assert ProjMat.identity().rotation_angle() == (0, 1)


def test_iterated_action_matches_order(rng):
    from conftest import random_reality_element

    di = ProjMat.diag(Poly.const(1), Poly.const(I))
    c = random_reality_element(rng, max_degree=1)
    a = c * di * c.inverse()
    n = a.order()
    assert n == 4
    t = CoeffScalar(Fraction(2, 3))
    for z0 in (Fraction(1, 3), Fraction(-2, 5), Fraction(0)):
        val = t
        ok = True
        try:
            for _ in range(n):
                val = a.act_on_fiber(val, z0)
        except (BasePointHit, IndeterminateFiber):
            ok = False  # finitely many bad fibers are allowed
        if ok:
            assert val == t
