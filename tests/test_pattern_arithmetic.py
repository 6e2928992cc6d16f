"""The reality group's arithmetic on patterns (a, b), against the 4-entry
oracle: the lift [[a, b h], [~b, ~a]] multiplied by `raw_mul` and compared
by the six-minor test `ref_proportional`; certificates and orders with a
moving base against the same oracle over cleared substitutions.  Also the
exact division by h = 1 - z^2 that reads b off a matrix, and counts that
pin the pattern paths: a trivial-base certificate, a base flip's order and
its twisted square form no canonical ProjMat product."""

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from birsphere import projmat as projmat_mod
from birsphere.errors import NotRealityMember
from birsphere.etatwist import twisted_square
from birsphere.involutions import InvolutionForm, construct_conjugator
from birsphere.poly import ONE_MINUS_Z2, Poly, over_h, times_h
from birsphere.projmat import ProjMat, angle_of_entries, raw_mul
from birsphere.scalars import CoeffScalar
from birsphere.sphere import (
    BaseMobius,
    ConjugacyCertificate,
    FiberPattern,
    SphereMap,
    builtin_map,
    canonical_pattern,
    cleared_substitution,
)
from conftest import (
    MOVING_MAPS,
    coeff_scalars,
    gaussian_scalars,
    member_entries,
    polys,
    ref_in_reality_group,
    ref_proportional,
)

Z = Poly.z()
I = CoeffScalar.i()

gaussian_polys = polys(gaussian_scalars, max_degree=2)
tower_polys = polys(coeff_scalars((1, 2)), max_degree=2)  # Q(sqrt 2, i)
small_polys = gaussian_polys | tower_polys
real_polys = polys(coeff_scalars((1, 2)).map(lambda c: CoeffScalar(c.re)), max_degree=1)


def nonzero(strategy, one=Poly.const(1)):
    """The strategy with its zero drawn as one: no draw is filtered out."""
    return strategy.map(lambda x: x if x else one)


def lift(p: FiberPattern) -> tuple[Poly, Poly, Poly, Poly]:
    """The pattern's lift [[a, b h], [~b, ~a]] as four entries, by ring operations."""
    return member_entries(p.a, p.b)


@st.composite
def patterns(draw, coeffs=small_polys):
    """A nonzero pattern, with a = 0 or b = 0 drawn on purpose."""
    a, b = draw(nonzero(coeffs)), draw(nonzero(coeffs))
    shape = draw(st.sampled_from(("ab", "ab", "a0", "0b")))
    a, b = (a, Poly()) if shape == "a0" else (Poly(), b) if shape == "0b" else (a, b)
    return FiberPattern(a, b)


def invertible(p: FiberPattern) -> bool:
    return bool(p.determinant())


@settings(max_examples=80, deadline=None)
@given(p=patterns(), q=patterns())
@example(p=FiberPattern(Z, Poly.const(1)), q=FiberPattern(Poly(), Z.scale(I)))
def test_pattern_product_and_reflection_are_the_lifts(p, q):
    """The lift of P Q is the 4-entry product of the lifts, entry for entry,
    and the lift of P(-z) is the lift reflected entrywise."""
    assert lift(p * q) == raw_mul(lift(p), lift(q))
    assert lift(p.reflect_z()) == tuple(e.reflect_z() for e in lift(p))


def _s_zero_pattern(p: FiberPattern) -> FiberPattern | None:
    """The pattern canonical_pattern reads off the involution with a = i(a + ~a):
    its matrix is made monic by an imaginary constant, so S = 0 there."""
    form = FiberPattern((p.a + p.a.conj()).scale(I), p.b)
    if not (form.a and invertible(form)):
        return None
    return canonical_pattern(form.matrix())


@settings(max_examples=80, deadline=None)
@given(p=patterns(), q=patterns(), r=nonzero(real_polys), c=nonzero(coeff_scalars((1, 2)), CoeffScalar(0, 1)))
@example(p=FiberPattern(Poly(), Poly.const(1)), q=FiberPattern(Poly(), Poly.const(I)), r=Poly.const(1),
         c=CoeffScalar(1))
@example(p=FiberPattern(Poly.const(1), Poly()), q=FiberPattern(Poly.const(1), Poly()), r=Z,
         c=CoeffScalar(0, 1))
def test_pattern_comparison_matches_six_minors(p, q, r, c):
    """proportional_to agrees with the six-minor test on the lifts for
    random pairs, real multiples (equal maps), complex multiples (mostly
    not), a = 0 and b = 0 shapes, the patterns canonical_pattern reads off
    the matrices (S = 0 for the involutions), and Q(sqrt 2, i) entries."""
    pairs = [(p, q), (p, FiberPattern(p.a * r, p.b * r)), (p, FiberPattern(p.a.scale(c), p.b.scale(c)))]
    for x in (p, q):
        if invertible(x):
            pairs.append((x, canonical_pattern(x.matrix())))
            involution = _s_zero_pattern(x)
            if involution is not None:
                pairs.append((involution, FiberPattern((x.a + x.a.conj()).scale(I), x.b)))
    for x, y in pairs:
        assert x.proportional_to(y) == ref_proportional(lift(x), lift(y)), (x, y)
        assert y.proportional_to(x) == ref_proportional(lift(y), lift(x)), (y, x)
    assert p.proportional_to(FiberPattern(p.a * r, p.b * r))


def ref_substituted_entries(base: BaseMobius, mat: ProjMat) -> tuple[Poly, Poly, Poly, Poly]:
    """The entries of mat(m(z)) for the base action m = num/den, each
    cleared by den^d with d the largest entry degree, unreduced."""
    num, den = base.num_den_polys()
    d = max(p.degree for p in mat.entries())
    return tuple(cleared_substitution(p, num, den, d) for p in mat.entries())


def old_verify(cert: ConjugacyCertificate) -> bool:
    """ConjugacyCertificate.verify as two 4-entry products over cleared
    substitutions and the six-minor test."""
    c, s, t = cert.conjugator, cert.source, cert.target
    return (
        c.reality_check()
        and c.base.compose(s.base) == t.base.compose(c.base)
        and ref_proportional(
            raw_mul(ref_substituted_entries(s.base, c.fiber), s.fiber.entries()),
            raw_mul(ref_substituted_entries(c.base, t.fiber), c.fiber.entries()),
        )
    )


BASES = (BaseMobius.identity(), BaseMobius.negation())


@st.composite
def reality_maps(draw):
    """A reality element over Q(i) with base z -> z or z -> -z, followed
    by nothing or by an interval shift, with or without z -> -z."""
    p = draw(patterns(gaussian_polys))
    assume(invertible(p))
    try:
        fiber = p.matrix()
    except ValueError:
        assume(False)
    g = SphereMap(fiber, draw(st.sampled_from(BASES)))
    mover = draw(st.sampled_from((None,) + MOVING_MAPS))
    return g if mover is None else g.compose(mover)


@settings(max_examples=60, deadline=None)
@given(s=reality_maps(), c=reality_maps(), other=reality_maps(), k=st.integers(0, 3))
@example(s=builtin_map("g2p:1/2"), c=builtin_map("tilde_eta"), other=builtin_map("antipodal"), k=0)
def test_verify_matches_the_four_entry_check(s, c, other, k):
    """On the true certificate C S C^-1 and on corrupted ones (C with one
    entry perturbed, C times another element, the target swapped for the
    source or another element), with id and neg bases, shifts and flipped
    shifts, verify gives the answer of the 4-entry check."""
    t = c.compose(s).compose(c.inverse())
    entries = list(c.fiber.entries())
    entries[k] = entries[k] * Poly([1, 2])
    conjugators = [c, c.compose(other)]
    try:
        conjugators.append(SphereMap(ProjMat.of(*entries), c.base))
    except ValueError:
        pass
    answers = []
    for conj in conjugators:
        for target in (t, s, other):
            cert = ConjugacyCertificate("conjugation", s, target, conj)
            answers.append(cert.verify())
            assert answers[-1] == old_verify(cert), (conj, target)
    assert answers[0]


@settings(max_examples=60, deadline=None)
@given(p=patterns(gaussian_polys), e=st.tuples(gaussian_polys, gaussian_polys, gaussian_polys, gaussian_polys))
@example(p=FiberPattern(Poly.const(I), Poly()), e=(Poly.const(1), Poly.const(1), Poly(), Poly.const(1)))
@example(p=canonical_pattern(builtin_map("g2p:1/3").fiber), e=builtin_map("rot:1/8").fiber.entries())
def test_flip_order_matches_the_four_entry_square(p, e):
    """A base flip's order, read off the pattern product P(-z) P for a real
    fiber (the 4-entry square for a non-real one), is twice the order of
    the 4-entry square, or None with it; so is a flipped shift's, on the
    fiber alone and on the map followed by the flipped shift."""
    flipped_shifts = [mover for mover in MOVING_MAPS if mover.base.flip]
    for entries in (lift(p), e):
        try:
            fiber = ProjMat.of(*entries)
        except ValueError:  # zero matrix or zero determinant
            continue
        maps = [SphereMap(fiber, BaseMobius.negation())]
        maps += [SphereMap(fiber, mover.base) for mover in flipped_shifts]
        maps += [SphereMap.trivial_base(fiber).compose(mover) for mover in flipped_shifts]
        for g in maps:
            angle = angle_of_entries(raw_mul(ref_substituted_entries(g.base, g.fiber), g.fiber.entries()))
            assert g.order() == (None if angle is None else 2 * angle[1])


@settings(max_examples=100, deadline=None)
@given(p=small_polys, r=small_polys)
def test_division_by_h_is_exact_divmod(p, r):
    """over_h gives the quotient of divmod on multiples of 1 - z^2 and None
    on the polynomials divmod leaves a remainder for."""
    multiple = p * ONE_MINUS_Z2
    assert times_h(p) == multiple
    assert over_h(multiple) == multiple.divmod(ONE_MINUS_Z2)[0] == p
    q, rem = (multiple + r).divmod(ONE_MINUS_Z2)
    assert over_h(multiple + r) == (None if rem else q)


@settings(max_examples=100, deadline=None)
@given(e=st.tuples(gaussian_polys, gaussian_polys, gaussian_polys, gaussian_polys), p=patterns(gaussian_polys),
       k=st.integers(0, 3), f=st.sampled_from((Poly([1, 2]), Poly([1, 0, 1]), ONE_MINUS_Z2)))
@example(e=(Poly.const(1), Poly.const(1), Poly(), Poly.const(1)), p=FiberPattern(Z, Poly.const(1)), k=1,
         f=Poly([1, 0, 1]))
def test_canonical_pattern_refuses_exactly_the_non_real(e, p, k, f):
    """canonical_pattern raises NotRealityMember exactly on the matrices the
    twist-product reference (tau ~M tau a multiple of M) calls non-real: random matrices
    (mostly non-real, some with h not dividing B), reality elements, and
    reality elements with one entry multiplied by f (h | B survives some)."""
    candidates = [e]
    if invertible(p):
        candidates.append(lift(p))
        perturbed = list(lift(p))
        perturbed[k] = perturbed[k] * f
        candidates.append(perturbed)
    for entries in candidates:
        try:
            mat = ProjMat.of(*entries)
        except ValueError:  # zero matrix or zero determinant
            continue
        if ref_in_reality_group(mat):
            canonical_pattern(mat)
        else:
            with pytest.raises(NotRealityMember):
                canonical_pattern(mat)


def test_pattern_paths_form_no_four_entry_product():
    """A trivial-base certificate and one with base flips verify, a base
    flip's order is read and its twisted square taken, all without raw_mul
    or a canonical form (ProjMat._canonical): the patterns carry the
    arithmetic."""
    a = InvolutionForm(Z + 2, Z.scale(I) + 1 - I).matrix()
    c = FiberPattern(Z + 2 + I, Poly.const(CoeffScalar(1, 1))).matrix()
    b = c * a * c.inverse()
    flip = builtin_map("g2p:1/2")
    antipodal = builtin_map("antipodal")
    mover = SphereMap(FiberPattern(Z.scale(I) + 3, Poly.const(1)).matrix(), BaseMobius.negation())
    flip_cert = ConjugacyCertificate("conjugation", flip, mover.compose(flip).compose(mover.inverse()), mover)
    cert = construct_conjugator(a, b)
    fresh = (SphereMap.trivial_base(ProjMat.of(*m.fiber.entries())) for m in (cert.source, cert.target))
    cert = ConjugacyCertificate(cert.kind, *fresh, cert.conjugator)  # source and target patterns not yet read
    refuse = mock.Mock(side_effect=AssertionError("a 4-entry product or a canonical form was formed"))
    with mock.patch.object(projmat_mod, "raw_mul", refuse), mock.patch.object(ProjMat, "_canonical", refuse):
        assert cert.verify()
        assert flip_cert.verify()
        assert not ConjugacyCertificate("conjugation", flip, antipodal, mover).verify()
        assert flip.order() == 2 and antipodal.order() == 2
        assert twisted_square(flip.fiber) is not None and twisted_square(antipodal.fiber) is not None
    assert refuse.call_count == 0
