import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from birsphere.classify import _matrix_json, classify_trivialbase, decide_conjugacy, spheremap_from_json
from birsphere.errors import HasRealRoot, NotInvolution, NotRealityMember, UnsupportedExtension
from birsphere.involutions import (
    HyperellipticModel,
    InvolutionForm,
    basis_equiv_moduli,
    construct_conjugator,
    fixed_curve,
    involution_normal_form,
    realize_no_oval,
    realize_oval,
    rotation_normal_form,
)
from birsphere.poly import (
    ONE_MINUS_Z2,
    Poly,
    monic_square_root,
    poly_gcd,
    real_roots_in_tower_poly,
)
from birsphere.projmat import ProjMat, raw_mul
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import (
    BaseMobius,
    ConjugacyCertificate,
    FiberPattern,
    SphereMap,
    base_realisation,
    builtin_map,
    canonical_pattern,
    cleared_substitution,
    diffeo_orientation,
    interval_shift,
    rotation,
    x_flip,
    y_flip,
    z_flip,
)

from conftest import (
    QuadAlgebra,
    checked_pattern,
    coeff_scalars,
    gaussian_scalars,
    pattern_pair,
    polys,
    random_reality_element,
    rational_scalars,
    ref_in_reality_group,
    ref_proportional,
    ref_square_class,
    ref_square_split,
    same_triple,
    same_up_to_positive_rational,
    tower_terms,
)

Z = Poly.z()
I = CoeffScalar.i()
TAU = y_flip().fiber
UPS = x_flip().fiber


def random_involution(rng, max_degree=2) -> ProjMat:
    """Random involution from a random form (p real, q complex)."""
    from conftest import random_poly

    while True:
        p = random_poly(rng, rng.randint(0, max_degree), complex_ok=False)
        q = random_poly(rng, rng.randint(0, max_degree))
        from birsphere.involutions import InvolutionForm

        form = InvolutionForm(p, q)
        if form.determinant():
            try:
                return form.matrix()
            except ValueError:
                continue


def test_involution_normal_form_examples():
    form = involution_normal_form(TAU)
    assert not form.p and form.q.degree == 0
    mat = ProjMat.of(Poly.const(2 * I), ONE_MINUS_Z2, Poly.const(1), Poly.const(-2 * I))
    form = involution_normal_form(mat)
    assert any(same_up_to_positive_rational((form.p, form.q), (Poly.const(s * 2), Poly.const(s))) for s in (1, -1))
    form = involution_normal_form(ProjMat.diag(Poly.const(1), Poly.const(-1)))
    assert not form.q and form.p.degree == 0
    with pytest.raises(NotInvolution):
        involution_normal_form(rotation(1, 4).fiber)
    with pytest.raises(NotRealityMember):  # the pattern is read before the trace
        involution_normal_form(ProjMat.diag(Poly.const(1), Poly.const(2)))


def test_fixed_curve_examples():
    assert fixed_curve(TAU).m == Z * Z - 1  # w^2 = 1 - z^2
    mat = ProjMat.of(Poly.const(2 * I), ONE_MINUS_Z2, Poly.const(1), Poly.const(-2 * I))
    assert fixed_curve(mat).m == Z * Z + 3
    assert fixed_curve(UPS).m == Z * Z - 1


def test_fixed_curve_conjugacy_invariant(rng):
    for _ in range(25):
        a = random_involution(rng, max_degree=1)
        c = random_reality_element(rng, max_degree=1)
        conj = c * a * c.inverse()
        ma, mc = fixed_curve(a), fixed_curve(conj)
        assert ma.m == mc.m


def test_fixed_curve_fiberwise_oracle(rng):
    """Brute-force fixed points on 20 fibers satisfy w^2 = -m(z0), times the
    lead and the square of the scale of one square-free split of D
    (ref_square_split)."""
    mats = [TAU, UPS, realize_oval(Z + Poly.const(I)), realize_no_oval((Z * Z + 1) * (Z * Z + 4))]
    for _ in range(6):
        mats.append(random_involution(rng, max_degree=1))
    for mat in mats:
        form = involution_normal_form(mat)
        model = fixed_curve(mat)
        m, scale_poly, content = ref_square_split(form.determinant())
        assert m == model.m
        checked = 0
        z0 = Fraction(-17, 16)
        while checked < 20:
            z0 += Fraction(1, 10)
            zval = CoeffScalar(z0)
            qbar, p, q = form.q.conj()(zval), form.p(zval), form.q(zval)
            h = CoeffScalar(1 - z0 * z0)
            scale = scale_poly(zval)
            if not qbar or not scale:
                continue
            # fixed points solve qbar t^2 - 2 i p t - q h = 0; solve by radicals
            disc = (2 * I * p) * (2 * I * p) + 4 * qbar * q * h
            root = disc.sqrt()
            for sgn in (1, -1):
                t = (2 * I * p + root * CoeffScalar(Fraction(sgn))) / (2 * qbar)
                assert qbar * t * t - 2 * I * p * t - q * h == CoeffScalar(0)
                w = qbar * t - I * p
                assert w * w == -form.determinant()(zval)
            checked += 1
        assert -form.determinant() == (model.m * scale_poly * scale_poly).scale(-content)


def test_real_locus_class():
    """The real locus of an involution that is a diffeomorphism is read off
    its orientation: one oval (-1) or no real points (1)."""
    assert diffeo_orientation(TAU) == -1
    mat = ProjMat.of(Poly.const(2 * I), ONE_MINUS_Z2, Poly.const(1), Poly.const(-2 * I))
    assert diffeo_orientation(mat) == 1
    assert diffeo_orientation(realize_oval(Z + Poly.const(I))) == -1
    from birsphere.involutions import InvolutionForm

    bad = InvolutionForm(Z, Poly.const(1)).matrix()  # determinant 2z^2 - 1
    assert diffeo_orientation(bad) == 0


def test_genus_values():
    assert fixed_curve(TAU).genus() == 0
    assert fixed_curve(realize_oval(Z + Poly.const(I))).genus() == 1
    assert fixed_curve(realize_no_oval((Z * Z + 1) * (Z * Z + 4))).genus() == 1
    assert fixed_curve(realize_no_oval(Poly.const(4))).genus() == 0
    assert fixed_curve(realize_oval((Z + Poly.const(I)) * (Z + 2 * I))).genus() == 2


def test_decide_conjugacy_involution_examples():
    out = decide_conjugacy(SphereMap.trivial_base(TAU), SphereMap.trivial_base(UPS))
    assert out["conjugate"] and out["verified"]
    a = SphereMap.trivial_base(realize_oval(Z + Poly.const(I)))
    b = SphereMap.trivial_base(realize_oval(Z + 2 * I))
    out = decide_conjugacy(a, b)  # (z^2-1)(z^2+1) and (z^2-1)(z^2+4): no interval map
    assert out == {"conjugate": False, "fixed_curves": [{"m": "z^4-1", "sign": "-"}, {"m": "z^4+3*z^2-4", "sign": "-"}]}


def test_conjugator_certificates_random(rng):
    for _ in range(20):
        a = random_involution(rng, max_degree=1)
        c = random_reality_element(rng, max_degree=1)
        b = c * a * c.inverse()
        assert fixed_curve(a).m == fixed_curve(b).m
        cert = construct_conjugator(a, b)
        assert cert.verify()
        assert ref_in_reality_group(cert.conjugator.fiber)
        assert cert.conjugator.fiber * a * cert.conjugator.fiber.inverse() == b


def test_conjugacy_decided_once(monkeypatch, rng):
    """decide_conjugacy decides an involution pair of one model by the square
    test alone, with no call of basis_equiv_moduli (one call, before
    D_A D_B was tested for a square first), and a false answer takes one
    call; construct_conjugator decides nothing, also for the diagonal
    source that the lift of _MOVER moves off the diagonal first."""
    import birsphere.classify as classify
    import birsphere.involutions as inv

    calls = []
    real = classify.basis_equiv_moduli
    monkeypatch.setattr(classify, "basis_equiv_moduli", lambda a, b: calls.append(1) or real(a, b))
    a = InvolutionForm(Poly.const(1), Poly()).matrix()  # diagonal: moved off it first
    # the image of the one diagonal involution diag(1, -1) is a constant
    g = inv._MOVER.matrix()
    assert g * a * g.inverse() == inv._OFF_DIAGONAL and inv.involution_conjugator(a, inv._OFF_DIAGONAL) == g
    for _ in range(5):
        c = random_reality_element(rng, max_degree=1)
        b = c * a * c.inverse()
        calls.clear()
        assert construct_conjugator(a, b).verify()
        out = decide_conjugacy(SphereMap.trivial_base(a), SphereMap.trivial_base(b))
        assert out["conjugate"] and out["verified"]
        assert not calls
    calls.clear()
    x, y = (SphereMap.trivial_base(realize_oval(beta)) for beta in (Z + Poly.const(I), Z + 2 * I))
    assert not decide_conjugacy(x, y)["conjugate"]
    assert len(calls) == 1


def test_certificate_verified_once(monkeypatch, rng):
    import birsphere.involutions as inv
    from birsphere.classify import classify_spheremap, decide_conjugacy
    from birsphere.sphere import FiberPattern, SphereMap

    calls = []
    real = inv.ConjugacyCertificate.verify
    monkeypatch.setattr(inv.ConjugacyCertificate, "verify", lambda cert: calls.append(1) or real(cert))
    off_diagonal = InvolutionForm(Poly.const(1), Poly.const(1)).matrix()
    diagonal = InvolutionForm(Poly.const(1), Poly()).matrix()
    for a in (off_diagonal, diagonal):  # diagonal: the composed conjugator only is checked
        while True:
            c = random_reality_element(rng, max_degree=1)
            b = c * a * c.inverse()
            if b != a and involution_normal_form(b).q:
                break
        calls.clear()
        out = decide_conjugacy(SphereMap.trivial_base(a), SphereMap.trivial_base(b))
        assert out["conjugate"] and out["verified"]
        assert len(calls) == 1
    # classify a diffeomorphic conjugate of upsilon, its own family-4 target
    c = FiberPattern(Poly.const(2), Poly.const(1)).matrix()  # determinant z^2 + 3
    g = c * UPS * c.inverse()
    assert g != UPS and involution_normal_form(g).q
    calls.clear()
    report = classify_spheremap(SphereMap.trivial_base(g))
    assert report.family == 4
    assert [cert["verified"] for cert in report.to_json()["certificates"]] == [True]
    assert len(calls) == 1


def test_rotation_verifies_one_certificate(monkeypatch, rng):
    """conj on two rotations verifies only the composed "conjugation"
    certificate, not the two normal forms it is built from; classify of a
    rotation verifies the normal form it prints, once."""
    from birsphere.classify import classify_spheremap

    calls = []
    real = ConjugacyCertificate.verify
    monkeypatch.setattr(ConjugacyCertificate, "verify", lambda cert: calls.append(cert.kind) or real(cert))
    rot = rotation(1, 3)
    while True:
        c = random_reality_element(rng, max_degree=1)
        moved = SphereMap.trivial_base(c * rot.fiber * c.inverse())
        if moved != rot:
            break
    for other in (moved, rotation(2, 3)):  # rot:2/3 takes the x_flip swap
        calls.clear()
        out = decide_conjugacy(rot, other)
        assert out["conjugate"] and out["verified"]
        assert calls == ["conjugation"]
    calls.clear()
    report = classify_spheremap(moved).to_json()
    assert [(cert["kind"], cert["verified"]) for cert in report["certificates"]] == [("rotation-normal-form", True)]
    assert calls == ["rotation-normal-form"]


def test_reality_tested_once_per_input(monkeypatch, rng):
    """decide_conjugacy refuses, or proves real, each input fiber once: by
    canonical_pattern finding S = 0, which is the reality condition itself,
    or by its check that the pattern lifts to a constant multiple of the
    entries.  Routing's SphereMap.reality_check and the decision read that
    pattern, memoised on the matrix, so each round builds a fresh source.
    An involution with p != 0 has S = 0; a rotation does not."""
    import birsphere.sphere as sphere
    from birsphere.classify import decide_conjugacy
    from birsphere.sphere import SphereMap

    checked, patterns = [], []
    real_multiple, real_pattern = sphere._constant_multiple, sphere.FiberPattern
    monkeypatch.setattr(sphere, "_constant_multiple", lambda p, q: checked.append(q) or real_multiple(p, q))

    def recorded(a, b):  # canonical_pattern builds every pattern it returns here
        patterns.append(ProjMat.of(a, ONE_MINUS_Z2 * b, b.conj(), a.conj()))  # its lift, canonical
        return real_pattern(a, b)

    monkeypatch.setattr(sphere, "FiberPattern", recorded)

    def s_is_zero(mat):
        a11, a12, a21, a22 = mat.entries()
        return not (a11 + a22.conj() or a12 + ONE_MINUS_Z2 * a21.conj())

    kinds = set()
    for first in (InvolutionForm(Poly.const(1), Poly.const(1)).matrix(), rotation(1, 3).fiber):
        for _ in range(3):
            source = ProjMat.of(*first.entries())
            c = random_reality_element(rng, max_degree=1)
            target = c * source * c.inverse()
            checked.clear()
            patterns.clear()
            out = decide_conjugacy(SphereMap.trivial_base(source), SphereMap.trivial_base(target))
            assert out["conjugate"] and out["verified"]
            for mat in (source, target):
                zero_sum_proofs = patterns.count(mat) if s_is_zero(mat) else 0
                assert checked.count(mat.entries()) + zero_sum_proofs == 1
                kinds.add(s_is_zero(mat))
    assert kinds == {True, False}


def test_one_split_per_involution(monkeypatch):
    """decide_conjugacy splits each determinant at most once: a pair of one
    model is decided, and its conjugator's rescale read, off the square
    root of D_A D_B, with no split (the split degrees were [4, 12] while
    the decision compared the two models and the rescale read their
    scales); the decision and the fixed curves of a false answer read the
    models memoised on the patterns, one split each.  It builds no
    stripped determinant, as it asks for no orientation."""
    import birsphere.sphere as sphere

    degrees, stripped = [], []
    real = sphere.squarefree_decomposition
    # HyperellipticModel.of_determinant is the one caller in the decision path
    monkeypatch.setattr(sphere, "squarefree_decomposition", lambda p: degrees.append(p.degree) or real(p))
    real_stripped = FiberPattern.stripped_determinant.func
    counted = property(lambda pat: stripped.append(1) or real_stripped(pat))
    monkeypatch.setattr(FiberPattern, "stripped_determinant", counted)
    a = InvolutionForm(Z + 2, Z + Poly.const(I)).matrix()
    c = FiberPattern(Z + Poly.const(I), Z - 1).matrix()
    pairs = [(a, c * a * c.inverse(), True, []),
             (realize_no_oval(Z * Z + 3), realize_no_oval((Z * Z + 3) * (Z * Z + 4)), False, [2, 4])]
    for x, y, conjugate, split_degrees in pairs:
        degrees.clear()
        out = decide_conjugacy(SphereMap.trivial_base(x), SphereMap.trivial_base(y))
        assert out["conjugate"] == conjugate
        assert degrees == split_degrees
    assert not stripped


def test_conjugator_tau_upsilon():
    cert = construct_conjugator(TAU, UPS)
    assert cert.verify()


def test_conjugator_identity_case():
    cert = construct_conjugator(TAU, TAU)
    assert cert.conjugator == SphereMap.identity()


def test_hilbert90_witness_set():
    """The witness lemma for any two twist units, on the reference algebra
    (conftest.QuadAlgebra): eta = c mu_a + conj(c) mu_b for the first witness
    c of 1, i that makes it a unit, and xi = eta / mu_a solves
    xi = w conj(xi) for w = mu_b / mu_a.  Here mu_a = 1, so w = mu_b.  f is a
    non-square or -s^2 with s real, as -D of a real involution always is.
    On canonical patterns w = -1 never occurs and the package takes c = 1
    alone (the last lemma of _conjugator_entries,
    test_hilbert90_witness_one_on_the_mirror)."""
    one, zero, i = Poly.const(1), Poly(), Poly.const(I)
    s = Z + 1  # conj(s) = s
    cases = [
        (Z * Z + 1, (one, zero, one), (one, zero, one)),  # field, w = 1: c = 1
        (Z * Z + 1, (-one, zero, one), (i, zero, one)),  # field, w = -1: c = i
        (-(s * s), (one, zero, one), (one, zero, one)),  # f = (i s)^2, conj(i s) = -i s
        (-(s * s), (-one, zero, one), (i, zero, one)),
    ]
    mu_a = (one, zero, one)
    for f, mu_b, c in cases:
        algebra = QuadAlgebra(f)
        assert same_triple(algebra.mul(mu_b, algebra.conj(mu_b)), mu_a)  # norm one
        eta = algebra.hilbert90(mu_a, mu_b)
        assert algebra.is_unit(eta)
        assert eta == algebra.eta(c, mu_a, mu_b)  # witness c
        assert c == (one, zero, one) or not algebra.is_unit(algebra.add(mu_a, mu_b))  # c = i: c = 1 fails
        assert same_triple(algebra.mul(eta, algebra.conj(mu_a)), algebra.mul(mu_b, algebra.conj(eta)))


def test_conjugator_entries_born_reduced():
    """Entry degrees of the closed-form conjugator before canonicalisation,
    with the rescale u in lowest terms and the common factor q_B u_num
    divided out (the undivided product gives 4-6 and 9-11 here, an unreduced
    u 13-14 and 23-25)."""
    from birsphere.involutions import _conjugator_entries
    from birsphere.sphere import FiberPattern

    pairs = [
        (InvolutionForm(Poly.const(1), Poly.const(1)), FiberPattern(Z + 2, Poly.const(1)), [3, 4, 2, 3]),
        (InvolutionForm(Z, Z + Poly.const(I)), FiberPattern(Z + Poly.const(I), Z - 1), [7, 7, 5, 7]),
    ]
    for form, pattern, degrees in pairs:
        a, c = form.matrix(), pattern.matrix()
        b = c * a * c.inverse()
        born = _conjugator_entries(a, b)
        gamma = (born.a, born.b * ONE_MINUS_Z2, born.b.conj(), born.a.conj())
        assert [e.degree for e in gamma] == degrees
        assert construct_conjugator(a, b).conjugator.fiber == ProjMat.of(*gamma)


real_polys = polys(rational_scalars, max_degree=2)
complex_polys = polys(gaussian_scalars, max_degree=2)
# nonzero by construction: a zero lead becomes 1, so no draw is rejected
nonzero_complex_polys = st.builds(
    lambda low, lead: Poly([*low, lead or CoeffScalar(1)]), st.lists(gaussian_scalars, max_size=2), gaussian_scalars
)


@settings(max_examples=60, deadline=None)
@given(p=real_polys, q=st.just(Poly()) | nonzero_complex_polys, a=complex_polys, b=nonzero_complex_polys)
@example(p=Poly.const(1), q=Poly(), a=Z + 2, b=Z - Poly.const(I))  # diagonal source
@example(p=Z * Z + 1, q=Poly(), a=Poly.const(1), b=Poly.const(1))
def test_conjugator_born_reduced_verifies(p, q, a, b):
    """Every closed-form conjugator of a random conjugate pair passes the
    reference projective and reality checks.  No draw is rejected: q and b
    are nonzero by construction, or q = 0 is its own case (the diagonal
    source, which the lift of _MOVER moves), with p = 0 read as 1 there;
    D = p^2 + |q|^2 (z^2 - 1) and |a|^2 + |b|^2 (z^2 - 1) are then nonzero,
    the leads of their terms being positive."""
    from birsphere.sphere import FiberPattern

    if not q:
        p = p or Poly.const(1)
    mat_a, c = InvolutionForm(p, q).matrix(), FiberPattern(a, b).matrix()
    mat_b = c * mat_a * c.inverse()
    gamma = construct_conjugator(mat_a, mat_b).conjugator.fiber
    g = gamma.entries()
    assert ref_in_reality_group(gamma)
    assert ref_proportional(raw_mul(g, mat_a.entries()), raw_mul(mat_b.entries(), g))


@settings(max_examples=60, deadline=None)
@given(p=real_polys, q=nonzero_complex_polys, a=complex_polys, b=nonzero_complex_polys)
def test_neg_determinant_has_negative_lead(p, q, a, b):
    """For a random real involution, a conjugate of a random form by a
    random reality element, -D has a negative lead, and one square-free
    split (ref_square_split) gives -D = -content m scale^2 with content > 0
    and the model's m: the curve is w^2 = -m, so the model carries no
    sign.  q and b are nonzero by construction, so D and
    |a|^2 + |b|^2 (z^2 - 1) are nonzero and no draw is rejected."""
    c = FiberPattern(a, b).matrix()
    mat = c * InvolutionForm(p, q).matrix() * c.inverse()
    neg_d, model = -canonical_pattern(mat).determinant(), fixed_curve(mat)
    assert neg_d.lead().as_real().sign() < 0
    m, scale, content = ref_square_split(-neg_d)
    assert content.as_real().sign() > 0 and m == model.m
    assert neg_d == (m * scale * scale).scale(-content)


PYTHAGOREAN_T = [Fraction(k, n) for n in range(2, 9) for k in range(1 - n, n) if k]


@settings(max_examples=25, deadline=None)
@given(p=real_polys, q=nonzero_complex_polys, t=st.sampled_from(PYTHAGOREAN_T), flip=st.booleans())
@example(p=Z * Z + 1, q=Z + Poly.const(I), t=Fraction(1, 3), flip=True)
@example(p=Poly(), q=(Z * Z + Z + 1).scale(I) + Z, t=Fraction(-1, 2), flip=True)  # a symmetric model
def test_moved_involution_has_target_model(p, q, t, flip):
    """For r2 = s r1 s^-1, s a Pythagorean interval shift, composed with
    z_flip or not: the involution that decide_conjugacy moves by the base map
    basis_equiv_moduli finds has r2's model, so the moved pair needs no
    second decision, and conj answers true with a verified conjugator."""
    r1 = SphereMap.trivial_base(InvolutionForm(p, q).matrix())
    s = interval_shift(t).compose(z_flip()) if flip else interval_shift(t)
    r2 = s.compose(r1).compose(s.inverse())
    base = basis_equiv_moduli(fixed_curve(r1.fiber), fixed_curve(r2.fiber))
    assert base is not None
    back = base_realisation(base)
    moved = back.compose(r1).compose(back.inverse()).fiber
    assert fixed_curve(moved).m == fixed_curve(r2.fiber).m
    out = decide_conjugacy(r1, r2)
    assert out["conjugate"] and out["verified"]


# rational and sqrt(2) coefficients: real ones for p, complex ones for q, a and b
SQRT2_REAL = st.builds(CoeffScalar, tower_terms((1, 2)).map(TowerReal))
SQRT2_COMPLEX = coeff_scalars((1, 2))
# positive f that realize_no_oval realizes: the models 1, z^2 + 3, z^2 + 1/2, (z^2 + 1)(z^2 + 4), z^4 + 5 z^2 + 6
NO_OVAL_F = [Poly.const(4), Z * Z + 3, 2 * Z * Z + 1, (Z * Z + 1) * (Z * Z + 4), Z**4 + 5 * Z * Z + 6]


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(("rational", "sqrt2")), data=st.data(),
       partner=st.sampled_from(("conjugate", "shift", "no_oval")))
@example(field="rational", data=None, partner="no_oval")
def test_square_test_decides_the_shared_model(field, data, partner):
    """For a random involution A, rational or with sqrt(2) coefficients,
    and B a conjugate of A by a random reality element, a Pythagorean
    interval shift of A, or realize_no_oval of an unrelated f: D_A D_B has
    a monic square root exactly when the two fixed curves have one m
    (fixed_curve, Yun's split), and then decide_conjugacy answers a
    verified true without building either model.  q and b are nonzero by
    construction, so no matrix has D = 0 and no draw is rejected."""
    if data is None:  # the example: A of model z^2 + 3, B = realize_no_oval(z^2 + 3)
        mat_a, mat_b = realize_no_oval(Z * Z + 3), realize_no_oval((Z * Z + 3) * Poly.const(9))
    else:
        real, cplx = (rational_scalars, gaussian_scalars) if field == "rational" else (SQRT2_REAL, SQRT2_COMPLEX)
        nonzero = st.builds(lambda low, lead: Poly([*low, lead or CoeffScalar(1)]), st.lists(cplx, max_size=1), cplx)
        mat_a = InvolutionForm(data.draw(polys(real, max_degree=1)), data.draw(nonzero)).matrix()
        if partner == "conjugate":
            c = FiberPattern(data.draw(polys(cplx, max_degree=1)), data.draw(nonzero)).matrix()
            mat_b = c * mat_a * c.inverse()
        elif partner == "shift":
            s = interval_shift(data.draw(st.sampled_from(PYTHAGOREAN_T)))
            mat_b = s.compose(SphereMap.trivial_base(mat_a)).compose(s.inverse()).fiber
        else:
            mat_b = realize_no_oval(data.draw(st.sampled_from(NO_OVAL_F)))
    d_a, d_b = (canonical_pattern(m).determinant() for m in (mat_a, mat_b))
    root = monic_square_root(d_a * d_b)
    assert (root is not None) == (fixed_curve(mat_a).m == fixed_curve(mat_b).m)
    if root is not None:
        assert (root * root).scale((d_a * d_b).lead()) == d_a * d_b
        out = decide_conjugacy(SphereMap.trivial_base(mat_a), SphereMap.trivial_base(mat_b))
        assert out["conjugate"] and out["verified"]


def _reference_rescale(mat_a, mat_b) -> tuple[Poly, Poly]:
    """(u_num, u_den): u = s / f_B reduced by gcd(s, f_B), with
    s = sqrt(c_A c_B) m scale_A scale_B and f_B = -D_B, from one square-free
    split of each form's determinant (ref_square_split), not from the
    package's square root."""
    f_b = -involution_normal_form(mat_b).determinant()
    m, scale_a, c_a = ref_square_split(involution_normal_form(mat_a).determinant())
    _, scale_b, c_b = ref_square_split(-f_b)
    s = (m * scale_a * scale_b).scale((c_a * c_b).sqrt())
    g = poly_gcd(s, f_b)
    return s.exact_div(g), f_b.exact_div(g)


def _undivided_entries(mat_a, mat_b):
    """Reference: the conjugator as the plain product
    beta diag(u_den, u_num) M(x + y r) [[conj q, -i p], [0, -1]], with
    x + y r the numerator of eta = mu_A + mu_B in the reference algebra,
    the witness c = 1, and u from _reference_rescale.  Returns the entries
    and q_B u_num."""
    form_a, form_b = involution_normal_form(mat_a), involution_normal_form(mat_b)
    u_num, u_den = _reference_rescale(mat_a, mat_b)
    p, q = form_a.p, form_a.q
    pat_a, pat_b = (FiberPattern(form.p.scale(I), form.q) for form in (form_a, form_b))
    algebra, mu_a, mu_b = QuadAlgebra.of_patterns(pat_a, pat_b, u_num, u_den)
    one = Poly.const(1)
    x, y, _ = algebra.eta((one, Poly(), one), mu_a, mu_b)
    f, zero = algebra.f, Poly()
    beta = (zero, form_b.q * ONE_MINUS_Z2, Poly.const(-1), form_b.p.scale(-I))
    tail = raw_mul((x, f * y, y, x), (q.conj(), -p.scale(I), zero, Poly.const(-1)))
    return raw_mul(raw_mul(beta, (u_den, zero, zero, u_num)), tail), form_b.q * u_num


def test_conjugator_entries_divide_the_product():
    """The entries of _conjugator_entries times q_B u_num are the undivided
    product of the reference algebra at the witness c = 1, as polynomials,
    on random conjugate pairs."""
    import birsphere.involutions as inv

    @settings(max_examples=40, deadline=None)
    @given(p=real_polys, q=nonzero_complex_polys, a=complex_polys, b=nonzero_complex_polys)
    @example(p=Poly.const(1), q=Poly.const(1), a=Z + 2, b=Poly.const(1))
    def check(p, q, a, b):
        try:
            mat_a, g = InvolutionForm(p, q).matrix(), FiberPattern(a, b).matrix()
        except ValueError:  # zero matrix or zero determinant
            assume(False)
        mat_b = g * mat_a * g.inverse()
        assume(involution_normal_form(mat_a).q and involution_normal_form(mat_b).q)  # off the diagonal
        assume(mat_a != mat_b)  # _conjugator_pattern answers A = B with the identity
        expected, factor = _undivided_entries(mat_a, mat_b)
        born = inv._conjugator_entries(mat_a, mat_b)
        entries = (born.a, born.b * ONE_MINUS_Z2, born.b.conj(), born.a.conj())
        assert tuple(e * factor for e in entries) == expected

    check()


def _four_entry_conjugator(mat_a: ProjMat, mat_b: ProjMat) -> ProjMat:
    """Oracle: involution_conjugator as it was built before it was born as
    a pattern, ProjMat.of on the four entries of the lift (a gcd of four
    entries, then the monic scale) and ProjMat products with the mover
    where a form has q = 0, [[z, h], [1, z]] and its inverse."""
    import birsphere.involutions as inv

    mover = ProjMat.of(Z, ONE_MINUS_Z2, 1, Z)
    if mat_a == mat_b:
        return ProjMat.identity()
    if not involution_normal_form(mat_a).q:
        return _four_entry_conjugator(inv._OFF_DIAGONAL, mat_b) * mover
    if not involution_normal_form(mat_b).q:
        return mover.inverse() * _four_entry_conjugator(mat_a, inv._OFF_DIAGONAL)
    born = inv._conjugator_entries(mat_a, mat_b)
    return ProjMat.of(born.a, born.b * ONE_MINUS_Z2, born.b.conj(), born.a.conj())


def _of_degree(coeffs, degree: int) -> Poly:
    """The polynomial of exactly this degree (0 or 1) on the first
    coefficients, a zero lead read as 1, so no draw is rejected."""
    return Poly([*coeffs[:degree], coeffs[degree] or CoeffScalar(1)])


# (deg p, deg q, deg a, deg b) of the certify workload: every pattern in {0, 1}^4
DEGREE_PATTERNS = [tuple(v >> k & 1 for k in (3, 2, 1, 0)) for v in range(16)]
scalar_pairs = st.tuples(gaussian_scalars, gaussian_scalars)


@settings(max_examples=80, deadline=None)
@given(degrees=st.sampled_from(DEGREE_PATTERNS), p=st.tuples(rational_scalars, rational_scalars), q=scalar_pairs,
       a=scalar_pairs, b=scalar_pairs, diagonal=st.sampled_from((None, "source", "target")))
@example(degrees=(0, 0, 1, 0), p=(CoeffScalar(1), CoeffScalar(0)), q=(CoeffScalar(1), CoeffScalar(0)),
         a=(CoeffScalar(2), CoeffScalar(1)), b=(CoeffScalar(0, 1), CoeffScalar(0)), diagonal="source")
@example(degrees=(1, 1, 1, 1), p=(CoeffScalar(1), CoeffScalar(2)), q=(CoeffScalar(1, 1), CoeffScalar(0, 1)),
         a=(CoeffScalar(3), CoeffScalar(0, 1)), b=(CoeffScalar(1), CoeffScalar(1)), diagonal="target")
def test_conjugator_born_as_pattern_matches_four_entry_path(degrees, p, q, a, b, diagonal):
    """On a random involution A = [[i p, q h], [~q, -i p]] and its conjugate
    B by a random reality element [[a, b h], [~b, ~a]], every degree pattern
    of the certify workload, with q = 0 (diag(1, -1), moved by
    [[z, h], [1, z]]) as the source or the target: the printed conjugator
    equals the four-entry oracle's, and the pattern it was born with is the
    one the checked closed form reads off a fresh equal matrix
    (checked_pattern), so proportional_to it."""
    dp, dq, da, db = degrees
    form = InvolutionForm(_of_degree(p, dp), Poly() if diagonal else _of_degree(q, dq))
    mat_a, c = form.matrix(), FiberPattern(_of_degree(a, da), _of_degree(b, db)).matrix()
    mat_b = c * mat_a * c.inverse()
    if diagonal == "target":
        mat_a, mat_b = mat_b, mat_a
    conjugator = construct_conjugator(mat_a, mat_b).conjugator.fiber
    oracle = _four_entry_conjugator(mat_a, mat_b)
    assert conjugator == oracle
    out = decide_conjugacy(SphereMap.trivial_base(mat_a), SphereMap.trivial_base(mat_b))
    assert out["verified"] and out["conjugator"] == _matrix_json(oracle)
    born, checked = conjugator.real_pattern, checked_pattern(conjugator)
    assert pattern_pair(born) == pattern_pair(checked) and checked.proportional_to(born)


def _witness_one_is_a_unit(mat_a, mat_b) -> bool:
    """The last lemma of _conjugator_entries on one pair: the numerators
    (x, y) of the reference algebra's eta = mu_A + mu_B, the witness c = 1,
    have the norm x^2 + D_A y^2 != 0, and the closed form is the pattern
    (h ~b y, -(a y + x)) that the lemmas build from them, (a, b) A's
    canonical pattern."""
    import birsphere.involutions as inv

    pat_a, pat_b = canonical_pattern(mat_a), canonical_pattern(mat_b)
    u_num, u_den = _reference_rescale(mat_a, mat_b)
    algebra, mu_a, mu_b = QuadAlgebra.of_patterns(pat_a, pat_b, u_num, u_den)
    one = Poly.const(1)
    x, y, _ = algebra.eta((one, Poly(), one), mu_a, mu_b)
    a, b = pat_a.a, pat_a.b
    closed = (b.conj() * y * ONE_MINUS_Z2, -(a * y + x))
    return bool(x * x + pat_a.determinant() * y * y) and pattern_pair(inv._conjugator_entries(mat_a, mat_b)) == closed


@settings(max_examples=60, deadline=None)
@given(degrees=st.sampled_from(DEGREE_PATTERNS), p=st.tuples(rational_scalars, rational_scalars), q=scalar_pairs,
       a=scalar_pairs, b=scalar_pairs, mirror=st.booleans())
@example(degrees=(1, 1, 1, 1), p=(CoeffScalar(1), CoeffScalar(2)), q=(CoeffScalar(1, 1), CoeffScalar(0, 1)),
         a=(CoeffScalar(3), CoeffScalar(0, 1)), b=(CoeffScalar(1), CoeffScalar(1)), mirror=False)
def test_hilbert90_matches_the_reference_algebra(degrees, p, q, a, b, mirror):
    """On a random involution A = [[i p, q h], [~q, -i p]] and its conjugate
    B by a random reality element [[a, b h], [~b, ~a]], or by that element
    times D = diag(1, -1), every degree pattern of the certify workload, the
    reference algebra's eta = mu_A + mu_B is a unit, so c = 1 is a witness,
    and the closed form of _conjugator_entries is the pattern built from
    eta's numerators."""
    dp, dq, da, db = degrees
    mat_a = InvolutionForm(_of_degree(p, dp), _of_degree(q, dq)).matrix()
    c = FiberPattern(_of_degree(a, da), _of_degree(b, db)).matrix()
    if mirror:
        c = ProjMat.diag(Poly.const(1), Poly.const(-1)) * c
    mat_b = c * mat_a * c.inverse()
    assume(mat_b != mat_a)
    assert _witness_one_is_a_unit(mat_a, mat_b)


def test_hilbert90_witness_one_on_the_mirror():
    """The case of the last lemma of _conjugator_entries where c = 1 could
    fail: B = D A D
    with D = diag(1, -1), whose pattern (a, -b) has A's determinant, so
    u = -1.  The canonical pattern of D A D is (a, -b) for a != 0, so w = 1,
    not -1, and c = 1 works; for a = 0 it is (0, b), A's own, and
    D A D = A, which _conjugator_pattern answers with the identity."""
    d = ProjMat.diag(Poly.const(1), Poly.const(-1))
    for p in (Z + 2, Poly()):
        mat_a = InvolutionForm(p, Z.scale(I) + 1 - I).matrix()
        mat_b = d * mat_a * d
        pat_a, pat_b = canonical_pattern(mat_a), canonical_pattern(mat_b)
        if p:
            assert pattern_pair(pat_b) == (pat_a.a, -pat_a.b)
            assert _reference_rescale(mat_a, mat_b) == (Poly.const(1), Poly.const(-1))
            assert _witness_one_is_a_unit(mat_a, mat_b)
        else:
            assert mat_b == mat_a and construct_conjugator(mat_a, mat_b).conjugator == SphereMap.identity()


ROTATION_ANGLES = [(k, n) for n in (3, 4, 6, 8, 12, 24) for k in range(1, n) if math.gcd(k, n) == 1]


@settings(max_examples=60, deadline=None)
@given(angle=st.sampled_from(ROTATION_ANGLES), a=complex_polys, b=complex_polys)
@example(angle=(1, 3), a=Poly.const(1), b=Poly())  # diagonal: J = 1, and the x_flip swap
@example(angle=(7, 24), a=Z * Z + Z.scale(2 * I) - 1, b=Z + 3)
def test_rotation_normal_form_conjugation_invariant(angle, a, b):
    """For a rotation R and a reality conjugator c of degree <= 2, the normal
    form of c R c^-1 has the canonical angle, a conjugator in the reality
    group and the target diag(1, zeta^{+-1}); and conj decides c R c^-1 and
    R^-1 conjugate, with a certificate that passes the reference checks."""
    from birsphere.parsing import parse_poly

    k, n = angle
    try:
        c = FiberPattern(a, b).matrix()
    except ValueError:  # zero matrix or zero determinant
        assume(False)
    rot = rotation(k, n)
    mat = c * rot.fiber * c.inverse()
    nf = rotation_normal_form(mat)
    assert nf.target.fiber.rotation_angle() == (min(k, n - k), n)
    j = nf.conjugator.fiber.entries()
    assert ref_in_reality_group(nf.conjugator.fiber)
    assert nf.target.fiber in (rot.fiber, rot.fiber.inverse())
    assert ref_proportional(raw_mul(j, mat.entries()), raw_mul(nf.target.fiber.entries(), j))
    res = decide_conjugacy(SphereMap.trivial_base(mat), rot.inverse())
    assert res["conjugate"] and res["verified"]
    gamma = ProjMat.of(*(parse_poly(e) for row in res["conjugator"] for e in row))
    g = gamma.entries()
    assert ref_in_reality_group(gamma)
    assert ref_proportional(raw_mul(g, mat.entries()), raw_mul(rot.inverse().fiber.entries(), g))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((3, 4, 6, 8, 12, 24)), a=nonzero_complex_polys, b=nonzero_complex_polys, negate=st.booleans())
def test_rotation_target_is_the_entries_target(n, a, b, negate):
    """Oracle for the memoised rotation target: for a conjugate of rot:1/n by
    a random reality element (a, b), and for t or -t, the traces of its
    patterns (a', b') and (-a', -b'), which lift to one map and give both
    signs of lead(t), the memo's (k, target) for that sign is k t = Delta and
    target = diag(t + Delta, t - Delta), Delta = i sign tan(theta) t with
    tan(theta) the tower's square root of (1 - cos 2 theta)/(1 + cos 2
    theta), as computed per query before the memo; the certificate
    verifies.  a and b are nonzero, so c R c^-1 is not diagonal and J is
    built."""
    from birsphere.involutions import _rotation_target
    from birsphere.projmat import TWO_COS

    c = FiberPattern(a, b).matrix()
    mat = c * rotation(1, n).fiber * c.inverse()
    pattern = canonical_pattern(mat)
    t = pattern.a + pattern.a.conj()
    sign = t.lead().as_real().sign()
    cert = rotation_normal_form(mat)
    assert pattern.b and cert.verify() and cert.target.fiber == _rotation_target((1, n), sign)[1]
    if negate:
        t, sign = -t, -sign
    cos2 = TWO_COS[(1, n)] / 2
    delta = t.scale(CoeffScalar(0, ((1 - cos2) / (1 + cos2)).sqrt() * sign))
    k, target = _rotation_target((1, n), sign)
    assert t.scale(k) == delta and target == ProjMat.diag(t + delta, t - delta)


def test_realize_oval():
    mat = realize_oval(Z + Poly.const(I))
    assert mat.order() == 2
    model = fixed_curve(mat)
    assert model.m == Z**4 - 1  # w^2 = (1-z^2)(z^2+1)
    assert diffeo_orientation(mat) == -1  # one oval
    with pytest.raises(HasRealRoot):
        realize_oval(Z - Poly.const(1))


def test_realize_no_oval_roundtrip():
    cases = [
        Z * Z + 4,
        (Z * Z + 1) * (Z * Z + 4),
        (Z * Z + 1) * (Z * Z + 4) * (Z * Z + 9),  # genus 2
        (Z * Z + 1) ** 2 * (Z * Z + 4),
    ]
    for f in cases:
        mat = realize_no_oval(f)
        assert mat.order() == 2
        model = fixed_curve(mat)
        assert model.m == ref_square_class(f)
        assert diffeo_orientation(mat) == 1  # no real points


def test_realize_no_oval_contract():
    """realize_no_oval raises UnsupportedExtension where its decomposition
    needs a square root outside the tower, on strictly positive f too, and
    realises the others."""
    from birsphere.positivity import is_real_positive

    for f in (Z * Z + Z + 1, Z * Z + 2 * Z + 2, Z * Z + 2 * Z + 5):
        assert is_real_positive(f)
        with pytest.raises(UnsupportedExtension, match="no tower square root"):
            realize_no_oval(f)
    for f in (Z * Z + 3, (Z * Z + 1) * (Z * Z + 4)):
        assert fixed_curve(realize_no_oval(f)).m == ref_square_class(f)


def test_realize_oval_roundtrip_squarefree(rng):
    for beta in (Poly.const(1), Z + Poly.const(I), Z * Z + Z.scale(I) + 1):
        mat = realize_oval(beta)
        model = fixed_curve(mat)
        expected = ref_square_class(ONE_MINUS_Z2 * beta * beta.conj())  # the class of -D
        assert -model.m == expected


def test_rotation_normal_form_recovery(rng):
    for k, n in ((1, 4), (1, 3), (1, 6), (2, 3)):
        target = rotation(k, n).fiber
        for _ in range(4):
            c = random_reality_element(rng, max_degree=1)
            mat = c * target * c.inverse()
            nf = rotation_normal_form(mat)
            assert nf.target.fiber.rotation_angle() == (min(k, n - k), n)
            assert nf.source.fiber == mat and nf.verify()


def test_twist_unit_closed_form(rng):
    """alpha^-1 tau conj(alpha) = [[i p, -f], [-1, i p]] / q and
    tau conj(alpha) = h [[-1, i p], [0, conj q]], the closed forms
    construct_conjugator uses in place of the matrix products."""
    from conftest import random_poly

    tau = (Poly(), ONE_MINUS_Z2, Poly.const(1), Poly())
    for _ in range(8):
        p = random_poly(rng, rng.randint(0, 2), complex_ok=False)
        q = random_poly(rng, rng.randint(0, 2))
        # alpha [[0, f], [1, 0]] alpha^-1 = A projectively, f = -D
        alpha, f = (Poly(), q * ONE_MINUS_Z2, Poly.const(-1), p.scale(-I)), -InvolutionForm(p, q).determinant()
        a, b, c, d = alpha
        twisted = raw_mul(tau, tuple(e.conj() for e in alpha))
        unit = raw_mul((d, -b, -c, a), twisted)  # adj(alpha) tau conj(alpha)
        closed = (p.scale(I), -f, Poly.const(-1), p.scale(I))
        for entry, want in zip(unit, closed):
            assert entry * q == want * (a * d - b * c)
        assert twisted == tuple(e * ONE_MINUS_Z2 for e in (Poly.const(-1), p.scale(I), Poly(), q.conj()))


def test_rotation_angle_invariance(rng):
    target = rotation(1, 6).fiber
    angles = set()
    for _ in range(8):
        c = random_reality_element(rng, max_degree=1)
        angles.add(rotation_normal_form(c * target * c.inverse()).target.fiber.rotation_angle())
    assert angles == {(1, 6)}


PINS = json.loads((Path(__file__).parent / "data" / "closed_form_pins.json").read_text())
PIN_CONJUGATORS = {
    "deg1": FiberPattern(Z + Poly.const(I), Poly.const(1)),
    "deg2": FiberPattern(Z * Z + Z.scale(2 * I) - 1, Z + 3),
}


@pytest.mark.parametrize("pin", PINS["rotations"], ids=lambda pin: f"{pin['k']}/{pin['n']}")
def test_rotation_normal_form_pinned(pin):
    """Conjugator and target on non-diagonal conjugates of orders 3, 8, 12
    and 24, recorded from the eigenvector search that the closed form
    replaced: the certificates in reports must not move."""
    c = PIN_CONJUGATORS[pin["conjugator"]].matrix()
    mat = c * rotation(pin["k"], pin["n"]).fiber * c.inverse()
    nf = rotation_normal_form(mat)
    assert list(nf.target.fiber.rotation_angle()) == pin["angle"]
    assert _matrix_json(nf.conjugator.fiber) == pin["J"]
    assert _matrix_json(nf.target.fiber) == pin["target"]


def test_classify_trivialbase_families():
    assert classify_trivialbase(TAU).family == 4
    assert classify_trivialbase(UPS).family == 4
    assert classify_trivialbase(rotation(1, 2).fiber).family == 3
    assert classify_trivialbase(rotation(1, 3).fiber).moduli["angle"] == [1, 3]
    assert classify_trivialbase(realize_oval(Z + Poly.const(I))).family == 7
    assert classify_trivialbase(realize_no_oval((Z * Z + 1) * (Z * Z + 4))).family == 6
    rep = classify_trivialbase(builtin_map("g1p:1/2").fiber)
    assert rep.family == "rational-special"
    assert rep.moduli["parameter"] == str(CoeffScalar(Fraction(1, 4)))


def test_rational_special_parameter_under_shifts():
    """The branch value t^2 stays put when an interval shift moves the
    fixed curve's m off the even representative."""
    g = builtin_map("g1p:1/2")
    for t in (Fraction(1, 2), Fraction(-2, 3)):
        s = interval_shift(t)
        rep = classify_trivialbase(s.compose(g).compose(s.inverse()).fiber)
        if t == Fraction(1, 2):
            assert rep.moduli["fixed_curve"]["m"] == "z^2-50/29*z+89/116"
        assert rep.family == "rational-special"
        assert rep.moduli["parameter"] == str(CoeffScalar(Fraction(1, 4)))


def test_classify_certificates_attached():
    for mat in (TAU, rotation(1, 2).fiber):
        [certificate] = classify_trivialbase(mat).certificates
        assert certificate.verify()


def test_basis_equiv_moduli():
    m_a = fixed_curve(realize_no_oval((Z * Z + 1) * (Z * Z + 4)))
    m_b = fixed_curve(realize_no_oval((Z * Z + 1) * (Z * Z + 9)))
    assert basis_equiv_moduli(m_a, m_a) == BaseMobius.identity()
    assert isinstance(basis_equiv_moduli(m_a, m_a).b, TowerReal)
    assert basis_equiv_moduli(m_a, m_b) is None


def test_basis_equiv_after_interval_pullback():
    m_a = fixed_curve(realize_no_oval((Z * Z + 1) * (Z * Z + 4)))
    b = Fraction(4, 5)  # base image of the Pythagorean interval map at t = 1/2
    num = Poly([CoeffScalar(b), CoeffScalar(1)])
    den = Poly([CoeffScalar(1), CoeffScalar(b)])
    acc = Poly()
    for k in range(m_a.m.degree + 1):
        c = m_a.m[k]
        if c:
            acc = acc + (num**k * den ** (m_a.m.degree - k)).scale(c)
    sf = ref_square_class(acc)
    m_pulled = HyperellipticModel(sf if sf.lead().as_real().sign() > 0 else -sf)
    base = basis_equiv_moduli(m_a, m_pulled)
    assert base == BaseMobius.shift(-b)
    assert isinstance(base.b, TowerReal)


def test_basis_equiv_flip_only():
    # branch data {1 + i, 1 - i, 3i, -3i} needs the flip to reach its mirror
    m_a = HyperellipticModel((Z * Z - 2 * Z + 2) * (Z * Z + 9))
    m_b = HyperellipticModel((Z * Z + 2 * Z + 2) * (Z * Z + 9))
    base = basis_equiv_moduli(m_a, m_b)
    assert base is not None and base.flip


# -- basis_equiv_moduli in closed form against a root search -------------------


def _transport_poly(m: Poly) -> list[Poly]:
    """(bz+1)^deg * m((z+b)/(bz+1)) as a list of its coefficients of
    z^0, z^1, ..., each a polynomial in the parameter b."""
    B = Poly.z()  # the parameter b

    def mul(u: list[Poly], v: list[Poly]) -> list[Poly]:
        out = [Poly()] * (len(u) + len(v) - 1)
        for j, x in enumerate(u):
            for k, y in enumerate(v):
                out[j + k] = out[j + k] + x * y
        return out

    num, den = [B, Poly.const(1)], [Poly.const(1), B]  # z + b, b z + 1
    d = m.degree
    acc = [Poly()] * (d + 1)
    for k in range(d + 1):
        if m[k]:
            term = [Poly.const(m[k])]
            for factor in [num] * k + [den] * (d - k):
                term = mul(term, factor)
            acc = [x + y for x, y in zip(acc, term)]
    return acc


def _proportionality_minors(cols: list[Poly], target: Poly) -> list[Poly]:
    """Polynomials in b whose common roots make the transport, given by its
    coefficients of z^j, proportional to the target."""
    tcoeffs = [target[j] for j in range(len(cols))]
    minors = []
    for j in range(len(cols)):
        for k in range(j + 1, len(cols)):
            minor = cols[j].scale(tcoeffs[k]) - cols[k].scale(tcoeffs[j])
            if minor:
                minors.append(minor)
    return minors


def _witnessed(b, flipped: bool) -> BaseMobius:
    """The base action conj realises for a witness b: shift_-b, the flip
    first when flipped."""
    return BaseMobius(BaseMobius.shift(-b).b, flipped)


def ref_basis_equiv_moduli(model_a: HyperellipticModel, model_b: HyperellipticModel) -> BaseMobius | None:
    """The comparison by root search: the gcd of all proportionality minors
    of the transported polynomial cuts out the candidate parameters, and
    each real candidate b in (-1, 1) with a tower form is checked by
    substitution.  Returns the base action of the first b found, None when
    there is none, and raises UnsupportedExtension when a candidate has no
    tower form and none is found."""
    if model_a.degree != model_b.degree:
        return None
    if model_a.m == model_b.m:
        return _witnessed(Fraction(0), False)
    undecided = False
    for flipped in (False, True):
        source = model_a.m.reflect_z() if flipped else model_a.m
        if source == model_b.m:
            return _witnessed(Fraction(0), True)
        minors = _proportionality_minors(_transport_poly(source), model_b.m)
        if not minors:
            return _witnessed(Fraction(0), flipped)
        g = minors[0]
        for minor in minors[1:]:
            g = poly_gcd(g, minor)
            if g.degree == 0:
                break
        if g.degree == 0:
            continue
        if not g.is_real():
            real_part = poly_gcd(g, g.conj())
            if real_part.degree == 0:
                continue
            g = real_part
        for root in real_roots_in_tower_poly(g):
            if not (root.compare(Fraction(-1)) > 0 and root < Fraction(1)):
                continue
            try:
                b = root.to_tower()
            except ValueError:
                undecided = True
                continue
            moved = cleared_substitution(source, *BaseMobius.shift(b).num_den_polys(), source.degree)
            if not (moved * Poly.const(model_b.m.lead()) - model_b.m.scale(moved.lead())):
                return _witnessed(root.as_rational() if root.is_rational() else b, flipped)
    if undecided:
        raise UnsupportedExtension("a candidate interval map leaves the tower")
    return None


def _outcome(compare, model_a: HyperellipticModel, model_b: HyperellipticModel):
    """compare's answer, a BaseMobius or None, or UnsupportedExtension when
    it raises that."""
    try:
        return compare(model_a, model_b)
    except UnsupportedExtension:
        return UnsupportedExtension


def _kind(outcome):
    """BaseMobius for a base action, else the outcome itself: None or
    UnsupportedExtension."""
    return BaseMobius if isinstance(outcome, BaseMobius) else outcome


def _model(m: Poly) -> HyperellipticModel:
    return HyperellipticModel(m.monic())


@st.composite
def squarefree_rational_polys(draw):
    degree = draw(st.integers(2, 6))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree + 1, max_size=degree + 1))
    assume(coeffs[-1] != 0)
    m = Poly.from_rational_coeffs(coeffs)
    assume(poly_gcd(m, m.derivative()).degree == 0)
    return m.monic()


@settings(max_examples=60, deadline=None)
@given(
    m=squarefree_rational_polys(),
    b=st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda b: abs(b) < 1),
    flip=st.booleans(),
    unrelated=st.one_of(st.none(), squarefree_rational_polys()),
)
@example(m=(Z * Z + 1) * (Z * Z + 4), b=Fraction(4, 5), flip=False, unrelated=None)
@example(m=(Z * Z - 2 * Z + 2) * (Z * Z + 9), b=Fraction(0), flip=True, unrelated=None)
@example(m=Z * Z - 1, b=Fraction(1, 2), flip=False, unrelated=None)  # one u-coefficient
# m(-z) is also m(shift_b(z)) for b = sqrt(5)/2 - 3/2: the closed form finds the flip, the root search the shift
@example(m=Z**4 + Z**3 + Z * Z + Z + 1, b=Fraction(0), flip=True, unrelated=None)
def test_basis_equiv_moduli_matches_root_search(m, b, flip, unrelated):
    """Shifted, flipped and unrelated pairs get the same kind of answer from
    the closed form as from the root search: a base action, None, or
    UnsupportedExtension.  A fixed curve with a symmetry is carried to the
    target by more than one base action, so a base action is checked by
    substitution, not against the root search's: its inverse carries m to
    the target's model."""
    target = unrelated or cleared_substitution(m.reflect_z() if flip else m, *BaseMobius.shift(b).num_den_polys(),
                                               m.degree)
    got = _outcome(basis_equiv_moduli, _model(m), _model(target))
    want = _outcome(ref_basis_equiv_moduli, _model(m), _model(target))
    assert _kind(got) == _kind(want)
    if isinstance(got, BaseMobius):
        moved = cleared_substitution(m, *got.inverse().num_den_polys(), m.degree)
        assert moved.monic() == _model(target).m
    if unrelated is None and target.degree == m.degree:
        assert isinstance(got, BaseMobius)


def test_basis_equiv_moduli_closed_form_cases():
    """In u = (1 + z)/(1 - z): u^3 + 3 against 8u^3 + 3 is lam = 2, b = 1/3;
    against 2u^3 + 3 lam = 2^(1/3) has no tower form; against -8u^3 + 3 the
    ratio is negative.  m is the form in z: (1 + z)^3 c_3 + (1 - z)^3 c_0.
    The answers: the base action shift_-1/3, UnsupportedExtension, None."""
    one_plus, one_minus = Z + 1, -Z + 1

    def form(c3, c0):
        return _model(one_plus**3 * Poly.const(c3) + one_minus**3 * Poly.const(c0))

    cases = {8: _witnessed(Fraction(1, 3), False), 2: UnsupportedExtension, -8: None}
    for c3, want in cases.items():
        got = _outcome(basis_equiv_moduli, form(1, 3), form(c3, 3))
        assert got == want
        assert got == _outcome(ref_basis_equiv_moduli, form(1, 3), form(c3, 3))
    with pytest.raises(UnsupportedExtension, match="the interval map between the fixed curves leaves the tower"):
        basis_equiv_moduli(form(1, 3), form(2, 3))
    # u^2 + 3 against 2u^2 + 3: lam = sqrt(2), and the witness 3 - 2 sqrt(2)
    # is a TowerReal that BaseMobius.shift takes as it is
    quad_a, quad_b = _model(one_plus**2 + 3 * one_minus**2), _model(2 * one_plus**2 + 3 * one_minus**2)
    got = basis_equiv_moduli(quad_a, quad_b)
    witness = 3 - 2 * TowerReal.sqrt_rational(2)
    assert got == _witnessed(witness, False)
    moved = cleared_substitution(quad_a.m, *BaseMobius.shift(witness).num_den_polys(), quad_a.m.degree)
    assert moved.monic() == quad_b.m


REPRO_ELEMENTS = {
    "oval z+i": lambda: SphereMap.trivial_base(realize_oval(Z + Poly.const(I))),
    "oval z^2+2i": lambda: SphereMap.trivial_base(realize_oval(Z * Z + Poly.const(2 * I))),
    "no-oval z^4+5z^2+6": lambda: SphereMap.trivial_base(realize_no_oval(Z**4 + 5 * Z * Z + 6)),
    "g1p:1/2": lambda: builtin_map("g1p:1/2"),
    "oval z+1+2i": lambda: SphereMap.trivial_base(realize_oval(Z + 1 + Poly.const(2 * I))),  # m is not even
    "oval (z-1-i)(z-3i)": lambda: SphereMap.trivial_base(realize_oval((Z - 1 - Poly.const(I)) * (Z - Poly.const(3 * I)))),
}


@pytest.mark.parametrize("flip", [False, True], ids=["shift", "shift-flip"])
@pytest.mark.parametrize("t, b", [(Fraction(1, 3), Fraction(3, 5)), (Fraction(3, 4), Fraction(24, 25)),
                                  (Fraction(1, 2), Fraction(4, 5)), (None, TowerReal.sqrt_rational(2) / 2)])
@pytest.mark.parametrize("name", list(REPRO_ELEMENTS))
def test_basis_equiv_moduli_interval_conjugates(name, t, b, flip):
    """The fixed curves of g and s g s^-1, s an interval shift by b alone or
    composed with z_flip: equivalent by the inverse shift, composed with the
    flip when no shift alone carries one m to the other, as the root search
    finds too.  conj answers
    true with a base-moving conjugator that verifies after a JSON round
    trip."""
    g = REPRO_ELEMENTS[name]()
    s = interval_shift(t) if t else base_realisation(BaseMobius.shift(b))
    s = s.compose(z_flip()) if flip else s
    h = s.compose(g).compose(s.inverse())
    model_g, model_h = fixed_curve(g.fiber), fixed_curve(h.fiber)
    got = basis_equiv_moduli(model_g, model_h)
    if name == "oval z+1+2i" and flip:  # a shift alone also carries m to its mirror image
        assert isinstance(got, BaseMobius)
    else:
        assert got == _witnessed(-b, flip and name == "oval (z-1-i)(z-3i)")
    assert got == _outcome(ref_basis_equiv_moduli, model_g, model_h)
    out = decide_conjugacy(g, h)
    assert out["conjugate"] and out["verified"]
    conjugator = spheremap_from_json(json.loads(json.dumps(out["conjugator"])))
    assert not conjugator.base.is_identity()
    assert ConjugacyCertificate("conjugation", g, h, conjugator).verify()


# -- cleared substitution and the interval branch of conj ----------------------


def ref_cleared_substitution(p: Poly, num: Poly, den: Poly, degree: int) -> Poly:
    """The sum of p_k num^k den^(degree - k), each term built afresh."""
    acc = Poly()
    for k in range(degree + 1):
        c = p[k]
        if c:
            acc = acc + (num**k * den ** (degree - k)).scale(c)
    return acc


@settings(max_examples=60, deadline=None)
@given(
    p=polys(max_degree=4),
    extra=st.integers(0, 2),
    b=st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda b: abs(b) < 1),
    tower=st.booleans(),
    flip=st.booleans(),
)
def test_cleared_substitution_matches_sum(p, extra, b, tower, flip):
    """Horner's accumulation equals the sum of separately built powers, for
    rational and tower b, flipped or not, also above the degree of p."""
    shift = BaseMobius.shift(b * TowerReal.sqrt_rational(2) / 2 if tower else b)
    num, den = BaseMobius(shift.b, flip).num_den_polys()
    degree = max(p.degree, 0) + extra
    assert cleared_substitution(p, num, den, degree) == ref_cleared_substitution(p, num, den, degree)


def _interval_pair():
    """realize_no_oval(z^4 + 5 z^2 + 6) and its conjugate by
    interval_shift(1/3) composed with z_flip: conjugate only through a
    base-moving map."""
    g = SphereMap.trivial_base(realize_no_oval(Z**4 + 5 * Z * Z + 6))
    s = interval_shift(Fraction(1, 3)).compose(z_flip())
    return g, s.compose(g).compose(s.inverse())


def test_interval_branch_verifies_once(monkeypatch):
    """The interval branch of decide_conjugacy decides the moved pair by its
    fixed-curve models and verifies only the composed certificate: one
    verify call, where verifying the inner certificate too made two."""
    calls = []
    real = ConjugacyCertificate.verify
    monkeypatch.setattr(ConjugacyCertificate, "verify", lambda cert: calls.append(cert.kind) or real(cert))
    g, h = _interval_pair()
    out = decide_conjugacy(g, h)
    assert out["conjugate"] and out["verified"]
    assert calls == ["conjugation"]
    conjugator = spheremap_from_json(json.loads(json.dumps(out["conjugator"])))
    assert real(ConjugacyCertificate("conjugation", g, h, conjugator))
