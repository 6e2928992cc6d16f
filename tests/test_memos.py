"""The package's memos: every `cache` and `cached_property` is listed in
conftest.PACKAGE_MEMOS, so adding one is a reviewed decision.  Each invariant is memoised on the
object it describes: it is computed once per object (counted), the
memoised values equal the formulas they cache on fresh equal objects, and
no input or its pattern outlives the query that built them."""

import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birsphere import projmat as projmat_mod
from birsphere import sphere as sphere_mod
from birsphere.classify import classify_spheremap, decide_conjugacy
from birsphere.errors import NotRealityMember
from birsphere.involutions import InvolutionForm, rotation_normal_form
from birsphere.poly import ONE_MINUS_Z2, Poly
from birsphere.projmat import ProjMat, angle_of_entries
from birsphere.scalars import CoeffScalar
from birsphere.sphere import (
    ConjugacyCertificate,
    FiberPattern,
    SphereMap,
    builtin_map,
    canonical_pattern,
    in_diffeo_group,
)
from conftest import PACKAGE_MEMOS, checked_pattern, gaussian_scalars, package_memos, pattern_pair, polys

Z = Poly.z()
I = CoeffScalar.i()


def test_every_package_memo_is_listed():
    assert package_memos() == PACKAGE_MEMOS


# -- counted: one computation per object ------------------------------------------------

MOVER = FiberPattern(Z.scale(I) + 3, Poly.const(1)).matrix()  # det 8 + 2 z^2 > 0: a diffeomorphism


def _conjugate(name: str) -> SphereMap:
    """A fresh conjugate of a builtin trivial-base map by MOVER."""
    return SphereMap.trivial_base(MOVER * builtin_map(name).fiber * MOVER.inverse())


def test_classify_forms_the_input_angle_once(monkeypatch):
    """The order in routing, the family report and the rotation normal form
    read one angle of the input fiber."""
    calls = Counter()

    def counted(entries):
        calls[tuple(entries)] += 1
        return real(entries)

    real = projmat_mod.angle_of_entries
    monkeypatch.setattr(projmat_mod, "angle_of_entries", counted)
    for name, angle in (("rot:1/2", [1, 2]), ("rot:1/3", [1, 3]), ("rot:1/8", [1, 8])):
        g = _conjugate(name)
        report = classify_spheremap(g)
        assert report.family == 3 and report.moduli["angle"] == angle
        assert calls[g.fiber.entries()] == 1, name


def test_classify_forms_an_involutions_determinant_once(monkeypatch):
    """The orientation (through D') and the fixed curve (through -D) of an
    involution read one pattern determinant: one `pattern_determinant` call
    on the pattern's a (it counted the `dot` calls whose first term read a
    while the determinant was a fused sum of products)."""
    for name, family in (("upsilon", 4), ("tau", 4)):
        g = _conjugate(name)
        pattern = canonical_pattern(g.fiber)
        formed = []

        def counted(a, b):
            formed.append(a is pattern.a)
            return real(a, b)

        real = sphere_mod.pattern_determinant
        monkeypatch.setattr(sphere_mod, "pattern_determinant", counted)
        report = classify_spheremap(g)
        monkeypatch.setattr(sphere_mod, "pattern_determinant", real)
        assert report.family == family and report.moduli["fixed_curve"]["m"] == "z^2-1"
        assert formed.count(True) == 1, name


def test_certify_builds_each_involution_form_once(monkeypatch):
    """A certified pair builds the involution form of each matrix at most
    once, memoised on the pattern.  A pair of one model now builds none:
    the order, the square test and the conjugator read the canonical
    patterns; each form was built once while fixed_curve decided the pair."""
    built = Counter()
    real = InvolutionForm.__init__

    def counted(self, p, q):
        built[(p, q)] += 1
        real(self, p, q)

    a = InvolutionForm(Z + 2, Z.scale(I) + 1 - I).matrix()
    c = FiberPattern(Z + 2 + I, Poly.const(CoeffScalar(1, 1))).matrix()
    b = c * a * c.inverse()
    monkeypatch.setattr(InvolutionForm, "__init__", counted)
    answer = decide_conjugacy(SphereMap.trivial_base(a), SphereMap.trivial_base(b))
    assert answer["conjugate"] and answer["verified"]
    assert set(built.values()) <= {1}, built


# -- memoised values on fresh objects ----------------------------------------------------

entries = polys(gaussian_scalars, max_degree=2)
ROTATIONS = [builtin_map(f"rot:{k}/{n}").fiber for k, n in ((1, 2), (1, 3), (1, 4), (1, 6), (1, 8), (5, 12))]


@settings(max_examples=60, deadline=None)
@given(st.tuples(entries, entries, entries, entries), st.sampled_from(ROTATIONS), st.booleans(),
       entries, entries)
def test_memoised_invariants_match_their_formulas(quad, rotation, conjugate, a, b):
    """On fresh matrices (random ones, mostly non-real and of infinite
    order, and conjugates of rotations of finite order), the memoised angle
    and order are angle_of_entries of the entries; on fresh patterns the
    memoised determinant is a conj(a) - b h conj(b) in ring operations, and
    the involution form is (-i a, b) exactly when a + conj(a) = 0.  A second
    read returns the same object."""
    try:
        mat = ProjMat.of(*quad)
    except ValueError:  # zero matrix or zero determinant
        mat = ProjMat.of(Z + 2, 1, Fraction(1, 3), Z.scale(I))
    if conjugate:
        mat = mat * rotation * mat.inverse()
    angle = angle_of_entries(mat.entries())
    assert mat.rotation_angle() == angle and mat.rotation_angle() is mat.rotation_angle()
    assert mat.order() == (None if angle is None else angle[1])
    for pattern in (FiberPattern(a, b), FiberPattern(a - a.conj(), b)):
        det = pattern.a * pattern.a.conj() - pattern.b * ONE_MINUS_Z2 * pattern.b.conj()
        assert pattern.determinant() == det and pattern.determinant() is pattern.determinant()
        form = pattern.involution_form
        if pattern.a + pattern.a.conj():
            assert form is None
        else:
            assert (form.p, form.q) == (pattern.a.scale(-I), pattern.b) and pattern.involution_form is form


# -- memos live and die with their objects ----------------------------------------------


def test_memoised_patterns_match_the_checked_closed_form(monkeypatch):
    """Every memoised pattern (ProjMat.real_pattern) equals the checked
    closed form on a fresh equal matrix (checked_pattern): the inputs of a
    decision, the involution conjugators born as patterns (q != 0, and the
    diagonal moved), a rotation's normal-form conjugator J and the conjugator
    conj builds for two rotations.  A non-real matrix has no pattern, and
    canonical_pattern refuses it on every call."""
    certified = []
    verified = ConjugacyCertificate.verified
    monkeypatch.setattr(ConjugacyCertificate, "verified", lambda cert: certified.append(cert) or verified(cert))
    a = InvolutionForm(Z + 2, Z.scale(I) + 1 - I).matrix()
    diagonal = InvolutionForm(Poly.const(1), Poly()).matrix()
    pairs = [(SphereMap.trivial_base(x), SphereMap.trivial_base(MOVER * x * MOVER.inverse())) for x in (a, diagonal)]
    pairs += [(pair[1], pair[0]) for pair in pairs]
    pairs.append((_conjugate("rot:1/8"), SphereMap.trivial_base(MOVER.inverse() * builtin_map("rot:7/8").fiber * MOVER)))
    for g1, g2 in pairs:
        assert decide_conjugacy(g1, g2)["verified"]
    rotation = rotation_normal_form(pairs[-1][0].fiber).conjugator.fiber
    mats = [rotation, *(m.fiber for cert in certified for m in (cert.source, cert.target, cert.conjugator))]
    assert len(mats) == 1 + 3 * len(pairs) and all("real_pattern" in vars(m) for m in mats)
    for mat in mats:
        assert pattern_pair(mat.real_pattern) == pattern_pair(checked_pattern(mat))
        assert canonical_pattern(mat) is mat.real_pattern
    non_real = ProjMat.of(Z + 2, 1, Fraction(1, 3), Z.scale(I))
    for _ in range(2):
        with pytest.raises(NotRealityMember):
            canonical_pattern(non_real)
    assert non_real.real_pattern is None and checked_pattern(non_real) is None


def _weak_query(query: str):
    """Weak references to a fresh input fiber and its pattern, once the
    query has run; the input and the answer die with this call."""
    g = _conjugate("rot:1/3" if query == "classify" else "upsilon")
    if query == "classify":
        answer = classify_spheremap(g)
    elif query == "conj":
        answer = decide_conjugacy(g, SphereMap.trivial_base(MOVER.inverse() * builtin_map("upsilon").fiber * MOVER))
    else:
        answer = in_diffeo_group(g.fiber)
    assert answer
    return weakref.ref(g.fiber), weakref.ref(canonical_pattern(g.fiber))


def test_nothing_outlives_its_query():
    """An input fiber and its pattern, read by classify_spheremap,
    decide_conjugacy and in_diffeo_group, are freed with the input and the
    answer: no memo of the package holds a query's objects past it."""
    refs = [ref for query in ("classify", "conj", "member") for ref in _weak_query(query)]
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
