"""The conjugator path's integer passes against references built from the
plain ring operations: fused sums of products (`dot`), the gcd kernel's
cofactors in the canonical form, and `Poly.__str__` from integer columns;
plus counts of the work one certified pair and one classification take."""

import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from birsphere import factor
from birsphere import poly as poly_mod
from birsphere.classify import classify_spheremap, decide_conjugacy
from birsphere.involutions import InvolutionForm, involution_conjugator
from birsphere.poly import ONE_MINUS_Z2, Poly, RealAlgebraic, cofactors, dot, poly_gcd
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import FiberPattern, SphereMap, builtin_map
from conftest import (
    clear_caches,
    coeff_scalars,
    gaussian_scalars,
    polys,
    ref_determinant,
    ref_poly_mul,
    ref_real_cofactors,
    trim,
)

Z = Poly.z()
I = CoeffScalar.i()
SQRT2, SQRT3 = TowerReal.sqrt_rational(2), TowerReal.sqrt_rational(3)

gaussian_polys = polys(gaussian_scalars, max_degree=3)
tower_polys = polys(coeff_scalars((1, 2, 3)), max_degree=3)
terms = st.lists(st.tuples(st.sampled_from((1, -1)), gaussian_polys | tower_polys, gaussian_polys | tower_polys),
                 max_size=4)


@settings(max_examples=60, deadline=None)
@given(terms)
@example([(1, Z.scale(Fraction(1, 3)), Z + 1), (-1, Poly.const(Fraction(1, 2)), Z * Z), (1, Poly(), Z)])
@example([(1, Z, Z.scale(I)), (-1, Z.scale(I), Z)])  # cancels to zero
def test_dot_matches_products_and_differences(terms):
    """dot(terms) is the sum of the products, each added or subtracted, and
    its coefficients are those of schoolbook products of CoeffScalars."""
    expected, coeffs = Poly(), ()
    for s, a, b in terms:
        expected = expected + a * b if s > 0 else expected - a * b
        product = ref_poly_mul(a.coeffs, b.coeffs)
        n = max(len(coeffs), len(product))
        pad = [CoeffScalar(0)] * n
        coeffs = trim(x + s * y for x, y in zip((*coeffs, *pad)[:n], (*product, *pad)[:n]))
    out = dot(terms)
    assert out == expected and out.coeffs == coeffs


def _reference_canonical(entries) -> tuple[Poly, ...] | None:
    """The canonical entries as the gcd and four divisions give them:
    poly_gcd, exact_div by it, then the first nonzero entry made monic;
    None for a zero matrix or a zero determinant."""
    nonzero = [e for e in entries if e]
    if not nonzero:
        return None
    g = poly_gcd(*nonzero)
    entries = [e.exact_div(g) if e else e for e in entries]
    lead = next(e for e in entries if e).lead().inverse()
    entries = tuple(e.scale(lead) for e in entries)
    return entries if entries[0] * entries[3] - entries[1] * entries[2] else None


factors = st.sampled_from((Poly.const(1), Z - 2, Z.scale(I) + 3, Z * Z + 1, (Z - I) * (Z + Fraction(1, 2)),
                           Z + CoeffScalar(SQRT2)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(gaussian_polys, gaussian_polys, gaussian_polys, gaussian_polys) | st.tuples(
    tower_polys, gaussian_polys, gaussian_polys, tower_polys), factors)
@example((Z, Poly(), Poly(), Poly.const(3)), Z * Z + 1)
@example((Z.scale(I), Poly.const(2), Z + 1, Z - I), (Z - I) * (Z + Fraction(1, 2)))
def test_canonical_form_matches_gcd_then_division(entries, common):
    """ProjMat.of on entries sharing a common factor of degree 0 to 2, over
    Q(i) and over the tower, against the reference; cofactors times the
    monic gcd give the inputs back."""
    entries = tuple(e * common for e in entries)
    expected = _reference_canonical(entries)
    try:
        mat = ProjMat.of(*entries)
    except ValueError:
        assert expected is None
        return
    assert mat.entries() == expected
    g = poly_gcd(*entries)
    assert all(c * g == e for c, e in zip(cofactors(*entries), entries))


@settings(max_examples=60, deadline=None)
@given(st.tuples(gaussian_polys, gaussian_polys) | st.tuples(tower_polys, gaussian_polys), factors, factors)
@example((Z, Poly.const(1)), Z - I, Z * Z + 1)  # a non-real and a real common factor
@example((Poly(), Z.scale(I) + 1), Z.scale(I) + 3, Poly.const(1))  # one nonzero entry, non-real
def test_real_cofactors_divide_by_the_lift_content(pair, common, other):
    """cofactors(a, b, real=True), from a gcd of two entries, divides a and
    b by gcd(a, b, ~a, ~b), the reference gcd of the lift's four entries:
    the non-real part of gcd(a, b) stays."""
    a, b = (e * common * other for e in pair)
    if not (a or b):
        return
    g = poly_gcd(a, b, a.conj(), b.conj())
    assert cofactors(a, b, real=True) == [a.exact_div(g), b.exact_div(g)]


H = ONE_MINUS_Z2
# planted content: powers of h, a non-real factor alone and times h, a
# real irreducible and a tower factor
contents = st.sampled_from((Poly.const(1), H, H * H, Z - I, (Z.scale(I) + 3) * H, (Z - I) * (Z + I), Z * Z + 2,
                            (Z - I) * (Z - 2), Z + CoeffScalar(SQRT2), H * (Z - CoeffScalar(SQRT3, 1))))


@settings(max_examples=200, deadline=None)
@given(st.tuples(gaussian_polys, gaussian_polys) | st.tuples(tower_polys, gaussian_polys), contents, contents)
@example((Z, Poly.const(1)), H, Z - I)  # content h, with a non-real common factor beside it
@example((Poly(), Poly.const(3)), Z - I, H)  # a zero entry, and b a constant times the content
@example((Poly.const(2), Poly()), Z.scale(I) + 3, Poly.const(1))  # a non-real G, b = 0: content 1
@example((Z.scale(I), Z * Z + I), H, H)  # entries with only an imaginary column
def test_real_cofactors_match_the_two_gcd_reference(pair, common, other):
    """cofactors(a, b, real=True), one gcd over Z of the entries' real and
    imaginary columns, equals the two-gcd path it replaced
    (`conftest.ref_real_cofactors`: the Gaussian gcd G, then gcd(G, ~G))
    in columns and denominator, on pattern entries over Q(i) and over the
    tower sharing a planted content: powers of h = 1 - z^2 and non-real
    common factors, with zero entries."""
    a, b = (e * common * other for e in pair)
    if not (a or b):
        return
    got, want = cofactors(a, b, real=True), ref_real_cofactors(a, b)
    assert [(p._cols, p._den) for p in got] == [(p._cols, p._den) for p in want]


def test_quotient_routine_returns_none_on_a_non_divisor():
    """_zi_quotient returns f / c when c divides f over Z[i], and None when a
    quotient coefficient is not a Gaussian integer or a remainder is left."""
    quotient = factor._zi_quotient
    assert quotient(([2, 3, 1], []), ([1, 1], [])) == ([2, 1], [])  # (z + 1)(z + 2)
    assert quotient(([2, 3, 2], []), ([1, 1], [])) is None  # remainder 1
    assert quotient(([1, 0, 2], []), ([1, 2], [])) is None  # 2z^2 + 1 = z (2z + 1) - z + 1: -1/2
    assert quotient(([1, 1], []), ([1, 2], [])) is None  # 1/2 is not an integer
    # (z - i)(z + 1 + i) = z^2 + z + 1 - i, which is -2i at z = -i
    assert quotient(([1, 1, 1], [-1, 0, 0]), ([0, 1], [-1, 0])) == ([1, 1], [1, 0])
    assert quotient(([1, 1, 1], [-1, 0, 0]), ([0, 1], [1, 0])) is None
    assert quotient(([0, 1], [1, 0]), ([0, 2], [0, 0])) is None  # (z + i) / 2z: 1/2 is not in Z[i]
    assert quotient(([0, 2], [0, 2]), ([1], [1])) == ([0, 2], [0, 0])  # (2 + 2i) z = (1 + i) 2z


def _old_poly_str(p: Poly) -> str:
    """Poly.__str__ as it was written on CoeffScalar and TowerReal objects:
    the reference the integer-column printer must match character for
    character."""
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if not c:
            continue
        cs = str(c)
        if k == 0:
            parts.append(cs)
            continue
        zpow = "z" if k == 1 else f"z^{k}"
        if cs == "1":
            parts.append(zpow)
        elif cs == "-1":
            parts.append(f"-{zpow}")
        elif any(s in cs[1:] for s in "+-") or "*" in cs or "i" in cs:
            parts.append(f"({cs})*{zpow}")
        else:
            parts.append(f"{cs}*{zpow}")
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out


special_scalars = st.sampled_from((
    CoeffScalar(0), CoeffScalar(1), CoeffScalar(-1), CoeffScalar(0, 1), CoeffScalar(0, -1),
    CoeffScalar(0, Fraction(-3, 2)), CoeffScalar(1, -1), CoeffScalar(SQRT2), CoeffScalar(-SQRT3),
    CoeffScalar(0, SQRT2), CoeffScalar(SQRT2 + 1, -SQRT3 / 2), CoeffScalar(Fraction(-1, 3), SQRT2 - SQRT3),
))


@settings(max_examples=150, deadline=None)
@given(polys(special_scalars | coeff_scalars((1, 2, 3, 6)), max_degree=4))
@example(Poly([CoeffScalar(0, -1), 1, CoeffScalar(0, 1), -1]))
def test_str_matches_the_coeffscalar_formatter(p):
    assert str(p) == _old_poly_str(p)


def test_equal_constants_of_every_kind_are_one_dict_key():
    """A constant Poly equals its int, Fraction, TowerReal and CoeffScalar,
    and a rational RealAlgebraic its Fraction, so each finds the others'
    dict entries."""
    for q in (2, 0, -7, Fraction(3, 4)):
        kinds = (q, Fraction(q), TowerReal.from_rational(q), CoeffScalar(q), Poly.const(q))
        table = {}
        for key in kinds:
            table[key] = q
        assert len(table) == 1 and all(table[key] == q for key in kinds)
    assert {Poly.const(2): "a"}.get(2) == "a" and {Poly(): "zero"}.get(0) == "zero"
    table = {RealAlgebraic.from_rational(Fraction(1, 2)): "half"}
    assert table.get(Fraction(1, 2)) == "half"
    assert {Poly.const(CoeffScalar(1, 2)): 1}.get(CoeffScalar(1, 2)) == 1
    assert {Poly.const(CoeffScalar(SQRT2)): 1}.get(SQRT2) == 1


# -- counted work on fixed inputs ----------------------------------------------------------


def _count_work(run):
    """run() with `poly._product` calls counted, and Poly.exact_div calls
    made inside ProjMat._canonical; the package's caches start empty."""
    clear_caches()
    counts = {"product": 0, "canonical_exact_div": 0}
    product, exact_div = poly_mod._product, Poly.exact_div
    canonical_code = ProjMat._canonical.__func__.__code__

    def counted_product(*args):
        counts["product"] += 1
        return product(*args)

    def counted_exact_div(self, other):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not canonical_code:
            frame = frame.f_back
        counts["canonical_exact_div"] += frame is not None
        return exact_div(self, other)

    poly_mod._product, Poly.exact_div = counted_product, counted_exact_div
    try:
        result = run()
    finally:
        poly_mod._product, Poly.exact_div = product, exact_div
    return result, counts


def test_certify_and_classify_work_is_counted():
    """One certified involution pair and one conjugate of rot:1/2, both over
    Q(i).  The canonical form divides no entry (the gcd kernel's cofactors
    replace poly_gcd and exact_div), and the column products are pinned:
    21 for the pair and 27 for the classification, which certifies the
    rotation against diag(1, -1).  The classification took 29 while the
    conjugator's content was the greatest real divisor of a Gaussian gcd
    G, made monic and then replaced by gcd(G, ~G), two products, before it
    became one gcd over Z of the real and imaginary columns of the two
    pattern entries.  They were 23 and 31 while each pattern
    determinant was a fused sum of products (`dot`), before it became two
    sums of squares (`pattern_determinant`, no `_product` call); 31 and 37
    while the pair was
    decided by two square-free splits, whose models' m were compared, and
    the rescale read the two models' scales, before one square root of
    D_A D_B (tested on integers) did both.  They were 32 and 38 while the conjugator
    formed the Hilbert-90 witness's two numerators x and y, then ~q y and
    p y + x, in place of its closed form's two fused sums and two products;
    34 and 40 while the Hilbert-90 step formed the norm x^2 + D_A y^2 to
    choose between the witnesses 1 and i, before a lemma proved that 1
    always works; 42 and 49
    before the Hilbert-90 witness's numerators were read off the two
    patterns in two fused sums, with no algebra triples; 44 and 51
    before the involution conjugator read i p_A and i p_B off the memoised
    patterns in place of scaling the forms back by i; 59 and 67 before the conjugator was born as a pattern (its content taken on two
    entries, no determinant and no reality check formed for it) and the
    twist units' norms, equal by construction, stopped being compared; 68
    and 76 before the conjugator's bottom row was built as the conjugate of
    its top row, 80 and 88 before certificates were verified on patterns and h = 1 - z^2 was
    multiplied by a shift of columns (`times_h`), 87 and 98 before the
    angle, the pattern determinant and the involution form were memoised on
    their objects and the conjugator reused Hilbert-90's c mu_A, and 114
    and 127 when every sum of products was formed product by product."""
    a = InvolutionForm(Z + 2, Z.scale(I) + 1 - I).matrix()
    c = FiberPattern(Z + 2 + I, Poly.const(CoeffScalar(1, 1))).matrix()
    pair = SphereMap.trivial_base(a), SphereMap.trivial_base(c * a * c.inverse())
    answer, counts = _count_work(lambda: decide_conjugacy(*pair))
    assert answer["conjugate"] and answer["verified"]
    assert counts == {"product": 21, "canonical_exact_div": 0}

    mover = FiberPattern(Z.scale(I) + 3, Poly.const(1)).matrix()  # det 8 + 2 z^2 > 0
    rotation = SphereMap.trivial_base(mover * builtin_map("rot:1/2").fiber * mover.inverse())
    report, counts = _count_work(lambda: classify_spheremap(rotation))
    assert report.family == 3 and report.moduli["angle"] == [1, 2]
    assert counts == {"product": 27, "canonical_exact_div": 0}


def test_involution_conjugator_work_is_counted():
    """One involution_conjugator call on a fixed involution over Q(i) and a
    conjugate by a reality element: at most 28 column products, 36 when
    the Hilbert-90 witness was formed in an algebra of triples, with a
    product for each multiplication by the constants 1 and i."""
    a = InvolutionForm(Z + 2, Z.scale(I) + 1 - I).matrix()
    c = FiberPattern(Z + 2 + I, Poly.const(CoeffScalar(1, 1))).matrix()
    b = c * a * c.inverse()
    conjugator, counts = _count_work(lambda: involution_conjugator(a, b))
    assert conjugator * a * conjugator.inverse() == b
    assert counts["product"] <= 28


def test_conjugator_gcd_takes_two_entries_and_verify_reads_its_born_pattern(monkeypatch):
    """involution_conjugator takes every gcd kernel call on two entries,
    never on the four of the lift: the rescale's gcd on two polynomials,
    and the lift's content (`FiberPattern.lift_matrix`) on the real and
    imaginary columns of its two pattern entries, each as a real
    polynomial, never on a column of the lift entry b h.  verify reads the
    conjugator's reality off the pattern it was born with: the checked
    closed form never reads it.  Pairs with q != 0, and with the diagonal
    source or target that the mover moves."""
    from birsphere import sphere as sphere_mod
    from birsphere.involutions import involution_conjugator
    from birsphere.sphere import ConjugacyCertificate, canonical_pattern

    kernel_inputs, lifted, read = [], [], []
    kernel, summed, lift = poly_mod.gaussian_cofactors, sphere_mod._summed_pattern, FiberPattern.lift_matrix
    monkeypatch.setattr(poly_mod, "gaussian_cofactors", lambda *fs: kernel_inputs.append(fs) or kernel(*fs))
    monkeypatch.setattr(FiberPattern, "lift_matrix", lambda self: lifted.append((self, len(kernel_inputs))) or lift(self))

    def recorded(mat, checked=False):
        if checked:
            read.append(mat)
        return summed(mat, checked)

    monkeypatch.setattr(sphere_mod, "_summed_pattern", recorded)
    a = InvolutionForm(Z + 2, Z.scale(I) + 1 - I).matrix()
    diagonal = InvolutionForm(Poly.const(1), Poly()).matrix()
    c = FiberPattern(Z + 2 + I, Poly.const(CoeffScalar(1, 1))).matrix()
    moved = c * diagonal * c.inverse()
    for source, target in ((a, c * a * c.inverse()), (diagonal, moved), (moved, diagonal)):
        canonical_pattern(source), canonical_pattern(target)  # the inputs' patterns, memoised
        kernel_inputs.clear(), lifted.clear()
        conjugator = involution_conjugator(source, target)
        [(pattern, at)] = lifted
        columns = [tuple(p._cols.get(key, ())) for p in (pattern.a, pattern.b) for key in ((1, 0), (1, 1))]
        lift_columns = set(poly_mod.times_h(pattern.b)._cols.values())
        assert [tuple(re) for re, _ in kernel_inputs[at]] == columns and not any(im for _, im in kernel_inputs[at])
        assert not lift_columns & {tuple(re) for re, _ in kernel_inputs[at]}
        assert [len(fs) for k, fs in enumerate(kernel_inputs) if k != at] == [2] * (len(kernel_inputs) - 1)
        assert "real_pattern" in vars(conjugator)
        cert = ConjugacyCertificate("conjugation", *(SphereMap.trivial_base(m) for m in (source, target, conjugator)))
        assert cert.verify() and not any(mat is conjugator for mat in read)


def test_rotation_swap_is_the_catalogue_flip():
    """A rot:1/3 pair whose normal-form targets differ, diag(1, zeta) and
    diag(1, zeta^2), as given and conjugated, is swapped by the x_flip fiber
    built once (involutions._flip_fiber): the decision builds no ProjMat.of
    of it."""
    from unittest import mock

    from birsphere.involutions import _flip_fiber

    flip = _flip_fiber()
    built = []
    of = ProjMat.of
    mover = FiberPattern(Z.scale(I) + 3, Poly.const(1)).matrix()
    first, second = builtin_map("rot:1/3"), builtin_map("rot:2/3")
    pairs = [(first, second), (first, SphereMap.trivial_base(mover * second.fiber * mover.inverse()))]
    with mock.patch.object(ProjMat, "of", lambda *entries: built.append(of(*entries)) or built[-1]):
        for g1, g2 in pairs:
            answer = decide_conjugacy(g1, g2)
            assert answer["conjugate"] and answer["verified"]
    assert built and flip not in built


def test_rotation_conjugator_is_one_pattern_product():
    """conj of two rotations of one angle lifts the one pattern product
    J_B^-1 swap J_A on two entries: no four-entry canonical form
    (ProjMat._canonical), and the printed conjugator is the ProjMat product
    of the two normal-form conjugators and the swap.  Conjugated pairs of
    rot:1/3, 1/4, 1/8 and 1/12 share a target; a given rotation and a
    conjugate of it or of its inverse have different targets."""
    from unittest import mock

    from birsphere.classify import _matrix_json
    from birsphere.involutions import _flip_fiber, rotation_normal_form

    movers = FiberPattern(Z.scale(I) + 3, Poly.const(1)).matrix(), FiberPattern(Z + 2 + I, Poly.const(1 + I)).matrix()

    def conjugate(c, name):
        return SphereMap.trivial_base(c * builtin_map(name).fiber * c.inverse())

    pairs = [(conjugate(movers[0], f"rot:1/{n}"), conjugate(movers[1], f"rot:1/{n}")) for n in (3, 4, 8, 12)]
    pairs += [(builtin_map(f"rot:1/{n}"), conjugate(movers[0], f"rot:{k}/{n}")) for n in (3, 6, 8) for k in (1, n - 1)]
    canonical, swapped = [], 0
    real_canonical = ProjMat._canonical
    counted = classmethod(lambda cls, polys: canonical.append(1) or real_canonical(polys))
    for g1, g2 in pairs:
        ra, rb = rotation_normal_form(g1.fiber), rotation_normal_form(g2.fiber)
        swap = _flip_fiber() if ra.target != rb.target else ProjMat.identity()
        swapped += ra.target != rb.target
        oracle = rb.conjugator.fiber.inverse() * swap * ra.conjugator.fiber  # the product conj formed before
        with mock.patch.object(ProjMat, "_canonical", counted):
            answer = decide_conjugacy(g1, g2)
        assert answer["conjugate"] and answer["verified"] and answer["conjugator"] == _matrix_json(oracle)
    assert swapped == 6 and canonical == []


def test_rotation_target_and_twist_class_work_is_counted(monkeypatch):
    """A second rotation of an angle already seen takes no tower square
    root and no tower gcd for its target: the one tower poly_gcd left is
    the canonical form of its conjugator J.  The twist class of a conjugate
    of g2p:1/2 takes one Yun split of its w-polynomial
    -(4 w^2 - 3 w - 1)(w + 4)^2, in h2_reduce, and one `real_root_factors`
    call, on its one odd part (4 w + 1)(w - 1), whose rational roots leave
    nothing for Zassenhaus; the even part (w + 4)^2 is not factored.  Before
    the twist class read only the real-root factors of the odd parts it
    took one full factorisation (`factor_rational_poly`), which is now not
    called, and the roots of its irreducible factors were isolated without
    factoring them again, as they still are."""
    from birsphere import etatwist
    from birsphere.involutions import rotation_normal_form
    from birsphere.sphere import canonical_pattern

    counts = {"sqrt": 0, "tower_gcd": 0}
    sqrt, gcd = TowerReal.sqrt, poly_mod.poly_gcd

    def counted_sqrt(self):
        counts["sqrt"] += 1
        return sqrt(self)

    def counted_gcd(*ps):
        counts["tower_gcd"] += not all(p._cols.keys() <= poly_mod._GAUSSIAN_KEYS for p in ps)
        return gcd(*ps)

    movers = FiberPattern(Z.scale(I) + 3, Poly.const(1)).matrix(), FiberPattern(Z + 2 + I, Poly.const(1 + I)).matrix()
    monkeypatch.setattr(TowerReal, "sqrt", counted_sqrt)
    monkeypatch.setattr(poly_mod, "poly_gcd", counted_gcd)
    for name in ("rot:1/3", "rot:1/8", "rot:1/12", "rot:1/24"):
        first, second = (c * builtin_map(name).fiber * c.inverse() for c in movers)
        traces = [canonical_pattern(m).a + canonical_pattern(m).a.conj() for m in (first, second)]
        assert len({t.lead().as_real().sign() for t in traces}) == 1, name  # one memo key
        assert rotation_normal_form(first).verify()
        counts.update(sqrt=0, tower_gcd=0)
        assert rotation_normal_form(second).verify()
        assert (counts["sqrt"], counts["tower_gcd"]) == (0, 1), name

    calls = {"yun": [], "real_root_factors": [], "zassenhaus": 0, "factor_rational_poly": 0}
    yun, real_root_factors, zassenhaus = etatwist.squarefree, etatwist.real_root_factors, factor.zassenhaus
    monkeypatch.setattr(etatwist, "squarefree", lambda f: calls["yun"].append(f) or yun(f))
    monkeypatch.setattr(etatwist, "real_root_factors", lambda f: calls["real_root_factors"].append(f) or real_root_factors(f))
    monkeypatch.setattr(factor, "zassenhaus", lambda f, p: calls.update(zassenhaus=calls["zassenhaus"] + 1) or zassenhaus(f, p))
    for module in (poly_mod, etatwist):
        monkeypatch.setattr(module, "factor_rational_poly", lambda p: calls.update(factor_rational_poly=1) or None)
    mover = SphereMap.trivial_base(movers[0])
    g = mover.compose(builtin_map("g2p:1/2")).compose(mover.inverse())
    twist = etatwist.h2_reduce(etatwist.twisted_square(g.fiber))
    assert calls == {"yun": [[16, 56, -39, -29, -4]], "real_root_factors": [[-1, -3, 4]], "zassenhaus": 0,
                     "factor_rational_poly": 0}
    assert twist == etatwist.h2_invariant(builtin_map("g2p:1/2"))


def test_determinants_match_the_ring_operations():
    """InvolutionForm.determinant and FiberPattern.determinant, sums of
    squares, against the same formulas in plain ring operations."""
    form = InvolutionForm(Z + 2, Z.scale(I) + 1 - I)
    assert form.determinant() == form.p * form.p - form.q * form.q.conj() * ONE_MINUS_Z2
    pattern = FiberPattern(Z + I, Poly.const(3))
    assert pattern.determinant() == pattern.a * pattern.a.conj() - pattern.b * pattern.b.conj() * ONE_MINUS_Z2


def _column_polys(keys):
    """Polys over the given keys built from integer columns: degrees 0 to 6,
    small and negative entries and entries above 2^64, denominators up to
    2^66, so two draws rarely share one; the zero Poly is drawn too."""
    entries = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    cols = st.dictionaries(st.sampled_from(keys), st.lists(entries, min_size=1, max_size=7), max_size=len(keys))
    return st.builds(poly_mod._poly, cols, st.integers(1, 2**66))


_GAUSSIAN = ((1, 0), (1, 1))
_TOWER = tuple((m, t) for m in (1, 2, 3, 6) for t in (0, 1))  # Q(i, sqrt 2, sqrt 3)


@settings(max_examples=300, deadline=None)
@given(ab=st.sampled_from((_GAUSSIAN, _TOWER)).flatmap(lambda keys: st.tuples(_column_polys(keys), _column_polys(keys))))
@example(ab=(Poly(), Poly()))
@example(ab=(Poly(), Z * Z + I))
@example(ab=(Z.scale(CoeffScalar(TowerReal.sqrt_rational(2), 3)) + Fraction(1, 5), Poly()))
@example(ab=(Poly([Fraction(1, 3), I]), Poly([TowerReal.sqrt_rational(6), Fraction(2**65 + 1, 7)])))
def test_pattern_determinant_matches_the_fused_sum(ab):
    """pattern_determinant, two sums of squares on the key pairs of equal t,
    equals the fused sum of all key pairs' products (`ref_determinant`) in
    its columns and denominator, with a = 0 or b = 0, and so does the
    determinant of an involution form (i p, q) with p the real part of a."""
    a, b = ab
    got, ref = poly_mod.pattern_determinant(a, b), ref_determinant(a, b)
    assert (got._cols, got._den) == (ref._cols, ref._den)
    p = poly_mod._poly({key: c for key, c in a._cols.items() if not key[1]}, a._den)
    got, ref = InvolutionForm(p, b).determinant(), ref_determinant(p.scale(I), b)
    assert (got._cols, got._den) == (ref._cols, ref._den)
