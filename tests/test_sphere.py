import json
from fractions import Fraction
from pathlib import Path

import pytest

from birsphere.classify import _matrix_json
from birsphere.errors import (
    BasePointHit,
    InfiniteOrderBase,
    NotOnSphere,
)
from birsphere.poly import ONE_MINUS_Z2, Poly, cauchy_bound
from birsphere.projmat import INF, ProjMat
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import (
    BaseMobius,
    ConjugacyCertificate,
    SphereFormula,
    SphereMap,
    base_realisation,
    builtin_map,
    canonical_pattern,
    contracted_fibers,
    diffeo_orientation,
    flipped_special_involution,
    in_diffeo_group,
    interval_shift,
    psi_forward,
    psi_inverse,
    reality_twist,
    reduce_to_trivial_base,
    rotation,
    y_flip,
    z_flip,
)

from conftest import (
    random_reality_element,
    random_sphere_point,
    ref_real_roots,
    ref_square_class,
    same_up_to_positive_rational,
    same_function,
    sphere_coordinates,
    sphere_formula,
)

Z = Poly.z()
I = CoeffScalar.i()
TAU = reality_twist()


def fiber_determinant(mat: ProjMat) -> Poly:
    """The pattern determinant a*~a - b*~b*h, primitive when rational."""
    det = canonical_pattern(mat).determinant()
    return det.primitive() if det.is_rational() else det


# -- psi ---------------------------------------------------------------------


def test_psi_forward_examples():
    assert psi_forward((1, 1, 0, 0)) == (CoeffScalar(1), CoeffScalar(0))
    assert psi_forward((1, Fraction(3, 5), 0, Fraction(4, 5))) == (
        CoeffScalar(Fraction(3, 5)),
        CoeffScalar(Fraction(4, 5)),
    )
    with pytest.raises(BasePointHit):
        psi_forward((0, I, 1, 0))
    with pytest.raises(BasePointHit):
        psi_forward((0, -I, 1, 0))
    with pytest.raises(NotOnSphere):
        psi_forward((1, 1, 1, 1))


def test_psi_inverse_examples():
    assert psi_inverse(CoeffScalar(1), CoeffScalar(0)) == (
        CoeffScalar(1),
        CoeffScalar(1),
        CoeffScalar(0),
        CoeffScalar(0),
    )
    pt = psi_inverse(CoeffScalar(1), CoeffScalar(2))
    assert pt == (CoeffScalar(1), CoeffScalar(-1), 2 * I, CoeffScalar(2))
    w, x, y, z = pt
    assert w * w == x * x + y * y + z * z
    for tval, zval in ((CoeffScalar(0), CoeffScalar(1)), (CoeffScalar(0), CoeffScalar(-1)), (INF, INF)):
        with pytest.raises(BasePointHit):
            psi_inverse(tval, zval)


def test_psi_roundtrip_random(rng):
    for _ in range(50):
        pt = random_sphere_point(rng)
        t, z = psi_forward(pt)
        assert psi_inverse(t, z) == pt
    for _ in range(50):
        t = CoeffScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), 3))
        z = CoeffScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), 2))
        if not t:
            continue  # the line t = 0 is contracted to a blown-up point
        try:
            pt = psi_inverse(t, z)
        except BasePointHit:
            continue
        back = psi_forward(pt)
        assert back == (t, z)


# -- membership and patterns ------------------------------------------------------


def test_reality_membership():
    for base in (BaseMobius.identity(), BaseMobius.negation()):
        assert SphereMap(TAU, base).reality_check()
        assert SphereMap(ProjMat.diag(Poly.const(1), Poly.const(I)), base).reality_check()
        assert not SphereMap(ProjMat.of(Poly.const(1), Poly.const(1), Poly(), Poly.const(1)), base).reality_check()


def test_canonical_pattern_examples():
    pat = canonical_pattern(TAU)
    assert not pat.a and pat.b.degree == 0
    pat = canonical_pattern(ProjMat.diag(Poly.const(1), Poly.const(I)))
    assert not pat.b
    assert pat.matrix() == ProjMat.diag(Poly.const(1), Poly.const(I))
    pat = canonical_pattern(ProjMat.of(Z, ONE_MINUS_Z2, Poly.const(1), Z))
    assert same_up_to_positive_rational((pat.a, pat.b), (Z, Poly.const(1)))


def test_pattern_matrix_roundtrip(rng):
    for _ in range(20):
        mat = random_reality_element(rng)
        pat = canonical_pattern(mat)
        assert pat.matrix() == mat


def test_fiber_determinant_examples():
    assert fiber_determinant(TAU) == Z * Z - 1
    assert fiber_determinant(ProjMat.of(Z, ONE_MINUS_Z2, Poly.const(1), Z)) == 2 * Z * Z - 1
    from birsphere.sphere import FiberPattern

    mat = FiberPattern(Poly([1, -1]), Poly.const(1)).matrix()
    assert fiber_determinant(mat) == Z * Z - Z  # primitive form of 2z^2-2z


def test_determinant_positive_outside_interval(rng):
    for _ in range(15):
        mat = random_reality_element(rng)
        det = fiber_determinant(mat)
        b = cauchy_bound(det)
        assert ref_real_roots(det, Fraction(1), b) == ref_real_roots(det, -b, Fraction(-1)) == []
        assert det(Fraction(2)).as_real().sign() > 0


def test_determinant_multiplicative_up_to_norm(rng):
    for _ in range(10):
        a = random_reality_element(rng, max_degree=1)
        b = random_reality_element(rng, max_degree=1)
        dab = fiber_determinant(a * b)
        dprod = fiber_determinant(a) * fiber_determinant(b)
        # equal up to a factor p * conj(p), hence the same square class
        ratio_class = ref_square_class(dab * dprod)
        assert ratio_class.degree == 0
        assert ratio_class.lead().as_real().sign() > 0


def test_diffeo_memberships():
    d2 = ProjMat.diag(Poly([2 * I, CoeffScalar(1)]), Poly([-2 * I, CoeffScalar(1)]))
    assert diffeo_orientation(d2) == 1  # determinant z^2 + 4
    assert diffeo_orientation(TAU) != 1
    assert in_diffeo_group(TAU)
    bad = ProjMat.of(Z, ONE_MINUS_Z2, Poly.const(1), Z)  # determinant 2z^2 - 1
    assert not in_diffeo_group(bad)


def test_contracted_fibers():
    bad = ProjMat.of(Z, ONE_MINUS_Z2, Poly.const(1), Z)
    roots = contracted_fibers(bad)
    assert len(roots) == 2
    assert roots[0].to_tower() == -(TowerReal.sqrt_rational(2) / 2)
    assert contracted_fibers(TAU) == []  # roots at +-1 are outside the open interval
    assert contracted_fibers(ProjMat.identity()) == []


def exchanges(mat: ProjMat) -> tuple[bool, bool]:
    """Whether the map exchanges the two imaginary lines over z = 1 and
    over z = -1: a(e) = 0, the first two entries of stripped_determinant."""
    return canonical_pattern(mat).stripped_determinant[:2]


def test_boundary_behavior():
    assert exchanges(TAU) == (True, True)
    assert exchanges(ProjMat.identity()) == (False, False)
    from birsphere.sphere import FiberPattern

    assert exchanges(FiberPattern(Poly([1, -1]), Poly.const(1)).matrix()) == (True, False)


def test_boundary_flips_under_twist(rng):
    for _ in range(10):
        mat = random_reality_element(rng)
        north, south = exchanges(mat)
        assert exchanges(TAU * mat) == (not north, not south)


# -- base actions and sphere maps ----------------------------------------------------


def test_base_mobius_group():
    a = BaseMobius.shift(Fraction(1, 3))
    b = BaseMobius.shift(Fraction(1, 2))
    ab = a.compose(b)
    assert ab.kind == "shift"
    # velocity addition: (1/3 + 1/2)/(1 + 1/6)
    assert ab.b == TowerReal.from_rational(Fraction(5, 7))
    assert a.compose(a.inverse()).is_identity()
    flip = BaseMobius(BaseMobius.shift(Fraction(4, 5)).b, True)
    assert flip.kind == "flipped_shift" and flip.compose(flip).is_identity()
    assert flip.apply(CoeffScalar(1)) == CoeffScalar(-1)
    assert flip.apply(CoeffScalar(-1)) == CoeffScalar(1)


def test_spheremap_composition_law(rng):
    g1 = builtin_map("gb:1/2")
    g2 = builtin_map("g2p:1/3")
    comp = g1.compose(g2)
    assert comp.reality_check()
    assert g1.compose(g1.inverse()) == SphereMap.identity()
    assert comp.base == g1.base.compose(g2.base)


def test_identity_operand_composes_without_division(monkeypatch):
    """Composing with the identity, on either side, returns the other
    operand and inverts no scalar: (b + 0)/(1 + 0) = b."""
    g = builtin_map("gb:1/2")
    flipped = SphereMap(g.fiber, BaseMobius(g.base.b, True))
    inverses = []
    for cls in (CoeffScalar, TowerReal):  # TowerReal binds the inverse on its own class
        monkeypatch.setattr(cls, "inverse", lambda self, real=cls.inverse: inverses.append(self) or real(self))
    ident = SphereMap.identity()
    for h in (g, flipped, builtin_map("tau")):
        assert h.compose(ident) is h and ident.compose(h) is h
        assert h.base.compose(ident.base) == h.base == ident.base.compose(h.base)
    assert inverses == []


def test_builtin_reality_and_orders():
    expected = {
        "tau": 2,
        "upsilon": 2,
        "antipodal": 2,
        "tilde_eta": 2,
        "rot:1/4": 4,
        "rot:1/3": 3,
        "rot:1/6": 6,
        "rot:1/2": 2,
        "g1p:1/2": 2,
        "g2p:1/2": 2,
        "rot:1/24": 24,
        "rot:5/24": 24,
    }
    for name, order in expected.items():
        g = builtin_map(name)
        assert g.reality_check(), name
        assert g.order() == order, name
    assert builtin_map("gb:1/2").order() is None


def test_interval_shift_is_pythagorean_diffeo():
    for t in (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)):
        g = interval_shift(t)
        b = Fraction(2 * t, 1 + t * t)
        assert g.base.b == TowerReal.from_rational(b)
        assert g.base.apply(CoeffScalar(0)) == CoeffScalar(b)
        assert g.reality_check()
        assert g.orientation() == 1


def test_reduce_to_trivial_base():
    g = builtin_map("gb:1/2").compose(z_flip())
    assert g.base.kind == "flipped_shift"
    cert = reduce_to_trivial_base(g)
    assert cert.kind == "base-reduction" and cert.source == g and cert.verify()
    conj = cert.conjugator
    check = conj.compose(g).compose(conj.inverse())
    assert cert.target.base.kind == check.base.kind == "neg" and check.fiber == cert.target.fiber
    # spec example: base parameter 4/5 reduces with interval parameter 1/2
    assert conj.base.b == TowerReal.from_rational(Fraction(-1, 2)) or conj.base.b == TowerReal.from_rational(Fraction(1, 2))
    with pytest.raises(InfiniteOrderBase):
        reduce_to_trivial_base(builtin_map("gb:1/2"))
    with pytest.raises(ValueError):  # base id or neg needs no reduction
        reduce_to_trivial_base(y_flip())


def test_conjugacy_certificate_checks():
    """verify fails when any one of its three checks fails: the fiber
    equation, the reality of the conjugator, or the base equation."""
    rot = rotation(1, 3)
    assert ConjugacyCertificate("conjugation", rot, rot, SphereMap.identity()).verify()
    assert not ConjugacyCertificate("conjugation", rot, rot.inverse(), SphereMap.identity()).verify()
    unreal = SphereMap.trivial_base(ProjMat.diag(Poly.const(1), Poly.const(2)))  # commutes with rot
    assert not ConjugacyCertificate("conjugation", rot, rot, unreal).verify()
    g = builtin_map("gb:1/2").compose(z_flip())
    cert = reduce_to_trivial_base(g)
    unflipped = SphereMap(cert.target.fiber, BaseMobius.identity())  # the fiber products do not see it
    assert not ConjugacyCertificate(cert.kind, g, unflipped, cert.conjugator).verify()


PINS = json.loads((Path(__file__).parent / "data" / "closed_form_pins.json").read_text())


@pytest.mark.parametrize("pin", PINS["base_reductions"], ids=lambda pin: pin["b"])
def test_reduce_to_trivial_base_pinned(pin):
    """The reduced fiber and the conjugator for flipped shifts with base
    parameter 4/5 and -12/13, recorded from the candidate search that the
    closed form replaced."""
    g = base_realisation(BaseMobius.shift(Fraction(pin["b"]))).compose(flipped_special_involution(Fraction(1, 2)))
    assert g.base.kind == "flipped_shift"
    cert = reduce_to_trivial_base(g)
    assert (_matrix_json(cert.target.fiber), cert.target.base.kind) == (pin["fiber"], pin["residual"])
    conj = cert.conjugator
    assert (_matrix_json(conj.fiber), str(conj.base)) == (pin["conjugator"], pin["conjugator_base"])


# -- formulas ------------------------------------------------------------------------


def test_symbolic_formulas_match_named_maps():
    """The builtin reflections act on the coordinate functions of C(z)(t)
    exactly as their names say."""
    import sympy

    t, zs = sympy.symbols("t z")
    x, y, z = sphere_coordinates(t, zs)
    checks = {"tau": (x, -y, z), "upsilon": (-x, y, z), "tilde_eta": (x, y, -z)}
    for name, expected in checks.items():
        images = sphere_formula(builtin_map(name), t, zs)
        assert all(same_function(u, v) for u, v in zip(images, expected)), name


def test_rotation_formula_matches_classical_rotation():
    # r_theta : (x, y, z) -> (x cos - y sin, x sin + y cos, z)
    import sympy

    t, zs = sympy.symbols("t z")
    x, y, z = sphere_coordinates(t, zs)
    half, root3 = sympy.Rational(1, 2), sympy.sqrt(3) / 2
    cases = {(1, 4): (0, 1), (1, 2): (-1, 0), (1, 3): (-half, root3), (1, 6): (half, root3)}
    for (k, n), (c, s) in cases.items():
        X, Y, Z_ = sphere_formula(rotation(k, n), t, zs)
        assert same_function(X, c * x - s * y), (k, n)
        assert same_function(Y, s * x + c * y), (k, n)
        assert same_function(Z_, z)


def test_formula_eval_fixed_points():
    f = SphereFormula(y_flip())
    pt = (CoeffScalar(1), CoeffScalar(Fraction(1, 3)), CoeffScalar(Fraction(2, 3)), CoeffScalar(Fraction(2, 3)))
    w, x, y, z = f.eval(pt)
    assert (w, x, y, z) == (pt[0], pt[1], -pt[2], pt[3])
    # poles are fixed for trivial base, swapped under the flip
    north = (CoeffScalar(1), CoeffScalar(0), CoeffScalar(0), CoeffScalar(1))
    south = (CoeffScalar(1), CoeffScalar(0), CoeffScalar(0), CoeffScalar(-1))
    assert f.eval(north) == north
    assert SphereFormula(z_flip()).eval(north) == south


def test_formula_eval_is_exact_inverse(rng):
    g = builtin_map("g1p:1/2")
    fwd, bwd = SphereFormula(g), SphereFormula(g.inverse())
    for _ in range(10):
        pt = random_sphere_point(rng)
        assert bwd.eval(fwd.eval(pt)) == pt


def test_equivariance_of_members_and_violation_of_nonmembers(rng):
    for _ in range(5):
        mat = random_reality_element(rng)
        formula = SphereFormula(SphereMap.trivial_base(mat))
        for _ in range(5):
            pt = random_sphere_point(rng)
            try:
                img = formula.eval(pt)
            except BasePointHit:
                continue
            assert all(c.is_real() for c in img)
    nonmember = SphereMap.trivial_base(
        ProjMat.of(Poly.const(1), Poly.const(1), Poly(), Poly.const(1))
    )
    formula = SphereFormula(nonmember)
    witness = None
    for _ in range(30):
        pt = random_sphere_point(rng)
        try:
            img = formula.eval(pt)
        except BasePointHit:
            continue
        if not all(c.is_real() for c in img):
            witness = pt
            break
    assert witness is not None


# -- automorphisms of the sphere itself -------------------------------------------------


def test_rotation_angle_of_constant_diagonals():
    assert ProjMat.diag(Poly.const(1), Poly.const(I)).rotation_angle() == (1, 4)
    zeta6 = CoeffScalar(Fraction(1, 2), TowerReal.sqrt_rational(3) / 2)
    assert ProjMat.diag(Poly.const(1), Poly.const(zeta6)).rotation_angle() == (1, 6)


def test_interval_shift_base_action_on_zero():
    g = interval_shift(Fraction(1, 2))
    assert g.base.apply(CoeffScalar(0)) == CoeffScalar(Fraction(4, 5))
    assert g.orientation() == 1


def _count_norms(monkeypatch) -> list:
    """The list that every later galois_norm_poly call appends its input to."""
    import birsphere.poly as poly_mod

    norms = []
    real = poly_mod.galois_norm_poly
    monkeypatch.setattr(poly_mod, "galois_norm_poly", lambda p: norms.append(p) or real(p))
    return norms


def test_degree_ladder_takes_no_galois_norm(monkeypatch):
    """The H0 member [[(z+2i)^n+3, (1-z^2)(z^n+1)], [z^n+1, (z-2i)^n+3]]
    at n = 128, whose stripped determinant D' has degree 258, and a
    non-member product at n = 32: in_diffeo_group and contracted_fibers
    answer both on the integer column of D', with no Galois norm, as D'
    is rational.  Counted, not timed.  (Factoring the degree-260 D' of the
    n = 128 product takes seconds in Zassenhaus' algorithm, which this test
    does not measure.)"""
    from birsphere.sphere import FiberPattern

    norms = _count_norms(monkeypatch)
    i = Poly.const(CoeffScalar.i())

    def h0(n):
        return ProjMat.of((Z + 2 * i) ** n + 3, ONE_MINUS_Z2 * (Z**n + 1), Z**n + 1, (Z - 2 * i) ** n + 3)

    non_member = FiberPattern(Poly.const(1), Poly.const(2)).matrix()  # D' = 4 z^2 - 3
    root = TowerReal.sqrt_rational(3) / 2
    for mat, member, degree in ((h0(128), True, 258), (h0(32) * non_member, False, 68)):
        d_prime = canonical_pattern(mat).stripped_determinant[2]
        assert d_prime.is_rational() and d_prime.degree == degree
        assert in_diffeo_group(mat) == member
        assert [r.to_tower() for r in contracted_fibers(mat)] == ([] if member else [-root, root])
    assert norms == []


def test_tower_determinants_are_counted_on_integer_columns(monkeypatch):
    """Conjugates of rot:1/8, rot:1/12 and a no-oval involution by a
    diffeomorphism of shape [[5, (1 + i z) h], [1 - i z, 5]] have
    determinants over the tower that are a tower constant times a rational
    polynomial.  Made monic, each D' is rational, so classification counts
    its real roots by Descartes' rule, in one real-root record (`RealRoots`)
    per D', and takes no Galois norm."""
    import birsphere.sphere as sphere_mod
    from birsphere.classify import classify_spheremap
    from birsphere.involutions import realize_no_oval
    from birsphere.sphere import FiberPattern

    norms = _count_norms(monkeypatch)
    counted = []
    real = sphere_mod.RealRoots
    monkeypatch.setattr(sphere_mod, "RealRoots", lambda p: counted.append(p) or real(p))
    mover = FiberPattern(Poly.const(5), Z.scale(CoeffScalar.i()) + 1).matrix()  # det z^4 + 24 > 0
    no_oval = SphereMap.trivial_base(realize_no_oval((Z * Z + 1) * (Z * Z + 2)))
    for g, family in ((builtin_map("rot:1/8"), 3), (builtin_map("rot:1/12"), 3), (no_oval, 6)):
        counted.clear()
        assert classify_spheremap(SphereMap.trivial_base(mover * g.fiber * mover.inverse())).family == family
        assert len(counted) == 1 and counted[0].is_rational()
    assert norms == []


def test_orientation_character_read_only_by_spheremap_orientation():
    """chi joins diffeo_orientation with the base's sign in one place,
    SphereMap.orientation: outside sphere.py only classify_trivialbase
    calls diffeo_orientation, for a trivial base, and no package function
    but SphereMap.orientation reads a base's sign (x.base.sign())."""
    import ast

    import birsphere

    callers, sign_readers = set(), set()

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "diffeo_orientation" and path.name != "sphere.py":
                callers.add((path.name, function))
            if name == "sign" and isinstance(func.value, ast.Attribute) and func.value.attr == "base":
                sign_readers.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in Path(birsphere.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path, None)
    assert callers == {("classify.py", "classify_trivialbase")}
    assert sign_readers == {("sphere.py", "orientation")}
