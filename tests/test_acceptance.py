"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines; every tolerance here is exact (symbolic equality), as the criteria
demand."""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from birsphere.errors import BasePointHit
from birsphere.etatwist import (
    TwistClass,
    TwistedAlgebra,
    h2_invariant,
    h2_reduce,
)
from birsphere.involutions import (
    InvolutionForm,
    construct_conjugator,
    fixed_curve,
    involution_normal_form,
    realize_no_oval,
    realize_oval,
    rotation_normal_form,
)
from birsphere.picard import (
    DP4_ACTIONS,
    conic_pairs,
    geiser_action,
    geiser_matrix,
    image_rho_check,
    invariant_rank,
    is_lattice_aut,
    lattice_make,
    minus_one_classes,
    sign_map_preserves_quadric,
)
from birsphere.picard import DP4Surface, SIGN_MAPS
from birsphere.poly import ONE_MINUS_Z2, Poly
from birsphere.positivity import is_real_positive, v_decomp
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import (
    BaseMobius,
    FiberPattern,
    SphereFormula,
    SphereMap,
    builtin_map,
    canonical_pattern,
    contracted_fibers,
    diffeo_orientation,
    psi_forward,
    psi_inverse,
    rotation,
    x_flip,
    y_flip,
    z_flip,
)
from birsphere.classify import classify_spheremap, decide_conjugacy

from conftest import (
    random_poly,
    random_reality_element,
    random_sphere_point,
    ref_in_reality_group,
    ref_square_class,
    ref_square_split,
    same_function,
    same_triple,
    sphere_coordinates,
    sphere_formula,
)

Z = Poly.z()
I = CoeffScalar.i()


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def random_involution(rng, max_degree=1):
    while True:
        p = random_poly(rng, rng.randint(0, max_degree), complex_ok=False)
        q = random_poly(rng, rng.randint(0, max_degree))
        form = InvolutionForm(p, q)
        if form.determinant():
            try:
                return form.matrix()
            except ValueError:
                continue


def test_criterion_1_psi_roundtrip(rng):
    with criterion(1, "psi round trip on 100 exact sphere points, base points flagged"):
        count = 0
        while count < 50:  # real points from the Pythagorean parametrisation
            pt = random_sphere_point(rng)
            t, z = psi_forward(pt)
            assert psi_inverse(t, z) == pt
            count += 1
        count = 0
        while count < 50:  # complex Q(i)-points
            t = CoeffScalar(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            z = CoeffScalar(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            if not t:
                continue
            try:
                pt = psi_inverse(t, z)
            except BasePointHit:
                continue
            tt, zz = psi_forward(pt)
            assert (tt, zz) == (t, z)
            count += 1
        for bad in ((0, I, 1, 0), (0, -I, 1, 0)):
            with pytest.raises(BasePointHit):
                psi_forward(bad)
        from birsphere.projmat import INF

        for t, z in ((CoeffScalar(0), CoeffScalar(1)), (CoeffScalar(0), CoeffScalar(-1)), (INF, INF)):
            with pytest.raises(BasePointHit):
                psi_inverse(t, z)


def test_criterion_2_reality(rng):
    with criterion(2, "reflection formula symbolic; equivariance for members, witnesses against"):
        import sympy

        t, zs = sympy.symbols("t z")
        images = sphere_formula(y_flip(), t, zs)
        x, y, z = sphere_coordinates(t, zs)
        assert all(same_function(u, v) for u, v in zip(images, (x, -y, z)))
        for _ in range(50):
            mat = random_reality_element(rng, max_degree=2)
            formula = SphereFormula(SphereMap.trivial_base(mat))
            checked = 0
            while checked < 20:
                pt = random_sphere_point(rng)
                try:
                    img = formula.eval(pt)
                except BasePointHit:
                    continue
                assert all(c.is_real() for c in img)
                from birsphere.sphere import on_sphere

                assert on_sphere(img)
                checked += 1
        found = 0
        attempts = 0
        while found < 10 and attempts < 200:
            attempts += 1
            mat = ProjMat.of(
                random_poly(rng, 1), random_poly(rng, 1), random_poly(rng, 0), random_poly(rng, 1)
            )
            if ref_in_reality_group(mat):
                continue
            formula = SphereFormula(SphereMap.trivial_base(mat))
            witness = None
            for _ in range(40):
                pt = random_sphere_point(rng)
                try:
                    img = formula.eval(pt)
                except BasePointHit:
                    continue
                if not all(c.is_real() for c in img):
                    witness = pt
                    break
            assert witness is not None, f"no equivariance violation found for {mat}"
            found += 1
        assert found == 10


def _unimodular_samples():
    out = [CoeffScalar(-1)]
    for s in (0, 1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
              Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3), Fraction(1, 5), Fraction(-1, 5),
              Fraction(3, 2), Fraction(-3, 2), Fraction(4, 3), Fraction(-4, 3), Fraction(5, 2)):
        s = Fraction(s)
        den = 1 + s * s
        out.append(CoeffScalar((1 - s * s) / den, 2 * s / den))
    return out  # 21 points on the unit circle


def _fiber_grid_defined(mat: ProjMat) -> bool:
    """Naive chart evaluation of the map and its inverse over a grid of
    fibers (including the poles and every contracted fiber) and 21 exact
    circle points per fiber."""
    inv = mat.inverse()
    fibers = []
    for v in (0, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 2),
              Fraction(1, 5), Fraction(-1, 5), Fraction(2, 5), Fraction(-2, 5),
              Fraction(3, 7), Fraction(-3, 7), Fraction(1, 8), Fraction(-1, 8),
              Fraction(5, 8), Fraction(-5, 8), Fraction(9, 10), Fraction(-9, 10),
              Fraction(7, 10), Fraction(-7, 10)):
        b = Fraction(2 * v, 1 + v * v)
        root = TowerReal.from_rational(Fraction(1 - v * v, 1 + v * v))
        fibers.append((CoeffScalar(b), CoeffScalar(root)))  # h(b) = root^2
    for alg in contracted_fibers(mat):
        try:
            z0 = alg.to_tower()
        except ValueError:
            return False  # treat un-representable contracted fibers as failures
        h_val = (1 - z0 * z0).sqrt()
        fibers.append((CoeffScalar(z0), CoeffScalar(h_val)))
    units = _unimodular_samples()
    for z0, t0 in fibers:
        for u in units:
            t = t0 * u
            try:
                img = mat.act_on_fiber(t, z0)
                back = inv.act_on_fiber(img, z0)
            except BasePointHit:
                return False
            if back != t:
                return False
    # the poles in the naive chart: (t, z) = (0, +-1)
    for z0 in (CoeffScalar(1), CoeffScalar(-1)):
        try:
            mat.act_on_fiber(CoeffScalar(0), z0)
            inv.act_on_fiber(CoeffScalar(0), z0)
        except BasePointHit:
            return False
    return True


def test_criterion_3_diffeo_criterion(rng):
    with criterion(3, "orientation criterion = empty contracted set + boundary = total grid evaluation"):
        from birsphere.errors import UnsupportedExtension

        elements = []
        while len(elements) < 20:  # generic random pattern elements
            cand = random_reality_element(rng, max_degree=1)
            try:  # keep only elements whose bad fibers are exactly sampleable
                _fiber_grid_defined(cand)
            except UnsupportedExtension:
                continue
            elements.append(cand)
        while len(elements) < 30:  # guaranteed members of the diffeo group
            f = Poly([Fraction(rng.randint(1, 6)), 0, 1]) * Poly([Fraction(rng.randint(1, 6)), 0, 1])
            elements.append(realize_no_oval(f))
        for r, s in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
                     (Fraction(-3, 5), Fraction(4, 5)), (Fraction(8, 17), Fraction(15, 17)),
                     (Fraction(-5, 13), Fraction(12, 13))):
            # engineered rational contracted fiber at z = r (h(r) = s^2)
            for c in (1, 2, Fraction(1, 2), Fraction(3, 2)):
                a = Poly([s - c * r, Fraction(c)])  # a(r) = s
                elements.append(FiberPattern(a, Poly.const(1)).matrix())
        elements.append(ProjMat.of(Z, ONE_MINUS_Z2, Poly.const(1), Z))  # roots +-sqrt(1/2)
        elements = elements[:50]
        assert len(elements) == 50
        agreements = 0
        for mat in elements:
            p1 = diffeo_orientation(mat) == 1
            p2 = not contracted_fibers(mat) and not any(canonical_pattern(mat).stripped_determinant[:2])
            p3 = _fiber_grid_defined(mat)
            assert p1 == p2 == p3, f"criterion mismatch for {mat}: {p1} {p2} {p3}"
            agreements += 1
        assert agreements == 50


def test_criterion_4_conjugacy_certificates(rng):
    with criterion(4, "100 verified conjugacy certificates; 20 engineered non-conjugate pairs"):
        for _ in range(100):
            a = random_involution(rng, max_degree=1)
            c = random_reality_element(rng, max_degree=1)
            b = c * a * c.inverse()
            cert = construct_conjugator(a, b)
            assert cert.verify()
            assert ref_in_reality_group(cert.conjugator.fiber)
            assert cert.conjugator.fiber * a * cert.conjugator.fiber.inverse() == b
        for k in range(1, 21):
            a = realize_no_oval(Z * Z + k)
            b = realize_no_oval((Z * Z + k) * (Z * Z + k + 1))
            out = decide_conjugacy(SphereMap.trivial_base(a), SphereMap.trivial_base(b))
            assert out["conjugate"] is False and "conjugator" not in out


def test_criterion_5_fixed_curve_oracle(rng):
    with criterion(5, "fiberwise fixed points land on the model curve; locus matches orientation"):
        involutions = [
            y_flip().fiber,
            x_flip().fiber,
            realize_oval(Z + Poly.const(I)),
            realize_oval(Z * Z + Z.scale(I) + 1),
            realize_no_oval(Z * Z + 4),
            realize_no_oval((Z * Z + 1) * (Z * Z + 4)),
        ]
        while len(involutions) < 10:
            involutions.append(random_involution(rng, max_degree=1))
        for mat in involutions:
            form = involution_normal_form(mat)
            model = fixed_curve(mat)
            m, scale, content = ref_square_split(form.determinant())  # D = content m scale^2
            assert m == model.m
            checked = 0
            z0 = Fraction(-21, 20)
            while checked < 20:
                z0 += Fraction(1, 9)
                zval = CoeffScalar(z0)
                qbar, p, q = form.q.conj()(zval), form.p(zval), form.q(zval)
                if not qbar or not scale(zval):
                    continue
                h = CoeffScalar(1 - z0 * z0)
                disc = (2 * I * p) * (2 * I * p) + 4 * qbar * q * h
                root = disc.sqrt()
                for sgn in (1, -1):
                    t = (2 * I * p + root * CoeffScalar(Fraction(sgn))) / (2 * qbar)
                    assert qbar * t * t - 2 * I * p * t - q * h == CoeffScalar(0)
                    w = qbar * t - I * p
                    assert w * w == -form.determinant()(zval)
                checked += 1
            neg_d = (model.m * scale * scale).scale(-content)
            assert -form.determinant() == neg_d
            # real locus class against the model sign on the open interval:
            # no real points (orientation 1) or one oval (orientation -1)
            orientation = diffeo_orientation(mat)
            if not orientation:
                continue
            for sample in (Fraction(0), Fraction(1, 2), Fraction(-2, 5)):
                val = (-model.m(CoeffScalar(sample))).as_real().sign()
                if orientation == 1:
                    assert val < 0  # w^2 < 0: no real branch anywhere
                else:
                    assert val > 0  # one oval over the whole open interval
            if orientation == -1:
                for sample in (Fraction(3, 2), Fraction(-2)):
                    assert (-model.m(CoeffScalar(sample))).as_real().sign() < 0


def test_criterion_6_realization_inverse(rng):
    with criterion(6, "realisations reproduce prescribed curves; decomposition identities exact"):
        oval_inputs = [
            Poly.const(1),
            Z + Poly.const(I),
            Z + 2 * I,
            Z * Z + Z.scale(I) + 1,
            (Z + Poly.const(I)) * (Z + 2 * I),  # genus 2 model
            (Z + Poly.const(I)) * (Z - 3 * I),
            Z * Z + Poly.const(I),
            (Z * Z + 1) * (Z + Poly.const(I)),
            Z.scale(CoeffScalar(1, 1)) + Poly.const(CoeffScalar(2, -1)),
            (Z + Poly.const(CoeffScalar(0, 3))) * (Z * Z + 2),
        ]
        for beta in oval_inputs:
            mat = realize_oval(beta)
            model = fixed_curve(mat)
            expected = ref_square_class(ONE_MINUS_Z2 * beta * beta.conj())  # the class of -D
            assert -model.m == expected
        no_oval_inputs = [
            Z * Z + 1,
            Z * Z + 4,
            Z * Z + Fraction(1, 4),
            (Z * Z + 1) * (Z * Z + 4),
            (Z * Z + 2) * (Z * Z + 5),
            (Z * Z + 1) * (Z * Z + 4) * (Z * Z + 9),  # genus 2
            (Z * Z + 3) * (Z * Z + 12),
            (Z * Z + 1) ** 2 * (Z * Z + 4),
            Poly.const(9),
            (Z * Z + 4) * (Z * Z + 9),
        ]
        for f in no_oval_inputs:
            mat = realize_no_oval(f)
            model = fixed_curve(mat)
            assert model.m == ref_square_class(f)
            a, p = v_decomp(f)
            assert a * a + p * Poly([-1, 0, 1]) == f
            if f.degree > 0:
                assert is_real_positive(p)
        # the tower frontier is reported, never silently approximated: the
        # unique positive witness for this curve needs a fourth root
        from birsphere.errors import UnsupportedExtension

        with pytest.raises(UnsupportedExtension):
            realize_no_oval(Z * Z + Z + 1)


def test_criterion_7_rotation_normal_form(rng):
    with criterion(7, "rotations recovered with verified conjugators; angle invariance"):
        for k, n in ((1, 3), (1, 4), (1, 6)):
            target = rotation(k, n).fiber
            for _ in range(5):
                c = random_reality_element(rng, max_degree=1)
                mat = c * target * c.inverse()
                nf = rotation_normal_form(mat)
                assert nf.target.fiber.rotation_angle() == (min(k % n, (n - k) % n), n)
                assert nf.source.fiber == mat and nf.verify()
                assert ref_in_reality_group(nf.conjugator.fiber)
        angles = set()
        target = rotation(1, 6).fiber
        for _ in range(20):
            c = random_reality_element(rng, max_degree=1)
            angles.add(rotation_normal_form(c * target * c.inverse()).target.fiber.rotation_angle())
        assert angles == {(1, 6)}


def test_criterion_8_h2_suite(rng):
    with criterion(8, "twist classes: delta examples, coboundary invariance, generators, witnesses"):
        assert h2_reduce(Poly.const(-1)) == TwistClass(-1, ())
        cls = h2_reduce(Z * Z + 4)
        assert cls.sign == 1 and list(cls.gens) == [Fraction(4)]
        pairs = (z_flip(), builtin_map("antipodal"), builtin_map("g2p:1/2"))
        twists = 0
        for pair in pairs:
            base_cls = h2_invariant(pair)
            while twists % 17 != 16:
                c = random_reality_element(rng, max_degree=1)
                fiber = c.reflect_z() * pair.fiber * c.inverse()
                assert h2_invariant(SphereMap(fiber, BaseMobius.negation())) == base_cls
                twists += 1
            twists += 1
        assert twists >= 50
        for b in (Fraction(4), Fraction(1, 2), Fraction(7)):
            gen = h2_reduce(Z * Z + b)
            assert gen.combine(gen) == TwistClass(1, ())
        for t in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5)):
            g = builtin_map(f"g2p:{t}")
            assert g.order() == 2 and g.base.kind == "neg"
            cls = h2_invariant(g)
            assert cls.sign == 1 and list(cls.gens) == [t * t]
        alg = TwistedAlgebra
        witnesses = 0
        while witnesses < 20:
            b = (
                Poly([CoeffScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]),
                Poly([CoeffScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]),
                Poly.const(1),
            )
            try:
                u = alg.mul(b, alg.reflect(alg.inverse(b)))
            except ZeroDivisionError:
                continue
            assert same_triple(alg.mul(u, alg.reflect(u)), (Poly.const(1), Poly(), Poly.const(1)))
            witness = alg.coboundary_witness(u)
            assert same_triple(alg.mul(witness, alg.inverse(alg.reflect(witness))), u)
            witnesses += 1


def test_criterion_9_picard_suite():
    with criterion(9, "lattice counts, shipped automorphisms, Geiser action, quadric symmetries"):
        assert len(minus_one_classes(lattice_make(6))) == 6
        assert len(minus_one_classes(lattice_make(4))) == 16
        assert len(minus_one_classes(lattice_make(2))) == 56
        lat4 = lattice_make(4)
        assert len(conic_pairs(lat4)) == 5 and len(conic_pairs(lat4)) * 2 == 10
        for name, rank in (("alpha1", 1), ("alpha2", 1), ("g1", 2), ("g2", 2)):
            assert is_lattice_aut(lat4, DP4_ACTIONS[name])
            assert invariant_rank(lat4, [DP4_ACTIONS[name], lat4.sigma]) == rank
        for bad in ("rejected1", "rejected2"):
            assert not is_lattice_aut(lat4, DP4_ACTIONS[bad])
        lat2 = lattice_make(2)
        nu = geiser_matrix(lat2)
        classes = minus_one_classes(lat2)
        assert all(
            geiser_action(lat2, c) == tuple(-k - x for k, x in zip(lat2.canonical, c))
            for c in classes
        )
        assert invariant_rank(lat2, [nu, lat2.sigma]) == 1
        mu = CoeffScalar(Fraction(3, 5), Fraction(4, 5))
        q1, q2 = DP4Surface(mu).quadrics()
        assert all(sign_map_preserves_quadric(n, q) for n in SIGN_MAPS for q in (q1, q2))
        samples = [
            (CoeffScalar(Fraction(3, 5), Fraction(4, 5)), True),
            (CoeffScalar(Fraction(5, 13), Fraction(12, 13)), True),
            (I, True),
            (CoeffScalar(0, 2), False),
            (CoeffScalar(2), False),
            (CoeffScalar(Fraction(1, 2)), False),
            (CoeffScalar(1, 1), False),
            (CoeffScalar(Fraction(-3, 5), Fraction(4, 5)), True),
            (CoeffScalar(3, 4), False),
            (CoeffScalar(Fraction(8, 17), Fraction(-15, 17)), True),
        ]
        assert all(image_rho_check(mu) == expected for mu, expected in samples)


def test_criterion_10_end_to_end_table():
    with criterion(10, "classification table of the builtin catalogue"):
        table = {
            "tau": 4,
            "upsilon": 4,
            "antipodal": 5,
            "tilde_eta": "linear-stratum",
            "rot:1/2": 3,
            "rot:1/3": 3,
            "gb:1/2": "reality-only",
            "g1p:1/2": "rational-special",
            "g2p:1/2": 8,
        }
        for name, family in table.items():
            report = classify_spheremap(builtin_map(name))
            assert report.family == family, (name, report.family, family)
        rep = classify_spheremap(builtin_map("tilde_eta"))
        assert rep.moduli["twist_class"]["sign"] == "+" and not rep.moduli["twist_class"]["gens"]
        rep = classify_spheremap(realize_oval(Z + Poly.const(I)) and SphereMap.trivial_base(realize_oval(Z + Poly.const(I))))
        assert rep.family == 7
        rep = classify_spheremap(SphereMap.trivial_base(realize_no_oval((Z * Z + 1) * (Z * Z + 4))))
        assert rep.family == 6
        rep = classify_spheremap(builtin_map("g1p:1/2"))
        assert rep.moduli["parameter"] == "1/4"
        rep = classify_spheremap(builtin_map("g2p:1/2"))
        gens = rep.moduli["twist_class"]["gens"]
        assert rep.moduli["twist_class"]["sign"] == "+" and len(gens) == 1
        assert gens[0]["approx"] == 0.25
        assert not decide_conjugacy(builtin_map("g1p:1/2"), builtin_map("g1p:1/3"))["conjugate"]
        res = decide_conjugacy(builtin_map("g1p:1/2"), builtin_map("g1p:-1/2"))
        assert res["conjugate"] and res["verified"]
