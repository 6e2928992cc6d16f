from fractions import Fraction

import pytest

from birsphere.errors import DegenerateConfiguration, NotAutomorphism
from birsphere.picard import (
    DP4_ACTIONS,
    SIGN_MAPS,
    DP4Surface,
    anticanonical_matrices,
    conic_classes,
    conic_pairs,
    geiser_action,
    geiser_facts,
    geiser_matrix,
    image_rho_check,
    invariant_rank,
    is_lattice_aut,
    lattice_make,
    minus_one_classes,
    real_invariant_rank,
    sign_map_preserves_quadric,
    verify_anticanonical_dataset,
)
from birsphere.scalars import CoeffScalar

I = CoeffScalar.i()
MU_UNIT = CoeffScalar(Fraction(3, 5), Fraction(4, 5))


def quadric_value(q, point):
    """The quadric {(i, j): coeff} of DP4Surface.quadrics at a point of P^4."""
    return sum((coeff * point[i - 1] * point[j - 1] for (i, j), coeff in q.items()), CoeffScalar(0))


def sign_map(name, point):
    """The coordinate sign map SIGN_MAPS[name] applied to a point of P^4."""
    return tuple(c * s for c, s in zip(point, SIGN_MAPS[name]))


def test_lattice_shapes():
    for degree, rank in ((8, 2), (6, 4), (4, 6), (2, 8)):
        lat = lattice_make(degree)
        assert lat.rank == rank
        assert lat.k_square() == degree
        # sigma is an involution preserving the form and K
        assert is_lattice_aut(lat, lat.sigma)


def test_minus_one_class_counts():
    assert len(minus_one_classes(lattice_make(6))) == 6
    assert len(minus_one_classes(lattice_make(4))) == 16
    assert len(minus_one_classes(lattice_make(2))) == 56
    lat = lattice_make(4)
    for c in minus_one_classes(lat):
        assert lat.dot(c, c) == -1
        assert lat.dot(c, lat.canonical) == -1


def test_conic_classes_and_pairs():
    lat = lattice_make(4)
    classes = conic_classes(lat)
    assert len(classes) == 10
    pairs = conic_pairs(lat)
    assert len(pairs) == 5
    mk = tuple(-k for k in lat.canonical)
    for a, b in pairs:
        assert tuple(x + y for x, y in zip(a, b)) == mk
    fvec = (1, 0, 0, 0, 0, 0)
    partner = next(p for p in pairs if fvec in p)
    other = next(v for v in partner if v != fvec)
    assert other == (1, 2, -1, -1, -1, -1)  # f + 2 fbar - all exceptional classes


def test_shipped_automorphisms():
    lat = lattice_make(4)
    for name in ("alpha1", "alpha2", "g1", "g2"):
        assert is_lattice_aut(lat, DP4_ACTIONS[name])
    assert not is_lattice_aut(lat, DP4_ACTIONS["rejected1"])
    assert not is_lattice_aut(lat, DP4_ACTIONS["rejected2"])


def test_invariant_ranks():
    lat = lattice_make(4)
    for name, rank in (("alpha1", 1), ("alpha2", 1), ("g1", 2), ("g2", 2)):
        mat = DP4_ACTIONS[name]
        assert real_invariant_rank(lat, mat) == invariant_rank(lat, [mat, lat.sigma]) == rank
    # sigma-fixed sublattice: f+fbar plus one class per pair of points
    assert invariant_rank(lat, [lat.sigma]) == 3
    assert invariant_rank(lattice_make(8), [lattice_make(8).sigma]) == 1
    with pytest.raises(NotAutomorphism):
        invariant_rank(lat, [DP4_ACTIONS["rejected1"]])


def test_alpha1_eigenspace_structure():
    # the fixed space of alpha1 alone is 2-dimensional, cut to rank 1 by sigma
    lat = lattice_make(4)
    assert invariant_rank(lat, [DP4_ACTIONS["alpha1"]]) == 2


def test_geiser():
    lat = lattice_make(2)
    nu = geiser_matrix(lat)
    assert is_lattice_aut(lat, nu)
    classes = minus_one_classes(lat)
    for c in classes:
        img = geiser_action(lat, c)
        assert img == tuple(-k - x for k, x in zip(lat.canonical, c))
        assert img in classes
    assert geiser_action(lat, lat.canonical) == lat.canonical
    assert real_invariant_rank(lat, nu) == 1
    assert geiser_facts() == {"minus_one_classes": 56, "swaps_with_minus_k": True, "invariant_rank": 1}
    with pytest.raises(ValueError, match="needs degree 2"):
        geiser_matrix(lattice_make(4))
    # nu^2 = 1 and D + nu(D) is a multiple of K on the basis
    for j in range(lat.rank):
        e = tuple(1 if i == j else 0 for i in range(lat.rank))
        img = geiser_action(lat, e)
        assert geiser_action(lat, img) == e
        total = tuple(a + b for a, b in zip(e, img))
        k = lat.canonical
        ratios = {Fraction(t, kk) for t, kk in zip(total, k) if kk}
        assert len(ratios) == 1 and all(t == 0 for t, kk in zip(total, k) if not kk)


def test_order3_rank_check():
    lat = lattice_make(2)
    perm = [[0] * 8 for _ in range(8)]
    perm[0][0] = perm[1][1] = 1
    idx = {"E_p": 2, "E_pbar": 3, "E_q": 4, "E_qbar": 5, "E_r": 6, "E_rbar": 7}
    cycle = (("E_p", "E_q"), ("E_q", "E_r"), ("E_r", "E_p"))
    for src, dst in cycle + tuple((s + "bar", d + "bar") for s, d in cycle):
        perm[idx[dst]][idx[src]] = 1
    assert is_lattice_aut(lat, perm)
    assert invariant_rank(lat, [perm, lat.sigma]) >= 2


def test_dp4_surface_and_sign_maps():
    surface = DP4Surface(MU_UNIT)
    q1, q2 = surface.quadrics()
    for name in SIGN_MAPS:
        assert sign_map_preserves_quadric(name, q1)
        assert sign_map_preserves_quadric(name, q2)
    # alpha1 . alpha1 = identity on points
    pt = tuple(CoeffScalar(k) for k in (1, 2, 3, 4, 5))
    assert sign_map("alpha1", sign_map("alpha1", pt)) == pt
    with pytest.raises(DegenerateConfiguration):
        DP4Surface(CoeffScalar(1))


def test_surface_points_map_to_surface_points():
    surface = DP4Surface(MU_UNIT)
    q1, q2 = surface.quadrics()
    # solve for a point: fix y1, y2, y4 and solve the two quadrics for y3^2, y5^2
    y1, y2, y4 = CoeffScalar(1), CoeffScalar(2), CoeffScalar(3)
    c = q1[(3, 3)]
    y3sq = -(q1[(1, 1)] * y1 * y1 + q1[(1, 2)] * y1 * y2 + q1[(2, 2)] * y2 * y2 + q1[(4, 4)] * y4 * y4) / c
    y5sq = -(q2[(1, 1)] * y1 * y1 + q2[(1, 2)] * y1 * y2 + q2[(2, 2)] * y2 * y2 + q2[(4, 4)] * y4 * y4) / q2[(5, 5)]
    y3 = y3sq.sqrt()
    y5 = y5sq.sqrt()
    pt = (y1, y2, y3, y4, y5)
    assert not quadric_value(q1, pt) and not quadric_value(q2, pt)
    for name in SIGN_MAPS:
        image = sign_map(name, pt)
        assert not quadric_value(q1, image) and not quadric_value(q2, image)


def test_image_rho_check():
    assert image_rho_check(MU_UNIT)
    assert image_rho_check(I)
    assert not image_rho_check(CoeffScalar(2))
    with pytest.raises(DegenerateConfiguration):
        image_rho_check(CoeffScalar(0))


def test_anticanonical_dataset():
    assert verify_anticanonical_dataset(MU_UNIT)
    assert verify_anticanonical_dataset(CoeffScalar(2, 1))
    data = anticanonical_matrices(MU_UNIT)
    assert set(data) == {"gamma1", "gamma2", "gamma", "N"}


def test_anticanonical_dataset_refuses_a_wrong_sign_map(monkeypatch):
    """N M = +-S N fails for a sign map S that N does not diagonalise M to."""
    import birsphere.picard as picard

    monkeypatch.setitem(picard.SIGN_MAPS, "gamma1", picard.SIGN_MAPS["gamma2"])
    assert not verify_anticanonical_dataset(MU_UNIT)


def test_sigma_commutes_with_shipped_automorphisms():
    lat = lattice_make(4)
    from birsphere.picard import _mat_mul

    for name in ("alpha1", "alpha2", "g1", "g2"):
        mat = DP4_ACTIONS[name]
        assert _mat_mul(lat.sigma, mat) == _mat_mul(mat, lat.sigma)


def test_operator_table_is_single():
    """The printed degree-4 actions are one mapping, DP4_ACTIONS, in the order
    the `--op` lists print, and the lattice facts are read through picard:
    outside picard.py no package module spells g1, g2, rejected1 or
    rejected2 as a string literal or calls invariant_rank."""
    import ast
    from pathlib import Path

    import birsphere

    assert list(DP4_ACTIONS) == ["alpha1", "alpha2", "g1", "g2", "rejected1", "rejected2"]
    spelled, callers = [], []
    for path in sorted(Path(birsphere.__file__).parent.glob("*.py")):
        if path.name == "picard.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in {"g1", "g2", "rejected1", "rejected2"}:
                spelled.append((path.name, node.lineno))
            elif isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "invariant_rank":
                    callers.append((path.name, node.lineno))
    assert spelled == [] and callers == []
