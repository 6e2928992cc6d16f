"""Integer Picard lattices of the blown-up sphere with their real structure.

The complex sphere is a smooth quadric; blowing up r pairs of conjugate
imaginary points gives a Del Pezzo surface of degree 8 - 2r whose lattice
has basis f, fbar (the two rulings) and the exceptional classes in
conjugate pairs.  The real structure swaps f with fbar and each class with
its partner.  Curve classes are enumerated by exact search, automorphisms
are validated against the intersection form and the canonical class, and
the printed matrices of the degree-4 story (the rank-1 involutions, the two
order-2 automorphisms preserving a conic bundle, and the rejected
half-integer actions) ship as one name -> matrix mapping, DP4_ACTIONS.
Each lattice fact the command line prints has one function here, which
both `picard` and `classify dp4:OP|geiser` call: real_invariant_rank,
geiser_facts, and DP4Surface for the check of mu.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateConfiguration, NotAutomorphism
from .scalars import CoeffScalar, scalar

Vector = tuple[int, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def _frac_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def _mat_vec(m: Matrix, v) -> tuple[Fraction, ...]:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product of square matrices, rational or (for the base change N)
    CoeffScalar."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def _gauss_jordan(rows: list[list]) -> tuple[list[list], list[int]]:
    """The reduced row echelon form of Fraction rows and its pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [c - factor * p for c, p in zip(rows[r], rows[rank])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots


class PicLattice:
    """Intersection lattice with canonical class K and real-structure action."""

    __slots__ = ("degree", "labels", "gram", "canonical", "sigma")

    def __init__(self, degree: int, labels: tuple[str, ...], gram: Matrix, canonical: Vector, sigma: Matrix):
        self.degree, self.labels, self.gram, self.canonical, self.sigma = degree, labels, gram, canonical, sigma

    @property
    def rank(self) -> int:
        return len(self.labels)

    def dot(self, v, w) -> Fraction:
        return sum(
            self.gram[i][j] * v[i] * w[j] for i in range(self.rank) for j in range(self.rank)
        )

    def k_square(self) -> Fraction:
        return self.dot(self.canonical, self.canonical)


def lattice_make(degree: int) -> PicLattice:
    if degree not in (8, 6, 4, 2):
        raise ValueError("degree must be one of 8, 6, 4, 2")
    pairs = (8 - degree) // 2
    labels = ["f", "fbar"]
    point_names = ["p", "q", "r"][:pairs]
    for name in point_names:
        labels += [f"E_{name}", f"E_{name}bar"]
    n = len(labels)
    gram = [[Fraction(0)] * n for _ in range(n)]
    gram[0][1] = gram[1][0] = Fraction(1)
    for k in range(2, n):
        gram[k][k] = Fraction(-1)
    canonical = tuple([-2, -2] + [1] * (n - 2))
    sigma = [[Fraction(0)] * n for _ in range(n)]
    sigma[0][1] = sigma[1][0] = Fraction(1)
    for k in range(2, n, 2):
        sigma[k][k + 1] = sigma[k + 1][k] = Fraction(1)
    return PicLattice(degree, tuple(labels), _frac_matrix(gram), canonical, _frac_matrix(sigma))


def _enumerate_exceptional(lat: PicLattice, self_int: int, k_int: int) -> list[Vector]:
    """Integer classes with C*C = self_int and C*K = k_int, by pruned search."""
    n_exc = lat.rank - 2
    out: list[Vector] = []
    bound_xy = 4
    for x in range(-bound_xy, bound_xy + 1):
        for y in range(-bound_xy, bound_xy + 1):
            # C = x f + y fbar + sum a_i E_i: C*C = 2xy - sum a^2, K*C = -2(x+y) - sum a
            sumsq = 2 * x * y - self_int
            asum = -k_int - 2 * (x + y)
            if sumsq < 0:
                continue
            for avec in _sum_square_solutions(n_exc, asum, sumsq, 3):
                out.append((x, y) + avec)
    return sorted(out)


def _sum_square_solutions(n: int, total: int, total_sq: int, bound: int):
    """Integer vectors of length n with given sum and sum of squares."""
    if n == 0:
        if total == 0 and total_sq == 0:
            yield ()
        return
    if total * total > total_sq * n:  # Cauchy-Schwarz prune
        return
    if n == 1:
        if -bound <= total <= bound and total * total == total_sq:
            yield (total,)
        return
    for a in range(-bound, bound + 1):
        rem_sq = total_sq - a * a
        if rem_sq < 0:
            continue
        for rest in _sum_square_solutions(n - 1, total - a, rem_sq, bound):
            yield (a,) + rest


def minus_one_classes(lat: PicLattice) -> list[Vector]:
    """All classes with C*C = C*K = -1 (the exceptional curves)."""
    return _enumerate_exceptional(lat, -1, -1)


def conic_classes(lat: PicLattice) -> list[Vector]:
    """Classes with C*C = 0 and C*K = -2 (the conic bundle fibers)."""
    return _enumerate_exceptional(lat, 0, -2)


def conic_pairs(lat: PicLattice) -> list[tuple[Vector, Vector]]:
    """The conic classes grouped so each pair sums to -K."""
    classes = conic_classes(lat)
    mk = tuple(-c for c in lat.canonical)
    pairs = []
    seen = set()
    for c in classes:
        if c in seen:
            continue
        partner = tuple(m - ci for m, ci in zip(mk, c))
        if partner not in classes:
            raise RuntimeError(f"conic class {c} has no partner summing to -K")
        seen.add(c)
        seen.add(partner)
        pairs.append((c, partner) if c <= partner else (partner, c))
    return sorted(set(pairs))


def is_lattice_aut(lat: PicLattice, rows) -> bool:
    """Integrality, intersection-form preservation, and K-fixing."""
    m = _frac_matrix(rows)
    if len(m) != lat.rank or any(len(r) != lat.rank for r in m):
        raise ValueError("matrix size does not match the lattice rank")
    if any(c.denominator != 1 for row in m for c in row):
        return False
    if _mat_mul(_mat_transpose(m), _mat_mul(lat.gram, m)) != lat.gram:
        return False
    return _mat_vec(m, lat.canonical) == tuple(Fraction(c) for c in lat.canonical)


def invariant_rank(lat: PicLattice, gens) -> int:
    """Rank of the common fixed sublattice of the given automorphisms."""
    mats = [_frac_matrix(g) for g in gens]
    for m in mats:
        if not is_lattice_aut(lat, m):
            raise NotAutomorphism("generator does not preserve the lattice data")
    stacked: list[list[Fraction]] = []
    ident = _identity(lat.rank)
    for m in mats:
        for i in range(lat.rank):
            stacked.append([m[i][j] - ident[i][j] for j in range(lat.rank)])
    return lat.rank - len(_gauss_jordan(stacked)[1])


def real_invariant_rank(lat: PicLattice, m) -> int:
    """Rank of the sublattice fixed by the automorphism m and the real
    structure sigma together."""
    return invariant_rank(lat, [m, lat.sigma])


def geiser_action(lat: PicLattice, v) -> Vector:
    """The image (v*K) K - v of the class v under the involution of the
    degree-2 surface swapping the sheets of its anticanonical double cover."""
    if lat.degree != 2:
        raise ValueError("the anticanonical double cover involution needs degree 2")
    kv = lat.dot(v, lat.canonical)
    return tuple(int(kv * k - c) for k, c in zip(lat.canonical, v))


def geiser_matrix(lat: PicLattice) -> Matrix:
    """The matrix of geiser_action, whose columns are the images of the basis."""
    cols = [geiser_action(lat, tuple(int(i == j) for i in range(lat.rank))) for j in range(lat.rank)]
    return _frac_matrix(_mat_transpose(cols))


def geiser_facts() -> dict:
    """The Geiser involution nu of the degree-2 lattice: the number of
    (-1)-classes, whether nu sends each class C to -K - C, and the rank
    fixed by nu and sigma."""
    lat = lattice_make(2)
    nu = geiser_matrix(lat)
    classes = minus_one_classes(lat)
    swaps = all(_mat_vec(nu, c) == tuple(-k - ci for k, ci in zip(lat.canonical, c)) for c in classes)
    return {
        "minus_one_classes": len(classes),
        "swaps_with_minus_k": swaps,
        "invariant_rank": real_invariant_rank(lat, nu),
    }


# -- printed degree-4 actions (basis f, fbar, E_p, E_pbar, E_q, E_qbar) -------------------

_ALPHA1 = _frac_matrix(
    [
        [1, 2, 1, 1, 1, 1],
        [2, 1, 1, 1, 1, 1],
        [-1, -1, -1, -1, -1, 0],
        [-1, -1, -1, -1, 0, -1],
        [-1, -1, -1, 0, -1, -1],
        [-1, -1, 0, -1, -1, -1],
    ]
)
_SWAP_Q = (0, 1, 2, 3, 5, 4)
_H = Fraction(1, 2)

# In the order printed: the two involutions fixing a rank-1 real sublattice
# (family 2), the two order-2 automorphisms preserving a conic bundle, and the
# two candidate actions that fail integrality (the would-be exchanges of a
# single conic-bundle pair).
DP4_ACTIONS: dict[str, Matrix] = {
    "alpha1": _ALPHA1,
    # alpha1 conjugated by the swap of E_q with E_qbar
    "alpha2": tuple(tuple(_ALPHA1[i][j] for j in _SWAP_Q) for i in _SWAP_Q),
    "g1": _frac_matrix(
        [
            [2, 1, 1, 1, 1, 1],
            [1, 2, 1, 1, 1, 1],
            [-1, -1, 0, -1, -1, -1],
            [-1, -1, -1, 0, -1, -1],
            [-1, -1, -1, -1, -1, 0],
            [-1, -1, -1, -1, 0, -1],
        ]
    ),
    "g2": _frac_matrix(
        [
            [2, 1, 1, 1, 1, 1],
            [1, 2, 1, 1, 1, 1],
            [-1, -1, -1, 0, -1, -1],
            [-1, -1, 0, -1, -1, -1],
            [-1, -1, -1, -1, 0, -1],
            [-1, -1, -1, -1, -1, 0],
        ]
    ),
    "rejected1": _frac_matrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, _H, -_H, _H, _H],
            [0, 0, -_H, _H, _H, _H],
            [0, 0, _H, _H, -_H, _H],
            [0, 0, _H, _H, _H, -_H],
        ]
    ),
    "rejected2": _frac_matrix(
        [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, _H, _H, -_H, _H],
            [0, 0, _H, _H, _H, -_H],
            [0, 0, -_H, _H, _H, _H],
            [0, 0, _H, -_H, _H, _H],
        ]
    ),
}


# -- the degree-4 surface in P^4 ----------------------------------------------------------


class DP4Surface:
    """Intersection of the two quadrics cut out by blowing up the two pairs
    (1:0)(0:1), (1:1)(1:mu) and embedding anticanonically."""

    __slots__ = ("mu",)

    def __init__(self, mu: CoeffScalar):
        if not mu or mu == CoeffScalar(1) or mu == CoeffScalar(-1):
            raise DegenerateConfiguration("mu must avoid {0, 1, -1}")
        self.mu = mu

    def quadrics(self) -> tuple[dict, dict]:
        """Monomial dictionaries {(i, j): coeff} for the two quadrics, with
        (i, j) the indices (1-based) of the coordinate pair."""
        m = self.mu
        mb = m.conj()
        n = m * mb
        c = 1 - mb + n - m
        q1 = {
            (1, 1): m - n + mb,
            (1, 2): CoeffScalar(-2),
            (2, 2): CoeffScalar(1),
            (3, 3): c,
            (4, 4): CoeffScalar(1),
        }
        q2 = {
            (1, 1): n,
            (1, 2): -2 * n,
            (2, 2): m - 1 + mb,
            (4, 4): n,
            (5, 5): c,
        }
        return q1, q2


SIGN_MAPS = {
    "gamma1": (1, 1, -1, 1, -1),
    "gamma2": (1, 1, 1, -1, -1),
    "gamma": (1, 1, -1, -1, -1),
    "alpha1": (1, 1, 1, 1, -1),
    "alpha2": (1, 1, -1, 1, 1),
}


def sign_map_preserves_quadric(name: str, q: dict) -> bool:
    """Symbolic check: every monomial of q is even in the flipped variables."""
    signs = SIGN_MAPS[name]
    return all(signs[i - 1] * signs[j - 1] == 1 for (i, j) in q)


def image_rho_check(mu) -> bool:
    """Whether the surface has the extra automorphism swapping the two
    middle conic-bundle pairs: exactly when mu * conj(mu) = 1."""
    m = DP4Surface(scalar(mu)).mu
    return m * m.conj() == CoeffScalar(1)


# -- anticanonical-system verification dataset ----------------------------------------------


def anticanonical_matrices(mu) -> dict[str, tuple[tuple[CoeffScalar, ...], ...]]:
    """The printed 5x5 actions of the three kernel generators on the
    anticanonical basis, plus the base change N to the diagonalising
    coordinates.  Shipped as verification data, not as lattice actions.
    mu is validated by DP4Surface, as for every other surface check."""
    m = DP4Surface(scalar(mu)).mu
    mb = m.conj()
    i = CoeffScalar.i()
    one = CoeffScalar(1)
    zero = CoeffScalar(0)
    inv_m = m.inverse()
    m1 = (
        (zero, -(m - mb) * inv_m, one, m - mb, 1 - mb),
        (zero, one, zero, zero, zero),
        (one, zero, zero, m - mb, 1 - mb),
        (zero, inv_m, zero, -one, zero),
        (zero, zero, zero, zero, -one),
    )
    m2 = (
        (one, (2 * m - mb) * inv_m, zero, zero, 1 - mb),
        (zero, -one, zero, zero, zero),
        (zero, one, one, zero, m - 2 * mb + 1),
        (zero, -inv_m, zero, one, -one),
        (zero, zero, zero, zero, -one),
    )
    mm = (
        (zero, -(m - mb) * inv_m, one, m - mb, zero),
        (zero, one, zero, zero, zero),
        (one, zero, zero, m - mb, mb - m),
        (zero, inv_m, zero, -one, one),
        (zero, zero, zero, zero, one),
    )
    n = (
        (one, one, -one, -mb - m, mb),
        (zero, -inv_m, zero, 2 * one, -one),
        (one, one, one, m - mb, 1 - mb),
        (zero, zero, zero, zero, -i),
        (zero, -inv_m, zero, zero, zero),
    )
    return {"gamma1": m1, "gamma2": m2, "gamma": mm, "N": n}


def verify_anticanonical_dataset(mu) -> bool:
    """Check that the base change N diagonalises the three shipped actions
    M to the +-1 diagonals S of the matching coordinate sign maps, up to an
    overall projective sign: N M = +-S N, which is N M N^-1 = +-S as
    det N = 4i/mu != 0."""
    data = anticanonical_matrices(mu)
    n = data["N"]
    for name in ("gamma1", "gamma2", "gamma"):
        nm = _mat_mul(n, data[name])
        sn = tuple(tuple(x if s > 0 else -x for x in row) for s, row in zip(SIGN_MAPS[name], n))
        if nm != sn and nm != tuple(tuple(-x for x in row) for row in sn):
            return False
    return True
