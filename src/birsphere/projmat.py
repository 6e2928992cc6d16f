"""Rank-2 projective matrices over the function field of the line.

Entries are polynomials in z (denominators are cleared on construction).
The canonical form replaces the entries by their cofactors, the entries
divided by their gcd (`poly.cofactors`: over Q(i) the quotients of the one
kernel call that certifies the gcd, so nothing is divided twice), and
scales the first nonzero entry in row-major order to be monic, so
projective equality is a plain tuple comparison.  Products and
determinants of entries are fused sums of products (`poly.dot`), each
normalised once.
This is the one place a matrix is normalised: later normal forms (the
sphere's real pattern) read the canonical entries as they stand.
Möbius action of a scalar matrix (on a fiber z = z0, or on the conic at
infinity by leading terms) lives here too, as does
finite-order detection: a non-scalar matrix has finite order n
exactly when kappa = trace^2/det is a constant 2 + zeta + 1/zeta for a
primitive n-th root of unity zeta, so the order is one lookup of kappa in
the table of the cosines the tower contains.
A ProjMat is immutable, so its rotation angle (hence its order) and its
real pattern are memoised on it, once per matrix; a matrix built from a
pattern (`of_coprime`) has the pattern memo filled at birth.
"""

from __future__ import annotations

from functools import cached_property

from .errors import BasePointHit, IndeterminateFiber
from .poly import Poly, _coerce_poly, cofactors, dot, monic_lead
from .scalars import CoeffScalar, TowerReal


class Infinity:
    """Point at infinity of the projective fiber coordinate."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self):
        return "INF"


INF = Infinity()


# 2cos(2 pi k/n) for every angle (k, n) with gcd(k, n) = 1 and k <= n/2 whose
# order n a matrix over the tower can have.  Entries lie in Q(i, sqrt(d_1),
# ...), whose real subfield is multiquadratic, so Q(cos(2 pi/n)) must have a
# Galois group of exponent 2: n in {1, 2, 3, 4, 5, 6, 8, 10, 12, 24}
# (Washington, Introduction to Cyclotomic Fields, ch. 2).  This is the only
# place that lists the roots of unity of the tower.
def _two_cosines() -> dict[tuple[int, int], TowerReal]:
    one = TowerReal.from_rational(1)
    r2, r3, r5, r6 = (TowerReal.sqrt_rational(d) for d in (2, 3, 5, 6))
    return {
        (0, 1): 2 * one, (1, 2): -2 * one, (1, 3): -one, (1, 4): 0 * one, (1, 6): one,
        (1, 5): (r5 - 1) / 2, (2, 5): -(r5 + 1) / 2,
        (1, 8): r2, (3, 8): -r2,
        (1, 10): (r5 + 1) / 2, (3, 10): (1 - r5) / 2,
        (1, 12): r3, (5, 12): -r3,
        (1, 24): (r6 + r2) / 2, (5, 24): (r6 - r2) / 2,
        (7, 24): (r2 - r6) / 2, (11, 24): -(r6 + r2) / 2,
    }


TWO_COS = _two_cosines()
_ANGLE_OF_KAPPA = {CoeffScalar(2 + c): angle for angle, c in TWO_COS.items()}


def raw_mul(a, b):
    """Product of two matrices given as flat entry 4-tuples, unreduced."""
    return (
        dot(((1, a[0], b[0]), (1, a[1], b[2]))),
        dot(((1, a[0], b[1]), (1, a[1], b[3]))),
        dot(((1, a[2], b[0]), (1, a[3], b[2]))),
        dot(((1, a[2], b[1]), (1, a[3], b[3]))),
    )


def angle_of_entries(entries) -> tuple[int, int] | None:
    """The angle (k, n) of TWO_COS whose rotation diag(1, exp(2 pi i k/n)) is
    conjugate over an algebraic closure to the matrix of 4 entries, None at
    infinite order (kappa = trace^2/det non-constant, not in the table, or 4
    on a unipotent matrix).  kappa and the identity test (zero off-diagonal,
    equal diagonal) are projective; ProjMat's memo reads it off the
    canonical entries."""
    a11, a12, a21, a22 = entries
    tr = a11 + a22
    if not tr:
        return (1, 2)
    return angle_of_trace(tr, dot(((1, a11, a22), (-1, a12, a21))), not (a12 or a21 or a11 != a22))


def angle_of_trace(tr: Poly, det: Poly, is_scalar: bool) -> tuple[int, int] | None:
    """The angle of a matrix from its nonzero trace, its determinant and
    whether it is scalar (angle_of_entries)."""
    tr2 = tr * tr
    kappa = tr2.lead() / det.lead()
    angle = _ANGLE_OF_KAPPA.get(kappa) if tr2 == det.scale(kappa) else None
    if angle == (0, 1) and not is_scalar:
        return None
    return angle


class ProjMat:
    """Element of PGL(2, C(z)), stored in canonical polynomial form: the one
    representative whose entries have gcd 1 and whose first nonzero entry in
    row-major order is monic (`_canonical`).

    Three images of a canonical matrix are canonical up to one scalar, so
    they are built without a gcd:
    - `reflect_z`: z -> -z is a ring automorphism of the coefficient
      polynomial ring, so the entries keep gcd 1, and the first nonzero
      entry keeps its place with lead (-1)^deg;
    - `inverse`: the adjugate (a22, -a12, -a21, a11) has the same entries
      up to sign and order, so gcd 1; only its first nonzero entry needs
      scaling to monic;
    - a product with the identity is the other factor.
    The constructor is called in this module only (a test guards it), so
    every ProjMat satisfies the invariant these closed forms rely on, and
    equal matrices compare and hash as their tuples of entries.  Setting an
    attribute raises: the memos assume the entries never change."""

    def __init__(self, a11: Poly, a12: Poly, a21: Poly, a22: Poly):
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", a12)
        object.__setattr__(self, "a21", a21)
        object.__setattr__(self, "a22", a22)

    def __setattr__(self, name, value):
        raise AttributeError(f"ProjMat is immutable: cannot set {name}")

    def __eq__(self, other):
        if not isinstance(other, ProjMat):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    @classmethod
    def of(cls, a11, a12, a21, a22) -> ProjMat:
        """The canonical form of four polynomial or scalar entries."""
        return cls._canonical([_coerce_poly(e) for e in (a11, a12, a21, a22)])

    @classmethod
    def _canonical(cls, polys: list[Poly]) -> ProjMat:
        """The package's one normalisation of a matrix: the entries' cofactors
        by their gcd (`cofactors`: over Q(i) the quotients the gcd kernel
        certifies it with, so no entry is divided again), then the first
        nonzero entry scaled to monic in integers (`monic_lead`), which
        absorbs any rational content left.  Outside this module it is reached through `ProjMat.of` only
        (a test guards this)."""
        if not any(polys):
            raise ValueError("zero matrix is not projective")
        mat = cls._monic_lead(cofactors(*polys))
        if not mat.det():
            raise ValueError("matrix has identically zero determinant")
        return mat

    @classmethod
    def of_coprime(cls, polys) -> ProjMat:
        """The canonical form of four entries of gcd 1 and nonzero
        determinant, both proved by the caller, born with the real pattern
        sphere._summed_pattern reads off it unchecked, as the entries are a
        pattern's lift (sphere.FiberPattern.lift_matrix): the first nonzero
        entry made monic, with no gcd and no determinant."""
        from .sphere import _summed_pattern

        mat = cls._monic_lead(polys)
        object.__setattr__(mat, "real_pattern", _summed_pattern(mat))
        return mat

    @classmethod
    def _monic_lead(cls, polys) -> ProjMat:
        """The matrix of entries with gcd 1, scaled to make the first
        nonzero one monic (`monic_lead`, one integer pass)."""
        return cls(*monic_lead(polys))

    @classmethod
    def identity(cls) -> ProjMat:
        one, zero = Poly.const(1), Poly()
        return cls(one, zero, zero, one)

    @classmethod
    def diag(cls, a, b) -> ProjMat:
        zero = Poly()
        return cls.of(a, zero, zero, b)

    def entries(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.a11, self.a12, self.a21, self.a22)

    def det(self) -> Poly:
        return dot(((1, self.a11, self.a22), (-1, self.a12, self.a21)))

    def __mul__(self, other: ProjMat) -> ProjMat:
        if not isinstance(other, ProjMat):
            return NotImplemented
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return ProjMat._canonical(list(raw_mul(self.entries(), other.entries())))

    def inverse(self) -> ProjMat:
        """The adjugate (a22, -a12, -a21, a11) made monic.  Its entries are
        those of self up to sign and order, so their gcd is 1 and no gcd
        is needed; the determinant is unchanged, so nonzero."""
        return ProjMat._monic_lead((self.a22, -self.a12, -self.a21, self.a11))

    def reflect_z(self) -> ProjMat:
        """Entrywise substitution z -> -z.  It is a ring automorphism, so
        the entries keep gcd 1 and their contents, and the first nonzero
        entry stays first with lead (-1)^deg: the image is canonical once
        all four entries are negated when that degree is odd."""
        polys = [p.reflect_z() for p in self.entries()]
        if next(p for p in polys if p).degree % 2:
            polys = [-p for p in polys]
        return ProjMat(*polys)

    def is_identity(self) -> bool:
        """A canonical matrix with zero off-diagonal and equal diagonal
        entries p has gcd p, so p = 1."""
        return not (self.a12 or self.a21) and self.a11 == self.a22

    @cached_property
    def _angle(self) -> tuple[int, int] | None:
        return angle_of_entries(self.entries())

    @cached_property
    def real_pattern(self):
        """The pattern (a, b) of a real matrix, None for a non-real one: the
        checked closed form of sphere.canonical_pattern, or set at birth."""
        from .sphere import _summed_pattern

        return _summed_pattern(self, checked=True)

    def rotation_angle(self) -> tuple[int, int] | None:
        """angle_of_entries of the canonical entries, computed once per
        matrix: the order, the family report and the normal form share it."""
        return self._angle

    def order(self) -> int | None:
        """Least n with self^n = 1 in PGL, or None when there is none."""
        angle = self._angle
        return None if angle is None else angle[1]

    def act_on_fiber(self, t, z0) -> CoeffScalar | Infinity:
        """Möbius action of the specialised matrix on t in the fiber z = z0
        (mobius_action).  t may be a scalar or INF.  Raises
        IndeterminateFiber when all four entries vanish at z0."""
        z0 = z0 if isinstance(z0, CoeffScalar) else CoeffScalar(z0)
        entries = [p(z0) for p in self.entries()]
        if not any(entries):
            raise IndeterminateFiber(f"matrix vanishes identically at z = {z0}")
        return mobius_action(entries, t, f"the contracted fiber z = {z0}")

    def __repr__(self):
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


def mobius_action(entries, t, where: str) -> CoeffScalar | Infinity:
    """Möbius action of the scalar matrix [[a, b], [c, d]], not all zero, on
    t, a scalar or INF.  On a rank-1 matrix every point maps to the constant
    image but the single 0/0 point, which raises BasePointHit naming where."""
    a, b, c, d = entries
    if t is INF:
        num, den = a, c
    else:
        t = t if isinstance(t, CoeffScalar) else CoeffScalar(t)
        num, den = a * t + b, c * t + d
    if not den:
        if not num:
            raise BasePointHit(f"base point on {where}")
        return INF
    return num / den
