"""The sphere w^2 = x^2+y^2+z^2 with its conic-bundle projection to (w:z).

Over C the sphere minus two imaginary conjugate points is identified with
the affine (t, z)-plane by t = x - i*y; fiber-preserving birational maps
become 2x2 projective matrices over C(z), and compatibility with the real
structure becomes the condition  tau A tau = conj(A)  with
tau = [[0, 1-z^2], [1, 0]].  This module provides that bridge: the one
reality test (SphereMap.reality_check), the normal pattern
[[a, b*h], [conj b, conj a]] read off in closed form from
S = A + tau conj(A) tau^-1, which is a constant multiple of A exactly when
A is real (so the pattern takes no gcd and no rescale, and for a trivial
or flipped base its closing check is the reality test), diffeomorphism
membership and orientation from a(+-1) and the real-root count of the
stripped determinant D', whose real roots all lie in (-1, 1) and are the
contracted fibers, maps with nontrivial action on the base interval, exact
images of sphere points, and the builtin catalogue of named maps.
A matrix memoises its pattern (ProjMat.real_pattern), and a pattern what
is read off it: D, D', the one record of the real roots of D' (poly.RealRoots:
their count, and the square-free part they are isolated on, so the
orientation and the contracted fibers take one square-free part), the
involution form and the fixed-curve model of an element of order 2.  No
memo outlives its object.  A pattern's lift (FiberPattern.lift_matrix, the
one builder of a real matrix from a pattern) is brought to lowest terms by
its content, the greatest real divisor of its two entries, one gcd over Z
of their columns over Q(i), and is born with its pattern in closed form.
The group's arithmetic runs on patterns, two entries each: a product is two
fused sums, the reflection z -> -z acts entrywise (h is even), and two
patterns give one map when a b' = a' b and a ~a' is real (b ~b' when
a = a' = 0).  So a certificate whose bases do not move is checked as
P_C P_S proportional to P_T P_C, each factor reflected where a base flips,
and a base flip's order and twisted square are one pattern product.  Maps
with a moving base (b != 0), and non-real inputs, have no pattern: they
multiply by SphereMap.compose, hence ProjMat's canonical product, and
compare as canonical matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (
    BasePointHit,
    DegenerateConfiguration,
    InfiniteOrderBase,
    NotOnSphere,
    NotRealityMember,
    UnsupportedExtension,
)
from .poly import (
    ONE_MINUS_Z2,
    Poly,
    RealRoots,
    cofactors,
    dot,
    over_h,
    pattern_determinant,
    squarefree_decomposition,
    times_h,
)
from .projmat import INF, TWO_COS, ProjMat, angle_of_trace
from .scalars import CoeffScalar, TowerReal, scalar


_REALITY_TWIST = ProjMat.of(Poly(), ONE_MINUS_Z2, Poly.const(1), Poly())


def reality_twist() -> ProjMat:
    """The matrix [[0, 1-z^2], [1, 0]] expressing the real structure on the
    fiber coordinate: real iff  twist A twist = conj(A); one object, built at import."""
    return _REALITY_TWIST


# -- membership and patterns -----------------------------------------------------


class FiberPattern:
    """The normal shape (a, b) with lift [[a, b*h], [conj b, conj a]].

    The reality group's arithmetic acts on the two entries: a product, the
    reflection z -> -z and the projective comparison never form the lift.
    Setting an attribute raises: what is read off a pattern is memoised on it."""

    def __init__(self, a: Poly, b: Poly):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiberPattern is immutable: cannot set {name}")

    def matrix(self) -> ProjMat:
        """lift_matrix, with ValueError for D = 0 (the zero pattern too)."""
        if not self.determinant():
            raise ValueError("matrix has identically zero determinant")
        return self.lift_matrix()

    def lift_matrix(self) -> ProjMat:
        """The canonical form M of the lift L, for a pattern whose D != 0 the
        caller proves, and the one builder of a real matrix from a pattern:
        one gcd of the entries' real content (`cofactors`, real), no
        four-entry gcd, no determinant, and M born with its pattern.

        Lemma.  The content of L is G = gcd(a, b, ~a, ~b).  Every factor of G
        divides all four entries.  Conversely, let pi = z - c divide all four
        to order e: if c != +-1, pi is prime to h, so pi^e | b; if c = +-1, pi
        is real, so pi^e | ~b gives pi^e | b.  So L / G is the lift of
        (a', b') = (a, b) / G, G real, with entries of gcd 1, and M is
        lam L / G, real, for lam the inverse lead `monic_lead` applies.  G is
        the greatest real divisor of a and b; over Q(i) it is the gcd over Z
        of their real and imaginary columns (the lemma of `poly.cofactors`),
        and the lift entry b h is never formed for it.

        Lemma.  M's pattern (canonical_pattern, or `_born_pattern` at birth)
        is k (a', b'), k = lam + ~lam, or -i lam when that is 0: its sum S
        has A = m11 + ~m22 = k a' and B = m12 + h ~m21 = k b' h, both 0
        exactly when lam + ~lam = 0, as (a', b') != 0, and then the pattern
        is (-i m11, i ~m21) = -i lam (a', b'), as ~lam = -lam."""
        a, b = cofactors(self.a, self.b, real=True)
        return ProjMat.of_coprime((a, times_h(b), b.conj(), a.conj()), _born_pattern)

    def __mul__(self, other: FiberPattern) -> FiberPattern:
        """The pattern of the product of the two lifts, two fused sums.

        Lemma.  [[a1, b1 h], [~b1, ~a1]] [[a2, b2 h], [~b2, ~a2]] has the top
        row (a1 a2 + h b1 ~b2, (a1 b2 + b1 ~a2) h) and the bottom row
        (~b1 a2 + ~a1 ~b2, h ~b1 b2 + ~a1 ~a2), the conjugates of the top
        entries (h is real) in swapped order: it is the lift of
        (a1 a2 + h b1 ~b2, a1 b2 + b1 ~a2)."""
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return FiberPattern(
            dot(((1, a1, a2), (1, times_h(b1), b2.conj()))), dot(((1, a1, b2), (1, b1, a2.conj())))
        )

    def inverse(self) -> FiberPattern:
        """(~a, -b), the pattern of the lift's adjugate [[~a, -b h], [-~b, a]]."""
        return FiberPattern(self.a.conj(), -self.b)

    def reflect_z(self) -> FiberPattern:
        """The pattern of the lift at -z: h is even, so it is (a(-z), b(-z))."""
        return FiberPattern(self.a.reflect_z(), self.b.reflect_z())

    def proportional_to(self, other: FiberPattern) -> bool:
        """Whether the two lifts are proportional, that is the two patterns
        give one map; both patterns are nonzero.

        Lemma.  L' = lam L for lam in C(z) reads a' = lam a, b' = lam b,
        ~a' = lam ~a and ~b' = lam ~b.  The last two are the conjugates of
        the first two exactly when lam = ~lam, as a or b is nonzero.  So the
        lifts are proportional iff (a', b') = lam (a, b) for a real lam:
        a b' = a' b (if a = 0 then a' b = 0 with b != 0, so a' = 0), and
        lam = a'/a real, which holds exactly when a' ~a, or its conjugate
        a ~a', is real; or, when a = a' = 0, lam = b'/b real, that is b ~b'
        real.  A nonzero a with a' = 0 would give b' = 0 by the first test,
        which (a', b') != 0 excludes."""
        a, b, a2, b2 = self.a, self.b, other.a, other.b
        if dot(((1, a, b2), (-1, a2, b))):
            return False
        return (a * a2.conj() if a else b * b2.conj()).is_real()

    def angle(self) -> tuple[int, int] | None:
        """angle_of_entries of the lift, read off the pattern: the trace is
        a + ~a, the determinant is memoised, and the lift is scalar exactly
        when b = 0 and a is real."""
        tr = self.a + self.a.conj()
        if not tr:
            return (1, 2)
        return angle_of_trace(tr, self.determinant(), not self.b and self.a.is_real())

    @cached_property
    def _determinant(self) -> Poly:
        return pattern_determinant(self.a, self.b)

    def determinant(self) -> Poly:
        """D = a conj(a) - b h conj(b), once per pattern, as two sums of
        squares on the key pairs of equal t (`poly.pattern_determinant`): D'
        and a fixed curve share it."""
        return self._determinant

    @cached_property
    def involution_form(self) -> InvolutionForm | None:
        """The form (-i a, b) when the pattern matrix has order 2, else None.
        Its trace is a + conj(a), and a PGL_2 element has order 2 exactly
        when its trace vanishes: A^2 = tr(A) A - det(A) is scalar for a
        non-scalar A exactly when tr(A) = 0.  Then a = i p with p real."""
        if self.a + self.a.conj():
            return None
        return InvolutionForm(self.a.scale(-CoeffScalar.i()), self.b)

    @cached_property
    def stripped_determinant(self) -> tuple[bool, bool, Poly]:
        """(a(1) = 0, a(-1) = 0, D'): D' is the primitive determinant D
        divided by z - e for each e = +-1 with a(e) = 0; by both at once,
        when both vanish, as -D / h in one integer pass (`over_h`).

        Lemma.  If a and b share no real root (true of every canonical
        pattern: if a or b is 0, the other has none) and h = 1 - z^2, then
        (i) D = |a|^2 + |b|^2 |h| > 0 outside [-1, 1], where h < 0;
        (ii) D(e) = |a(e)|^2 for e = +-1; (iii) if a(e) = 0 then b(e) != 0,
        so e is a simple root of D: dD/dz(e) = 2 e |b(e)|^2.  Hence the real
        roots of D', the contracted fibers, are those of D in (-1, 1), and
        D > 0 on R iff a(+-1) != 0 and D' has no real root.  M tau, for M the
        matrix, has the pattern (b h, a) stripped of r, the real part of
        gcd(b h, a), which is the product of the z - e with a(e) = 0, so its
        determinant is -h D / r^2: positive on R iff r^2 = h^2 and -D / h = D'
        has no real root (with one e it changes sign at the other, with none
        it vanishes at +-1).  Memoised on the pattern."""
        north, south = not self.a(1), not self.a(-1)
        det = _primitive_real(self.determinant())
        if north and south:
            return north, south, -over_h(det)
        for e, zero in ((1, north), (-1, south)):
            if zero:
                det = det.exact_div(Poly([-e, 1]))
        return north, south, det

    @cached_property
    def contracted(self) -> RealRoots:
        """The real roots of D', the contracted fibers, as one record
        memoised next to D' (`poly.RealRoots`): its count is Descartes' rule
        on the square-free integer column when D' is rational, as it is for
        every map over Q(i) and for a tower constant times a rational
        polynomial (`_primitive_real`), and the record keeps that column, or
        the intervals of the Galois norm of D', for the roots.  The orientation
        reads the count, and the contracted fibers are isolated only when it
        is positive, on the same square-free part."""
        return RealRoots(self.stripped_determinant[2])

    @cached_property
    def fixed_model(self) -> HyperellipticModel:
        """The model of an involution's fixed curve w^2 = -D, once per pattern:
        the reports and the involution pairs that the square test of
        classify.decide_conjugacy leaves open share it."""
        return HyperellipticModel.of_determinant(self.determinant())


class InvolutionForm:
    """The pair (p, q) with matrix [[i*p, q*h], [conj q, -i*p]], p real."""

    __slots__ = ("p", "q")

    def __init__(self, p: Poly, q: Poly):
        self.p, self.q = p, q

    def matrix(self) -> ProjMat:
        """The lift of the pattern (i p, q) (FiberPattern.matrix)."""
        return FiberPattern(self.p.scale(CoeffScalar.i()), self.q).matrix()

    def determinant(self) -> Poly:
        """p^2 - q conj(q) h: FiberPattern.determinant of the form's pattern
        (i p, q), as (i p) conj(i p) = p p = p conj(p) for a real p."""
        return pattern_determinant(self.p, self.q)


class HyperellipticModel:
    """Canonical fixed-curve datum: w^2 = -m(z) with m square-free and
    monic, the square class of -D in R(z)*.  No sign is kept: -D = -p^2 -
    |q|^2 (z^2 - 1) has a negative lead, as both terms of D have positive
    leads.  The conjugator's rescale reads no model: it is read off the
    square root of D_A D_B (involutions._conjugator_entries)."""

    __slots__ = ("m",)

    def __init__(self, m: Poly):
        self.m = m

    @classmethod
    def of_determinant(cls, d: Poly) -> HyperellipticModel:
        """The model of w^2 = -D from one square-free decomposition
        D = lead * prod f_k^k, f_k monic: m is the product of the f_k of odd
        k."""
        m = Poly.const(1)
        for factor, k in squarefree_decomposition(d):
            if k % 2:
                m = m * factor
        return cls(m)

    @property
    def degree(self) -> int:
        return self.m.degree

    def genus(self) -> int:
        d = self.degree
        return 0 if d <= 2 else (d + 1) // 2 - 1

    def to_json(self) -> dict:
        """The report form: w^2 = -m, as -D has a negative lead for every real involution."""
        return {"m": str(self.m), "sign": "-"}


def _constant_multiple(lift: tuple[Poly, Poly], entries: tuple[Poly, ...]) -> bool:
    """Whether the lift [[A, B], [~B/h, ~A]] of canonical_pattern is
    kappa M for a constant kappa, M = entries a canonical matrix, read on
    the top row lift = (A, B): A = kappa m11, B = kappa m12 and
    (kappa - 1) conj(kappa - 1) = 1.  Its first nonzero entry, m11 or m12
    as det M != 0, is monic, so kappa is the lead of lift there.

    Lemma.  A = m11 + ~m22 = kappa m11 gives m22 = (~kappa - 1) ~m11, and
    then ~A = kappa m22 reads ~m11 ~kappa = kappa (~kappa - 1) ~m11, which
    holds exactly when m11 = 0 or |kappa - 1|^2 = 1.  Likewise B = m12 +
    h ~m21 = kappa m12 gives h m21 = (~kappa - 1) ~m12, and then ~B/h =
    kappa m21 holds exactly when m12 = 0 or |kappa - 1|^2 = 1.  As m11 and
    m12 are not both 0, the four equations hold exactly when the first two
    do and |kappa - 1|^2 = 1."""
    pivot = 0 if entries[0] else 1
    if not lift[pivot]:
        return False
    kappa = lift[pivot].lead()
    unit = kappa - 1
    return unit * unit.conj() == 1 and all(x == e.scale(kappa) for x, e in zip(lift, entries))


def canonical_pattern(mat: ProjMat) -> FiberPattern:
    """Rewrite a reality-group element in the shape [[a, b*h], [~b, ~a]].

    The sum S = M + tau ~M tau^-1 = [[A, B], [~B/h, ~A]] of the canonical
    M = mat, with A = m11 + ~m22 and B = m12 + h ~m21, always has the shape.
    The pattern is (A, B/h), or (-i m11, i ~m21) when S = 0, as it
    stands: M is already ProjMat's one normal form, and a pattern is
    projective, so no rescale follows.  S = 0 says tau ~M tau^-1 = -M, which is
    the reality condition itself, so M is real and needs no further check.
    Otherwise M is real exactly when h divides B (one exact integer pass,
    `over_h`) and the pattern lifts to kappa M for a constant kappa, read as
    the lead of the lift at M's first nonzero entry, which is monic; no gcd
    is taken.

    Lemma.  Let M be real: tau ~M tau^-1 = [[~m22, h ~m21], [~m12/h, ~m11]]
    = l M, l = P/Q in lowest terms.  The m_ij are coprime.
    - Q divides m11, m12, m22 and h m21, so a factor of Q not dividing h,
      or a square factor, would divide all four entries: Q is a squarefree
      real divisor of h.
    - X -> tau ~X tau^-1 is an involution (tau^2 = h I), so l ~l = 1 and
      P ~P is a constant times Q^2.  Every factor of P then divides Q, so P
      and then Q are constants: l is a constant.
    - If kappa = 1 + l != 0, then A = kappa m11, B = kappa m12 and
      ~B/h = kappa m21; so h | B, and (A, B/h) lifts to S = kappa M.  So
      h not dividing B already proves M non-real.
    - If S = 0, then m22 = -~m11 and m12 = -h ~m21, and (-i m11, i ~m21)
      lifts to -i M.
    - In both cases a factor pi of a and b with ~pi | a, b divides a, b,
      ~a and ~b, hence m11, m12, m21 and m22: the real part of gcd(a, b)
      is 1, and no common real factor needs stripping.
    Conversely, let h | B and (A, B/h) lift to kappa M.  Then kappa != 1, as
    A = m11 and B = m12 would give ~m22 = ~m21 = 0 and det M = 0; so
    h ~m21 = (kappa - 1) m12 makes h | m12 | B, the lift is S, and
    tau ~M tau^-1 = S - M = (kappa - 1) M.  So the closing check
    (`_summed_pattern`) refuses exactly the non-real matrices, and
    SphereMap.reality_check reads a b = 0 map's reality off it.  The
    matrix memoises it (ProjMat.real_pattern), or is born with it in closed
    form when built from a pattern (FiberPattern.lift_matrix).
    The check reads two entries: the lift is kappa M exactly when
    A = kappa m11, B = kappa m12 and l ~l = 1 for l = kappa - 1, the
    l ~l = 1 above.  For with A = kappa m11 the fourth equation reads
    l ~l m11 = m11, with B = kappa m12 the third reads l ~l m12 = m12, and
    m11, m12 are not both 0, as det M != 0 (`_constant_multiple`).
    """
    pattern = mat.real_pattern
    if pattern is None:
        raise NotRealityMember(f"{mat} does not satisfy the reality condition")
    return pattern


def _born_pattern(mat: ProjMat) -> FiberPattern:
    """k (a', b') of a lift's canonical form (FiberPattern.lift_matrix)."""
    a, b = mat.a11 + mat.a22.conj(), over_h(mat.a12) + mat.a21.conj()
    if a or b:
        return FiberPattern(a, b)
    i = CoeffScalar.i()  # lam is imaginary
    return FiberPattern(mat.a11.scale(-i), mat.a21.conj().scale(i))


def _summed_pattern(mat: ProjMat) -> FiberPattern | None:
    """canonical_pattern's closed form, None for a non-real mat (its
    lemma's closing check, which S = 0 needs not)."""
    a11, a12, a21, a22 = mat.entries()
    a, lift_b = a11 + a22.conj(), a12 + times_h(a21.conj())
    if not (a or lift_b):  # S = 0: real, and the pattern lifts to -i M
        i = CoeffScalar.i()
        return FiberPattern(a11.scale(-i), a21.conj().scale(i))
    b = over_h(lift_b)
    if b is None or not _constant_multiple((a, lift_b), mat.entries()):
        return None
    return FiberPattern(a, b)


def _primitive_real(p: Poly) -> Poly:
    """p divided by its positive content when p is rational; otherwise p
    made monic, and then made primitive if that made it rational.  A
    determinant D read here has a positive lead (D > 0 outside [-1, 1]), so
    neither division changes a sign.  A D over the tower is often a tower
    constant times a rational polynomial, whose real roots are then counted
    on its integer column and not through a Galois norm."""
    if not p.is_rational():
        p = p.monic()
        if not p.is_rational():
            return p
    return p.primitive()


def diffeo_orientation(mat: ProjMat) -> int:
    """1 for a birational diffeomorphism preserving orientation, -1 for one
    reversing it (mat * reality_twist() preserves it), 0 when the map is not
    defined at every real point: a(+-1) and the memoised real-root count of
    the stripped determinant, whose real roots all lie in (-1, 1)
    (stripped_determinant, contracted)."""
    pattern = canonical_pattern(mat)
    north, south, _ = pattern.stripped_determinant
    if north != south or pattern.contracted.count:
        return 0
    return -1 if north else 1


def in_diffeo_group(mat: ProjMat) -> bool:
    """True iff the map is defined at every real point (either orientation)."""
    return diffeo_orientation(mat) != 0


def contracted_fibers(mat: ProjMat):
    """Real z0 in the open interval (-1, 1) whose conic is contracted to a
    point: the real roots of the stripped determinant, which all lie there,
    isolated on the pattern's memoised record of them (`contracted`) only
    when its count is positive."""
    return canonical_pattern(mat).contracted.roots()


# -- the base interval group ----------------------------------------------------------


class BaseMobius:
    """Möbius map of the base line preserving the pair {1, -1}.

    Every such map is shift_b : z -> (z+b)/(bz+1) for b in (-1,1), possibly
    composed with the flip z -> -z applied first.  Two are equal when b and
    flip are, and the repr names both, so equal maps print alike.
    """

    __slots__ = ("b", "flip")

    def __init__(self, b: TowerReal, flip: bool):
        self.b, self.flip = b, flip

    def __eq__(self, other):
        if not isinstance(other, BaseMobius):
            return NotImplemented
        return self.flip == other.flip and self.b == other.b

    def __hash__(self):
        return hash((self.b, self.flip))

    def __repr__(self):
        return f"BaseMobius(b={self.b!r}, flip={self.flip!r})"

    @classmethod
    def identity(cls) -> BaseMobius:
        return cls(TowerReal(), False)

    @classmethod
    def negation(cls) -> BaseMobius:
        return cls(TowerReal(), True)

    @classmethod
    def shift(cls, b) -> BaseMobius:
        b = b if isinstance(b, TowerReal) else TowerReal.from_rational(b)
        if not (TowerReal.from_rational(-1) < b and b < TowerReal.from_rational(1)):
            raise ValueError("interval parameter must lie in (-1, 1)")
        return cls(b, False)

    @property
    def kind(self) -> str:
        if not self.b:
            return "neg" if self.flip else "id"
        return "flipped_shift" if self.flip else "shift"

    def is_identity(self) -> bool:
        return self.kind == "id"

    def sign(self) -> int:
        return -1 if self.flip else 1

    def compose(self, other: BaseMobius) -> BaseMobius:
        # shift_a flip^e shift_b flip^f = shift_{a (+) eps*b} flip^(e+f);
        # with the identity that is (b + 0)/(1 + 0) = b, so no division
        if other.is_identity():
            return self
        if self.is_identity():
            return other
        eb = -other.b if self.flip else other.b
        num = self.b + eb
        den = 1 + self.b * eb
        return BaseMobius(num / den, self.flip != other.flip)

    def inverse(self) -> BaseMobius:
        if self.flip:
            return self  # flipped shifts are involutions
        return BaseMobius(-self.b, False)

    def apply(self, zval):
        if zval is INF:
            return CoeffScalar(self.b.inverse()) if self.b else INF
        zval = zval if isinstance(zval, CoeffScalar) else scalar(zval)
        e = CoeffScalar(Fraction(self.sign()))
        num = e * zval + CoeffScalar(self.b)
        den = CoeffScalar(self.b) * e * zval + 1
        if not den:
            return INF
        return num / den

    def num_den_polys(self) -> tuple[Poly, Poly]:
        """The pair (eps*z + b, b*eps*z + 1) defining the map."""
        e = Fraction(self.sign())
        num = Poly([CoeffScalar(self.b), CoeffScalar(e)])
        den = Poly([CoeffScalar(1), CoeffScalar(self.b) * CoeffScalar(e)])
        return num, den

    def substitute_matrix(self, mat: ProjMat) -> ProjMat:
        """mat(m(z)) in canonical form; for b = 0 it is mat or
        mat.reflect_z(), canonical in closed form, and otherwise the
        canonical form of the entries over the common denominator den^d,
        d the largest entry degree."""
        if not self.b:
            return mat.reflect_z() if self.flip else mat
        num, den = self.num_den_polys()
        d = max(p.degree for p in mat.entries())
        return ProjMat.of(*(cleared_substitution(p, num, den, d) for p in mat.entries()))

    def __str__(self):
        return self.kind if not self.b else f"{self.kind}({self.b})"


def cleared_substitution(p: Poly, num: Poly, den: Poly, degree: int) -> Poly:
    """p(num/den) * den^degree, cleared to a polynomial (degree >= deg p).

    Horner's rule on sum_k p_k num^k den^(degree - k): from acc = p[degree],
    acc -> acc num + den^(degree - k) p_k for k = degree - 1, ..., 0, so each
    power of den is built once, from the one before."""
    acc = Poly.const(p[degree])
    den_power = Poly.const(1)
    for k in range(degree - 1, -1, -1):
        den_power = den_power * den
        acc = acc * num
        c = p[k]
        if c:
            acc = acc + den_power.scale(c)
    return acc


# -- sphere maps ---------------------------------------------------------------------


class SphereMap:
    """Fiber matrix plus base action: (t, z) -> (A(z) . t, m(z)).  Two are
    equal when fiber and base are, and the repr names both, so equal maps
    print alike."""

    __slots__ = ("fiber", "base")

    def __init__(self, fiber: ProjMat, base: BaseMobius):
        self.fiber, self.base = fiber, base

    def __eq__(self, other):
        if not isinstance(other, SphereMap):
            return NotImplemented
        return self.fiber == other.fiber and self.base == other.base

    def __hash__(self):
        return hash((self.fiber, self.base))

    def __repr__(self):
        return f"SphereMap(fiber={self.fiber!r}, base={self.base!r})"

    @classmethod
    def trivial_base(cls, fiber: ProjMat) -> SphereMap:
        return cls(fiber, BaseMobius.identity())

    @classmethod
    def identity(cls) -> SphereMap:
        return cls(ProjMat.identity(), BaseMobius.identity())

    def is_identity(self) -> bool:
        return self.base.is_identity() and self.fiber.is_identity()

    def compose(self, other: SphereMap) -> SphereMap:
        if other.is_identity():
            return self
        if self.is_identity():
            return other
        fiber = other.base.substitute_matrix(self.fiber) * other.fiber
        return SphereMap(fiber, self.base.compose(other.base))

    def inverse(self) -> SphereMap:
        minv = self.base.inverse()
        return SphereMap(minv.substitute_matrix(self.fiber.inverse()), minv)

    def pattern(self) -> FiberPattern | None:
        """The fiber's memoised pattern (ProjMat.real_pattern) when the base
        keeps h = 1 - z^2 (b = 0); None for a moving base or a non-real fiber."""
        return None if self.base.b else self.fiber.real_pattern

    def order(self) -> int | None:
        """A flipped base action is an involution, so the square has trivial
        base and self twice its order.  For base z -> -z and a real fiber A
        the square's fiber A(-z) A is the pattern product P(-z) P, whose
        angle is read off the pattern (FiberPattern.angle); without a
        pattern (a flipped shift, or a non-real fiber) it is the canonical
        fiber of self.compose(self)."""
        kind = self.base.kind
        if kind == "shift":
            return None
        if kind == "id":
            return self.fiber.order()
        pattern = self.pattern()
        if pattern is None:
            angle = self.compose(self).fiber.rotation_angle()
        else:
            angle = (pattern.reflect_z() * pattern).angle()
        return None if angle is None else 2 * angle[1]

    def reality_check(self) -> bool:
        """Compatibility with the real structure: A(z) tau(z) equals
        tau(m(z)) conj(A)(z) projectively, i.e. tau(m) A tau = conj(A), as
        tau(m) = [[0, h_m], [d2, 0]] / d2 is projectively an involution.
        This is the package's one reality test.  For b = 0, m(z) = +-z keeps
        h = 1 - z^2, so tau(m(z)) = tau(z) and the condition is the fiber's
        own: it holds exactly when the fiber has a pattern (SphereMap.pattern),
        the memo canonical_pattern reads, whose closing check refuses exactly
        the non-real matrices; the diffeomorphism check and the certificate
        that follow read the same pattern."""
        if not self.base.b:
            return self.pattern() is not None
        num, den = self.base.num_den_polys()
        d2 = den * den
        h_m = d2 - num * num
        a, b, c, d = self.fiber.entries()
        lhs = ProjMat.of(h_m * d, h_m * times_h(c), d2 * b, d2 * times_h(a))
        return lhs == ProjMat.of(a.conj(), b.conj(), c.conj(), d.conj())

    def trivial_base_part(self) -> SphereMap:
        """The composition with a base realisation killing the base action;
        the result has trivial base and decides diffeomorphism membership."""
        if self.base.is_identity():
            return self
        realisation = base_realisation(self.base)
        out = self.compose(realisation.inverse())
        assert out.base.is_identity()
        return out

    def orientation(self) -> int:
        """The orientation character chi: 1 for a birational diffeomorphism
        preserving orientation, -1 for one reversing it, 0 when the map is
        not defined at every real point; the package's one reader of chi.
        It is diffeo_orientation of the trivial-base part's fiber times the
        base's sign, as the realisation is a diffeomorphism whose shift
        preserves orientation and whose flip reverses it.

        Lemma.  For b = 0 the fiber A itself decides: for base z -> -z the
        trivial-base part is (A(-z), id) = z_flip (A, id) z_flip, a conjugate
        of (A, id) by a birational diffeomorphism, which keeps membership and
        orientation; so the pattern of A is the one the twist class reads
        next.  A moving base (b != 0) is first undone (trivial_base_part)."""
        fiber = self.trivial_base_part().fiber if self.base.b else self.fiber
        return diffeo_orientation(fiber) * self.base.sign()

    def is_diffeo(self) -> bool:
        """Whether chi != 0: the map is defined at every real point."""
        return self.orientation() != 0


def base_realisation(base: BaseMobius) -> SphereMap:
    """A sphere map realising the given base action: the composition of the
    interval-shift automorphism with the equatorial flip.

    Needs sqrt(1 - b^2) in the tower (always for rational b).
    """
    parts = SphereMap.identity()
    if base.b:
        s = (1 - base.b * base.b).sqrt()
        fiber = ProjMat.of(
            Poly.const(CoeffScalar(s)),
            Poly(),
            Poly(),
            Poly([CoeffScalar(1), CoeffScalar(base.b)]),
        )
        parts = SphereMap(fiber, BaseMobius.shift(base.b))
    if base.flip:
        parts = parts.compose(z_flip())
    assert parts.base == base
    return parts


class ConjugacyCertificate:
    """A real conjugator C with C source C^-1 = target, all sphere maps; kind
    is "conjugation", "rotation-normal-form" (target diag(1, zeta^{+-1})) or
    "base-reduction" (target base z -> -z).  `verified` checks it once."""

    __slots__ = ("kind", "source", "target", "conjugator")

    def __init__(self, kind: str, source: SphereMap, target: SphereMap, conjugator: SphereMap):
        self.kind, self.source, self.target, self.conjugator = kind, source, target, conjugator

    def verified(self) -> ConjugacyCertificate:
        """This certificate, once `verify` has passed; RuntimeError else."""
        if not self.verify():
            raise RuntimeError(f"{self.kind} certificate failed to verify for {self.source}")
        return self

    def verify(self) -> bool:
        """C is real and C S = T C: exactly on the base, projectively on the
        fiber.  When no base moves (b = 0), the fibers are compared as
        patterns: C S is P_C(sigma_S) P_S and T C is P_T(sigma_C) P_C, with
        P(sigma) the pattern reflected z -> -z for a base flip; each pattern
        is its matrix's memo, filled at birth for a C built from a pattern
        (FiberPattern.lift_matrix), and C's is its reality check
        (FiberPattern.__mul__, proportional_to).  When a map has no pattern
        (a moving base, or a non-real source or target), C S and T C are
        composed (SphereMap.compose) and compared as canonical matrices."""
        c, s, t = self.conjugator, self.source, self.target
        if not (c.reality_check() and c.base.compose(s.base) == t.base.compose(c.base)):
            return False
        pc, ps, pt = (m.pattern() for m in (c, s, t))
        if ps is not None and pt is not None and pc is not None:
            lhs = (pc.reflect_z() if s.base.flip else pc) * ps
            return lhs.proportional_to((pt.reflect_z() if c.base.flip else pt) * pc)
        return c.compose(s) == t.compose(c)


def reduce_to_trivial_base(g: SphereMap) -> ConjugacyCertificate:
    """The verified "base-reduction" certificate conjugating a flipped shift
    to a map with base action z -> -z.

    A flipped shift z -> shift_b(-z) fixes the roots of b z^2 - 2 z + b,
    whose product is 1; the one in (-1, 1) is c = (1 - sqrt(1 - b^2)) / b.
    The realisation of shift_{-c} moves c to 0, and a flipped map of
    {1, -1} fixing 0 is z -> -z, which the certificate's base check confirms.
    base_realisation raises UnsupportedExtension when sqrt(1 - c^2) is not in
    the tower.
    """
    kind = g.base.kind
    if kind == "shift":
        raise InfiniteOrderBase("interval shifts with b != 0 have infinite order")
    if kind != "flipped_shift":
        raise ValueError(f"base action {kind} needs no reduction")
    b = g.base.b
    c = (1 - (1 - b * b).sqrt()) / b
    conj = base_realisation(BaseMobius.shift(-c))
    reduced = conj.compose(g).compose(conj.inverse())
    return ConjugacyCertificate("base-reduction", g, SphereMap(reduced.fiber, BaseMobius.negation()), conj).verified()


# -- the coordinate bridge -----------------------------------------------------------


def on_sphere(point) -> bool:
    w, x, y, z = (scalar(c) for c in point)
    return w * w == x * x + y * y + z * z


def _normalize_point(point):
    pt = tuple(scalar(c) for c in point)
    if not any(pt):
        raise ValueError("projective point cannot be all zero")
    first = next(c for c in pt if c)
    inv = first.inverse()
    return tuple(c * inv for c in pt)


def psi_forward(point):
    """Affine-chart image ((x - i y)/w, z/w) of a sphere point; values may
    be INF.  Raises NotOnSphere off the sphere and BasePointHit at the two
    imaginary base points (w = z = 0)."""
    w, x, y, z = (scalar(c) for c in point)
    if not on_sphere((w, x, y, z)):
        raise NotOnSphere(f"({', '.join(str(c) for c in (w, x, y, z))}) does not satisfy w^2 = x^2+y^2+z^2")
    i = CoeffScalar.i()
    if not w and not z:
        raise BasePointHit("the two imaginary points with w = z = 0 are blown up")
    tnum = x - i * y
    tval = tnum / w if w else INF
    if w and not tnum:
        tval = CoeffScalar(0)
    zval = z / w if w else INF
    return tval, zval


def psi_inverse(tval, zval):
    """Sphere point of an affine pair; INF coordinates allowed.  Raises
    BasePointHit at (0, 1), (0, -1) and (INF, INF)."""
    i = CoeffScalar.i()
    if tval is INF:
        u, t = CoeffScalar(0), CoeffScalar(1)
    else:
        u, t = CoeffScalar(1), scalar(tval)
    if zval is INF:
        v, z = CoeffScalar(0), CoeffScalar(1)
    else:
        v, z = CoeffScalar(1), scalar(zval)
    w = 2 * t * u * v * v
    x = t * t * v * v - z * z * u * u + u * u * v * v
    y = i * (t * t * v * v + z * z * u * u - u * u * v * v)
    zc = 2 * t * z * u * v
    if not (w or x or y or zc):
        raise BasePointHit(f"({tval}, {zval}) is a base point of the inverse chart")
    return _normalize_point((w, x, y, zc))


POLE_NORTH = (CoeffScalar(1), CoeffScalar(0), CoeffScalar(0), CoeffScalar(1))
POLE_SOUTH = (CoeffScalar(1), CoeffScalar(0), CoeffScalar(0), CoeffScalar(-1))


def _is_pole(point) -> int | None:
    pt = _normalize_point(point)
    if pt == POLE_NORTH:
        return 1
    if pt == POLE_SOUTH:
        return -1
    return None


def _shift_half(point, e: int):
    """gb:e/2, e = +-1, as a linear map of P^3: its base z -> (z + b)/(bz + 1),
    b = 4e/5, and fiber diag(3/5, 1 + bz) give (w, x - iy, z) -> (w + bz,
    3(x - iy)/5, z + bw), times 5 here.  _shift_half(., -e) is its inverse."""
    w, x, y, z = point
    return (5 * w + 4 * e * z, 3 * x, 3 * y, 5 * z + 4 * e * w)


class SphereFormula:
    """The rational self-map of the sphere induced by a SphereMap."""

    def __init__(self, mapping: SphereMap):
        self.mapping = mapping
        self._is_real = mapping.reality_check()

    def eval(self, point):
        """Exact image of a sphere point; raises BasePointHit where the map
        is undefined.  For reality-compatible maps the two poles are fixed
        or swapped according to the base action."""
        point = _normalize_point(point)
        pole = _is_pole(point)
        if pole is not None and self._is_real:
            image_z = self.mapping.base.apply(CoeffScalar(Fraction(pole)))
            return POLE_NORTH if image_z == CoeffScalar(1) else POLE_SOUTH
        tval, zval = psi_forward(point)
        if zval is INF:
            # the chart sends the whole conic w = 0 to (INF, INF): g = s^-1 (s g s^-1) s
            # for s = gb:e/2, which moves it to z/w = 5e/4, where the chart is a local
            # isomorphism; e keeps s from moving g's image of it, z/w = 1/b, to w = 0
            e = -1 if self.mapping.base.b.sign() < 0 else 1
            shift = interval_shift(Fraction(e, 2))
            moved = SphereFormula(shift.compose(self.mapping).compose(shift.inverse()))
            return _normalize_point(_shift_half(moved.eval(_shift_half(point, e)), -e))
        timg = self.mapping.fiber.act_on_fiber(tval, zval)
        zimg = self.mapping.base.apply(zval)
        return psi_inverse(timg, zimg)


# -- builtins --------------------------------------------------------------------------


def y_flip() -> SphereMap:
    """(x, y, z) -> (x, -y, z); fiber part equals the reality twist."""
    return SphereMap.trivial_base(reality_twist())


def x_flip() -> SphereMap:
    """(x, y, z) -> (-x, y, z); the reflection with fixed circle x = 0."""
    return SphereMap.trivial_base(
        ProjMat.of(Poly(), -ONE_MINUS_Z2, Poly.const(1), Poly())
    )


def z_flip() -> SphereMap:
    """(x, y, z) -> (x, y, -z); identity fiber, base negation."""
    return SphereMap(ProjMat.identity(), BaseMobius.negation())


def antipodal_map() -> SphereMap:
    """(w:x:y:z) -> (-w:x:y:z); no real fixed points."""
    return SphereMap(ProjMat.diag(Poly.const(1), Poly.const(-1)), BaseMobius.negation())


def unit_root(k: int, n: int) -> CoeffScalar:
    """Exact cos + i sin of 2 pi k / n.  The cosine comes from the order
    table and the sine from the tower's square root, which has none for
    n = 5 and n = 10 (UnsupportedExtension)."""
    if n == 1:
        return CoeffScalar(1)
    if (1, n) not in TWO_COS:
        raise UnsupportedExtension(f"cos(2 pi/{n}) does not lie in the quadratic tower")
    c = TWO_COS[(1, n)] / 2
    return CoeffScalar(c, (1 - c * c).sqrt()) ** (k % n)


def rotation(k: int, n: int) -> SphereMap:
    """The rotation by angle 2 pi k / n about the z-axis."""
    zeta = unit_root(k, n)
    return SphereMap.trivial_base(ProjMat.diag(Poly.const(1), Poly.const(zeta)))


def interval_shift(t) -> SphereMap:
    """The automorphism moving the base by b = 2t/(1+t^2), with exact
    sqrt(1-b^2) = (1-t^2)/(1+t^2); t rational in (-1, 1), t != 0."""
    t = Fraction(t)
    if not -1 < t < 1 or t == 0:
        raise ValueError("parameter must be a nonzero rational in (-1, 1)")
    b = Fraction(2 * t, 1 + t * t)
    return base_realisation(BaseMobius.shift(b))


def _special_mu(t: Fraction) -> CoeffScalar:
    t = Fraction(t)
    if t == 0:
        raise DegenerateConfiguration("parameter 0 degenerates the surface (mu = 1)")
    den = 1 + t * t
    return CoeffScalar(Fraction(1 - t * t, den), Fraction(2 * t, den))


def special_involution(t) -> SphereMap:
    """Involution with trivial base whose fixed curve is rational with no
    real points; the two isolated real fixed points sit at the poles.  Its
    fiber [[-2 i mu, (1 + mu) h], [mu (1 + mu), 2 i mu]] is mu times the lift of (-2 i, 1 + ~mu)."""
    mu = _special_mu(t)
    pattern = FiberPattern(Poly.const(CoeffScalar(0, -2)), Poly.const(1 + mu.conj()))
    return SphereMap.trivial_base(pattern.matrix())


def flipped_special_involution(t) -> SphereMap:
    """Involution acting by z -> -z on the base; the base-flip twin of
    special_involution with twist class generated by z^2 + t^2."""
    mu = _special_mu(t)
    i = CoeffScalar.i()
    h = ONE_MINUS_Z2
    fiber = ProjMat.of(
        h.scale(i * (1 + mu)),
        h.scale(-2),
        Poly.const(-2 * mu),
        h.scale(-i * (1 + mu)),
    )
    return SphereMap(fiber, BaseMobius.negation())


def builtin_map(spec: str) -> SphereMap:
    """Resolve a builtin token: tau | upsilon | antipodal | tilde_eta |
    rot:k/n | gb:t | g1p:t | g2p:t."""
    from .errors import ParseError

    name, _, arg = spec.partition(":")
    simple = {
        "tau": y_flip,
        "upsilon": x_flip,
        "antipodal": antipodal_map,
        "tilde_eta": z_flip,
    }
    if name in simple:
        if arg:
            raise ParseError(f"builtin {name} takes no parameter")
        return simple[name]()
    if name == "rot":
        num, _, den = arg.partition("/")
        try:
            k, n = int(num), int(den)
        except ValueError as exc:
            raise ParseError(f"rotation spec k/n expected, got {arg!r}") from exc
        if n <= 0:
            raise ParseError(f"rotation spec k/n needs n >= 1, got {arg!r}")
        return rotation(k, n)
    with_param = {"gb": interval_shift, "g1p": special_involution, "g2p": flipped_special_involution}
    if name not in with_param:
        raise ParseError(f"unknown builtin {spec!r}")
    try:
        param = Fraction(arg)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"rational parameter expected in {spec!r}") from exc
    return with_param[name](param)


BUILTIN_NAMES = ("tau", "upsilon", "antipodal", "tilde_eta", "rot:k/n", "gb:t", "g1p:t", "g2p:t")
