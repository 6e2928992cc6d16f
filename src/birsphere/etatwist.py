"""Involutions whose base action is z -> -z, and their complete invariant.

Such a map is a pair (A, flip) with A a fiberwise-real matrix; it is an
involution exactly when A * A(-z) is a scalar mu on the pattern lift, an
even real polynomial.  The class of mu modulo the norms f(z) * f(-z) is a
sign together with a multiset of positive reals (one generator z^2 + b for
each b > 0), read here in w = z^2 off the real roots of odd multiplicity
alone: Yun's split of the w-polynomial, and of each odd part only the
irreducible factors that hold a real root (`h2_reduce`).  Equality of classes
decides conjugacy among all fiber-compatible birational maps.  The family
report of such a map, which reads this class, and the real fixed locus off
the orientation character and the pattern at z = 0, is
classify.classify_flip_involution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import (
    NotEvenFunction,
    NotInvolution,
    UnsupportedExtension,
)
from .factor import _exact_quotient, line_count, mul, real_root_factors, squarefree
from .poly import (
    Poly,
    RealAlgebraic,
    _from_integers,
    _integer_coeffs,
    dot,
    factor_rational_poly,
)
from .projmat import ProjMat
from .scalars import CoeffScalar
from .sphere import FiberPattern, SphereMap, canonical_pattern


def twisted_square(mat: ProjMat) -> Poly | None:
    """The scalar mu with  L * L(-z) = mu * Id  on the pattern lift, or
    None when the product is not scalar (the pair is not an involution):
    the pattern product P P(-z) = (a', b') lifts to a scalar exactly when
    b' = 0 and a' is real, and mu is then a'."""
    pattern = canonical_pattern(mat)
    square = pattern * pattern.reflect_z()
    if square.b or not square.a.is_real():
        return None
    return square.a


class TwistClass:
    """Sign and multiset of positive reals; the group law is componentwise
    mod 2 (signs multiply, generator multisets add symmetric-difference).
    Two classes are equal when their signs and sorted generators are."""

    __slots__ = ("sign", "gens")

    def __init__(self, sign: int, gens: tuple[RealAlgebraic, ...]):
        self.sign, self.gens = sign, gens

    def __eq__(self, other):
        if not isinstance(other, TwistClass):
            return NotImplemented
        return self.sign == other.sign and self.gens == other.gens

    def __hash__(self):
        return hash((self.sign, self.gens))

    def is_linear_model(self) -> bool:
        """True for the two classes realised by linear maps: (+-1, {})."""
        return not self.gens

    def combine(self, other: TwistClass) -> TwistClass:
        gens = list(self.gens)
        for g in other.gens:
            for k, mine in enumerate(gens):
                if mine == g:
                    del gens[k]
                    break
            else:
                gens.append(g)
        gens.sort()
        return TwistClass(self.sign * other.sign, tuple(gens))

    def to_json(self) -> dict:
        return {
            "sign": "+" if self.sign > 0 else "-",
            "gens": [
                {
                    "minpoly": str(g.minpoly),
                    "interval": [str(g.lo), str(g.hi)],
                    "approx": float(g),
                }
                for g in self.gens
            ],
        }


def _even_to_w(p: Poly) -> Poly:
    if not p.is_even():
        raise NotEvenFunction(f"{p} is not invariant under z -> -z")
    return Poly(list(p.coeffs[0::2]))


def h2_reduce(mu: Poly) -> TwistClass:
    """Reduce an even real polynomial modulo norms f(z) f(-z).

    In the variable w = z^2: a negative constant flips the sign, a real
    w-root d >= 0 of odd multiplicity flips the sign, a real root d < 0
    contributes the generator b = -d, and imaginary root pairs vanish.

    So the class reads only the sign of the lead and the real roots of odd
    multiplicity.  Yun's split of the primitive integer column c of the
    w-polynomial (`factor.squarefree`) gives the parts f_k of each
    multiplicity k, and `factor.real_root_factors` of each odd part gives
    its irreducible factors that hold a real root; their roots are
    isolated, each once, as the parts are square-free and pairwise coprime.
    Two checks make the reading complete (else RuntimeError): the parts,
    each raised to its multiplicity, multiply back to c up to its sign, and
    each odd part is the product of its factors times a cofactor with no
    real root (`line_count`).
    """
    if not mu:
        raise ValueError("zero is not a unit")
    if not mu.is_real():
        raise NotEvenFunction(f"{mu} is not a real polynomial")
    w_poly = _even_to_w(mu)
    if not w_poly.is_rational():
        raise UnsupportedExtension("twist class needs rational coefficients in z^2")
    column = _integer_coeffs(w_poly)
    sign = 1 if column[-1] > 0 else -1
    gens: list[RealAlgebraic] = []
    if len(column) > 1:
        parts = squarefree(column)
        if reduce(mul, (f for f, k in parts for _ in range(k))) != [sign * c for c in column]:
            raise RuntimeError(f"the square-free split of {w_poly} does not multiply back")
        for part, mult in parts:
            if mult % 2 == 0:
                continue
            factors = real_root_factors(part)
            rest = _exact_quotient(part, reduce(mul, factors, [1]))
            if rest is None or len(rest) > 1 and line_count(rest):
                raise RuntimeError(f"the real roots of {_from_integers(part)} are not all found")
            for g in factors:
                for root in RealAlgebraic.roots_of_irreducible(_from_integers(g)):
                    if root.sign() >= 0:
                        sign = -sign
                    else:
                        gens.append(-root)
    base = TwistClass(sign, ())
    for g in gens:
        base = base.combine(TwistClass(1, (g,)))
    return base


def h2_invariant(pair: SphereMap) -> TwistClass:
    """The twist class of an involution with base action z -> -z."""
    if pair.base.kind != "neg":
        raise ValueError("base action must be the flip z -> -z")
    mu = twisted_square(pair.fiber)
    if mu is None:
        raise NotInvolution("the pair does not square to the identity")
    return h2_reduce(mu)


# -- norm factorization in C[z] with z -> -z ------------------------------------------


def factor_even(f: Poly) -> Poly:
    """g with g(z) * g(-z) = f, for f even; exact over the tower.

    Linear w-factors split as -(z - r)(-z - r) with r = sqrt of the root;
    quadratic w-factors split with two square roots; higher-degree factors
    raise UnsupportedExtension.
    """
    w_poly = _even_to_w(f)
    if not w_poly.is_rational():
        raise UnsupportedExtension("even factorization needs rational coefficients")
    const, factors = factor_rational_poly(w_poly)
    i = CoeffScalar.i()
    acc = Poly.const(CoeffScalar(Fraction(const)).sqrt())
    for factor, mult in factors:
        if factor.degree == 1:
            # w - d: z^2 - d = -(z - r)(-z - r) with r^2 = d
            d = -factor[0]
            r = d.sqrt()
            piece = Poly([-r, CoeffScalar(1)]).scale(i)  # i*(z - r); i^2 absorbs the -1
        elif factor.degree == 2:
            # w^2 + p w + q: find G = z^2 + s z + t with G(z) G(-z) = F(z^2)
            pw, qw = factor[1], factor[0]
            piece = None
            for tsign in (1, -1):
                try:
                    t = qw.sqrt() * CoeffScalar(Fraction(tsign))
                    s = (2 * t - pw).sqrt()
                except UnsupportedExtension:
                    continue
                cand = Poly([t, s, CoeffScalar(1)])
                if cand * cand.reflect_z() == Poly(
                    [qw, CoeffScalar(0), pw, CoeffScalar(0), CoeffScalar(1)]
                ):
                    piece = cand
                    break
            if piece is None:
                raise UnsupportedExtension(f"no tower splitting of the even factor {factor}")
        else:
            raise UnsupportedExtension(
                f"even factors of degree {2 * factor.degree} in z are out of tower reach"
            )
        for _ in range(mult):
            acc = acc * piece
    if acc * acc.reflect_z() != f:
        raise RuntimeError("even factorization failed to verify")
    return acc


# -- the twisted group algebra, for coboundary witnesses ----------------------------------


class TwistedAlgebra:
    """C(z) + C(z) xi with xi^2 = 1 - z^2 and  a(z) xi = xi conj(a)(z);
    elements are triples (a, b, d) of polynomials standing for
    (a + b xi) / d, with d real and hence central.  Its unit group is the
    matrix group of pattern lifts."""

    @staticmethod
    def add(u, v):
        """Cross-multiplied over d1 d2, each part one fused sum (`dot`), unreduced."""
        a1, b1, d1 = u
        a2, b2, d2 = v
        return (dot(((1, a1, d2), (1, a2, d1))), dot(((1, b1, d2), (1, b2, d1))), d1 * d2)

    @staticmethod
    def mul(u, v):
        """The pattern product of (a, b) and (c, e) (`FiberPattern.__mul__`),
        over d f: xi c = conj(c) xi and xi e xi = conj(e) h."""
        p = FiberPattern(u[0], u[1]) * FiberPattern(v[0], v[1])
        return (p.a, p.b, u[2] * v[2])

    @staticmethod
    def reflect(u):
        return tuple(p.reflect_z() for p in u)

    @staticmethod
    def inverse(u):
        """(conj(a) d, -b d, N) with the real norm N = a conj(a) - b conj(b) h,
        as (a + b xi)(conj(a) - b xi) = N: the determinant of the pattern."""
        a, b, d = u
        norm = FiberPattern(a, b).determinant()
        if not norm:
            raise ZeroDivisionError("non-invertible element")
        return (a.conj() * d, -b * d, norm)

    @classmethod
    def coboundary_witness(cls, u):
        """For u with u * reflect(u) = 1, a unit B with u = B * reflect(B)^-1,
        via B = C + u * reflect(C) over a small trial set."""
        one, zero, z = Poly.const(1), Poly(), Poly.z()
        iz = z.scale(CoeffScalar.i())
        for c in ((one, zero, one), (z, zero, one), (iz, zero, one), (zero, one, one), (zero, z, one), u):
            cand = cls.add(c, cls.mul(u, cls.reflect(c)))
            try:
                cls.inverse(cand)
            except ZeroDivisionError:
                continue
            return cand
        raise RuntimeError("no invertible coboundary witness in the trial set")
