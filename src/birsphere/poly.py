"""Polynomials and rational functions in z over the exact scalar field.

Polynomials are dense ascending coefficient tuples of CoeffScalar with no
trailing zero; the zero polynomial is the empty tuple and reports degree -1
(standing in for "degree minus infinity").  Multiplication and division with
remainder hand the coefficients to the integer kernel of the scalars module,
which works on integer numerators over one common denominator per
polynomial; gcds, exact division, square-free parts and Sturm chains are
built on those two.  Two ring involutions act on polynomials:
coefficientwise conjugation and the substitution z -> -z.

Real-root machinery (Sturm chains, root isolation) works for polynomials
with real tower coefficients, using exact sign decisions.  Real algebraic
numbers are carried as an irreducible rational minimal polynomial plus an
isolating rational interval, refinable on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotRealPolynomial
from .scalars import CoeffScalar, TowerReal, coeffs_divmod, coeffs_mul, scalar


def _coeff(x) -> CoeffScalar:
    return x if isinstance(x, CoeffScalar) else scalar(x)


class Poly:
    """Dense univariate polynomial over CoeffScalar."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> Poly:
        return cls([_coeff(c)])

    @classmethod
    def z(cls) -> Poly:
        return cls([0, 1])

    @classmethod
    def from_rational_coeffs(cls, coeffs) -> Poly:
        return cls([CoeffScalar(Fraction(c)) for c in coeffs])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> CoeffScalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CoeffScalar(0)

    def lead(self) -> CoeffScalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def rational_coeffs(self) -> list[Fraction]:
        return [c.as_rational() for c in self.coeffs]

    def is_even(self) -> bool:
        return all(not c for k, c in enumerate(self.coeffs) if k % 2)

    # -- ring operations -------------------------------------------------------

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return Poly()
        return Poly(coeffs_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> Poly:
        c = _coeff(c)
        return Poly([a * c for a in self.coeffs])

    def shift(self, k: int) -> Poly:
        """Multiply by z^k."""
        if not self:
            return self
        return Poly([CoeffScalar(0)] * k + list(self.coeffs))

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        other = _coerce_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = coeffs_divmod(self.coeffs, other.coeffs)
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: Poly) -> Poly:
        q, r = self.divmod(other)
        if r:
            raise ValueError("division is not exact")
        return q

    # -- involutions and calculus -------------------------------------------------

    def conj(self) -> Poly:
        """Coefficientwise complex conjugation."""
        return Poly([c.conj() for c in self.coeffs])

    def reflect_z(self) -> Poly:
        """The substitution z -> -z."""
        return Poly([-c if k % 2 else c for k, c in enumerate(self.coeffs)])

    def derivative(self) -> Poly:
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> CoeffScalar:
        x = _coeff(x)
        acc = CoeffScalar(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_rational(self, q: Fraction) -> CoeffScalar:
        return self(CoeffScalar(Fraction(q)))

    def monic(self) -> Poly:
        if not self:
            return self
        return self.scale(self.lead().inverse())

    def compose(self, other: Poly) -> Poly:
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.const(c)
        return acc

    # -- display -------------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
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
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def _coerce_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, CoeffScalar, TowerReal)):
        return Poly([_coeff(x)])
    return NotImplemented


ONE_MINUS_Z2 = Poly([1, 0, -1])
Z = Poly.z()
_ONE_TUPLE = Poly.const(1).coeffs


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the scalar field."""
    while b:
        b = b.monic()  # keep coefficient growth in check
        a, b = b, a % b
    return a.monic() if a else a


def require_real(p: Poly) -> None:
    if not p.is_real():
        raise NotRealPolynomial(f"real polynomial required, got {p}")


def real_sign_at(p: Poly, x: Fraction) -> int:
    return p.eval_rational(x).as_real().sign()


def square_free_part(p: Poly) -> Poly:
    """Product of the distinct irreducible factors of p.

    The result is primitive with leading coefficient +-1, the sign matching
    the sign of p's leading coefficient when that sign is decidable (real
    leading coefficient); complex-led inputs come back monic.
    """
    if not p:
        raise ValueError("zero polynomial has no square-free part")
    if p.degree == 0:
        lead = p.lead()
        if lead.is_real():
            return Poly.const(lead.as_real().sign())
        return Poly.const(1)
    g = poly_gcd(p, p.derivative())
    radical = p.exact_div(g) if g.degree > 0 else p
    radical = radical.monic()
    lead = p.lead()
    if lead.is_real() and lead.as_real().sign() < 0:
        radical = -radical
    return radical


def square_class_part(p: Poly) -> Poly:
    """The product of the irreducible factors of odd multiplicity, i.e. the
    canonical representative of p modulo squares; monic up to the preserved
    sign of the leading coefficient."""
    if not p:
        raise ValueError("zero polynomial has no square class")
    out = Poly.const(1)
    for factor, mult in squarefree_decomposition(p):
        if mult % 2:
            out = out * factor
    lead = p.lead()
    if lead.is_real() and lead.as_real().sign() < 0:
        out = -out
    return out


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lead * prod f_k^k with the f_k monic squarefree."""
    out: list[tuple[Poly, int]] = []
    if p.degree <= 0:
        return out
    p = p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    k = 1
    while w.degree > 0:
        zpol = y - w.derivative()
        f = poly_gcd(w, zpol)
        if f.degree > 0:
            out.append((f, k))
        w = w.exact_div(f) if f.degree > 0 else w
        y = zpol.exact_div(f) if f.degree > 0 else zpol
        k += 1
    return out


def poly_square_root(p: Poly) -> Poly:
    """s with s^2 = p: the product of the halved square-free factors, scaled
    by the tower's root of the leading coefficient.  Raises ValueError when
    some factor of p has odd multiplicity."""
    if not p:
        return p
    s = Poly.const(p.lead().sqrt())
    for factor, mult in squarefree_decomposition(p):
        if mult % 2:
            raise ValueError(f"{p} is not a polynomial square")
        s = s * factor ** (mult // 2)
    if s * s != p:
        raise ValueError(f"{p} is not a polynomial square")
    return s


# -- Sturm machinery ------------------------------------------------------------


def sturm_chain(p: Poly) -> list[Poly]:
    require_real(p)
    chain = [p, p.derivative()]
    while chain[-1]:
        rem = chain[-2] % chain[-1]
        if not rem:
            break
        chain.append(-rem)
    return [q for q in chain if q]


def _sign_variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _chain_variations_at(chain, x: Fraction | None, side: int) -> int:
    # x None means -infinity (side=-1) or +infinity (side=+1)
    signs = []
    for q in chain:
        if x is None:
            s = q.lead().as_real().sign()
            if side < 0 and q.degree % 2:
                s = -s
        else:
            s = real_sign_at(q, x)
        signs.append(s)
    return _sign_variations(signs)


def sturm_count(p: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    None endpoints mean -infinity / +infinity.  Endpoint roots are excluded.
    """
    require_real(p)
    if not p:
        raise ValueError("zero polynomial")
    p = _squarefree_real(p)
    if p.degree == 0:
        return 0
    return _chain_count(sturm_chain(p), lo, hi)


def _chain_count(chain: list[Poly], lo: Fraction | None, hi: Fraction | None) -> int:
    """sturm_count of the square-free chain[0] of positive degree, given its
    Sturm chain."""
    count = _chain_variations_at(chain, lo, -1) - _chain_variations_at(chain, hi, +1)
    # V counts roots in (lo, hi]; drop hi when it is a root.
    if hi is not None and real_sign_at(chain[0], hi) == 0:
        count -= 1
    return count


def _squarefree_real(p: Poly) -> Poly:
    g = poly_gcd(p, p.derivative())
    return p.exact_div(g) if g.degree > 0 else p


def cauchy_bound(p: Poly) -> Fraction:
    """Rational bound B with all real roots of p in (-B, B)."""
    lead, hi = p.lead().norm(), TowerReal.from_rational(0)
    for c in p.coeffs[:-1]:
        n = c.norm()
        if (n - hi).sign() > 0:
            hi = n
    # |root| <= 1 + max|c_k|/|lead|; bound norm ratio by rational overshoot
    lo_l, _ = lead.interval(32)
    _, hi_h = hi.interval(32)
    if lo_l <= 0:
        lo_l = lead.interval(256)[0]
    ratio = hi_h / lo_l
    b = Fraction(2) + ratio  # >= 1 + sqrt(ratio)
    return b


def isolate_real_roots_poly(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, each holding one real root of p.

    p must have real tower coefficients; it is squarefree-reduced first.
    Interval endpoints are never roots.
    """
    require_real(p)
    p = _squarefree_real(p)
    if p.degree <= 0:
        return []
    b = cauchy_bound(p)
    chain = sturm_chain(p)
    total = _chain_count(chain, -b, b)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-b, b, total)]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        while real_sign_at(p, mid) == 0:
            mid = (mid + hi) / 2
        nlo = _chain_count(chain, lo, mid)
        stack.append((lo, mid, nlo))
        stack.append((mid, hi, n - nlo))
    out.sort()
    return out


# -- rational factorization bridge -----------------------------------------------


def factor_rational_poly(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Factor a rational-coefficient polynomial into irreducibles over Q.

    Returns (constant, [(monic irreducible factor, multiplicity), ...]).
    Exact factorization is delegated to sympy's rational factorizer.
    """
    import sympy

    coeffs = p.rational_coeffs()
    x = sympy.Symbol("x")
    sp = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs)),
        x,
        domain="QQ",
    )
    const, factors = sp.factor_list()
    out = []
    lead_adjust = Fraction(const.p, const.q)
    for f, mult in factors:
        fr = [Fraction(c.p, c.q) for c in reversed(f.all_coeffs())]
        fp = Poly.from_rational_coeffs(fr)
        lead = fp.lead().as_rational()
        lead_adjust *= lead**mult
        out.append((fp.scale(Fraction(1) / lead), mult))
    return lead_adjust, out


def galois_norm_poly(p: Poly) -> Poly:
    """Product of the Galois conjugates of a real tower polynomial.

    The result has rational coefficients and is divisible by p (over the
    tower); roots of p are among its roots.
    """
    require_real(p)
    primes: set[int] = set()
    for c in p.coeffs:
        primes.update(c.as_real().support_primes())
    result = p
    primes = sorted(primes)
    for mask in range(1, 1 << len(primes)):
        flips = {q for k, q in enumerate(primes) if mask >> k & 1}
        conj = Poly([CoeffScalar(c.as_real()._galois(flips)) for c in p.coeffs])
        result = result * conj
    if not result.is_rational():
        raise ValueError("norm polynomial is not rational")
    return result


# -- real algebraic numbers -----------------------------------------------------------


@dataclass(frozen=True)
class RealAlgebraic:
    """Real algebraic number: irreducible rational minimal polynomial plus
    an isolating open interval (endpoints are not roots)."""

    minpoly: Poly
    lo: Fraction
    hi: Fraction

    @classmethod
    def from_rational(cls, q) -> RealAlgebraic:
        q = Fraction(q)
        mp = Poly.from_rational_coeffs([-q.numerator, q.denominator])
        return cls(_canonical_minpoly(mp), q - 1, q + 1)

    @classmethod
    def roots_of_rational_poly(cls, p: Poly) -> list[RealAlgebraic]:
        """All real roots of a rational polynomial, sorted increasingly."""
        _, factors = factor_rational_poly(p)
        roots = []
        for f, _ in factors:
            canon = _canonical_minpoly(f)
            for lo, hi in isolate_real_roots_poly(f):
                roots.append(cls(canon, lo, hi))
        roots.sort(key=lambda r: r.refined(40)[0])
        return roots

    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("irrational algebraic number")
        return -self.minpoly[0].as_rational() / self.minpoly[1].as_rational()

    def refined(self, bits: int) -> tuple[Fraction, Fraction]:
        """Bisect the isolating interval until its width is below 2^-bits."""
        lo, hi = self.lo, self.hi
        if self.is_rational():
            q = self.as_rational()
            return q, q
        target = Fraction(1, 1 << bits)
        slo = real_sign_at(self.minpoly, lo)
        while hi - lo > target:
            mid = (lo + hi) / 2
            smid = real_sign_at(self.minpoly, mid)
            if smid == 0:
                # cannot happen: minpoly irreducible of degree >= 2
                raise RuntimeError("rational root of irreducible polynomial")
            if smid == slo:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def sign(self) -> int:
        if self.is_rational():
            q = self.as_rational()
            return (q > 0) - (q < 0)
        lo, hi = self.lo, self.hi
        slo = real_sign_at(self.minpoly, lo)
        while lo < 0 < hi:
            mid = (lo + hi) / 2
            smid = real_sign_at(self.minpoly, mid)
            if smid == 0:
                raise RuntimeError("rational root of irreducible polynomial")
            if smid == slo:
                lo = mid
            else:
                hi = mid
        return 1 if lo >= 0 else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RealAlgebraic.from_rational(other)
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        if self.minpoly != other.minpoly:
            return False
        if self.is_rational():
            return self.as_rational() == other.as_rational()
        a, b = self, other
        for bits in (16, 32, 64, 128, 256, 512, 1024):
            alo, ahi = a.refined(bits)
            blo, bhi = b.refined(bits)
            if ahi <= blo or bhi <= alo:
                return False
            ilo, ihi = max(alo, blo), min(ahi, bhi)
            if ilo < ihi and sturm_count(self.minpoly, ilo, ihi) >= 1:
                return True
        raise RuntimeError("equality refinement did not converge")

    def __hash__(self):
        return hash(self.minpoly)

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RealAlgebraic.from_rational(other)
        if self == other:
            return False
        for bits in (16, 32, 64, 128, 256, 512, 1024):
            alo, ahi = self.refined(bits)
            blo, bhi = other.refined(bits)
            if ahi <= blo:
                return True
            if bhi <= alo:
                return False
        raise RuntimeError("comparison refinement did not converge")

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RealAlgebraic.from_rational(other)
        return other < self

    def __le__(self, other):
        return not self.__gt__(other)

    def __ge__(self, other):
        return not self.__lt__(other)

    def __neg__(self) -> RealAlgebraic:
        mp = self.minpoly.reflect_z()
        return RealAlgebraic(_canonical_minpoly(mp), -self.hi, -self.lo)

    def to_tower(self) -> TowerReal:
        """Exact tower value for degree <= 2; ValueError otherwise."""
        if self.is_rational():
            return TowerReal.from_rational(self.as_rational())
        if self.minpoly.degree == 2:
            c, b, a = (self.minpoly[k].as_rational() for k in range(3))
            disc = TowerReal.from_rational(b * b - 4 * a * c).sqrt()
            for root in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)):
                lo, hi = root.interval(64)
                rlo, rhi = self.refined(66)
                if not (hi < rlo or lo > rhi):
                    return root
            raise RuntimeError("no quadratic root matched the interval")
        raise ValueError("tower form needs degree <= 2")

    def __float__(self) -> float:
        lo, hi = self.refined(60)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"RealAlgebraic({self.minpoly}, ({self.lo}, {self.hi}))"


def _canonical_minpoly(p: Poly) -> Poly:
    """Integer-primitive form with positive leading coefficient."""
    coeffs = p.rational_coeffs()
    from math import gcd

    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return Poly.from_rational_coeffs(ints)


def real_roots_in_tower_poly(p: Poly) -> list[RealAlgebraic]:
    """Real roots of a real tower-coefficient polynomial as RealAlgebraic.

    Each root of p is matched against the rational Galois norm polynomial of
    p by interval refinement.
    """
    require_real(p)
    p = _squarefree_real(p)
    if p.degree <= 0:
        return []
    if p.is_rational():
        return RealAlgebraic.roots_of_rational_poly(p)
    norm = galois_norm_poly(p)
    candidates = RealAlgebraic.roots_of_rational_poly(norm)
    out = []
    for lo, hi in isolate_real_roots_poly(p):
        hits = []
        for cand in candidates:
            for bits in (16, 32, 64, 128, 256, 512):
                clo, chi = cand.refined(bits)
                if chi <= lo or clo >= hi:
                    break
            else:
                hits.append(cand)
                continue
        matched = None
        for cand in hits:
            # root of p in (lo,hi) equals cand iff cand's root lies in (lo,hi)
            clo, chi = cand.refined(64)
            mlo, mhi = max(lo, clo), min(hi, chi)
            if mlo < mhi and sturm_count(p, mlo, mhi) == 1:
                matched = cand
                break
        if matched is None:
            # refine p's interval until exactly one candidate survives
            plo, phi = lo, hi
            slo = real_sign_at(p, plo)
            for _ in range(2000):
                mid = (plo + phi) / 2
                smid = real_sign_at(p, mid)
                if smid == 0:
                    matched = RealAlgebraic.from_rational(mid)
                    break
                if smid == slo:
                    plo = mid
                else:
                    phi = mid
                alive = [c for c in candidates if not (c.refined(64)[1] <= plo or c.refined(64)[0] >= phi)]
                if len(alive) == 1:
                    cand = alive[0]
                    clo, chi = cand.refined(64)
                    matched = RealAlgebraic(cand.minpoly, max(plo, clo), min(phi, chi))
                    break
            if matched is None:
                raise RuntimeError("failed to match tower root against norm polynomial")
        out.append(matched)
    return out


class RatFn:
    """Quotient of two polynomials, gcd-reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        num = _coerce_poly(num)
        den = Poly.const(1) if den is None else _coerce_poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            if den.degree > 0 and num.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num.exact_div(g), den.exact_div(g)
        else:
            den = Poly.const(1)
        if den.coeffs == _ONE_TUPLE:
            self.num = num
            self.den = den
            return
        lead_inv = den.lead().inverse()
        self.num = num.scale(lead_inv)
        self.den = den.scale(lead_inv)

    @classmethod
    def const(cls, c) -> RatFn:
        return cls(Poly.const(c))

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"{self} is not polynomial")
        return self.num

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def conj(self) -> RatFn:
        return RatFn(self.num.conj(), self.den.conj())

    def reflect_z(self) -> RatFn:
        return RatFn(self.num.reflect_z(), self.den.reflect_z())

    def __add__(self, other):
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_ratfn(other) + (-self)

    def __mul__(self, other):
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_ratfn(other) / self

    def inverse(self) -> RatFn:
        return RatFn.const(1) / self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFn({self})"

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num})/({self.den})"


def _coerce_ratfn(x):
    if isinstance(x, RatFn):
        return x
    if isinstance(x, Poly):
        return RatFn(x)
    if isinstance(x, (int, Fraction, CoeffScalar, TowerReal)):
        return RatFn(Poly.const(_coeff(x)))
    return NotImplemented
