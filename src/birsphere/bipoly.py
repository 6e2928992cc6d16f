"""Polynomials and fractions in a second variable over Poly coefficients.

Used for symbolic sphere formulas: the second variable is the fiber
coordinate t, and identities are checked in the function field of the
sphere.  Fractions are kept unreduced; equality is decided by
cross-multiplication, which is exact over an integral domain.
"""

from __future__ import annotations

from .poly import Poly, _coerce_poly


class BiPoly:
    """Polynomial in t with Poly-in-z coefficients, dense in t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_poly(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, p) -> BiPoly:
        return cls([_coerce_poly(p)])

    @classmethod
    def t(cls) -> BiPoly:
        return cls([Poly(), Poly.const(1)])

    def __getitem__(self, k: int) -> Poly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _coerce_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return BiPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return BiPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_bipoly(other) + (-self)

    def __mul__(self, other):
        other = _coerce_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return BiPoly()
        out = [Poly() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    __rmul__ = __mul__

    def __repr__(self):
        terms = [f"({c})*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _coerce_bipoly(x):
    if isinstance(x, BiPoly):
        return x
    p = _coerce_poly(x)
    if p is NotImplemented:
        return NotImplemented
    return BiPoly([p])


class BiFrac:
    """Unreduced fraction of BiPoly values; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly | None = None):
        num = _coerce_bipoly(num)
        den = BiPoly.const(1) if den is None else _coerce_bipoly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _coerce_bifrac(other)
        if other is NotImplemented:
            return NotImplemented
        return BiFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return BiFrac(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_bifrac(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_bifrac(other) + (-self)

    def __mul__(self, other):
        other = _coerce_bifrac(other)
        if other is NotImplemented:
            return NotImplemented
        return BiFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_bifrac(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero fraction")
        return BiFrac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_bifrac(other) / self

    def __eq__(self, other):
        other = _coerce_bifrac(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("unreduced fractions are not hashable")

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


def _coerce_bifrac(x):
    if isinstance(x, BiFrac):
        return x
    b = _coerce_bipoly(x)
    if b is NotImplemented:
        return NotImplemented
    return BiFrac(b)
