"""Polynomials in z over the exact scalar field.

A polynomial is stored as integer coefficient columns over one positive
denominator, one column per basis element, in the manner of FLINT's
fmpz_poly kept per component.  The column of key (m, t), with m a squarefree
radicand and t = 0 for the real part, 1 for the imaginary part, is a tuple of
integers n_0, n_1, ... standing for the sum over k of n_k * sqrt(m) * i^t *
z^k over the common denominator.  The form is canonical: every column is
nonempty and ends in a nonzero entry, gcd(den, every entry) = 1, and the zero
polynomial is {} over 1 with degree -1 (standing in for "degree minus
infinity"), so equality is a plain comparison.  A coefficient is the
row {(m, t): n} of the entries at one index over the same denominator, which
is the layout of a scalar (scalars module): this module reads a scalar's row
directly and builds a coefficient from the entries at one index with one gcd,
and the polynomial layout is known to this module only.

The ring operations run on the columns with integer arithmetic.  A product
is one integer convolution per pair of keys, scaled by the factor that
sqrt(m)*sqrt(n) = g*sqrt(mn/g^2) with g = gcd(m, n) and i*i = -1 give the
pair (the scalars' `_key_product`); scaling by a scalar is the same loop
against its row, read as columns of length one.  A sum of products +-a*b (`dot`: matrix
products and determinants, the cross-multiplied tests of the conjugator's
algebra) runs the same loop over all its terms at the least common
denominator, into one set of columns normalised once, and a single product
is its one-term case, so there is one convolution loop.  A pattern's
determinant a ~a - h b ~b (`pattern_determinant`) is two sums of squares:
the key pairs of unequal t cancel in x ~x, so each unordered pair of equal
t is convolved once, doubled, and each column with itself over i <= j
(`_norm_cols`).  Division keeps the remainder as mutable integer columns over
one denominator across its steps and divides out one gcd per step.
Multiplication by h = 1 - z^2, the sphere's conic, and exact division by it
are one integer recurrence per column (`times_h`, `over_h`).
Evaluation at a rational point is one homogenised integer Horner sum per
column, normalised once; no workload evaluates at other points, which take a
Horner loop of CoeffScalar operations.  CoeffScalar values are built only
when a caller asks for coefficients (`p[k]`, `lead`, `coeffs`); the text of
a polynomial is printed from its integer entries by the scalars' printer
(`_coeff_str`), each x / den reduced by one gcd.  Columns are
shared between polynomials and never mutated.  Two ring involutions act on
polynomials: coefficientwise conjugation and the substitution z -> -z.

Gcds of polynomials over Q(i), rational ones included, run on their (1, 0)
and (1, 1) columns, the real and imaginary integer numerators, in the factor
module: one modular gcd over Z[i] certified by exact division, for any number
of inputs (`poly_gcd`).  The certifying divisions also give each input's
quotient, so `cofactors`, the inputs divided by their gcd, takes one kernel
call and one integer pass, and divides nothing again; over the tower it is
`poly_gcd` and `exact_div`.  With `real`, the inputs divided by their
greatest real divisor (a lift's content, sphere.FiberPattern.lift_matrix),
the kernel call is real: a real divisor of u + i v divides u and v, so it
is the gcd over Z of all the inputs' real and imaginary columns.
`monic_lead` divides by a lead over Q(i) with its inverse's integer row.
Square-free splits of rational polynomials run on their primitive (1, 0)
column (Yun's algorithm on Z[x]), and so does the
test for a constant times a square (`monic_square_root`: a coefficient
recurrence, checked by one exact product).  Polynomials with
other tower coefficients use Euclid's algorithm and the same Yun loop over
the field.  Real roots are counted on the whole line and isolated by one
algorithm, on integer lists in the factor module: the square-free part of
the integer column (one modular gcd, `factor.squarefree_part`), then
Descartes' rule of signs with bisection by Taylor shifts and halvings
(Vincent-Collins-Akritas, in the integer form of Rouillier and Zimmermann),
with no remainder sequence.  One record (`RealRoots`) keeps the square-free
part with the count, and the roots are isolated on it on demand, so a
count and the roots of one polynomial take one square-free part.
A polynomial with other real tower coefficients answers through the
rational Galois norm of its square-free part s, folded as one conjugate
per prime of its radicands: of the isolating intervals of the norm's
square-free part, those across which s changes sign hold its roots, one
each (`_tower_intervals`), and each root is the root of the norm that
`compare` places between its interval's rational ends.  The dispatch is
the coefficient type alone.  Real algebraic numbers are carried as an
irreducible rational minimal polynomial plus an isolating rational
interval.  `refined` returns the same number with a narrower interval;
equality is one Descartes count on the overlap of the two intervals (the
minimal polynomial is square-free, so no gcd is taken), and one `compare`
orders two numbers by narrowing both with doubling bits, each round
continuing from the last.  Minimal polynomials of roots are irreducible
factors of the square-free part over Z, found in the factor module: the
rational roots by a p-adic lift at the least suitable prime p, then
Zassenhaus' algorithm at p only on a cofactor that still has a real root
(`real_root_factors`).  `factor_rational_poly`, for callers that need every
factor with its multiplicity, is Yun's split, then Zassenhaus on each part.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest

from .errors import NotRationalPolynomial, NotRealPolynomial
from .factor import (
    column_isolate,
    factor_squarefree,
    gaussian_cofactors,
    gaussian_gcd,
    line_count,
    mul,
    on_unit,
    real_root_factors,
    squarefree,
    squarefree_part,
    unit_count,
    yun,
)
from .scalars import (
    _I_KEY,
    _ONE_KEY,
    _RATIONAL_KEYS,
    CoeffScalar,
    TowerReal,
    _coeff_str,
    _factorint,
    _joined,
    _Key,
    _key_product,
    _scalar,
    scalar,
)

_Cols = dict[_Key, tuple[int, ...]]
_GAUSSIAN_KEYS = {_ONE_KEY, _I_KEY}


def _coeff(x) -> CoeffScalar:
    return x if isinstance(x, CoeffScalar) else scalar(x)


# -- the integer-column kernel ------------------------------------------------------


def _length(cols) -> int:
    """The number of coefficients: the longest column's length."""
    return max(map(len, cols.values()), default=0)


def _row(cols, k: int) -> dict[_Key, int]:
    """Coefficient k as a row {key: numerator}; zero numerators may stay."""
    return {key: c[k] for key, c in cols.items() if k < len(c)}


def _new(cols: _Cols, den: int) -> Poly:
    """A Poly from columns and den already in canonical form."""
    out = object.__new__(Poly)
    out._cols = cols
    out._den = den
    return out


def _poly(cols, den: int) -> Poly:
    """The Poly with integer columns cols (lists or tuples) over den > 0,
    brought to canonical form: trailing zeros and empty columns dropped,
    gcd(den, *entries) divided out."""
    out = {}
    for key, c in cols.items():
        n = len(c)
        while n and not c[n - 1]:
            n -= 1
        if n:
            out[key] = tuple(c[:n])
    if not out:
        return _ZERO
    g = _entry_gcd(out.values(), den)
    if g != 1:
        den //= g
        out = {key: tuple(x // g for x in c) for key, c in out.items()}
    return _new(out, den)


def _from_rows(rows, n: int) -> Poly:
    """The Poly with coefficient k = row / d for each (k, row, d) in rows,
    0 <= k < n, and zero elsewhere."""
    den = 1
    for _, _, d in rows:
        den = math.lcm(den, d)
    cols: dict[_Key, list[int]] = {}
    for k, row, d in rows:
        f = den // d
        for key, x in row.items():
            c = cols.get(key)
            if c is None:
                c = cols[key] = [0] * n
            c[k] = x * f
    return _poly(cols, den)


def _entry_gcd(cols, g: int = 0) -> int:
    for c in cols:
        g = math.gcd(g, *c)
        if g == 1:
            break
    return g


def _product(terms, den: int) -> Poly:
    """The Poly (sum of f * ca * cb over the terms (f, ca, cb)) / den, f an
    integer: one convolution per pair of keys of a term, the shorter column
    outside, all accumulated into one set of columns and normalised once."""
    acc: dict[_Key, list[int]] = {}
    for f0, ca, cb in terms:
        for ka, xa in ca.items():
            for kb, xb in cb.items():
                key, f = _key_product(ka, kb)
                f *= f0
                short, long_ = (xa, xb) if len(xa) <= len(xb) else (xb, xa)
                n = len(short) + len(long_) - 1
                out = acc.get(key)
                if out is None:
                    out = acc[key] = [0] * n
                elif len(out) < n:
                    out.extend([0] * (n - len(out)))
                for i, x in enumerate(short):
                    if x:
                        x *= f
                        for j, y in enumerate(long_, i):
                            out[j] += x * y
    return _poly(acc, den)


def dot(terms) -> Poly:
    """The sum of s * a * b over the terms (s, a, b), s an integer and a, b
    polynomials, in one integer pass: each product is brought to the least
    common multiple of the products' denominators and accumulated into one
    set of columns (`_product`), normalised once."""
    terms = [(s, a, b) for s, a, b in terms if a._cols and b._cols]
    den = math.lcm(*(a._den * b._den for _, a, b in terms))
    return _product([(s * (den // (a._den * b._den)), a._cols, b._cols) for s, a, b in terms], den)


def _norm_cols(cols, f: int) -> dict[_Key, list[int]]:
    """The columns of f x ~x for the columns cols of x, as f times the sum
    over t of the squares of the real sums of the columns of key (m, t)
    times sqrt(m).

    Lemma.  For x = sum c_k e_k, e_k = sqrt(m_k) i^(t_k), the pair k, l
    gives c_k c_l (e_k ~e_l + e_l ~e_k), and i^s (-i)^t + i^t (-i)^s is 0
    when s != t, 2 when s = t.  So x ~x keeps only the key pairs of equal
    t, each unordered pair once, doubled, with factor sqrt(m_k m_l); a key
    with itself gives m times the self-convolution of its column, taken
    over i <= j (c_i^2 at 2i, 2 c_i c_j at i + j)."""
    acc: dict[_Key, list[int]] = {}
    items = list(cols.items())
    for k, ((m, t), x) in enumerate(items):
        out = acc.setdefault(_ONE_KEY, [])
        out.extend([0] * (2 * len(x) - 1 - len(out)))
        fm = f * m
        for i, u in enumerate(x):
            if u:
                out[2 * i] += fm * u * u
                u *= 2 * fm
                for j, v in enumerate(x[i + 1 :], 2 * i + 1):
                    out[j] += u * v
        for (n, s), y in items[k + 1 :]:
            if s == t:
                key, g = _key_product((m, 0), (n, 0))
                out = acc.setdefault(key, [])
                out.extend([0] * (len(x) + len(y) - 1 - len(out)))
                g *= 2 * f
                for i, u in enumerate(x):
                    if u:
                        u *= g
                        for j, v in enumerate(y, i):
                            out[j] += u * v
    return acc


def pattern_determinant(a: Poly, b: Poly) -> Poly:
    """a ~a - h b ~b, the determinant of the lift [[a, b h], [~b, ~a]]: two
    sums of squares (`_norm_cols`) at the common denominator lcm(den)^2,
    the second shifted by h = 1 - z^2 into the first, normalised once."""
    den = math.lcm(a._den, b._den)
    acc = _norm_cols(a._cols, (den // a._den) ** 2)
    for key, c in _norm_cols(b._cols, -((den // b._den) ** 2)).items():
        out = acc.setdefault(key, [])
        out.extend([0] * (len(c) + 2 - len(out)))
        for j, x in enumerate(c):
            out[j] += x
            out[j + 2] -= x
    return _poly(acc, den * den)


def _divide(a: Poly, b: Poly) -> tuple[list[tuple[int, dict[_Key, int], int]], Poly, CoeffScalar | None]:
    """Division of a by the monic associate b / lead(b).

    Returns (steps, remainder, inverse of lead(b) or None when b is monic);
    a step (k, top, d) says that the monic quotient has coefficient top / d
    at z^k, top a row.  The remainder stays in mutable integer columns of one
    length over one denominator across the steps: each step drops the top
    entry, subtracts top * (b / lead) * z^k and divides out one gcd.
    """
    if not b._cols:
        raise ZeroDivisionError("polynomial division by zero")
    na, nb = _length(a._cols), _length(b._cols)
    if na < nb:
        return [], a, None
    lead_inv = None if _row(b._cols, nb - 1) == {_ONE_KEY: b._den} else b.lead().inverse()
    mon = b if lead_inv is None else b.scale(lead_inv)
    dm = mon._den
    low = {key: c[: nb - 1] for key, c in mon._cols.items() if any(c[: nb - 1])}
    rem = {key: list(c) + [0] * (na - len(c)) for key, c in a._cols.items()}
    dr = a._den
    steps = []
    for k in range(na - nb, -1, -1):
        # rem/dr - (top/dr) * (mon/dm) z^k = (dm*rem - top*mon z^k) / (dr*dm);
        # the leading terms cancel, so the top entry is dropped.
        top = {key: x for key, c in rem.items() if (x := c.pop())}
        if not top:
            continue
        steps.append((k, top, dr))
        if dm != 1:
            rem = {key: [x * dm for x in c] for key, c in rem.items()}
            dr *= dm
        for kt, xt in top.items():
            for kl, cl in low.items():
                key, f = _key_product(kt, kl)
                c = rem.get(key)
                if c is None:
                    c = rem[key] = [0] * (k + nb - 1)
                f *= xt
                for j, y in enumerate(cl, k):
                    c[j] -= f * y
        g = _entry_gcd(rem.values(), dr)
        if g != 1:
            dr //= g
            rem = {key: [x // g for x in c] for key, c in rem.items()}
    return steps, _poly(rem, dr), lead_inv


def _horner(c: tuple[int, ...], r: int, d: int, n: int) -> int:
    """sum c[j] r^j d^(n-1-j) over j, for len(c) <= n."""
    acc, pw = c[-1], 1
    for x in c[-2::-1]:
        pw *= d
        acc = acc * r + x * pw
    return acc * d ** (n - len(c)) if d != 1 else acc


class Poly:
    """Dense univariate polynomial over CoeffScalar, stored as integer
    coefficient columns over one denominator (see the module docstring)."""

    __slots__ = ("_cols", "_den")

    def __init__(self, coeffs=()):
        coeffs = [_coeff(c) for c in coeffs]
        p = _from_rows([(k, c._num, c._den) for k, c in enumerate(coeffs)], len(coeffs))
        self._cols, self._den = p._cols, p._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> Poly:
        return cls([c])

    @classmethod
    def z(cls) -> Poly:
        return cls([0, 1])

    @classmethod
    def from_rational_coeffs(cls, coeffs) -> Poly:
        return cls([CoeffScalar(Fraction(c)) for c in coeffs])

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[CoeffScalar, ...]:
        """The coefficients in ascending powers, built on each access."""
        cols, den = self._cols, self._den
        return tuple(_scalar(_row(cols, k), den) for k in range(_length(cols)))

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return _length(self._cols) - 1

    def __bool__(self) -> bool:
        return bool(self._cols)

    def __getitem__(self, k: int) -> CoeffScalar:
        if k < 0:
            return CoeffScalar(0)
        return _scalar(_row(self._cols, k), self._den)

    def lead(self) -> CoeffScalar:
        if not self._cols:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def is_real(self) -> bool:
        return not any(t for _, t in self._cols)

    def is_rational(self) -> bool:
        return self._cols.keys() <= _RATIONAL_KEYS

    def rational_coeffs(self) -> list[Fraction]:
        if not self.is_rational():
            raise ValueError(f"{next(c for c in self.coeffs if not c.is_rational())} is not rational")
        den = self._den
        return [Fraction(x, den) for x in self._cols.get(_ONE_KEY, ())]

    def is_even(self) -> bool:
        return not any(any(c[1::2]) for c in self._cols.values())

    def primitive(self) -> Poly:
        """self divided by its content: integer columns over 1."""
        g = _entry_gcd(self._cols.values())
        if not g:
            return self
        return _new({key: tuple(x // g for x in c) for key, c in self._cols.items()}, 1)

    # -- ring operations -------------------------------------------------------

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._cols == other._cols

    def __hash__(self):
        """A constant hashes as its CoeffScalar (the zero polynomial as 0),
        as it compares equal to it, and so to an int or a Fraction."""
        cols = self._cols
        for c in cols.values():
            if len(c) > 1:
                return hash((self._den, frozenset(cols.items())))
        return hash(self[0])

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._cols, other._cols
        if not a:
            return other
        if not b:
            return self
        da, db = self._den, other._den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        out = {key: [x * fa for x in c] for key, c in a.items()}
        for key, c in b.items():
            acc = out.setdefault(key, [])
            if len(acc) < len(c):
                acc.extend([0] * (len(c) - len(acc)))
            for j, x in enumerate(c):
                acc[j] += x * fb
        return _poly(out, da * (db // g))

    __radd__ = __add__

    def __neg__(self):
        return _new({key: tuple(-x for x in c) for key, c in self._cols.items()}, self._den)

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._cols or not other._cols:
            return _ZERO
        return _product(((1, self._cols, other._cols),), self._den * other._den)

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
        """c * self: the columns times c's row, read as columns of length one."""
        c = _coeff(c)
        return _product(((1, self._cols, {key: (x,) for key, x in c._num.items()}),), self._den * c._den)

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        steps, rem, lead_inv = _divide(self, _coerce_poly(other))
        if not steps:
            return _ZERO, rem
        quo = _from_rows(steps, steps[0][0] + 1)
        return (quo if lead_inv is None else quo.scale(lead_inv)), rem

    def __mod__(self, other):
        return _divide(self, _coerce_poly(other))[1]

    def exact_div(self, other: Poly) -> Poly:
        q, r = self.divmod(other)
        if r:
            raise ValueError("division is not exact")
        return q

    # -- involutions and calculus -------------------------------------------------

    def conj(self) -> Poly:
        """Coefficientwise complex conjugation."""
        return _new({(m, t): tuple(-x for x in c) if t else c for (m, t), c in self._cols.items()}, self._den)

    def reflect_z(self) -> Poly:
        """The substitution z -> -z."""
        return _new(
            {key: tuple(-x if j & 1 else x for j, x in enumerate(c)) for key, c in self._cols.items()}, self._den
        )

    def derivative(self) -> Poly:
        return _poly({key: [j * x for j, x in enumerate(c)][1:] for key, c in self._cols.items()}, self._den)

    def __call__(self, x) -> CoeffScalar:
        """Value at x: `_at_rational` for a rational x, else a Horner loop of
        CoeffScalar operations."""
        x = _coeff(x)
        if x.is_rational():
            return self._at_rational(x._num.get(_ONE_KEY, 0), x._den)
        acc = CoeffScalar(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _at_rational(self, r: int, d: int) -> CoeffScalar:
        """Value at r / d: one integer Horner sum per column over den * d^(n-1)."""
        cols, n = self._cols, _length(self._cols)
        if not n:
            return CoeffScalar(0)
        return _scalar({key: _horner(c, r, d, n) for key, c in cols.items()}, self._den * d ** (n - 1))

    def monic(self) -> Poly:
        """self divided by its lead (`monic_lead`); zero stays zero."""
        return monic_lead([self])[0] if self._cols else self

    # -- display -------------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        """Terms from the top degree down, each coefficient printed from its
        integer entries as a scalar prints it (`_coeff_str`)."""
        cols, den = self._cols, self._den
        if not cols:
            return "0"
        keys = sorted(cols)
        parts = []
        for k in range(_length(cols) - 1, -1, -1):
            row = [(key, x) for key in keys if k < len(cols[key]) and (x := cols[key][k])]
            if not row:
                continue
            cs = _coeff_str(row, den)
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
        return _joined(parts)


def _coerce_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, CoeffScalar)):
        return Poly([_coeff(x)])
    return NotImplemented


_ZERO = _new({}, 1)
ONE_MINUS_Z2 = Poly([1, 0, -1])
Z = Poly.z()


def times_h(p: Poly) -> Poly:
    """p (1 - z^2) in one integer pass: entry k of a column is c_k - c_(k-2).
    The top entry is -c_top != 0, and h is primitive, so the content is kept
    (Gauss's lemma) and the columns are canonical as built."""
    return _new({key: tuple(x - y for x, y in zip((*c, 0, 0), (0, 0, *c))) for key, c in p._cols.items()}, p._den)


def over_h(p: Poly) -> Poly | None:
    """p / (1 - z^2) when 1 - z^2 divides p, else None, in one integer pass.

    Lemma.  For a column c of length n, put q_k = c_k + q_(k-2) for k < n
    (q_(-1) = q_(-2) = 0) and Q = sum q_k z^k.  Then (1 - z^2) Q has entry
    q_k - q_(k-2) = c_k below n and -q_(n-2), -q_(n-1) at n and n + 1, so
    (1 - z^2) Q = c - z^n (q_(n-2) + q_(n-1) z).  A quotient of c satisfies
    the same recurrence and has length n - 2, so one exists exactly when
    q_(n-2) = q_(n-1) = 0, and it is then Q.  h is rational, so p divides
    column by column.  A quotient's top entry is -c_top != 0, and its
    content is p's (Gauss's lemma), so it is canonical as built."""
    cols = {}
    for key, c in p._cols.items():
        q = list(c)
        for k in range(2, len(q)):
            q[k] += q[k - 2]
        if any(q[-2:]):
            return None
        cols[key] = tuple(q[:-2])
    return _new(cols, p._den)


def monic_lead(ps) -> list[Poly]:
    """ps times the inverse of the lead of the first nonzero one, which
    makes it monic: one column product each against the inverse's row."""
    first = next(p for p in ps if p)
    cols, den = first._cols, first._den
    lead = _row(cols, _length(cols) - 1)
    if lead == {_ONE_KEY: den}:
        return list(ps)
    inv = _scalar(lead, den).inverse()
    row = {key: (x,) for key, x in inv._num.items()}
    return [_product(((1, p._cols, row),), p._den * inv._den) if p else p for p in ps]


def poly_gcd(*ps: Poly) -> Poly:
    """Monic gcd over the scalar field of any number of polynomials; 0 when
    all are zero.  Inputs over Q(i), rational ones included, go in one call
    to the modular kernel over Z[i] (`factor.gaussian_gcd`), which reads
    their real and imaginary columns; tower inputs fold Euclid's algorithm
    over the inputs."""
    ps = [p for p in ps if p]
    if len(ps) < 2:
        return ps[0].monic() if ps else _ZERO
    if all(p._cols.keys() <= _GAUSSIAN_KEYS for p in ps):
        re, im = gaussian_gcd(*((p._cols.get(_ONE_KEY, ()), p._cols.get(_I_KEY, ())) for p in ps))
        return _poly({_ONE_KEY: re, _I_KEY: im}, 1).monic() if im else _from_integers(re)
    g = ps[0]
    for b in ps[1:]:
        while b and g.degree:
            b = b.monic()  # keep coefficient growth in check
            g, b = b, g % b
    return g.monic()


def cofactors(*ps: Poly, real: bool = False) -> list[Poly]:
    """p / poly_gcd(*ps) for each p of ps, not all zero; with real,
    p / G for G the greatest real divisor of ps, gcd(g, ~g) for
    g = poly_gcd(*ps), as conjugation maps g to the gcd of the ~p.
    Inputs over Q(i) take the quotients of the one kernel call that
    certifies their gcd G (`factor.gaussian_cofactors`): an input's
    columns over its denominator are G times the quotient over that
    denominator, so the quotient times lead(G), over the same
    denominator, is its cofactor by the monic gcd, in one integer pass.
    Without real the kernel reads each input's real and imaginary
    columns as one Gaussian polynomial; with real it reads the columns
    as real polynomials, each on its own, and G is their gcd over Z.

    Lemma.  For real polynomials u, v and a real G, G divides u + i v
    exactly when it divides u and v: if u + i v = G q then u - i v = G ~q,
    and the sum and difference give 2 u and 2 i v.  A real polynomial over
    Q(i) has its coefficients in Q(i) and fixed by conjugation, that is
    rational.  So the real divisors of the inputs are the rational
    divisors of all their real and imaginary columns, and the greatest is
    the gcd of those columns over Z, made monic, which takes one image
    modulo each prime and no gcd(g, ~g).  Tower inputs take poly_gcd,
    with real its gcd with its conjugate, and then exact_div, which a gcd
    of 1 skips."""
    if all(p._cols.keys() <= _GAUSSIAN_KEYS for p in ps):
        if real:
            (re, im), qs = gaussian_cofactors(*((p._cols.get(key, ()), ()) for p in ps for key in (_ONE_KEY, _I_KEY)))
            quotients = [(qr, qi) for (qr, _), (qi, _) in zip(qs[0::2], qs[1::2])]
        else:
            (re, im), quotients = gaussian_cofactors(*((p._cols.get(_ONE_KEY, ()), p._cols.get(_I_KEY, ())) for p in ps))
        if len(re) == 1:
            return list(ps)
        a, b = re[-1], im[-1] if im else 0
        out = []
        for p, (qr, qi) in zip(ps, quotients):  # (qr + i qi)(a + i b) over p's denominator
            pairs = list(zip_longest(qr, qi, fillvalue=0))
            cols = {_ONE_KEY: [x * a - y * b for x, y in pairs], _I_KEY: [x * b + y * a for x, y in pairs]}
            out.append(_poly(cols, p._den))
        return out
    g = poly_gcd(*ps)
    if real and g.degree > 0 and g != g.conj():
        g = poly_gcd(g, g.conj())
    return [p.exact_div(g) if p else p for p in ps] if g.degree else list(ps)


def require_real(p: Poly) -> None:
    if not p.is_real():
        raise NotRealPolynomial(f"real polynomial required, got {p}")


def real_sign_at(p: Poly, x: Fraction) -> int:
    return p(x).as_real().sign()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm (`factor.yun`): p = lead * prod f_k^k with the f_k
    monic squarefree; on Z[x] (`factor.squarefree`) for a rational p."""
    if p.degree <= 0:
        return []
    if p.is_rational():
        return [(_from_integers(f), k) for f, k in squarefree(_integer_coeffs(p))]
    return yun(p.monic(), Poly.derivative, Poly.__sub__, poly_gcd, Poly.exact_div)


def monic_square_root(p: Poly) -> Poly | None:
    """The monic s with p = lead(p) s^2 for a nonzero p, or None when p is
    not a constant times a square.  The top half of s^2's coefficients fixes
    s (with s_n = 1, n = deg p / 2, coefficient n + k of s^2 is 2 s_k plus
    products of s_j with j > k), and the exact product s^2 is compared
    with p; no float is used and nothing is sampled.

    A rational p runs on its primitive integer column c, its sign made
    positive: by Gauss's lemma the square of a primitive t in Z[x] is
    primitive, so p is a constant times a square exactly when c = t^2 for
    a t in Z[x], whose lead isqrt(lead c) > 0 makes the recurrence divide
    exactly by 2 t_n.  A tower p runs the same recurrence over the scalars,
    on p / lead(p)."""
    if p.degree % 2:
        return None
    n = p.degree // 2
    if p.is_rational():
        c = _integer_coeffs(p)
        if c[-1] < 0:
            c = [-x for x in c]
        t = [0] * n + [math.isqrt(c[-1])]
        if t[n] * t[n] != c[-1]:
            return None
        for k in range(n - 1, -1, -1):
            k_th, rest = divmod(c[n + k] - sum(t[j] * t[n + k - j] for j in range(k + 1, n)), 2 * t[n])
            if rest:
                return None
            t[k] = k_th
        return _from_integers(t) if mul(t, t) == c else None
    q = p.monic()
    s = [CoeffScalar(0)] * n + [CoeffScalar(1)]
    for k in range(n - 1, -1, -1):
        s[k] = (q[n + k] - sum((s[j] * s[n + k - j] for j in range(k + 1, n)), CoeffScalar(0))) / 2
    root = Poly(s)
    return root if root * root == q else None


# -- real-root entry points ---------------------------------------------------------


def sturm_count(p: Poly) -> int:
    """Number of distinct real roots of p on the whole line: the count of
    its `RealRoots` record, by Descartes' rule on the square-free integer
    column of a rational p, through the rational Galois norm of a tower p."""
    return RealRoots(p).count


def _tower_intervals(p: Poly) -> tuple[list[int], list]:
    """(n, intervals) for a real p of positive degree with a coefficient
    outside Q: n is the square-free part of the rational Galois norm of the
    square-free part s = p / gcd(p, dp/dz) (`cofactors`), as an integer
    column, and the intervals, sorted, are the isolating intervals (a, b) of
    n (`isolate_real_roots_poly`) that hold a root of p, one each.

    Lemma.  Every root of s is a root of n.  An isolating interval (a, b) of
    n holds exactly one root of n, so it holds at most one root of s, and
    that root is simple; its ends are not roots of n.  So s changes sign
    across (a, b) exactly when p has a root there.  Every root of p is in
    one of the intervals of n, so none is missed.
    """
    s = cofactors(p, p.derivative())[0]
    n = squarefree_part(_integer_coeffs(galois_norm_poly(s)))
    norm = _new({_ONE_KEY: tuple(n)}, 1)
    return n, [(a, b) for a, b in isolate_real_roots_poly(norm) if real_sign_at(s, a) * real_sign_at(s, b) < 0]


class RealRoots:
    """The distinct real roots of a nonzero real polynomial p, counted when
    the record is built and isolated on demand (`roots`), from one
    square-free part.  A rational p keeps the square-free part of its
    integer column (`factor.squarefree_part`, one gcd) and counts its roots
    by Descartes' rule (`line_count`); a tower p keeps the pair (n,
    intervals) of `_tower_intervals`, one interval per root; a constant
    has none.  `sturm_count`, `RealAlgebraic.roots_of_rational_poly` and
    `real_roots_in_tower_poly` each build one, and a sphere pattern
    memoises the record of its stripped determinant, so its count and its
    roots share the square-free part."""

    __slots__ = ("count", "_column", "_intervals")

    def __init__(self, p: Poly):
        require_real(p)
        if not p:
            raise ValueError("zero polynomial")
        self._column, self._intervals, self.count = None, None, 0
        if p.degree == 0:
            return
        if p.is_rational():
            self._column = squarefree_part(_integer_coeffs(p))
            self.count = line_count(self._column)
        else:
            self._column, self._intervals = _tower_intervals(p)
            self.count = len(self._intervals)

    def roots(self) -> list[RealAlgebraic]:
        """The real roots, sorted.  Those of the square-free column come
        from its irreducible factors that can hold one
        (`factor.real_root_factors`), each factor's roots isolated; they are
        distinct, as the factors are distinct irreducibles.  For a tower p
        each interval (lo, hi) holds no other root of n, so p's root there
        is the one root of n that `compare` places strictly between lo and
        hi: the ends are rational and not roots of n, so the comparison is
        exact and ends.  It is returned with its interval as isolated."""
        if not self.count:
            return []
        found = sorted(
            root for g in real_root_factors(self._column) for root in RealAlgebraic.roots_of_irreducible(_from_integers(g))
        )
        if self._intervals is None:
            return found
        return [next(c for c in found if c.compare(lo) > 0 > c.compare(hi)) for lo, hi in self._intervals]


def cauchy_bound(p: Poly) -> Fraction:
    """Rational bound B with all real roots of a rational p in (-B, B):
    2 + max c_k^2 (1 + 2^-32) / lead^2 over p's coefficients c_k, above
    1 + max |c_k| / |lead|, Cauchy's bound, as 1 + x < 2 + x^2.  The factor
    1 + 2^-32 sets the bisection points, and so every recorded interval.
    NotRationalPolynomial for any other p."""
    if not p.is_rational():
        raise NotRationalPolynomial(f"rational polynomial required, got {p}")
    c = p._cols[_ONE_KEY]
    top = max((x * x for x in c[:-1]), default=0)
    return 2 + Fraction(top * ((1 << 32) + 1), c[-1] ** 2 << 32)


def isolate_real_roots_poly(s: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, sorted, each holding one real root
    of the square-free rational s of positive degree; interval endpoints
    are never roots.  Descartes' rule bisects (-b, b), b = `cauchy_bound(s)`,
    on s's integer column (`column_isolate`).  Any other s raises
    NotRationalPolynomial (a tower s answers through its rational Galois
    norm: `real_roots_in_tower_poly`)."""
    return column_isolate(_integer_coeffs(s), cauchy_bound(s))


# -- rational factorization -----------------------------------------------------


def _integer_coeffs(p: Poly) -> list[int]:
    """The (1, 0) column of the primitive form of a rational p."""
    return list(p.primitive()._cols.get(_ONE_KEY, ()))


def _from_integers(g: list[int]) -> Poly:
    """The monic Poly of a primitive integer list with positive lead."""
    return _new({_ONE_KEY: tuple(g)}, g[-1])


def factor_rational_poly(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Factor a rational-coefficient polynomial into irreducibles over Q.

    Returns (lead(p), [(monic irreducible factor, multiplicity), ...]), with
    (0, []) for the zero polynomial and (c, []) for a constant c.  Factors
    are ordered by degree, then multiplicity, then the primitive integer
    coefficients from the leading one down (the order the recorded reports
    were made with).  Yun's algorithm splits p made primitive over Z
    (`factor.squarefree`), and Zassenhaus' algorithm factors each part
    (`factor.factor_squarefree`, whose docstring holds the proofs).  The
    factors must multiply back to p (else RuntimeError).
    """
    coeffs = p.rational_coeffs()
    if p.degree <= 0:
        return (coeffs[0] if coeffs else Fraction(0)), []
    found = [(g, mult) for part, mult in squarefree(_integer_coeffs(p)) for g in factor_squarefree(part)]
    found.sort(key=lambda gm: (len(gm[0]), gm[1], gm[0][::-1]))
    product = functools.reduce(mul, (g for g, mult in found for _ in range(mult)))
    if product != _integer_coeffs(_canonical_minpoly(p)):
        raise RuntimeError(f"factorization of {p} does not multiply back")
    return coeffs[-1], [(_from_integers(g), mult) for g, mult in found]


def galois_norm_poly(p: Poly) -> Poly:
    """Product of the Galois conjugates of a real tower polynomial.

    The Galois group of the field of p's radicands is generated by one
    conjugation sigma_q per prime q dividing a radicand: sigma_q negates
    each column (m, 0) whose radicand m is divisible by q.  The
    conjugations commute, so folding N <- N sigma_q(N) over the primes,
    from N = p, leaves after j primes the product of p's conjugates by
    every subset of those j: k primes take k products.  The result has
    rational coefficients and is divisible by p (over the tower); roots of
    p are among its roots.
    """
    require_real(p)
    norm = p
    for q in sorted({q for m, _ in p._cols if m != 1 for q in _factorint(m)}):
        conj = {(m, t): tuple(-x for x in c) if m % q == 0 else c for (m, t), c in norm._cols.items()}
        norm = norm * _new(conj, norm._den)
    if not norm.is_rational():
        raise ValueError("norm polynomial is not rational")
    return norm


# -- real algebraic numbers -----------------------------------------------------------


class RealAlgebraic:
    """Real algebraic number: irreducible rational minimal polynomial plus
    an isolating open interval (endpoints are not roots), or for a rational
    number q possibly the point interval [q, q]."""

    __slots__ = ("minpoly", "lo", "hi")

    def __init__(self, minpoly: Poly, lo: Fraction, hi: Fraction):
        self.minpoly, self.lo, self.hi = minpoly, lo, hi

    @classmethod
    def from_rational(cls, q) -> RealAlgebraic:
        q = Fraction(q)
        mp = Poly.from_rational_coeffs([-q.numerator, q.denominator])
        return cls(_canonical_minpoly(mp), q, q)

    @classmethod
    def roots_of_rational_poly(cls, p: Poly) -> list[RealAlgebraic]:
        """All real roots of a rational p, sorted, by the irreducible factors
        of its square-free part that can hold one (`RealRoots.roots`)."""
        if not p:
            raise ValueError("zero polynomial")
        if not p.is_rational():
            raise NotRationalPolynomial(f"rational polynomial required, got {p}")
        return RealRoots(p).roots()

    @classmethod
    def roots_of_irreducible(cls, f: Poly) -> list[RealAlgebraic]:
        """All real roots of a rational f irreducible over Q, sorted: f is
        square-free, so its roots are isolated directly, with no factoring."""
        canon = _canonical_minpoly(f)
        return [cls(canon, lo, hi) for lo, hi in isolate_real_roots_poly(f)]

    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("irrational algebraic number")
        return -self.minpoly[0].as_rational() / self.minpoly[1].as_rational()

    def refined(self, bits: int) -> RealAlgebraic:
        """This number with its interval bisected below width 2^-bits; a
        rational number narrows to its point."""
        if self.is_rational():
            q = self.as_rational()
            return RealAlgebraic(self.minpoly, q, q)
        lo, hi = self.lo, self.hi
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
        return RealAlgebraic(self.minpoly, lo, hi)

    def compare(self, other) -> int:
        """-1, 0 or 1 as self is below, equal to or above other; exact.
        Equal values are found by `__eq__`; distinct ones are narrowed with
        doubling bits, each round continuing from the last, until their
        intervals separate, which they do once both widths fall below the
        distance of the values.  A value lies in [lo, hi], strictly inside
        unless lo = hi."""
        if not isinstance(other, RealAlgebraic):
            other = RealAlgebraic.from_rational(other)
        if self == other:
            return 0
        a, b, bits = self, other, 16
        while a.lo < b.hi and b.lo < a.hi:
            a, b, bits = a.refined(bits), b.refined(bits), 2 * bits
        return -1 if a.hi <= b.lo else 1

    def sign(self) -> int:
        return self.compare(0)

    def __eq__(self, other):
        """Exact equality by one Descartes count (`unit_count` of the
        minimal polynomial moved onto (0, 1) by `on_unit`, no gcd: it is
        irreducible, so square-free) on the overlap of the two
        intervals: equal values lie in it, and a root of the common minimal
        polynomial found there is the one root in each interval, so it is
        both values."""
        if isinstance(other, (int, Fraction)):
            other = RealAlgebraic.from_rational(other)
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        if self.minpoly != other.minpoly:
            return False
        if self.is_rational():
            return True
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return lo < hi and unit_count(on_unit(_integer_coeffs(self.minpoly), lo, hi)) >= 1

    def __hash__(self):
        """A rational value hashes as its Fraction, which it equals."""
        return hash(self.as_rational()) if self.is_rational() else hash(self.minpoly)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __neg__(self) -> RealAlgebraic:
        mp = self.minpoly.reflect_z()
        return RealAlgebraic(_canonical_minpoly(mp), -self.hi, -self.lo)

    def to_tower(self) -> TowerReal:
        """Exact tower value for degree <= 2; ValueError otherwise.  Of the
        two roots of a quadratic minimal polynomial, exactly one lies in the
        isolating interval (lo, hi), whose ends are not roots; exact tower
        comparison finds it."""
        if self.is_rational():
            return TowerReal.from_rational(self.as_rational())
        if self.minpoly.degree == 2:
            c, b, a = (self.minpoly[k].as_rational() for k in range(3))
            disc = TowerReal.from_rational(b * b - 4 * a * c).sqrt()
            lo, hi = TowerReal.from_rational(self.lo), TowerReal.from_rational(self.hi)
            for root in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)):
                if lo < root and root < hi:
                    return root
            raise RuntimeError("no quadratic root in the isolating interval")
        raise ValueError("tower form needs degree <= 2")

    def __float__(self) -> float:
        narrow = self.refined(60)
        return float((narrow.lo + narrow.hi) / 2)


def _canonical_minpoly(p: Poly) -> Poly:
    """Integer-primitive form with positive leading coefficient."""
    p = p.primitive()
    return -p if p.lead().as_rational() < 0 else p


def real_roots_in_tower_poly(p: Poly) -> list[RealAlgebraic]:
    """Real roots of a real tower-coefficient polynomial as RealAlgebraic,
    sorted: those of its `RealRoots` record, isolated through the rational
    Galois norm for a p with a coefficient outside Q; a rational p is
    `RealAlgebraic.roots_of_rational_poly`."""
    require_real(p)
    if p.is_rational():
        return RealAlgebraic.roots_of_rational_poly(p)
    return RealRoots(p).roots()
