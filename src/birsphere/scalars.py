"""Exact arithmetic in Q(i) extended by square roots of positive rationals.

A real tower element is stored as  (sum_m  n_m * sqrt(m)) / d  where the keys
m are distinct squarefree positive integers (m = 1 carries the rational
part), the numerators n_m are nonzero integers and the one denominator d is
a positive integer with gcd(d, n_1, n_2, ...) = 1; zero is {} over 1.  Since
the square roots of distinct squarefree integers are linearly independent
over Q, the representation is canonical and equality is a plain comparison.
Ring operations are integer arithmetic plus one gcd.  Multiplication closes
because sqrt(m)*sqrt(n) = g*sqrt(mn/g^2) with g = gcd(m, n).

Signs of nonzero elements are decided by refining integer enclosures
isqrt(m * 4^bits) of the square roots; a decided sign never flips under
further refinement.  Square roots of tower elements are computed by a
recursive denesting on the primes of the support and raise
UnsupportedExtension when the result lies outside every real multi-quadratic
tower.

Complex scalars are pairs (re, im) of tower reals representing re + im*i.
`CoeffScalar.to_row` and `CoeffScalar.from_row` convert a scalar to and from
an integer row {(m, 0 for the real part | 1 for the imaginary part): n} over
one positive denominator.  A row is the form of one coefficient only: the
polynomial module reads it across its integer coefficient columns, one per
key (m, t), and stores no rows.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UnsupportedExtension
from .factor import PSI_12, is_prime

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _factorint(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division plus Pollard rho.  A
    cofactor that is_prime passes at or above PSI_12 may be a pseudoprime,
    so it raises UnsupportedExtension rather than enter a tower form."""
    if n <= 0:
        raise ValueError("positive integer expected")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            if m >= PSI_12:
                raise UnsupportedExtension(f"primality of {m} is not decided exactly at or above {PSI_12}")
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s^2 * m and m squarefree, for n > 0."""
    s, m = 1, 1
    for p, e in _factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m


class TowerReal:
    """Element of Q(sqrt(d_1), ..., sqrt(d_k)) for positive rational d_i."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: dict[int, Fraction] | None = None):
        fracs = {m: Fraction(c) for m, c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in fracs.values()))
        canon = _tower({m: c.numerator * (den // c.denominator) for m, c in fracs.items()}, den)
        self._num, self._den = canon._num, canon._den

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> TowerReal:
        if isinstance(q, int):
            return _tower({1: q}, 1)
        q = Fraction(q)
        return _tower({1: q.numerator}, q.denominator)

    @classmethod
    def sqrt_rational(cls, q) -> TowerReal:
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("nonnegative rational expected")
        if q == 0:
            return _TOWER_ZERO
        s, m = squarefree_decompose(q.numerator * q.denominator)
        return _tower({m: s}, q.denominator)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {m: Fraction(c, den) for m, c in self._num.items()}

    def is_rational(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and 1 in num)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(self._num.get(1, 0), self._den)

    def support_primes(self) -> set[int]:
        primes: set[int] = set()
        for m in self._num:
            if m != 1:
                primes.update(_factorint(m))
        return primes

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> TowerReal:
        other = _coerce_tower(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._num, other._num
        if not a:
            return other
        if not b:
            return self
        da, db = self._den, other._den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        num = {m: c * fa for m, c in a.items()}
        for m, c in b.items():
            num[m] = num.get(m, 0) + c * fb
        return _tower(num, da * fa)

    __radd__ = __add__

    def __neg__(self) -> TowerReal:
        return _tower({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _coerce_tower(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_tower(other) + (-self)

    def __mul__(self, other) -> TowerReal:
        other = _coerce_tower(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _TOWER_ZERO
        if len(a) == 1 and 1 in a:
            c = a[1]
            num = {m: c * d for m, d in b.items()}
        elif len(b) == 1 and 1 in b:
            d = b[1]
            num = {m: c * d for m, c in a.items()}
        else:
            num = {}
            for m, c in a.items():
                for n, d in b.items():
                    g = math.gcd(m, n)
                    key = (m // g) * (n // g)
                    num[key] = num.get(key, 0) + c * d * g
        return _tower(num, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> TowerReal:
        """Field inverse, via the product of Galois conjugates."""
        if not self._num:
            raise ZeroDivisionError("tower zero has no inverse")
        if self.is_rational():
            return TowerReal.from_rational(Fraction(self._den, self._num[1]))
        primes = sorted(self.support_primes())
        conj = TowerReal.from_rational(1)
        for mask in range(1, 1 << len(primes)):
            flips = {p for k, p in enumerate(primes) if mask >> k & 1}
            conj = conj * self._galois(flips)
        denom = (self * conj).as_rational()
        return conj * TowerReal.from_rational(Fraction(1) / denom)

    def _galois(self, flips: set[int]) -> TowerReal:
        num = {}
        for m, c in self._num.items():
            parity = sum(1 for p in flips if m % p == 0)
            num[m] = -c if parity % 2 else c
        return _tower(num, self._den)

    def __truediv__(self, other):
        other = _coerce_tower(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce_tower(other) * self.inverse()

    def __pow__(self, n: int) -> TowerReal:
        if n < 0:
            return self.inverse() ** (-n)
        result = TowerReal.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_tower(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        """A rational value hashes as its Fraction, so that values equal to
        ints and Fractions find the same dict entries."""
        if self.is_rational():
            return hash(Fraction(self._num.get(1, 0), self._den))
        return hash((self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided by interval refinement.

        At precision `bits` each sqrt(m) lies in [s, s + 1] / 2^bits with
        s = isqrt(m * 4^bits), so 2^bits * den * self lies in [S + neg, S + pos]
        where S = sum c*s and neg, pos sum the negative and positive numerators.
        """
        num = self._num
        if not num:
            return 0
        if len(num) == 1 and 1 in num:
            return 1 if num[1] > 0 else -1
        neg = sum(c for c in num.values() if c < 0)
        pos = sum(c for c in num.values() if c > 0)
        bits = 16
        while True:
            s = sum(c * math.isqrt(m << 2 * bits) for m, c in num.items())
            if s + neg > 0:
                return 1
            if s + pos < 0:
                return -1
            bits *= 2
            if bits > 1 << 20:  # unreachable for nonzero exact input
                raise RuntimeError("sign refinement failed to terminate")

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self) -> TowerReal:
        return -self if self.sign() < 0 else self

    def interval(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rational enclosure with width about 2^-bits per term: each sqrt(m)
        is replaced by [s, s + 1] / 2^bits with s = isqrt(m * 4^bits)."""
        lo = hi = 0
        for m, c in self._num.items():
            s = c * math.isqrt(m << 2 * bits)
            if c >= 0:
                lo, hi = lo + s, hi + s + c
            else:
                lo, hi = lo + s + c, hi + s
        scale = self._den << bits
        return Fraction(lo, scale), Fraction(hi, scale)

    def __float__(self) -> float:
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    # -- square roots ----------------------------------------------------------

    def sqrt(self) -> TowerReal:
        """Exact nonnegative square root inside a real quadratic tower.

        Rationals always succeed (a new radicand is adjoined if needed);
        irrational inputs succeed exactly when recursive denesting on the
        support primes bottoms out in rational squares.  Inputs whose root
        generates a non-multiquadratic field (e.g. sqrt(2 - sqrt(2))) raise
        UnsupportedExtension.
        """
        return self._sqrt(budget=[256])

    def _sqrt(self, budget: list[int]) -> TowerReal:
        budget[0] -= 1
        if budget[0] <= 0:
            raise UnsupportedExtension(f"no tower square root found for {self}")
        s = self.sign()
        if s < 0:
            raise ValueError("square root of negative tower element")
        if s == 0:
            return _TOWER_ZERO
        if self.is_rational():
            return TowerReal.sqrt_rational(self.as_rational())
        p = max(self.support_primes())
        num, den = self._num, self._den
        a = _tower({m: c for m, c in num.items() if m % p}, den)
        bprime = _tower({m // p: c for m, c in num.items() if m % p == 0}, den)  # self = a + bprime*sqrt(p)
        try:
            # A root C + D*sqrt(p) needs C, D in the p-free subfield, hence
            # C^2 - D^2 p = +-sqrt(a^2 - p b'^2) must stay p-free as well.
            disc = (a * a - bprime * bprime * p)._sqrt(budget)
            if p in disc.support_primes():
                raise UnsupportedExtension(f"no tower square root for {self}")
            c = None
            for chalf in ((a + disc) / 2, (a - disc) / 2):
                if not chalf or chalf.sign() < 0:
                    continue
                try:
                    cand = chalf._sqrt(budget)
                except (UnsupportedExtension, ValueError):
                    continue
                if cand and p not in cand.support_primes():
                    c = cand
                    break
            if c is None:
                raise UnsupportedExtension(f"no tower square root for {self}")
            d = bprime / (2 * c)
        except (UnsupportedExtension, ValueError) as exc:
            raise UnsupportedExtension(f"no tower square root for {self}") from exc
        root = c + d * _tower({p: 1}, 1)
        if root * root != self:
            raise UnsupportedExtension(f"no tower square root for {self}")
        return abs(root)

    # -- display -----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"TowerReal({self})"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for m in sorted(self._num):
            c = Fraction(self._num[m], self._den)
            if m == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"sqrt({m})")
            elif c == -1:
                parts.append(f"-sqrt({m})")
            else:
                parts.append(f"{c}*sqrt({m})")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def _tower(num: dict[int, int], den: int) -> TowerReal:
    """The TowerReal sum num[m]*sqrt(m)/den for den > 0, brought to canonical
    form: zero numerators dropped and gcd(den, *numerators) divided out."""
    if 0 in num.values():
        num = {m: c for m, c in num.items() if c}
    if not num:
        return _TOWER_ZERO
    g = math.gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {m: c // g for m, c in num.items()}
    out = object.__new__(TowerReal)
    out._num = num
    out._den = den
    return out


_TOWER_ZERO = object.__new__(TowerReal)
_TOWER_ZERO._num = {}
_TOWER_ZERO._den = 1


def _coerce_tower(x):
    if isinstance(x, TowerReal):
        return x
    if isinstance(x, (int, Fraction)):
        return TowerReal.from_rational(x)
    return NotImplemented


class CoeffScalar:
    """Element re + im*i of Q(i) extended by a real quadratic tower."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, TowerReal) else TowerReal.from_rational(re)
        self.im = im if isinstance(im, TowerReal) else TowerReal.from_rational(im)

    @classmethod
    def i(cls) -> CoeffScalar:
        return cls(0, 1)

    def to_row(self) -> tuple[dict[tuple[int, int], int], int]:
        """(row, den) with self = sum row[m, t] * sqrt(m) * i^t / den; den is
        the least common denominator of the two parts, so the row is in
        lowest terms."""
        re, im = self.re, self.im
        den = math.lcm(re._den, im._den)
        f = den // re._den
        row = {(m, 0): x * f for m, x in re._num.items()}
        f = den // im._den
        for m, x in im._num.items():
            row[m, 1] = x * f
        return row, den

    @classmethod
    def from_row(cls, row: dict[tuple[int, int], int], den: int) -> CoeffScalar:
        """Inverse of to_row for any den > 0; zero numerators are allowed."""
        re: dict[int, int] = {}
        im: dict[int, int] = {}
        for (m, t), x in row.items():
            if t:
                im[m] = x
            else:
                re[m] = x
        out = object.__new__(cls)
        out.re = _tower(re, den)
        out.im = _tower(im, den)
        return out

    def conj(self) -> CoeffScalar:
        return CoeffScalar(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im

    def is_rational(self) -> bool:
        return self.im.sign() == 0 and self.re.is_rational()

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.re.as_rational()

    def as_real(self) -> TowerReal:
        if not self.is_real():
            raise ValueError(f"{self} is not real")
        return self.re

    def norm(self) -> TowerReal:
        """The real value |self|^2."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return CoeffScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CoeffScalar(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_scalar(other) + (-self)

    def __mul__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return CoeffScalar(self.re * other.re)
        return CoeffScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> CoeffScalar:
        n = self.norm()
        if not n:
            raise ZeroDivisionError("scalar zero has no inverse")
        ninv = n.inverse()
        return CoeffScalar(self.re * ninv, -self.im * ninv)

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce_scalar(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = CoeffScalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        """A real value hashes as its TowerReal (and so a rational one as
        its Fraction), as it compares equal to it."""
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def sqrt(self) -> CoeffScalar:
        """A complex square root within the tower, or UnsupportedExtension."""
        if not self:
            return CoeffScalar(0)
        if self.is_real():
            r = self.re
            if r.sign() >= 0:
                return CoeffScalar(r.sqrt())
            return CoeffScalar(0, (-r).sqrt())
        try:
            mod = self.norm().sqrt()
            re2 = (mod + self.re) / 2
            im2 = (mod - self.re) / 2
            re_root = re2.sqrt()
            im_root = im2.sqrt()
        except (UnsupportedExtension, ValueError) as exc:
            raise UnsupportedExtension(f"no tower square root for {self}") from exc
        cand = CoeffScalar(re_root, im_root if self.im.sign() >= 0 else -im_root)
        if cand * cand != self:
            raise UnsupportedExtension(f"no tower square root for {self}")
        return cand

    def __repr__(self):
        return f"CoeffScalar({self})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = str(self.im)
        im_part = "i" if im == "1" else "-i" if im == "-1" else f"({im})*i"
        if not self.re:
            return im_part
        joiner = "" if im_part.startswith("-") else "+"
        return f"{self.re}{joiner}{im_part}"


def _coerce_scalar(x):
    if isinstance(x, CoeffScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CoeffScalar(x)
    if isinstance(x, TowerReal):
        return CoeffScalar(x)
    return NotImplemented


ZERO = CoeffScalar(0)


def scalar(x) -> CoeffScalar:
    """Coerce an int, Fraction, TowerReal or CoeffScalar to CoeffScalar."""
    out = _coerce_scalar(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} to CoeffScalar")
    return out
