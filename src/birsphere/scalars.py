"""Exact arithmetic in Q(i) extended by square roots of positive rationals.

A scalar is stored as a row {(m, t): n} over one denominator d, standing for
the sum of n * sqrt(m) * i^t / d over the row: the keys m are distinct
squarefree positive integers (m = 1 carries the rational part), t is 0 for
the real part and 1 for the imaginary part, the numerators n are nonzero
integers and d is a positive integer with gcd(d, every n) = 1; zero is {}
over 1.  This is the layout of one coefficient of a polynomial: the poly
module keeps one integer column per key, and reads a coefficient's row
across its columns at one index.  Since the sqrt(m) i^t of distinct keys are
linearly independent over Q, the form is canonical and equality is a plain
comparison.

There is one arithmetic on rows: a canonicaliser (`_scalar`: zero
numerators dropped, one gcd divided out), one sum, one product on the table
sqrt(m) sqrt(n) = g sqrt(mn/g^2) with g = gcd(m, n) and i i = -1
(`_key_product`), and one inverse: with i = sqrt(-1), the field is
multiquadratic, and a product of Galois conjugates makes any nonzero value
rational.  `TowerReal` is the case t = 0: a `CoeffScalar` with a real row,
plus what needs an order, the sign, comparisons, rational enclosures and
square roots.  An operation on TowerReals, ints and Fractions gives a
TowerReal, and one with a complex `CoeffScalar` operand gives a CoeffScalar.

Signs of nonzero real scalars are decided by refining integer enclosures
isqrt(m * 4^bits) of the square roots; a decided sign never flips under
further refinement.  Square roots of real scalars are computed by a
recursive denesting on the primes of the support and raise
UnsupportedExtension when the result lies outside every real multi-quadratic
tower.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UnsupportedExtension
from .factor import PSI_12, is_prime

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

_Key = tuple[int, int]
_ONE_KEY = (1, 0)
_I_KEY = (1, 1)
_RATIONAL_KEYS = {_ONE_KEY}


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
    """Return (s, m) with n = s^2 * m and m squarefree, for n > 0.  The
    small primes are divided out first, and a cofactor that is a square is
    taken whole, unfactored: a square root that exists never factors."""
    s, m = 1, 1
    for p in _SMALL_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        m *= p ** (e % 2)
    r = math.isqrt(n)
    if r * r == n:
        return s * r, m
    for p, e in _factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m


def _key_product(ka: _Key, kb: _Key) -> tuple[_Key, int]:
    """Key and integer factor of the product of two basis elements."""
    (m, s), (n, t) = ka, kb
    g = math.gcd(m, n)
    return ((m // g) * (n // g), s ^ t), -g if s & t else g


class CoeffScalar:
    """Element of Q(i) extended by a real quadratic tower, stored as a row
    over one denominator (see the module docstring)."""

    __slots__ = ("_num", "_den")

    def __init__(self, re=0, im=0):
        """The scalar re + im*i, for ints, Fractions or scalars re and im."""
        x = scalar(re)
        if im:
            x = x + scalar(im) * _I
        self._num, self._den = x._num, x._den

    @classmethod
    def i(cls) -> CoeffScalar:
        return _I

    # -- structure ---------------------------------------------------------

    @property
    def re(self) -> TowerReal:
        return _scalar({key: x for key, x in self._num.items() if not key[1]}, self._den, TowerReal)

    @property
    def im(self) -> TowerReal:
        return _scalar({(m, 0): x for (m, t), x in self._num.items() if t}, self._den, TowerReal)

    def conj(self) -> CoeffScalar:
        return _new({(m, t): -x if t else x for (m, t), x in self._num.items()}, self._den, type(self))

    def is_real(self) -> bool:
        return not any(t for _, t in self._num)

    def is_rational(self) -> bool:
        return self._num.keys() <= _RATIONAL_KEYS

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num.get(_ONE_KEY, 0), self._den)

    def as_real(self) -> TowerReal:
        if not self.is_real():
            raise ValueError(f"{self} is not real")
        return _as(self, TowerReal)

    def norm(self) -> TowerReal:
        """The real value |self|^2."""
        return _as(self * self.conj(), TowerReal)

    def support_primes(self) -> set[int]:
        primes: set[int] = set()
        for m, _ in self._num:
            if m != 1:
                primes.update(_factorint(m))
        return primes

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cls = _kind(self, other)
        a, b = self._num, other._num
        if not a:
            return _as(other, cls)
        if not b:
            return _as(self, cls)
        da, db = self._den, other._den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        num = {key: x * fa for key, x in a.items()}
        for key, x in b.items():
            num[key] = num.get(key, 0) + x * fb
        return _scalar(num, da * fa, cls)

    __radd__ = __add__

    def __neg__(self):
        return _new({key: -x for key, x in self._num.items()}, self._den, type(self))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cls = _kind(self, other)
        a, b = self._num, other._num
        if not a or not b:
            return _new({}, 1, cls)
        if len(a) == 1 and _ONE_KEY in a:
            c = a[_ONE_KEY]
            num = {key: c * x for key, x in b.items()}
        elif len(b) == 1 and _ONE_KEY in b:
            c = b[_ONE_KEY]
            num = {key: c * x for key, x in a.items()}
        else:
            num = {}
            for ka, x in a.items():
                for kb, y in b.items():
                    key, f = _key_product(ka, kb)
                    num[key] = num.get(key, 0) + f * x * y
        return _scalar(num, self._den * other._den, cls)

    __rmul__ = __mul__

    def inverse(self):
        """Field inverse, via a product of Galois conjugates.

        Lemma.  With i = sqrt(-1), self lies in the multiquadratic field
        Q(i, sqrt(p_1), ..., sqrt(p_k)) of its support primes, whose
        automorphisms flip the signs of the generators independently and
        commute.  For a generator g with automorphism s, y s(y) is fixed by
        s, and by every automorphism fixing y.  So folding y <- y s(y) over
        the generators whose s moves y, from y = self, ends in a y fixed by
        every automorphism, a nonzero rational, and self times the product
        of the factors s(y) taken is that y: their product over y is the
        inverse.  That takes two products per generator."""
        if not self._num:
            raise ZeroDivisionError("scalar zero has no inverse")
        acc, y = _new({_ONE_KEY: 1}, 1, type(self)), self
        for p in (-1, *sorted(self.support_primes())):  # -1 stands for i
            s = _flipped(y, p)
            if s is not None:
                acc, y = s * acc, y * s
        return acc * Fraction(y._den, y._num[_ONE_KEY])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = _new({_ONE_KEY: 1}, 1, type(self))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        """A rational value hashes as its Fraction, so that equal scalars of
        either kind, ints and Fractions find the same dict entries."""
        num = self._num
        if num.keys() <= _RATIONAL_KEYS:
            return hash(Fraction(num.get(_ONE_KEY, 0), self._den))
        return hash((self._den, frozenset(num.items())))

    def __bool__(self):
        return bool(self._num)

    # -- square roots ----------------------------------------------------------

    def sqrt(self) -> CoeffScalar:
        """A complex square root within the tower, or UnsupportedExtension."""
        if not self:
            return CoeffScalar(0)
        if self.is_real():
            r = self.as_real()
            if r.sign() >= 0:
                return CoeffScalar(r.sqrt())
            return CoeffScalar(0, (-r).sqrt())
        re, im = self.re, self.im
        try:
            mod = self.norm().sqrt()
            re_root = ((mod + re) / 2).sqrt()
            im_root = ((mod - re) / 2).sqrt()
        except (UnsupportedExtension, ValueError) as exc:
            raise UnsupportedExtension(f"no tower square root for {self}") from exc
        cand = CoeffScalar(re_root, im_root if im.sign() >= 0 else -im_root)
        if cand * cand != self:
            raise UnsupportedExtension(f"no tower square root for {self}")
        return cand

    # -- display -----------------------------------------------------------------

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        return _coeff_str(sorted(self._num.items()), self._den) if self._num else "0"


class TowerReal(CoeffScalar):
    """Element of Q(sqrt(d_1), ..., sqrt(d_k)) for positive rational d_i:
    a scalar whose row has real keys (m, 0) only."""

    __slots__ = ()

    def __init__(self, terms: dict[int, Fraction] | None = None):
        fracs = {m: Fraction(c) for m, c in (terms or {}).items()}
        den = math.lcm(*(c.denominator for c in fracs.values()))
        canon = _scalar({(m, 0): c.numerator * (den // c.denominator) for m, c in fracs.items()}, den, TowerReal)
        self._num, self._den = canon._num, canon._den

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> TowerReal:
        return _coerce(q if isinstance(q, int) else Fraction(q))

    @classmethod
    def sqrt_rational(cls, q) -> TowerReal:
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("nonnegative rational expected")
        s, m = squarefree_decompose(q.numerator * q.denominator) if q else (0, 1)
        return _scalar({(m, 0): s}, q.denominator, TowerReal)

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self._den
        return {m: Fraction(x, den) for (m, _), x in self._num.items()}

    # The tracer in perfbench spans real inverses apart from complex ones.
    inverse = CoeffScalar.inverse

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided by interval refinement.

        At precision `bits` each sqrt(m) lies in [s, s + 1] / 2^bits with
        s = isqrt(m * 4^bits), so 2^bits * den * self lies in [S + neg, S + pos]
        where S = sum c*s and neg, pos sum the negative and positive numerators.
        """
        num = self._num
        if not num:
            return 0
        if len(num) == 1 and _ONE_KEY in num:
            return 1 if num[_ONE_KEY] > 0 else -1
        neg = sum(c for c in num.values() if c < 0)
        pos = sum(c for c in num.values() if c > 0)
        bits = 16
        while True:
            s = sum(c * math.isqrt(m << 2 * bits) for (m, _), c in num.items())
            if s + neg > 0:
                return 1
            if s + pos < 0:
                return -1
            bits *= 2
            if bits > 1 << 20:  # unreachable for nonzero exact input
                raise RuntimeError("sign refinement failed to terminate")

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __abs__(self) -> TowerReal:
        return -self if self.sign() < 0 else self

    # -- square roots ----------------------------------------------------------

    def sqrt(self) -> TowerReal:
        """Exact nonnegative square root inside a real quadratic tower.

        Rationals always succeed (a new radicand is adjoined if needed);
        irrational inputs succeed exactly when recursive denesting on the
        support primes bottoms out in rational squares.  Inputs whose root
        generates a non-multiquadratic field (e.g. sqrt(2 - sqrt(2))) raise
        UnsupportedExtension.

        Termination.  Let P be the support primes of an input x, p the
        largest, and x = a + b sqrt(p) with a, b in F = Q(sqrt(P - {p})).
        Suppose x = r^2 with r in a multiquadratic field L, taken to contain
        sqrt(p).  Let s be the automorphism of L that fixes F and flips
        sqrt(p).  Every automorphism t of L that fixes x has t(r) = +-r, and
        t commutes with s, so N = r s(r) is fixed by t, and by s: N lies in
        F, and N^2 = x s(x) = a^2 - p b^2.  So disc, the root of a^2 - p b^2,
        is +-N and lies in F, and one outside F proves that x has no root.
        Then the inputs of the recursive calls, a^2 - p b^2 and (a +- disc)/2,
        lie in F, and their support primes are among P - {p}.  So the
        recursion is at most k = |P| deep, and an input with k support primes
        takes at most 1 + 3 + ... + 3^k = (3^(k+1) - 1)/2 calls of `_sqrt`.
        """
        return self._sqrt()

    def _sqrt(self) -> TowerReal:
        s = self.sign()
        if s < 0:
            raise ValueError("square root of negative tower element")
        if s == 0:
            return self
        if self.is_rational():
            return TowerReal.sqrt_rational(self.as_rational())
        primes = self.support_primes()
        p = max(primes)
        num, den = self._num, self._den
        a = _scalar({(m, 0): c for (m, _), c in num.items() if m % p}, den, TowerReal)
        bprime = _scalar({(m // p, 0): c for (m, _), c in num.items() if m % p == 0}, den, TowerReal)
        try:
            # self = a + bprime*sqrt(p); a root C + D*sqrt(p) has C^2 - D^2 p
            # = +-disc in the p-free subfield F (see Termination).
            disc = (a * a - bprime * bprime * p)._sqrt()
            if not disc.support_primes() <= primes - {p}:
                raise UnsupportedExtension(f"no tower square root for {self}")
            c = None
            for chalf in ((a + disc) / 2, (a - disc) / 2):
                if not chalf or chalf.sign() < 0:
                    continue
                try:
                    cand = chalf._sqrt()
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
        root = c + d * _new({(p, 0): 1}, 1, TowerReal)
        if root * root != self:
            raise UnsupportedExtension(f"no tower square root for {self}")
        return abs(root)


def _new(num: dict[_Key, int], den: int, cls=CoeffScalar):
    """A scalar of class cls from a row and den already in canonical form."""
    out = object.__new__(cls)
    out._num = num
    out._den = den
    return out


def _scalar(num: dict[_Key, int], den: int, cls=CoeffScalar):
    """The scalar of class cls with row num over den > 0, brought to
    canonical form: zero numerators dropped and gcd(den, *numerators)
    divided out."""
    if 0 in num.values():
        num = {key: x for key, x in num.items() if x}
    if not num:
        return _new({}, 1, cls)
    g = math.gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {key: x // g for key, x in num.items()}
    return _new(num, den, cls)


def _as(x: CoeffScalar, cls):
    """x as a scalar of class cls, sharing its row."""
    return x if type(x) is cls else _new(x._num, x._den, cls)


def _kind(a: CoeffScalar, b: CoeffScalar):
    """The class of a result of a and b: TowerReal only when both are."""
    return TowerReal if type(a) is TowerReal and type(b) is TowerReal else CoeffScalar


def _flipped(x: CoeffScalar, p: int):
    """The conjugate of x that flips sqrt(p), for a prime p, or i for p = -1;
    None when it fixes x."""
    num = x._num
    moved = [key for key in num if (key[1] if p < 0 else key[0] % p == 0)]
    if not moved:
        return None
    out = dict(num)
    for key in moved:
        out[key] = -out[key]
    return _new(out, x._den, type(x))


def _coerce(x):
    """x itself if it is a scalar, an int or a Fraction as a rational
    TowerReal, and NotImplemented for anything else."""
    if isinstance(x, CoeffScalar):
        return x
    if isinstance(x, int):
        return _new({_ONE_KEY: x} if x else {}, 1, TowerReal)
    if isinstance(x, Fraction):
        return _new({_ONE_KEY: x.numerator} if x else {}, x.denominator, TowerReal)
    return NotImplemented


def scalar(x) -> CoeffScalar:
    """Coerce an int, Fraction, TowerReal or CoeffScalar to CoeffScalar."""
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} to CoeffScalar")
    return _as(out, CoeffScalar)


def _joined(parts: list[str]) -> str:
    """parts joined by "+", but where a part starts with "-"."""
    return parts[0] + "".join(p if p[0] == "-" else "+" + p for p in parts[1:])


def _coeff_str(row: list[tuple[_Key, int]], den: int) -> str:
    """The text of the scalar sum x sqrt(m) i^t / den over the nonzero
    entries ((m, t), x) of row, sorted by key: the real part, then the
    imaginary part as i, -i or (...)*i, each part's terms by increasing m.
    Scalars and polynomial coefficients print with it."""
    re, im = [], []
    for (m, t), x in row:
        g = math.gcd(x, den)
        c = str(x // g) if g == den else f"{x // g}/{den // g}"
        if m != 1:
            c = f"{c[:-1]}sqrt({m})" if c in ("1", "-1") else f"{c}*sqrt({m})"
        (im if t else re).append(c)
    if not im:
        return _joined(re)
    i = _joined(im)
    i = "i" if i == "1" else "-i" if i == "-1" else f"({i})*i"
    return _joined([*re, i]) if re else i


_I = _new({_I_KEY: 1}, 1)
ZERO = CoeffScalar(0)
