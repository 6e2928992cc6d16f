"""The integer polynomial kernel: gcd in Z[x] and Z[i][x], square-free split
and factorisation in Z[x], in deterministic integer arithmetic, after von zur
Gathen & Gerhard, *Modern Computer Algebra* (MCA).  `gaussian_cofactors` is
a modular gcd certified by exact division (MCA 6.38), one loop for Z[x] and
Z[i][x]: real inputs take one image modulo each prime, Gaussian ones the two
images i -> +-sqrt(-1) modulo primes p = 1 (mod 4).  The certifying
divisions (`_zi_quotient`, which returns None on a remainder) yield the
cofactors, the inputs divided by the gcd, so a caller that divides by the
gcd divides nothing again; `gaussian_gcd` is its gcd alone and `gcd` that on
Z[x].  `squarefree` is Yun's algorithm (MCA 14.21) on primitive parts,
written once in `yun` for any ring that supplies its operations,
`squarefree_part` is one gcd and one exact division, and
`factor_squarefree` is Zassenhaus' algorithm (MCA ch. 14-15) with early
factor detection (Abbott, Shoup & Zimmermann, ISSAC 2000; MCA 15.6): the
Hensel factor tree is lifted one quadratic step at a time, each lifted
factor is tried alone by exact division after every step, and the lifting
stops once every factor is proved irreducible, or at Mignotte's bound,
where subsets of the factors left are searched; `factor_squarefree` picks
the prime and `zassenhaus` runs at a given one.  `rational_roots` finds the
rational roots of a square-free f by a Newton (p-adic) lift of its roots
modulo Zassenhaus' prime p, each checked by exact division, and
`real_root_factors` runs Zassenhaus at the same p only when no rational
root is found or their cofactor still has a real root, so the factors that
hold real roots are found without factoring the ones that hold none: the
poly module's real roots (`poly.RealRoots`) isolate on them, and the twist
class (`etatwist.h2_reduce`) reads them off each odd part of a Yun split.
Real roots in Z[x] are counted and isolated by Descartes' rule of signs
with bisection (`line_count`, `column_isolate`, `unit_count`), for the poly
module's real-root entry points.  A polynomial is a list of Python ints in
ascending powers with no trailing zero; modulo m its entries lie in [0, m).
A Gaussian polynomial re + i im is a pair (re, im) of such lists.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, count, zip_longest


def primes():
    """Every prime in increasing order, without end."""
    return (n for n in count(2) if all(n % q for q in range(2, math.isqrt(n) + 1)))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all of _MR_BASES (Sorenson &
# Webster 2015): 399165290221 * 798330580441.
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Trial division by the first 12 primes, then Miller-Rabin to those
    bases, which decides exactly below PSI_12 = 318665857834031151167461
    (about 3.2 * 10^23, far above 2^62); at or beyond it a True is only a
    strong probable prime, and PSI_12 itself is composite yet passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_LARGE_PRIMES: list[int] = []


def large_primes():
    """The primes below 2^62 in decreasing order, each found once per process."""
    for k in count():
        if k == len(_LARGE_PRIMES):
            n = _LARGE_PRIMES[-1] - 2 if _LARGE_PRIMES else (1 << 62) - 1
            while not is_prime(n):
                n -= 2
            _LARGE_PRIMES.append(n)
        yield _LARGE_PRIMES[k]


# -- arithmetic in Z[x] and (Z/m)[x] --------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _reduce(a: list[int], m: int) -> list[int]:
    return _trim([c % m for c in a])


def _add(a: list[int], b: list[int], k: int = 1) -> list[int]:
    """a + k b, untrimmed."""
    return [x + k * y for x, y in zip_longest(a, b, fillvalue=0)]


def mul(a: list[int], b: list[int]) -> list[int]:
    """The product in Z[x]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lead(b) is a unit mod m."""
    r = [c % m for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % m
        if c:
            for j in range(db):
                r[k + j] = (r[k + j] - c * b[j]) % m
    return _trim(q), _trim(r[:db])


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo the prime p; a is nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 modulo p, deg s < deg b and deg t < deg a,
    for a and b coprime modulo the prime p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_add(s0, mul(q, s1), -1), p)
        t0, t1 = t1, _reduce(_add(t0, mul(q, t1), -1), p)
    inv = pow(r0[0], -1, p)
    return _reduce([c * inv for c in s0], p), _reduce([c * inv for c in t0], p)


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z, or None when b does not divide a; a = 0 or deg b <= deg a."""
    r, db = list(a), len(b) - 1
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            return None
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    return None if any(r[:db]) else q


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with positive lead; a is nonzero."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


# -- Descartes' rule: real roots of rational polynomials on integer lists -----------


def _shift(a: list[int], c: int = 1) -> list[int]:
    """a(x + c) by Horner's scheme: pass k replaces the top k entries of a
    by their running sums from the top weighted by c, s_j = a_j + c s_(j+1),
    for k = n + 1 down to 2.  A negative c shifts a(-x) by -c."""
    if c <= 0:
        return _reflect(_shift(_reflect(a), -c)) if c else list(a)
    b = a[::-1]
    step = operator.add if c == 1 else lambda acc, x: acc * c + x
    for k in range(len(b), 1, -1):
        b[:k] = accumulate(b[:k], step)
    return b[::-1]


def _scale(a: list[int], c: int, d: int) -> list[int]:
    """d^n a(c x / d) for n = len(a) - 1: entry k times c^k d^(n-k)."""
    n = len(a) - 1
    if c == 1 and d == 2:
        return [x << (n - k) for k, x in enumerate(a)]
    cs, ds = [1], [1]
    for _ in range(n):
        cs.append(cs[-1] * c)
        ds.append(ds[-1] * d)
    return [x * cs[k] * ds[n - k] for k, x in enumerate(a)]


def _reflect(a: list[int]) -> list[int]:
    """a(-x)."""
    return [-x if k & 1 else x for k, x in enumerate(a)]


def on_unit(s: list[int], lo: Fraction, hi: Fraction) -> list[int]:
    """A positive multiple of s(lo + (hi - lo) t), whose roots in (0, 1)
    are those of s in (lo, hi).  With m = (hi - lo) / r and lo / (hi - lo)
    = p / r in lowest terms, lo + (hi - lo) t = m (p + r t): s is scaled by
    m, shifted by the integer p (-1 on the symmetric (-b, b)) and scaled by
    r, so the shift multiplies by no large number."""
    w = hi - lo
    pr = lo / w
    m = w / pr.denominator
    return _scale(_shift(_scale(s, m.numerator, m.denominator), pr.numerator), pr.denominator, 1)


def _descartes(q: list[int]) -> int:
    """Descartes' bound V of q on (0, 1): the sign variations of
    Q(y) = (1 + y)^n q(1 / (1 + y)), n = len(q) - 1, the Taylor shift by 1
    of q reversed.  y -> 1 / (1 + y) maps (0, inf) onto (0, 1), so the
    positive roots of Q are the roots of q in (0, 1).

    Lemma.  For a square-free q, V is at least the number N of roots of q
    in (0, 1), and V = N (mod 2); so V <= 1 is N exactly.  This is
    Descartes' rule of signs for Q, whose positive roots are simple as q is
    square-free: they number at most V, and V is odd exactly when Q's
    lowest and highest nonzero entries differ in sign, that is when Q has
    an odd number of positive roots.  A root of q at 1 is a factor y of Q,
    and a root at 0 (or a zero top entry) lowers the degree of Q; neither
    adds a variation, so q may have them.
    """
    return _variations(_shift(q[::-1]))


def _variations(a: list[int]) -> int:
    signs = [x > 0 for x in a if x]
    return sum(map(operator.ne, signs, signs[1:]))


def unit_count(q: list[int]) -> int:
    """The number of roots in (0, 1) of a square-free q in Z[x]: Vincent-
    Collins-Akritas bisection (Collins & Akritas, SYMSAC 1976) in the
    integer form of Rouillier & Zimmermann (J. Comput. Appl. Math. 162,
    2004).  A q with `_descartes` bound V <= 1 has V roots there; any other
    is split into its halves, the left one 2^n q(x / 2) and the right one
    its Taylor shift by 1, 2^n q((x + 1) / 2), each on (0, 1) again.  A
    root at the midpoint 1/2 is a zero constant entry of the right half,
    counted once; it is an end of both halves, where V does not see it.

    Termination, by the two-circle theorem (Alesina & Galuzzi 1998;
    Krandick & Mehlhorn 2006): V = 0 on an interval (a, b) when the open
    disc with diameter (a, b) holds no root, and V = 1 when the union of
    the two open discs circumscribing the equilateral triangles on (a, b)
    holds exactly one root.  That union contains the disc and lies within
    (b - a) sqrt(3) / 2 of the midpoint, and it is symmetric about the real
    line.  So once b - a is below sep / sqrt(3), sep the least distance
    between two roots of q, the union holds at most one root, which is then
    real: every interval has V <= 1.  Halving reaches that width after
    finitely many levels.
    """
    count, todo = 0, [q]
    while todo:
        q = todo.pop()
        v = _descartes(q)
        if v <= 1:
            count += v
            continue
        left = _scale(q, 1, 2)
        right = _shift(left)
        count += not right[0]
        todo += (left, right)
    return count


def line_count(s: list[int]) -> int:
    """The number of real roots of a square-free s in Z[x] of positive
    degree: for q = s and q = s(-x), the roots of q in (0, 1), those in
    (1, inf) as the roots in (0, 1) of x^n q(1 / x), and 1; plus 0."""
    return sum(unit_count(q) + unit_count(q[::-1]) + (not sum(q)) for q in (s, _reflect(s))) + (not s[0])


def column_isolate(s: list[int], b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """isolate_real_roots_poly for a square-free s in Z[x] of positive
    degree whose real roots lie in (-b, b).

    The intervals are those of the exact-count tree on (-b, b): it splits
    an interval that holds two or more roots at its midpoint, moved halfway
    to the upper end while it is a root, and reports an interval that holds
    one.  This tree makes the same splits; a node's count is its
    `_descartes` bound V when V <= 1, and otherwise the sum of its
    children's counts (no split point is a root).  A node with count >= 2
    has V >= 2 and is split in both trees, so the exact-count tree is this
    tree cut at its topmost nodes of count 1, which are reported: from each
    leaf with V = 1, the last node of count 1 on its way up (counts only
    grow from child to parent).  The root's count is taken first over the whole
    line, on the small entries of s: with 0 or 1 roots no transform of s
    onto (-b, b), whose entries carry b's digits n times, is made.
    """
    total = line_count(s)
    if total <= 1:
        return [(-b, b)] * total
    nodes: list[list] = []  # [lo, hi, parent, count]
    leaves = []
    todo = [(-b, b, on_unit(s, -b, b), -1)]
    while todo:
        lo, hi, q, parent = todo.pop()
        v = _descartes(q)
        if not v:
            continue
        k = len(nodes)
        nodes.append([lo, hi, parent, 0])
        if v == 1:
            leaves.append(k)
            while k >= 0:
                nodes[k][3] += 1
                k = nodes[k][2]
            continue
        mid, left = (lo + hi) / 2, _scale(q, 1, 2)
        right, j = _shift(left), 1
        while not right[0]:  # mid is a root: the right half of the right half
            mid, j = (mid + hi) / 2, j + 1
            right = _shift(_scale(right, 1, 2))
            left = _scale(q, (1 << j) - 1, 1 << j)
        todo += [(mid, hi, right, k), (lo, mid, left, k)]
    out = []
    for k in leaves:
        while (up := nodes[k][2]) >= 0 and nodes[up][3] == 1:
            k = up
        out.append((nodes[k][0], nodes[k][1]))
    return sorted(out)


# -- the modular gcd over Z and Z[i] -----------------------------------------------------


_SQRT_MINUS_ONE: dict[int, int] = {}


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4), found once per
    prime: c^((p-1)/4) for the least quadratic non-residue c."""
    r = _SQRT_MINUS_ONE.get(p)
    if r is None:
        c = next(c for c in count(2) if pow(c, p >> 1, p) == p - 1)
        r = _SQRT_MINUS_ONE[p] = pow(c, p >> 2, p)
    return r


def _zi_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd in Z[i] of two Gaussian integers given as pairs (re, im):
    Euclid's algorithm with quotients rounded to the nearest Gaussian
    integer, so each remainder has at most half the norm of the divisor."""
    if not (a[1] or b[1]):
        return math.gcd(a[0], b[0]), 0
    while b[0] or b[1]:
        (x, y), (u, v) = a, b
        n = u * u + v * v
        s, t = x * u + y * v, y * u - x * v  # a * conj(b) = (a / b) * n
        q, w = (2 * s + n) // (2 * n), (2 * t + n) // (2 * n)
        a, b = b, (x - q * u + w * v, y - q * v - w * u)
    return a


def _zi_primitive(re: list[int], im: list[int]) -> tuple[list[int], list[int]]:
    """re + i im divided by its content in Z[i], times the unit that puts
    its lead at re > 0, im >= 0.  im is empty or as long as re; with im
    empty this is `_primitive`."""
    if not im:
        return _primitive(re), []
    g = math.gcd(*re, *im)
    if g != 1:
        re, im = [x // g for x in re], [y // g for y in im]
    c = (0, 0)
    for z in zip(re, im):
        c = _zi_gcd(z, c)
        if c[0] * c[0] + c[1] * c[1] == 1:
            break
    else:  # divide by c = a + bi: times (a - bi) / (a^2 + b^2)
        a, b = c
        n = a * a + b * b
        re, im = [(x * a + y * b) // n for x, y in zip(re, im)], [(y * a - x * b) // n for x, y in zip(re, im)]
    a, b = re[-1], im[-1]
    if a > 0 and b >= 0:
        return re, im
    if a < 0 and b <= 0:
        return [-x for x in re], [-y for y in im]
    if b > 0:  # times -i
        return im, [-x for x in re]
    return [-y for y in im], re  # times i


def _zi_quotient(f, c) -> tuple[list[int], list[int]] | None:
    """f / c in Z[i][x] as a pair (re, im), or None when c does not divide
    f: long division in which every quotient coefficient must be an exact
    Gaussian quotient; deg c <= deg f, and im is empty when f and c are
    real."""
    (fr, fi), (cr, ci) = f, c
    if not (fi or ci):
        q = _exact_quotient(fr, cr)
        return None if q is None else (q, [])
    rr, ri, ci = list(fr), list(fi) or [0] * len(fr), ci or [0] * len(cr)
    n, a, b = len(cr) - 1, cr[-1], ci[-1]
    norm = a * a + b * b
    qr, qi = [0] * (len(rr) - n), [0] * (len(rr) - n)
    for k in range(len(rr) - 1 - n, -1, -1):
        x, y = rr[k + n], ri[k + n]
        (q, s), (w, t) = divmod(x * a + y * b, norm), divmod(y * a - x * b, norm)
        if s or t:
            return None
        qr[k], qi[k] = q, w
        for j in range(n):
            rr[k + j] -= q * cr[j] - w * ci[j]
            ri[k + j] -= q * ci[j] + w * cr[j]
    return None if any(rr[:n]) or any(ri[:n]) else (qr, qi)


def _content_free(re, im) -> tuple[int, list[int], list[int]]:
    """(g, re / g, im / g) for g the gcd of the integer entries of re + i im,
    as lists of one length, im left empty when it is zero."""
    g = math.gcd(*re, *im)
    if not any(im):
        return g, (re if g == 1 else [x // g for x in re]), []
    n = max(len(re), len(im))
    return g, [x // g for x in re] + [0] * (n - len(re)), [y // g for y in im] + [0] * (n - len(im))


def _image_gcd(fs, rho: int, p: int) -> list[int] | None:
    """The monic gcd modulo p of the images of fs under i -> rho, folded
    from the first; None when a lead vanishes there."""
    g = None
    for re, im in fs:
        f = [(x + rho * y) % p for x, y in zip(re, im)] if im else [x % p for x in re]
        if not f[-1]:
            return None
        g = f if g is None else _gcd(f, g, p)
        if len(g) == 1:
            break
    return g


def gcd(*fs: list[int]) -> list[int]:
    """The gcd in Z[x] of integer polynomials, not all zero, primitive with
    positive lead: `gaussian_gcd` on real inputs."""
    return gaussian_gcd(*((f, ()) for f in fs))[0]


def gaussian_gcd(*fs) -> tuple[list[int], list[int]]:
    """The gcd in Z[i][x] of Gaussian integer polynomials, not all zero,
    each a pair (re, im) of integer lists for re + i im: the gcd of
    `gaussian_cofactors`."""
    return gaussian_cofactors(*fs)[0]


def gaussian_cofactors(*fs) -> tuple[tuple[list[int], list[int]], list]:
    """(G, [f / G for each input f, in input order]) for Gaussian integer
    polynomials f, not all zero, each a pair (re, im) of integer lists for
    re + i im.  G is their gcd in Z[i][x], found by a modular gcd certified
    by exact division (MCA 6.38) and returned as `_zi_primitive` makes it,
    with im empty when every input is real.  The quotients are those of the
    divisions that certify G, each of an input divided by its integer
    content, times that content; with G = 1 they are the inputs as given,
    and a zero input has quotient 0.

    Let F_1, ..., F_k be the inputs divided by their integer contents,
    G their gcd, primitive over Z[i], and l a gcd in Z[i] of their leads.
    Z[i] is a UFD, so by Gauss' lemma G divides every F_j over Z[i], and
    lead(G) divides l.  When every input is real, G and l lie in Z and each
    prime p of `large_primes` gives one image, the reduction modulo p.
    Otherwise only primes p = 1 (mod 4) are used: p splits in Z[i], and
    Z[i]/p is F_p x F_p through the two images i -> r and i -> -r, where
    r = `_sqrt_minus_one(p)`, so a Gaussian integer u + i v modulo p is
    read back from its images a, b as u = (a + b)/2, v = (a - b)/(2r).

    A prime is skipped when a lead of an F_j vanishes in an image.  In each
    image the monic gcd of the F_j, folded over them, is a multiple of the
    image of G, so its degree bounds deg G from above, and an image of
    degree 0 proves G = 1.  A prime whose two images differ in degree is
    skipped.  Images of the least degree seen so far are scaled by the
    images of l and joined by the Chinese remainder theorem (a lower degree
    starts the join again, a higher one is discarded), and after each prime
    the primitive part C of the symmetric residue is tried: if C divides
    every F_j over Z[i] then C divides G, and deg C >= deg G, so C is G up
    to a unit.

    The search ends.  The H_j = F_j/G have gcd 1, so some Z[i][x]
    combination of them is a nonzero D in Z[i] (a resultant for k = 2).  An
    image is unlucky (of degree above deg G) only if its Gaussian prime
    divides D, and a prime is skipped only if one divides a lead of an F_j:
    finitely many primes in all.  Every other prime gives the image of
    l / lead(G) G in Z[i]/p, so once the product of those primes exceeds
    twice the largest real or imaginary part of l / lead(G) G, C is G.
    """
    n, coprime = len(fs), (([1], []), list(fs))
    parts = sorted(((k, *_content_free(re, im)) for k, (re, im) in enumerate(fs) if re or im),
                   key=lambda part: len(part[2]))
    fs = [(re, im) for _, _, re, im in parts]
    if len(fs) == 1:
        return _divide_all(parts, n, _zi_primitive(*fs[0]))
    if len(fs[0][0]) == 1:
        return coprime
    gaussian = any(im for _, im in fs)
    lead = reduce(_zi_gcd, ((re[-1], im[-1] if im else 0) for re, im in fs))
    image, m = None, 1
    for p in large_primes():
        if gaussian and p % 4 != 1:
            continue
        roots = ((r := _sqrt_minus_one(p)), p - r) if gaussian else (0,)
        images = []
        for rho in roots:
            g = _image_gcd(fs, rho, p)
            if g is None:
                break
            if len(g) == 1:
                return coprime
            l = (lead[0] + rho * lead[1]) % p
            images.append([c * l % p for c in g])
        if len(images) < len(roots) or len(images[0]) != len(images[-1]):
            continue
        if gaussian:
            half = (p + 1) >> 1
            g = ([(x + y) * half % p for x, y in zip(*images)], [(y - x) * r * half % p for x, y in zip(*images)])
        else:
            g = (images[0], [])
        if image is None or len(g[0]) < len(image[0]):
            image, m = g, p
        elif len(g[0]) > len(image[0]):
            continue
        else:
            u = pow(m, -1, p)
            image = tuple([x + m * ((y - x) * u % p) for x, y in zip(old, new)] for old, new in zip(image, g))
            m *= p
        c = _zi_primitive(*([x - m if 2 * x > m else x for x in col] for col in image))
        found = _divide_all(parts, n, c)
        if found:
            return found


def _divide_all(parts, n: int, c):
    """(c, quotients) when c divides every content-free input (k, g, re, im)
    of parts, with the quotient of input k times its content g at place k of
    n (zero elsewhere); None at the first input c does not divide."""
    out = [([], [])] * n
    for k, g, re, im in parts:
        q = _zi_quotient((re, im), c)
        if q is None:
            return None
        out[k] = q if g == 1 else ([x * g for x in q[0]], [y * g for y in q[1]])
    return c, out


def yun(f, derivative, sub, gcd, quo) -> list:
    """Yun's square-free split (MCA 14.21) over any ring of polynomials in
    characteristic 0, given its derivative, difference, normalised gcd and
    exact quotient: [(f_k, k)] for the nonconstant f_k with
    f = c prod f_k^k, the f_k square-free, pairwise coprime and normalised
    as `gcd` normalises, which f of positive degree must already be.

    With g = gcd(f, f'), w = f / g and y = f' / g, step k starts from
    w = prod_{j>=k} f_j and y - w' = f_k sum_{j>k} (j - k) f_j' prod_{i>k, i!=j} f_i,
    up to one constant, so gcd(w, y - w') = f_k: the sum is prime to every
    f_j with j > k, as they are square-free and pairwise coprime.  Dividing
    f_k out of w and y - w' gives the same shape for k + 1.  Over Z the f_k
    are primitive, so by Gauss' lemma every quotient stays integral.
    """
    d = derivative(f)
    g = gcd(f, d)
    if not derivative(g):
        return [(f, 1)]
    w, y = quo(f, g), quo(d, g)
    out = []
    k = 1
    while dw := derivative(w):
        z = sub(y, dw)
        h = gcd(w, z)
        if derivative(h):
            out.append((h, k))
            w, y = quo(w, h), quo(z, h)
        else:
            y = z
        k += 1
    return out


def _derivative(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's split of a nonconstant f in Z[x]: [(f_k, k)] with
    f = +-content(f) prod f_k^k and every f_k primitive with positive lead."""
    return yun(_primitive(f), _derivative, lambda a, b: _trim(_add(a, b, -1)), gcd, _exact_quotient)


def squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a nonconstant f in Z[x]: one `gcd`, then one exact
    division (the gcd is primitive, so by Gauss' lemma the quotient is
    integral); it has the roots of f, each once."""
    g = gcd(f, _derivative(f))
    return f if len(g) == 1 else _exact_quotient(f, g)


# -- the three stages ----------------------------------------------------------------


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors modulo p of a monic f that is
    square-free modulo the prime p (MCA 14.8, Berlekamp).

    g = sum g_i x^i has g^p = g mod f iff sum g_i (x^(ip) mod f) = g: the
    kernel of Q - I, with x^(ip) mod f as row i of Q.  Its dimension is the
    number r of irreducible factors, and any two of them are separated by
    gcd(u, g - s) for some kernel element g and some s in F_p, so splitting
    every factor u by every basis element and every s finds all r, and
    the splitting stops as soon as it holds r factors.
    """
    n = len(f) - 1
    xp = [1]
    for _ in range(p):
        xp = _divmod([0] + xp, f, p)[1]
    q_rows, row = [], [1]
    for _ in range(n):
        q_rows.append(row + [0] * (n - len(row)))
        row = _divmod(mul(row, xp), f, p)[1]
    basis = _kernel([[(q_rows[i][j] - (i == j)) % p for i in range(n)] for j in range(n)], p)
    r, factors = len(basis), [f]
    for v in basis[1:]:  # basis[0] is the constant 1, which splits nothing
        if len(factors) == r:
            break
        split = []
        for k, u in enumerate(factors):
            for s in range(p):
                if len(u) <= 2 or len(split) + len(factors) - k == r:  # u and factors[k + 1:] are irreducible
                    break
                g = _gcd(u, _reduce([v[0] - s] + v[1:], p), p)
                if 1 < len(g) < len(u):
                    split.append(g)
                    u = _divmod(u, g, p)[0]
            split.append(u)
        factors = split
    return factors


def _kernel(rows: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {v : rows v = 0} modulo the prime p for a square matrix by
    Gauss-Jordan elimination, one vector per free column in increasing order."""
    n = len(rows)
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        k = next((i for i in range(r, n) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        pivot = rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, pivot)]
        pivots.append(c)
    basis = []
    for c in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[c] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][c] % p
        basis.append(_trim(v))
    return basis


def _hensel_step(m: int, f, g, h, s, t) -> tuple[list[int], list[int]]:
    """MCA 15.10, the factors: from f = g h and s g + t h = 1 modulo m, with
    h monic, deg s < deg h and deg t < deg g, g and h with f = g h modulo
    m^2, h still monic of the same degree."""
    m2 = m * m
    e = _reduce(_add(f, mul(g, h), -1), m2)
    q, r = _divmod(mul(s, e), h, m2)
    return _reduce(_add(_add(g, mul(t, e)), mul(q, g)), m2), _reduce(_add(h, r), m2)


def _bezout_step(m: int, g, h, s, t) -> tuple[list[int], list[int]]:
    """MCA 15.10, the Bezout pair: from s g + t h = 1 modulo m, with g and h
    given modulo m^2 and h monic, s and t with the same relation and degree
    bounds modulo m^2."""
    m2 = m * m
    b = _reduce(_add(_add(mul(s, g), mul(t, h)), [1], -1), m2)
    c, d = _divmod(mul(s, b), h, m2)
    return _reduce(_add(s, d, -1), m2), _reduce(_add(_add(t, mul(t, b), -1), mul(c, g), -1), m2)


def _factor_tree(p: int, lead: int, factors: list[list[int]]):
    """The factor tree of MCA 15.17 over monic factors modulo p, pairwise
    coprime: None for one factor, else a node [g, h, s, t, left, right]
    with g = lead times the product of the first half, h the product of
    the second, s g + t h = 1 modulo p, and the trees of the two halves
    (the first under lead, the second under 1)."""
    if len(factors) == 1:
        return None
    half = len(factors) // 2
    g = _reduce(reduce(mul, factors[:half], [lead]), p)
    h = _reduce(reduce(mul, factors[half:]), p)
    return [g, h, *_gcdex(g, h, p), _factor_tree(p, lead, factors[:half]), _factor_tree(p, 1, factors[half:])]


def _lift_tree(node, f: list[int], q: int, m: int, leaves: list[list[int]]) -> None:
    """One quadratic step of a factor tree: each node's f = g h modulo m
    becomes f = g h modulo m^2, top down, where f is the node's polynomial
    modulo m^2 (the integer f at the root, its parent's new g or h below);
    the leaves, made monic modulo m^2, are appended to leaves in order.

    Each node's s g + t h = 1 holds modulo q, with q = m at the first step
    and q^2 = m after it: s and t are brought up to m at the start of the
    step that needs them, so the last step lifts g and h alone.
    """
    if node is None:
        m2 = m * m
        leaves.append(f if f[-1] == 1 else _reduce([c * pow(f[-1], -1, m2) for c in f], m2))
        return
    g, h, s, t, left, right = node
    if q != m:
        s, t = _bezout_step(q, g, h, s, t)
    g, h = _hensel_step(m, f, g, h, s, t)
    node[:4] = g, h, s, t
    _lift_tree(left, g, q, m, leaves)
    _lift_tree(right, h, q, m, leaves)


def _trial(f: list[int], us: list[list[int]], m: int) -> tuple[list[int], list[int]] | None:
    """(G, f / G) for G the primitive part of lead(f) prod us in symmetric
    residues modulo m, when G divides f over Z; None otherwise.

    A constant-term test comes first.  When the residue is lead(f)/lead(G) G
    for a factor G of f, its constant term divides lead(f) f(0), so a
    residue whose constant term does not is no such product.  Above the
    bound of `factor_squarefree` every factor has that residue, so the test
    rejects none; below it a factor's residue may be another, and a
    rejection only leaves the factor to a larger modulus.
    """
    lead, tail = f[-1], f[0]
    if tail:
        c = lead
        for u in us:
            c = c * u[0] % m
        c = c - m if 2 * c > m else c
        if not c or lead * tail % c:
            return None
    g = [lead]
    for u in us:
        g = _reduce(mul(g, u), m)
    g = _primitive([c - m if 2 * c > m else c for c in g])
    q = _exact_quotient(f, g)
    return None if q is None else (g, q)


def _recombine(f: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """The irreducible factors over Z of a primitive f from its monic
    factors modulo m > 2 |lead(f)| 2^deg(f) ||f||_2 (MCA 15.19, with exact
    division in place of the norm test): subsets of the lifted factors in
    increasing size, each tried by `_trial`.

    No factor is missed.  For a factor G of f whose image is the subset S,
    lead(f) prod_S u_i is lead(f)/lead(G) G modulo m, whose coefficients lie
    below m/2 (`factor_squarefree`), so the trial finds G.  A found G is
    irreducible: a factor of G of positive degree would have a smaller
    subset as its image, tried before G while it divided the cofactor.  The
    cofactor left when every subset of at most half of the remaining
    factors has failed is irreducible: one side of a splitting would be one.
    """
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            hit = _trial(f, [lifted[i] for i in subset], m)
            if hit:
                g, f = hit
                found.append(g)
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def suitable_prime(f: list[int]) -> tuple[int, list[int]]:
    """The least prime p that divides neither lead(f) nor, through f mod p
    failing to be square-free, the discriminant of f; with f mod p made monic.

    f is square-free over Q, so disc(f) != 0 and lead(f) disc(f) is a
    nonzero integer with finitely many prime divisors.  Every other prime
    leaves f mod p of full degree and square-free, so the search ends.
    """
    for p in primes():
        if f[-1] % p:
            fp = _monic(_reduce(f, p), p)
            if len(_gcd(fp, _reduce(_derivative(fp), p), p)) == 1:
                return p, fp


def factor_squarefree(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive square-free f of
    positive degree and positive lead, each primitive with positive lead:
    `zassenhaus` at p = `suitable_prime(f)`."""
    return zassenhaus(f, suitable_prime(f)[0])


def zassenhaus(f: list[int], p: int) -> list[list[int]]:
    """`factor_squarefree` of f at a prime p that divides neither lead(f)
    nor, through f mod p failing to be square-free, disc(f).

    f is factored modulo p by Berlekamp, the factor
    tree of its modular factors is built once, and the tree is lifted one
    quadratic step at a time (`_lift_tree`), giving monic u_1, ..., u_r with
    f = lead(f) prod u_i modulo m = p^2, p^4, ...  F is the cofactor of the
    factors found so far, and the u_i of F are those whose images are not
    yet taken: for f = G F over Z, lead(G) and lead(F) divide lead(f) and
    are prime to p, so the monic lifts of the images of G and F multiply to
    a lift of the same modular factorisation, and Hensel lifts are unique
    (MCA ch. 15).  After each step every u_i of F is tried alone
    (`_trial`).  Three rules hold at any modulus:

    1. A trial G that divides F over Z is a factor of f.
    2. That G is irreducible.  lead(F) u_i = k G modulo m, k the content of
       the residue, whose lead is lead(F) modulo p, so p divides neither k
       nor lead(G): G modulo p is a unit times u_i modulo p, irreducible in
       F_p[x].  A splitting of the primitive G would have two factors of
       positive degree, whose images would split it there.
    3. F is irreducible when one u_i is left, by the argument of rule 2, or
       when the search of `_recombine` over subsets of at most half of its
       u_i is complete at m > 2 |lead(F)| 2^deg(F) ||F||_2.  Such an m
       exceeds twice the coefficients of lead(F)/lead(G) G for every factor
       G of F, by Mignotte's bound ||G||_1 <= 2^deg(G) |lead(G)/lead(F)| ||F||_2.

    The lifting stops at the first m above that bound, which shrinks with
    F; there `_recombine` searches all subsets.  One modular factor proves
    f irreducible before any lifting.
    """
    modular = _berlekamp(_monic(_reduce(f, p), p), p)
    tree = _factor_tree(p, f[-1], modular)
    found, cofactor, alive, lifted, q, m = [], f, list(range(len(modular))), modular, p, p
    while len(alive) > 1:
        if m > 2 * cofactor[-1] * 2 ** (len(cofactor) - 1) * (math.isqrt(sum(c * c for c in cofactor)) + 1):
            return found + _recombine(cofactor, [lifted[i] for i in alive], m)
        lifted = []
        _lift_tree(tree, f, q, m, lifted)
        q, m = m, m * m
        for i in list(alive):
            if len(alive) > 1 and (hit := _trial(cofactor, [lifted[i]], m)):
                g, cofactor = hit
                found.append(g)
                alive.remove(i)
    return found + [cofactor]


# -- rational roots first ------------------------------------------------------------


def _value(f: list[int], x: int, m: int) -> int:
    """f(x) modulo m by Horner's scheme."""
    v = 0
    for c in reversed(f):
        v = (v * x + c) % m
    return v


def rational_roots(f: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """(linear, rest) for a primitive square-free f in Z[x] of positive
    degree and positive lead L, and a prime p that divides neither L nor,
    through f mod p failing to be square-free, disc(f): linear holds the
    factor b x - a of each rational root a/b of f, in lowest terms with
    b > 0, and rest is f divided by all of them.

    The roots r of f mod p are found by evaluating f at 0, ..., p - 1.  Each
    is lifted by Newton's method, r <- r - f(r) / f'(r) modulo m^2 from a
    root modulo m, until m > 2 (|L| + max |f_i|), and c = L r is read as a
    symmetric residue modulo m.  c / L is kept when its factor b x - a
    divides the cofactor exactly over Z.

    Lemma.  Every rational root is found, and every kept one is a root.
    - A root a/b in lowest terms has b | L, by the rational root theorem,
      so p does not divide b and a/b mod p is a root of f mod p.
    - f mod p keeps its degree and is square-free, so that root is simple:
      f'(r) is a unit modulo p.  By Hensel's lemma a simple root r modulo p
      lifts to exactly one root modulo each power of p that is r modulo p,
      and Newton's steps reach it, so the lift of r is a/b modulo m, and
      L r = L a/b modulo m.
    - L a/b is an integer, and by Cauchy's bound |a/b| < 1 + max |f_i| / |L|
      it lies below |L| + max |f_i| < m/2 in absolute value: it is c.
    - b x - a is primitive, so by Gauss' lemma it divides the cofactor over
      Z exactly when a/b is a root of it, and the roots of f are distinct,
      so every rational root's factor divides, and a kept c/L is a root.
    """
    lead, df = f[-1], _derivative(f)
    bound = 2 * (lead + max(map(abs, f)))
    linear, rest = [], f
    for r in range(p):
        if _value(f, r, p):
            continue
        m = p
        while m <= bound:
            m *= m
            r = (r - _value(f, r, m) * pow(_value(df, r, m), -1, m)) % m
        c = lead * r % m
        c = c - m if 2 * c > m else c
        g = math.gcd(c, lead)
        factor = [-c // g, lead // g]
        q = _exact_quotient(rest, factor)
        if q is not None:
            linear.append(factor)
            rest = q
    return linear, rest


def real_root_factors(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive square-free f in Z[x] of positive
    degree, each primitive with positive lead, among them every factor of f
    with a real root.

    f is oriented to a positive lead, and p = `suitable_prime(f)` serves
    both stages.  The rational roots give the linear factors
    (`rational_roots`).  With none, `zassenhaus` factors f at p.  Otherwise
    it factors their cofactor at p only when the cofactor has a real root
    (`line_count`), and a cofactor without one is left out.  The cofactor's
    lead divides L and its image modulo p divides f mod p, so p is suitable
    for it too.  By unique factorisation the factors are those of
    `factor_squarefree(f)`, less the ones left out, which have no real root.
    """
    if f[-1] < 0:
        f = [-c for c in f]
    p = suitable_prime(f)[0]
    linear, rest = rational_roots(f, p)
    if len(rest) == 1 or linear and not line_count(rest):
        return linear
    return linear + zassenhaus(rest, p)
