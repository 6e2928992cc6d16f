"""Factorisation of square-free integer polynomials by Zassenhaus' algorithm,
as in von zur Gathen & Gerhard, *Modern Computer Algebra* (MCA), ch. 14-15,
in deterministic integer arithmetic.  A polynomial is a list of Python ints
in ascending powers with no trailing zero; modulo m its entries lie in
[0, m).
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, count, zip_longest


def primes():
    """Every prime in increasing order, without end."""
    return (n for n in count(2) if all(n % q for q in range(2, math.isqrt(n) + 1)))


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
    """a / b over Z for deg b <= deg a, or None when b does not divide a."""
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


# -- the three stages ----------------------------------------------------------------


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors modulo p of a monic f that is
    square-free modulo the prime p (MCA 14.8, Berlekamp).

    g = sum g_i x^i has g^p = g mod f iff sum g_i (x^(ip) mod f) = g: the
    kernel of Q - I, with x^(ip) mod f as row i of Q.  Its dimension is the
    number r of irreducible factors, and any two of them are separated by
    gcd(u, g - s) for some kernel element g and some s in F_p, so splitting
    every factor u by every basis element and every s finds all r.
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
    factors = [f]
    for v in basis[1:]:  # basis[0] is the constant 1, which splits nothing
        if len(factors) == len(basis):
            break
        split = []
        for u in factors:
            for s in range(p):
                if len(u) <= 2:
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


def _hensel_step(m: int, f, g, h, s, t):
    """MCA 15.10: from f = g h and s g + t h = 1 modulo m, with h monic,
    deg s < deg h and deg t < deg g, the same relations modulo m^2."""
    m2 = m * m
    e = _reduce(_add(f, mul(g, h), -1), m2)
    q, r = _divmod(mul(s, e), h, m2)
    g = _reduce(_add(_add(g, mul(t, e)), mul(q, g)), m2)
    h = _reduce(_add(h, r), m2)
    b = _reduce(_add(_add(mul(s, g), mul(t, h)), [1], -1), m2)
    c, d = _divmod(mul(s, b), h, m2)
    s = _reduce(_add(s, d, -1), m2)
    t = _reduce(_add(_add(t, mul(t, b), -1), mul(c, g), -1), m2)
    return g, h, s, t


def _hensel_lift(p: int, f: list[int], factors: list[list[int]], k: int) -> list[list[int]]:
    """MCA 15.17: monic F_i modulo p^(2^k) with f = lead(f) prod F_i, from
    the monic factors F_i modulo p of f, pairwise coprime modulo p.

    The factors are split into two halves g = lead(f) prod(first half) and
    h = prod(second half), the pair is lifted by k quadratic Hensel steps,
    and each half is lifted again against its own product.
    """
    if len(factors) == 1:
        m = p ** (1 << k)
        return [_reduce([c * pow(f[-1], -1, m) for c in f], m)]
    half = len(factors) // 2
    g = _reduce(reduce(mul, factors[:half], [f[-1]]), p)
    h = _reduce(reduce(mul, factors[half:]), p)
    s, t = _gcdex(g, h, p)
    for i in range(k):
        g, h, s, t = _hensel_step(p ** (1 << i), f, g, h, s, t)
    return _hensel_lift(p, g, factors[:half], k) + _hensel_lift(p, h, factors[half:], k)


def _recombine(f: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """The irreducible factors over Z of f, from its monic factors modulo m
    (MCA 15.19, with exact division in place of the norm test).

    Subsets of the lifted factors are tried in increasing size: lead(f)
    times their product, in symmetric residues and made primitive, is a
    factor exactly when it divides f over Z.  For a true factor G with the
    subset as its image, that product is lead(f)/lead(G) G, with
    coefficients below m/2 (`factor_squarefree`), so no factor is missed.
    The cofactor left when every subset of at most half of the remaining
    factors has failed is irreducible: one side of a splitting would be one.
    """
    found = []
    size = 1
    while 2 * size <= len(lifted):
        lead, tail = f[-1], f[0]
        for subset in combinations(range(len(lifted)), size):
            if tail:
                # the constant term of a factor divides lead(f) f(0)
                c = lead
                for i in subset:
                    c = c * lifted[i][0] % m
                c = c - m if 2 * c > m else c
                if not c or lead * tail % c:
                    continue
            g = [lead]
            for i in subset:
                g = _reduce(mul(g, lifted[i]), m)
            g = [c - m if 2 * c > m else c for c in g]
            content = math.gcd(*g)
            g = [c // content for c in g]
            q = _exact_quotient(f, g)
            if q is not None:
                found.append(g)
                f = q
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
            if len(_gcd(fp, _reduce([k * c for k, c in enumerate(fp)][1:], p), p)) == 1:
                return p, fp


def factor_squarefree(f: list[int]) -> list[list[int]]:
    """The irreducible factors over Z of a primitive square-free f of
    positive degree and positive lead, each primitive with positive lead.

    f is factored modulo p = `suitable_prime(f)` by Berlekamp; one modular
    factor proves f irreducible.  Otherwise the factors are lifted to
    p^(2^k) > 2 |lead(f)| 2^n ||f||_2 and recombined.  That modulus exceeds
    twice the coefficients of lead(f)/lead(G) G for any factor G of f, by
    Mignotte's bound ||G||_1 <= 2^deg(G) |lead(G)/lead(f)| ||f||_2.
    """
    p, fp = suitable_prime(f)
    modular = _berlekamp(fp, p)
    if len(modular) == 1:
        return [f]
    bound = 2 * f[-1] * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    k = 0
    while p ** (1 << k) <= bound:
        k += 1
    return _recombine(f, _hensel_lift(p, f, modular, k), p ** (1 << k))
