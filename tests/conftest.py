import ast
import importlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import birsphere
from birsphere.poly import ONE_MINUS_Z2, Poly, RealAlgebraic, dot, factor_rational_poly, times_h
from birsphere.projmat import ProjMat, raw_mul
from birsphere.scalars import ZERO, CoeffScalar, TowerReal
from birsphere.sphere import FiberPattern, SphereMap, interval_shift, z_flip


@pytest.fixture
def rng():
    return random.Random(20260810)


# -- hypothesis strategies for scalars and polynomials -------------------------------------------

RADICANDS = (1, 2, 3, 5, 6)
fractions = st.fractions(min_value=-12, max_value=12, max_denominator=12)
sparse_fractions = st.one_of(st.just(Fraction(0)), fractions)


def tower_terms(radicands=RADICANDS):
    return st.dictionaries(st.sampled_from(radicands), sparse_fractions, max_size=len(radicands))


def coeff_scalars(radicands=RADICANDS):
    parts = tower_terms(radicands).map(TowerReal)
    return st.builds(CoeffScalar, parts, parts)


gaussian_scalars = coeff_scalars((1,))
scalars_any = st.one_of(gaussian_scalars, coeff_scalars())
rational_scalars = st.builds(CoeffScalar, fractions)


def coeff_lists(coeffs=scalars_any, max_degree=5):
    # zero coefficients are drawn on purpose, also in the leading position
    return st.lists(st.one_of(st.just(ZERO), coeffs), max_size=max_degree + 1)


def polys(coeffs=scalars_any, max_degree=5):
    return coeff_lists(coeffs, max_degree).map(Poly)


# -- CoeffScalar-loop and four-entry references ------------------------------------------------


def trim(cs) -> tuple:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_poly_mul(a, b) -> tuple:
    a, b = trim(a), trim(b)
    if not a or not b:
        return ()
    out = [CoeffScalar(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def ref_proportional(p, q) -> bool:
    """The six-minor test: every 2x2 minor of (p; q) vanishes and the zero
    patterns agree."""
    if not any(p) or not any(q):
        return False
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] * q[j] != p[j] * q[i]:
                return False
    return all(bool(p[k]) == bool(q[k]) for k in range(4))


def ref_in_reality_group(mat: ProjMat, m: Poly = Poly.z(), den: Poly = Poly.const(1)) -> bool:
    """tau(m(z)) mat tau(z) = conj(mat) projectively, tau(z) = [[0, 1 - z^2],
    [1, 0]], as two twist products: the reality condition of the map with
    fiber mat and base action z -> m(z)/den(z).  tau(m/den) is cleared to
    [[0, den^2 - m^2], [den^2, 0]]."""
    d2 = den * den
    tw_m = (Poly(), d2 - m * m, d2, Poly())
    tw = (Poly(), ONE_MINUS_Z2, Poly.const(1), Poly())
    product = raw_mul(raw_mul(tw_m, mat.entries()), tw)
    return ref_proportional(product, tuple(p.conj() for p in mat.entries()))


def member_entries(a, b):
    return (a, b * ONE_MINUS_Z2, b.conj(), a.conj())


def ref_determinant(a: Poly, b: Poly) -> Poly:
    """a ~a - h b ~b as one fused sum of products over all key pairs, the
    formula the sums of squares of `poly.pattern_determinant` replaced."""
    return dot(((1, a, a.conj()), (-1, times_h(b), b.conj())))


def ref_lift_is_constant_multiple(mat: ProjMat) -> bool:
    """canonical_pattern's closing check on all four entries, the form the
    two-entry check replaced: S = 0, or h | B and [[A, B], [~B/h, ~A]] is
    kappa M entrywise, kappa the lead of the lift at M's first nonzero
    entry (monic), for A = m11 + ~m22 and B = m12 + h ~m21."""
    m11, m12, m21, m22 = entries = mat.entries()
    a, lift_b = m11 + m22.conj(), m12 + ONE_MINUS_Z2 * m21.conj()
    if not (a or lift_b):
        return True
    b, rem = lift_b.divmod(ONE_MINUS_Z2)
    if rem:
        return False
    lift = (a, lift_b, b.conj(), a.conj())
    pivot = next(k for k in range(4) if entries[k])
    if not lift[pivot]:
        return False
    kappa = lift[pivot].lead()
    return all(x == e.scale(kappa) for x, e in zip(lift, entries))


# Real maps with a moving base: the interval shifts by b = 2t/(1 + t^2), t in
# {1/2, -1/3, 2/3}, whose sqrt(1 - b^2) is rational, alone and after z -> -z.
SHIFTS = tuple(interval_shift(Fraction(t)) for t in ("1/2", "-1/3", "2/3"))
MOVING_MAPS = SHIFTS + tuple(shift.compose(z_flip()) for shift in SHIFTS)


# -- the package's memos -------------------------------------------------------------------------

# (module, qualified name) -> decorator.  The per-object memos cache an
# invariant of an immutable object on it: a matrix's angle and real
# pattern, a pattern's D, D', the real roots of D' (count and square-free
# part), involution form and fixed-curve model; the
# caches hold constants built on first use: the rotation target per angle
# and sign, and the catalogue involutions certificates are built against.
PACKAGE_MEMOS = {
    ("projmat", "ProjMat._angle"): "cached_property",
    ("projmat", "ProjMat.real_pattern"): "cached_property",
    ("sphere", "FiberPattern._determinant"): "cached_property",
    ("sphere", "FiberPattern.involution_form"): "cached_property",
    ("sphere", "FiberPattern.stripped_determinant"): "cached_property",
    ("sphere", "FiberPattern.contracted"): "cached_property",
    ("sphere", "FiberPattern.fixed_model"): "cached_property",
    ("involutions", "_flip_fiber"): "cache",
    ("involutions", "_diagonal_involution"): "cache",
    ("involutions", "_rotation_target"): "cache",
}
MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def package_memos() -> dict[tuple[str, str], str]:
    """Every memoising decorator in src/birsphere, found by an AST scan:
    (module, qualified name) -> decorator name."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
                    if name in MEMO_DECORATORS:
                        found[(module, f"{prefix}{child.name}")] = name

    for path in sorted(Path(birsphere.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def clear_caches() -> None:
    """Empty every cache of the package, as package_memos finds them: each
    function cache, and each cached_property memoised on a module-level
    constant of a loaded package module (involutions._OFF_DIAGONAL's
    pattern, say), which no query's end would drop."""
    properties = {}
    for (module, name), decorator in package_memos().items():
        if decorator != "cached_property":
            getattr(importlib.import_module(f"birsphere.{module}"), name).cache_clear()
        else:
            cls, _, attr = name.rpartition(".")
            properties.setdefault(cls, []).append(attr)
    for module in [m for key, m in sys.modules.items() if key.startswith("birsphere.")]:
        for value in vars(module).values():
            for attr in properties.get(type(value).__name__, ()):
                vars(value).pop(attr, None)


def random_scalar(rng, size=4, complex_ok=True):
    re = Fraction(rng.randint(-size, size), rng.randint(1, 3))
    im = Fraction(rng.randint(-size, size), rng.randint(1, 3)) if complex_ok else 0
    return CoeffScalar(re, im)


def random_poly(rng, degree, size=4, complex_ok=True):
    while True:
        coeffs = [random_scalar(rng, size, complex_ok) for _ in range(degree + 1)]
        p = Poly(coeffs)
        if p.degree == degree:
            return p


def random_reality_element(rng, max_degree=2) -> ProjMat:
    """A random member of the reality group, from a random pattern pair."""
    while True:
        a = random_poly(rng, rng.randint(0, max_degree))
        b = random_poly(rng, rng.randint(0, max_degree))
        pat = FiberPattern(a, b)
        det = pat.determinant()
        if not det:
            continue
        try:
            mat = pat.matrix()
        except ValueError:
            continue
        assert SphereMap.trivial_base(mat).reality_check()
        return mat


def checked_pattern(mat: ProjMat) -> FiberPattern | None:
    """The oracle of a memoised pattern (ProjMat.real_pattern): sphere's
    checked closed form on a fresh equal matrix, None for a non-real one."""
    from birsphere.sphere import _summed_pattern

    return _summed_pattern(ProjMat.of(*mat.entries()))


def pattern_pair(pattern: FiberPattern) -> tuple[Poly, Poly]:
    """The entries (a, b) of a pattern: two patterns are the same when these
    are (FiberPattern defines no equality, as the package compares none)."""
    return pattern.a, pattern.b


def same_triple(u, v) -> bool:
    """(x1 + y1 r)/d1 = (x2 + y2 r)/d2 in a triple algebra (QuadAlgebra,
    etatwist.TwistedAlgebra), cross-multiplied."""
    return u[0] * v[2] == v[0] * u[2] and u[1] * v[2] == v[1] * u[2]


class QuadAlgebra:
    """The reference algebra of the involution conjugator's Hilbert-90 step:
    C(z)[r]/(r^2 - f), f a real polynomial, its elements triples (x, y, d)
    standing for (x + y r)/d with d central, the conjugation acting on the
    coefficients (it fixes r).  Plain ring operations; nothing is reduced."""

    def __init__(self, f: Poly):
        self.f = f

    @classmethod
    def of_patterns(cls, pat_a: FiberPattern, pat_b: FiberPattern, u_num: Poly, u_den: Poly):
        """The algebra of f = -D_A and the twist units mu_A = (a - r)/b and
        mu_B = (a_B u_num - u_den r)/(b_B u_num) of the patterns (a, b) of A
        and (a_B, b_B) of B, for the rescale u_num / u_den."""
        mu_a = (pat_a.a, Poly.const(-1), pat_a.b)
        mu_b = (pat_b.a * u_num, -u_den, pat_b.b * u_num)
        return cls(-pat_a.determinant()), mu_a, mu_b

    @staticmethod
    def add(u, v):
        return (u[0] * v[2] + v[0] * u[2], u[1] * v[2] + v[1] * u[2], u[2] * v[2])

    def mul(self, u, v):
        x1, y1, d1 = u
        x2, y2, d2 = v
        return (x1 * x2 + self.f * y1 * y2, x1 * y2 + y1 * x2, d1 * d2)

    @staticmethod
    def conj(u):
        return tuple(p.conj() for p in u)

    def is_unit(self, u) -> bool:
        return bool(u[0] * u[0] - self.f * u[1] * u[1])

    def eta(self, c, mu_a, mu_b):
        """c mu_a + conj(c) mu_b."""
        return self.add(self.mul(c, mu_a), self.mul(self.conj(c), mu_b))

    def hilbert90(self, mu_a, mu_b):
        """eta for the first witness c of 1, i that makes it a unit."""
        one = Poly.const(1)
        for c in ((one, Poly(), one), (Poly.const(CoeffScalar.i()), Poly(), one)):
            eta = self.eta(c, mu_a, mu_b)
            if self.is_unit(eta):
                return eta
        raise AssertionError("no invertible Hilbert-90 witness in {1, i}")


def same_up_to_positive_rational(p, q) -> bool:
    """Whether the polynomial tuples p and q satisfy p = r q for a single
    positive rational r: the one factor by which two real patterns of one
    matrix may differ, as a pattern is kept as it is read off."""
    k = next((k for k in range(len(q)) if q[k]), None)
    if k is None or not p[k]:
        return k is None and not any(p)
    r = p[k].lead() / q[k].lead()
    return r.is_rational() and r.as_rational() > 0 and all(x == y.scale(r) for x, y in zip(p, q))


def ref_square_class(p: Poly) -> Poly:
    """The sign of the lead of a rational polynomial p times the monic
    product of its factors of odd multiplicity: the canonical representative
    of p modulo squares, from sympy's sqf_list, independent of the package."""
    import sympy

    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.rational_coeffs())]
    lead, factors = sympy.Poly(coeffs, x, domain="QQ").sqf_list()
    out = sympy.Poly(sympy.sign(lead), x, domain="QQ")
    for factor, k in factors:
        if k % 2:
            out *= factor
    return Poly.from_rational_coeffs([Fraction(int(c.p), int(c.q)) for c in reversed(out.all_coeffs())])


def ref_square_split(d: Poly) -> tuple[Poly, Poly, CoeffScalar]:
    """(m, scale, lead) with d = lead m scale^2, m and scale monic and m
    square-free, from one square-free decomposition d = lead prod f_k^k:
    m is the product of the f_k of odd k, scale that of the f_k^(k // 2).
    A reference for the rescale and the fixed-curve model that reads no
    square root."""
    from birsphere.poly import squarefree_decomposition

    m = scale = Poly.const(1)
    for factor, k in squarefree_decomposition(d):
        if k % 2:
            m = m * factor
        scale = scale * factor ** (k // 2)
    return m, scale, d.lead()


def sympy_poly(p: Poly, var):
    """p as a sympy expression in var, each coefficient exact:
    the sum of q * sqrt(m) over the terms {m: q} of its real part, plus i
    times that of its imaginary part."""
    import sympy

    def part(t):
        return sum((sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m) for m, q in t.terms.items()), sympy.Integer(0))

    return sum((part(c.re) + sympy.I * part(c.im)) * var**k for k, c in enumerate(p.coeffs))


def sphere_coordinates(t, z):
    """(x, y, z) in the function field C(z)(t) of the sphere, with
    x = (t^2 + h)/(2t), y = i (t^2 - h)/(2t) and h = 1 - z^2."""
    import sympy

    h = 1 - z**2
    return (t**2 + h) / (2 * t), sympy.I * (t**2 - h) / (2 * t), z


def sphere_formula(g, t, z):
    """The images (X, Y, Z) of x, y, z under a sphere map g, in C(z)(t):
    sphere_coordinates at t' = (a11 t + a12)/(a21 t + a22) and z' = m(z),
    from g's fiber matrix and its base action m = num/den."""
    a11, a12, a21, a22 = (sympy_poly(p, z) for p in g.fiber.entries())
    num, den = (sympy_poly(p, z) for p in g.base.num_den_polys())
    tprime, zprime = (a11 * t + a12) / (a21 * t + a22), num / den
    x, y, _ = sphere_coordinates(tprime, zprime)
    return x, y, zprime


def same_function(u, v) -> bool:
    """u == v in C(z)(t): the numerator of u - v over one denominator
    expands to 0."""
    import sympy

    return sympy.expand(sympy.numer(sympy.together(u - v))) == 0


def random_sphere_point(rng):
    """A random rational point of the real sphere via stereographic data."""
    u = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    v = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    den = 1 + u * u + v * v
    return (
        CoeffScalar(1),
        CoeffScalar(2 * u / den),
        CoeffScalar(2 * v / den),
        CoeffScalar((1 - u * u - v * v) / den),
    )


def ref_real_roots(p: Poly, lo: Fraction, hi: Fraction) -> list:
    """The distinct real roots of a rational polynomial p in the open
    interval (lo, hi), in increasing order, from sympy alone: the isolating
    intervals of its square-free part and the root counts of its irreducible
    factors.  Each root is a pair: its minimal polynomial (integer-primitive
    with positive lead, as a Poly) and a test inside(l, h) telling exactly
    whether the root lies in the open interval (l, h) with rational ends."""
    import sympy

    x = sympy.Symbol("x")

    def rational(q):
        q = Fraction(q)
        return sympy.Rational(q.numerator, q.denominator)

    def count_open(f, l, h):
        return f.count_roots(l, h) - (f.eval(l) == 0) - (f.eval(h) == 0) if l < h else 0

    poly = sympy.Poly([rational(c) for c in reversed(p.rational_coeffs())], x, domain="QQ")
    factors = [f.clear_denoms(convert=True)[1].primitive()[1] for f, _ in poly.factor_list()[1]]
    out = []
    for (a, b), _ in poly.sqf_part().intervals():
        if a == b:  # an exact rational root
            f = next(f for f in factors if f.eval(a) == 0)

            def inside(l, h, root=a):
                return rational(l) < root < rational(h)
        else:  # one root in the open (a, b)
            f = next(f for f in factors if count_open(f, a, b))

            def inside(l, h, f=f, a=a, b=b):
                return count_open(f, max(rational(l), a), min(rational(h), b)) == 1

        if inside(lo, hi):
            f = -f if f.LC() < 0 else f
            out.append((Poly.from_rational_coeffs([Fraction(int(c)) for c in reversed(f.all_coeffs())]), inside))
    return out


def ref_roots_of_rational_poly(p: Poly) -> list[RealAlgebraic]:
    """The real roots of a rational p by the full factorisation: every
    irreducible factor of p (`factor_rational_poly`, Yun's split and then
    Zassenhaus on each part), each one's roots isolated
    (`RealAlgebraic.roots_of_irreducible`), all of them sorted."""
    _, factors = factor_rational_poly(p)
    return sorted(root for f, _ in factors for root in RealAlgebraic.roots_of_irreducible(f))


# -- references for the real content of a lift and the twist class --------------------------------


def ref_real_cofactors(*ps: Poly) -> list[Poly]:
    """cofactors(*ps, real=True) as two gcds took it: over Q(i) the gcd G
    of the inputs in Z[i][x] (`factor.gaussian_cofactors` on each input's
    real and imaginary columns as one Gaussian polynomial); the kernel's
    quotients times lead(G) when G is real up to a constant, else G made
    monic, replaced by gcd(G, ~G) and divided out exactly; over the tower
    poly_gcd, then the same gcd with the conjugate."""
    from birsphere.factor import gaussian_cofactors
    from birsphere.poly import _GAUSSIAN_KEYS, _I_KEY, _ONE_KEY, _poly, poly_gcd

    if all(p._cols.keys() <= _GAUSSIAN_KEYS for p in ps):
        (re, im), quotients = gaussian_cofactors(*((p._cols.get(_ONE_KEY, ()), p._cols.get(_I_KEY, ())) for p in ps))
        if len(re) == 1:
            return list(ps)
        if not any(im):
            lead = re[-1]
            return [_poly({_ONE_KEY: [x * lead for x in qr], _I_KEY: [y * lead for y in qi]}, p._den)
                    for p, (qr, qi) in zip(ps, quotients)]
        g = _poly({_ONE_KEY: re, _I_KEY: im}, 1).monic()
    else:
        g = poly_gcd(*ps)
    if g.degree > 0 and g != g.conj():
        g = poly_gcd(g, g.conj())
    return [p.exact_div(g) if p else p for p in ps] if g.degree else list(ps)


def ref_h2_reduce(mu: Poly):
    """The twist class of an even real mu with rational coefficients as the
    full factorisation of its w-polynomial read it (`factor_rational_poly`:
    Yun's split, then Zassenhaus on each part): the sign of the lead,
    flipped by each real root d >= 0 of an irreducible factor of odd
    multiplicity, and the generator -d for each root d < 0 of one."""
    from birsphere.etatwist import TwistClass, _even_to_w

    const, factors = factor_rational_poly(_even_to_w(mu))
    sign, gens = (1 if const > 0 else -1), []
    for factor, mult in factors:
        if mult % 2:
            for root in RealAlgebraic.roots_of_irreducible(factor):
                if root.sign() >= 0:
                    sign = -sign
                else:
                    gens.append(-root)
    base = TwistClass(sign, ())
    for g in gens:
        base = base.combine(TwistClass(1, (g,)))
    return base
