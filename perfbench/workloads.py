"""Seeded inputs and the queries of the three workloads.

Every workload is a cycle of rounds.  A round visits a fixed list of slots
(a kind of input plus the structural variant that sets its cost class), so
every round has the same mix; within a slot only coefficients and signs are
random.  Inputs are drawn fresh from a seeded stream: the same (workload,
seed, stream) always yields the same inputs, and no input repeats within a
process.  Each case carries, next to the program input, the facts the
construction guarantees; `oracle.py` checks answers against those facts
only, never against a second run of the code under test.

Input generation calls into the package (ProjMat products, `realize_*`), but
it is never timed and it never calls `canonical_pattern`, so it leaves no
cache entry behind for the query that follows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import birsphere.classify as classify_mod
import birsphere.sphere as sphere_mod
from birsphere.involutions import InvolutionForm, realize_no_oval, realize_oval
from birsphere.poly import Poly
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar
from birsphere.sphere import (
    BaseMobius,
    FiberPattern,
    SphereMap,
    builtin_map,
    rotation,
    x_flip,
    y_flip,
)

Z = Poly.z()
I = CoeffScalar.i()

WORKLOADS = ("classify-orbit", "certify", "membership")

CLASSIFY_KINDS = (
    "tau", "upsilon", "antipodal", "tilde_eta", "g1p", "g2p",
    "rot:1/2", "rot:1/3", "rot:1/4", "rot:1/6", "rot:1/8", "rot:1/12",
    "oval", "no-oval",
)
CONJUGATOR_VARIANTS = tuple((shape, s1, s2) for shape in (0, 1) for s1 in (1, -1) for s2 in (1, -1))


def _certify_round() -> tuple:
    """Every degree pattern (deg p, deg q, deg a, deg b) in {0, 1}^4 of an
    involution [[i p, q h], [~q, -i p]] and a conjugator [[a, b h], [~b, ~a]]
    once, with a refuted pair after every four."""
    out = []
    for v in range(16):
        out.append(("pair", tuple(v >> k & 1 for k in (3, 2, 1, 0))))
        if v % 4 == 3:
            out.append(("refuted", ()))
    return tuple(out)


# A round is a fixed list of (kind, variant) slots, the same every time.
# classify-orbit gives every kind both shapes and both signs s1, with the
# product s1 s2 alternating from kind to kind, so each of the eight
# conjugator variants meets seven kinds; half the full cross keeps one round
# of the profiled loop of `--trace 1` well inside the time limit.  The
# warm-up slots reach every layer their workload uses, so lazy imports
# (sympy) land in set-up time.
ROUNDS = {
    "classify-orbit": tuple((k, v) for j, k in enumerate(CLASSIFY_KINDS)
                            for v in CONJUGATOR_VARIANTS if v[1] * v[2] == (-1) ** j),
    "certify": _certify_round(),
    "membership": tuple((k, n) for n in (2, 3, 4, 6)
                        for k in ("member", "non-member-rational", "member", "non-member-quartic", "member")),
}
# Wall time of one untraced round on the seed commit (2-vCPU x86 host).
# `run.py` turns --seconds into a fixed number of whole rounds with it, so a
# faster program answers the same inputs, not more of them.
ROUND_SECONDS = {"classify-orbit": 8.5, "certify": 7.0, "membership": 2.0}
WARMUP_SLOT = {"classify-orbit": ("g2p", CONJUGATOR_VARIANTS[0]), "certify": ("pair", (1, 0, 1, 0)),
               "membership": ("non-member-quartic", 4)}


T_PARAMS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5), Fraction(2, 5))
NO_OVAL_PARAMS = ((1, 2), (2, 5), (1, 3), (3, 4), (2, 3))
PYTHAGOREAN = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17)), (Fraction(-3, 5), Fraction(4, 5)),
               (Fraction(-5, 13), Fraction(12, 13)))


@dataclass
class Case:
    """One query input plus the facts its construction guarantees."""

    kind: str
    args: tuple
    facts: dict = field(default_factory=dict)


# -- random building blocks -------------------------------------------------------------


def _gauss(pair) -> CoeffScalar:
    return CoeffScalar(pair[0], pair[1])


def diffeo_conjugator(rng: random.Random, variant) -> ProjMat:
    """A degree-1 reality element [[a, b h], [~b, ~a]] that is a birational
    diffeomorphism by construction.

    a = a0 + a1 z and b = b0 + b1 z with a random a0 in 3..999 and, by the
    variant (shape, s1, s2), (a1, b0, b1) = (s1 i, s2, 0) or (0, s1, s2 i)
    with signs s1, s2.  Then a has no real root and
    |a(z)| >= a0 - |a1| > |b0| + |b1| >= |b(z)| on [-1, 1], so the
    determinant |a|^2 - |b|^2 (1 - z^2) is positive on R.  Shape and signs
    set the cost of the conjugate, so every round visits all of them; the
    size of a0 barely moves it, and its wide range keeps inputs fresh.
    """
    shape, s1, s2 = variant
    a0 = rng.randint(3, 999)
    a1, b0, b1 = ((0, s1), (s2, 0), (0, 0)) if shape == 0 else ((0, 0), (s1, 0), (0, s2))
    a = Poly([_gauss((a0, 0)), _gauss(a1)])
    b = Poly([_gauss(b0), _gauss(b1)])
    return FiberPattern(a, b).matrix()


def _random_scalar(rng, size=4, complex_ok=True) -> CoeffScalar:
    re = Fraction(rng.randint(-size, size), rng.randint(1, 3))
    im = Fraction(rng.randint(-size, size), rng.randint(1, 3)) if complex_ok else 0
    return CoeffScalar(re, im)


def _random_poly(rng, degree, complex_ok=True) -> Poly:
    while True:
        p = Poly([_random_scalar(rng, complex_ok=complex_ok) for _ in range(degree + 1)])
        if p.degree == degree:
            return p


def random_reality_element(rng, degrees) -> ProjMat:
    """A random reality-group element [[a, b h], [~b, ~a]] with the given
    degrees of a and b (<= 1), coefficients as in the acceptance suite's
    conjugacy criterion."""
    while True:
        pat = FiberPattern(_random_poly(rng, degrees[0]), _random_poly(rng, degrees[1]))
        if not pat.determinant():
            continue
        try:
            return pat.matrix()
        except ValueError:
            continue


def random_involution(rng, degrees) -> ProjMat:
    """A random involution [[i p, q h], [~q, -i p]] with p real and the
    given degrees of p and q (<= 1)."""
    while True:
        form = InvolutionForm(_random_poly(rng, degrees[0], complex_ok=False), _random_poly(rng, degrees[1]))
        if not form.determinant():
            continue
        try:
            return form.matrix()
        except ValueError:
            continue


# -- per-kind constructions ---------------------------------------------------------------


def _conjugate(g: SphereMap, c: ProjMat) -> SphereMap:
    """c g c^-1 for a trivial-base c; base-flip maps conjugate as
    (c(-z) A(z) c(z)^-1, z -> -z)."""
    if g.base.kind == "neg":
        return SphereMap(c.reflect_z() * g.fiber * c.inverse(), BaseMobius.negation())
    return SphereMap.trivial_base(c * g.fiber * c.inverse())


def _classify_case(rng, kind, variant) -> Case:
    facts: dict = {}
    if kind in ("g1p", "g2p"):
        t = rng.choice(T_PARAMS)
        g = builtin_map(f"{kind}:{t}")
        facts["t2"] = str(t * t)
    elif kind == "oval":
        k = rng.randint(1, 3)
        g = SphereMap.trivial_base(realize_oval(Z + Poly.const(CoeffScalar(0, k))))
        facts["k"] = k
    elif kind == "no-oval":
        u, v = rng.choice(NO_OVAL_PARAMS)
        g = SphereMap.trivial_base(realize_no_oval((Z * Z + u) * (Z * Z + v)))
        facts["uv"] = [u, v]
    else:
        g = builtin_map(kind)
    return Case(kind, (_conjugate(g, diffeo_conjugator(rng, variant)),), facts)


def _certify_case(rng, kind, degrees) -> Case:
    if kind == "refuted":
        k = Fraction(rng.randint(1, 40), rng.randint(1, 3))
        a = realize_no_oval(Z * Z + k)
        b = realize_no_oval((Z * Z + k) * (Z * Z + k + 1))
        return Case(kind, (SphereMap.trivial_base(a), SphereMap.trivial_base(b)), {"conjugate": False})
    a = random_involution(rng, degrees[:2])
    c = random_reality_element(rng, degrees[2:])
    b = c * a * c.inverse()
    return Case(kind, (SphereMap.trivial_base(a), SphereMap.trivial_base(b)), {"conjugate": True})


def _member(rng, n) -> ProjMat:
    """A product of known diffeomorphisms: a no-oval involution, the
    rotation of order n and a reflection, in random order.  u and v range
    wide enough that no run exhausts a slot's pool of fresh inputs."""
    u = v = 0
    while u == v:
        u, v = (Fraction(rng.randint(1, 60), rng.randint(1, 3)) for _ in range(2))
    parts = [
        realize_no_oval((Z * Z + u) * (Z * Z + v)),
        rotation(1, n).fiber,
        rng.choice((x_flip, y_flip))().fiber,
    ]
    rng.shuffle(parts)
    return parts[0] * parts[1] * parts[2]


def _non_member(rng, kind) -> tuple[ProjMat, dict]:
    """An engineered pattern with contracted fibers, with the (a, b) data the
    oracle counts real roots from."""
    if kind == "non-member-rational":
        # a(r) = s with h(r) = s^2: the determinant vanishes at z = r
        r, s = rng.choice(PYTHAGOREAN)
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        a = [s - c * r, c]
        b = [Fraction(1)]
    else:
        # a quadratic, b linear with |b(0)| > |a(0)|: det(0) < 0 < det(+-1),
        # so the quartic determinant has roots in (-1, 0) and (0, 1)
        while True:
            a = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            b = [Fraction(rng.randint(-4, 4)), Fraction(rng.choice((-2, -1, 1, 2)))]
            if a[2] == 0 or abs(b[0]) <= abs(a[0]):
                continue
            if sum(a) == 0 or a[0] - a[1] + a[2] == 0:
                continue
            root = -b[0] / b[1]  # a and b must share no root
            if a[0] + a[1] * root + a[2] * root * root == 0:
                continue
            break
    mat = FiberPattern(Poly.from_rational_coeffs(a), Poly.from_rational_coeffs(b)).matrix()
    return mat, {"a": [str(x) for x in a], "b": [str(x) for x in b]}


def _membership_case(rng, kind, n) -> Case:
    m = _member(rng, n)
    if kind == "member":
        return Case(kind, (m,), {"member": True})
    bad, facts = _non_member(rng, kind)
    return Case(kind, (m * bad,), dict(facts, member=False))


_MAKERS = {"classify-orbit": _classify_case, "certify": _certify_case, "membership": _membership_case}


def make_case(workload: str, rng: random.Random, slot: tuple) -> Case:
    return _MAKERS[workload](rng, *slot)


def stream_rng(workload: str, seed: int, stream: str) -> random.Random:
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"birsphere-bench/{workload}/{seed}/{stream}")


def warmup_case(workload: str, index: int) -> Case:
    """The warm-up input: drawn from a stream disjoint from every timed one
    and the same for every seed, so set-up time measures the same work in
    every run."""
    return make_case(workload, random.Random(f"birsphere-bench/{workload}/warmup-{index}"), WARMUP_SLOT[workload])


def case_key(case: Case) -> str:
    """Identity of a case's input (program objects print canonically)."""
    return repr(case.args)


def timed_cases(workload: str, seed: int, seen: set):
    """Endless rounds of fresh cases; an input whose key is already in
    `seen` is redrawn."""
    rng = stream_rng(workload, seed, "timed")
    while True:
        for slot in ROUNDS[workload]:
            for _ in range(1000):
                case = make_case(workload, rng, slot)
                key = case_key(case)
                if key not in seen:
                    break
            else:
                raise RuntimeError(f"no fresh {slot} input in 1000 draws")
            seen.add(key)
            yield case


# -- queries and their answers as JSON -------------------------------------------------------


def _root_json(r) -> dict:
    return {"minpoly": str(r.minpoly), "interval": [str(r.lo), str(r.hi)]}


def run_query(workload: str, case: Case) -> dict:
    """Call the package on one case and return the answer as plain JSON.

    Functions are looked up on their modules at call time, so the span
    tracer's wrappers are the ones called when tracing is on.
    """
    if workload == "classify-orbit":
        return classify_mod.classify_spheremap(case.args[0]).to_json()
    if workload == "certify":
        return classify_mod.decide_conjugacy(*case.args)
    mat = case.args[0]
    member = sphere_mod.in_diffeo_group(mat)
    fibers = sphere_mod.contracted_fibers(mat)
    return {"member": member, "contracted": [_root_json(r) for r in fibers]}
