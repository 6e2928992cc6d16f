"""Correctness oracle, independent of the code under test.

Expected families and conjugation-invariant moduli come from the
hand-written table below; verdicts and membership come from the
construction in `workloads.py`; contracted fibers are checked against
sympy's real-root counting on the engineered pattern's determinant.  Every
conjugator an answer returns is multiplied out here, in sympy, and compared
with its target.  Nothing in this module calls into `birsphere`: program
matrices are read as data (coefficient dictionaries) or parsed from the
answer's strings.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

z = sympy.Symbol("z", real=True)
_LOCALS = {"z": z, "i": sympy.I, "sqrt": sympy.sqrt}
H = 1 - z**2

# Hand-written table: family and conjugation-invariant moduli of each
# catalogue kind.  Callables take the case's construction facts.
TAU_MODULI = {"fixed_curve": {"m": "z^2-1", "sign": "-"}, "genus": 0}
EXPECTED = {
    "tau": (4, lambda f: TAU_MODULI, ["conjugation"]),
    "upsilon": (4, lambda f: TAU_MODULI, ["conjugation"]),
    "antipodal": (5, lambda f: {"twist_class": ("-", [])}, []),
    "tilde_eta": ("linear-stratum", lambda f: {"twist_class": ("+", [])}, []),
    "g1p": ("rational-special", lambda f: {
        "fixed_curve": {"m": f"z^2+{f['t2']}", "sign": "-"}, "genus": 0, "parameter": f["t2"]}, []),
    "g2p": (8, lambda f: {"twist_class": ("+", [f["t2"]])}, []),
    "rot:1/2": (3, lambda f: {"angle": [1, 2], "fixed_curve": {"m": "1", "sign": "-"}, "genus": 0},
                ["conjugation"]),
    "oval": (7, lambda f: {"fixed_curve": {"m": f"(z^2-1)*(z^2+{f['k'] ** 2})", "sign": "-"},
                           "genus": 1}, []),
    "no-oval": (6, lambda f: {"fixed_curve": {"m": "(z^2+{})*(z^2+{})".format(*f["uv"]), "sign": "-"},
                              "genus": 1}, []),
}
for _n in (3, 4, 6, 8, 12):
    EXPECTED[f"rot:1/{_n}"] = (3, (lambda n: lambda f: {"angle": [1, n]})(_n), ["rotation-normal-form"])

X_FLIP = [[0, -H], [1, 0]]
NEG_DIAG = [[1, 0], [0, -1]]
TAU = [[0, H], [1, 0]]


class Mismatch(Exception):
    """An answer that disagrees with the construction or the table."""


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


# -- program data as sympy ------------------------------------------------------------------


def parse(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=_LOCALS)


def _tower(t):
    return sum((sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m) for m, q in t.terms.items()),
               sympy.Integer(0))


def poly_expr(p):
    """A program Poly as a sympy expression, read from its coefficients."""
    return sum(((_tower(c.re) + sympy.I * _tower(c.im)) * z**k for k, c in enumerate(p.coeffs)),
               sympy.Integer(0))


def matrix_expr(mat):
    a, b, c, d = (poly_expr(p) for p in mat.entries())
    return [[a, b], [c, d]]


def parse_matrix(rows):
    return [[parse(x) for x in row] for row in rows]


def _mul(p, q):
    return [[p[r][0] * q[0][c] + p[r][1] * q[1][c] for c in range(2)] for r in range(2)]


def _is_zero(e) -> bool:
    return e.is_zero if isinstance(e, sympy.Poly) else sympy.expand(e) == 0


def _ring(*mats):
    """The matrices as dense polynomials over Q(i) when every entry lies
    there (fast exact arithmetic), else as expanded expressions."""
    try:
        return [[[sympy.Poly(x, z, domain=sympy.QQ_I, expand=False) for x in row] for row in m] for m in mats]
    except sympy.polys.polyerrors.BasePolynomialError:
        return [[[sympy.expand(x) for x in row] for row in m] for m in mats]


def _conj(m):
    """Entrywise complex conjugation (z is real)."""
    if isinstance(m[0][0], sympy.Poly):
        return [[sympy.Poly.from_list([sympy.conjugate(c) for c in x.all_coeffs()], z, domain=x.domain)
                 for x in row] for row in m]
    return [[sympy.expand(sympy.conjugate(x)) for x in row] for row in m]


def proportional(p, q) -> bool:
    """Projective equality of two nonzero 2x2 matrices over C(z)."""
    pf = [x for row in p for x in row]
    qf = [x for row in q for x in row]
    if any(_is_zero(x) != _is_zero(y) for x, y in zip(pf, qf)):
        return False
    k = next((k for k, x in enumerate(pf) if not _is_zero(x)), None)
    if k is None:
        return False
    # P = (P[k] / Q[k]) Q  <=>  P[j] Q[k] = Q[j] P[k] for every j
    return all(_is_zero(pf[j] * qf[k] - qf[j] * pf[k]) for j in range(4) if j != k)


def check_conjugator(conj, source, target, what):
    """C is real and C A C^-1 = B, i.e. C A = B C projectively; the reality
    condition is tau C tau = conj(C) with tau = [[0, 1-z^2], [1, 0]]."""
    c, a, b, tau = _ring(conj, source, target, TAU)
    _expect(proportional(_mul(_mul(tau, c), tau), _conj(c)), f"{what}: conjugator leaves the reality group")
    _expect(proportional(_mul(c, a), _mul(b, c)), f"{what}: C A != B C")


def _same_poly(text, expected_text) -> bool:
    return _is_zero(parse(text) - parse(expected_text))


# -- per-workload checks -------------------------------------------------------------------


def _check_twist(got, sign, gens):
    _expect(got["sign"] == sign, f"twist sign {got['sign']} != {sign}")
    _expect(len(got["gens"]) == len(gens), f"twist generators {got['gens']} != {gens}")
    for gen, value in zip(got["gens"], gens):
        v = sympy.Rational(value)
        lo, hi = (sympy.Rational(x) for x in gen["interval"])
        _expect(_is_zero(parse(gen["minpoly"]).subs(z, v)), f"generator {gen} is not {value}")
        _expect(lo < v < hi, f"generator interval {gen['interval']} misses {value}")


def _check_moduli(got, expected):
    _expect(set(got) == set(expected), f"moduli keys {sorted(got)} != {sorted(expected)}")
    for key, want in expected.items():
        have = got[key]
        if key == "twist_class":
            _check_twist(have, *want)
        elif key == "fixed_curve":
            _expect(have["sign"] == want["sign"], f"fixed-curve sign {have} != {want}")
            _expect(_same_poly(have["m"], want["m"]), f"fixed curve {have['m']} != {want['m']}")
        elif key == "parameter":
            _expect(Fraction(have) == Fraction(want), f"parameter {have} != {want}")
        else:
            _expect(have == want, f"{key} {have} != {want}")


def _rotation_target_ok(target, n) -> bool:
    """target is diag(1, zeta) with zeta = exp(+-2 pi i / n)."""
    if not (_is_zero(target[0][1]) and _is_zero(target[1][0])):
        return False
    cos, sin = sympy.cos(2 * sympy.pi / n), sympy.sin(2 * sympy.pi / n)
    return any(_is_zero(target[1][1] - (cos + s * sympy.I * sin) * target[0][0]) for s in (1, -1))


def check_classify(case, answer):
    family, moduli, cert_kinds = EXPECTED[case.kind]
    _expect(answer["family"] == family, f"family {answer['family']!r} != {family!r}")
    _check_moduli(answer["moduli"], moduli(case.facts))
    certs = answer["certificates"]
    _expect([c["kind"] for c in certs] == cert_kinds, f"certificates {[c['kind'] for c in certs]}")
    source = matrix_expr(case.args[0].fiber)
    for cert in certs:
        _expect(cert["verified"] is True, "certificate not verified")
        conj, target = parse_matrix(cert["conjugator"]), parse_matrix(cert["target"])
        if cert["kind"] == "conjugation":
            want = X_FLIP if family == 4 else NEG_DIAG
            _expect(proportional(*_ring(target, want)), f"conjugation target {cert['target']}")
        else:
            n = int(case.kind.split("/")[1])
            _expect(_rotation_target_ok(target, n), f"rotation target {cert['target']}")
        check_conjugator(conj, source, target, case.kind)


def check_certify(case, answer):
    want = case.facts["conjugate"]
    _expect(answer["conjugate"] is want, f"conjugate {answer['conjugate']} != {want}")
    if want:
        _expect(answer["verified"] is True, "certificate not verified")
        a, b = (matrix_expr(g.fiber) for g in case.args)
        check_conjugator(parse_matrix(answer["conjugator"]), a, b, "pair")


def contracted_determinant(facts):
    """The square-free part of a ~a - b ~b (1 - z^2) over Q for the
    engineered real pattern (a, b)."""
    a = sum(sympy.Rational(c) * z**k for k, c in enumerate(facts["a"]))
    b = sum(sympy.Rational(c) * z**k for k, c in enumerate(facts["b"]))
    return sympy.Poly(sympy.expand(a * a - b * b * H), z, domain=sympy.QQ).sqf_part()


def contracted_count(det) -> int:
    """Distinct real roots of det in the open interval (-1, 1)."""
    ends = sum(1 for x in (-1, 1) if det.eval(x) == 0)
    return det.count_roots(-1, 1) - ends


def _check_root(root, det):
    """The reported root is a root of det in (-1, 1): its minpoly is
    irreducible and divides det, and its interval isolates one root of the
    minpoly, with endpoints that are not roots, inside (-1, 1)."""
    lo, hi = (sympy.Rational(x) for x in root["interval"])
    mp = sympy.Poly(parse(root["minpoly"]), z, domain=sympy.QQ)
    what = f"{root['minpoly']} on {root['interval']}"
    _expect(mp.degree() >= 1 and mp.is_irreducible, f"{what}: minpoly not irreducible")
    _expect(det.rem(mp).is_zero, f"{what}: minpoly does not divide the determinant")
    _expect(lo < hi and mp.eval(lo) != 0 and mp.eval(hi) != 0 and mp.count_roots(lo, hi) == 1,
            f"{what}: interval does not isolate one root")
    _expect(mp.eval(-1) != 0 and mp.eval(1) != 0 and mp.count_roots(max(lo, -1), min(hi, 1)) == 1,
            f"{what}: root outside (-1, 1)")
    return mp.monic(), lo, hi


def check_membership(case, answer):
    want = case.facts["member"]
    _expect(answer["member"] is want, f"member {answer['member']} != {want}")
    if want:
        _expect(answer["contracted"] == [], f"contracted fibers {answer['contracted']} on a member")
        return
    det = contracted_determinant(case.facts)
    count = contracted_count(det)
    _expect(len(answer["contracted"]) == count,
            f"{len(answer['contracted'])} contracted fibers, expected {count}")
    roots = [_check_root(root, det) for root in answer["contracted"]]
    # roots with different irreducible minpolys differ; roots with the same
    # one differ when no root of it lies in both isolating intervals
    for k, (mp, lo, hi) in enumerate(roots):
        for mp2, lo2, hi2 in roots[k + 1:]:
            if mp == mp2 and max(lo, lo2) <= min(hi, hi2):
                _expect(mp.count_roots(max(lo, lo2), min(hi, hi2)) == 0,
                        f"{mp.as_expr()} reported twice for one root")


CHECKS = {"classify-orbit": check_classify, "certify": check_certify, "membership": check_membership}


def check(workload, case, answer) -> str | None:
    """None when the answer is right, else a one-line reason."""
    try:
        CHECKS[workload](case, answer)
    except Mismatch as exc:
        return f"{case.kind}: {exc}"
    except (KeyError, TypeError, ValueError, sympy.SympifyError) as exc:
        return f"{case.kind}: malformed answer ({type(exc).__name__}: {exc})"
    return None
