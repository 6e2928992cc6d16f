"""Classification reports: routing an input element to its conjugacy family.

The eight families are: (1) the degree-2 double-cover involution, (2) the
two special degree-4 involutions, (3) rotations, (4) the reflection, (5)
the antipodal map, (6) fiberwise involutions with a pointless fixed curve
of positive genus, (7) the orientation-reversing ones with a one-oval
fixed curve, and (8) base-flip involutions with nontrivial twist class.
The family table is read here, off the order, the orientation character
(SphereMap.orientation) and then the angle, the fixed-curve model or the twist
class: classify_trivialbase and classify_flip_involution for the two routed
base actions, classify_spheremap in front of both, and decide_conjugacy
comparing the same invariants for two elements.  ClassificationReport is the
one report type: the family, its moduli datum, any certificates produced,
and explicit caveats for the strata the invariants do not separate.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import (
    NotDiffeomorphism,
    NotFiniteOrder,
    NotRealityMember,
    ParseError,
    UndecidedExact,
)
from .factor import is_prime
from .involutions import (
    _diagonal_involution,
    _flip_fiber,
    basis_equiv_moduli,
    construct_conjugator,
    fixed_curve,
    involution_conjugator,
    rotation_normal_form,
)
from .projmat import ProjMat
from .scalars import CoeffScalar, scalar
from .sphere import (
    BaseMobius,
    ConjugacyCertificate,
    SphereMap,
    base_realisation,
    builtin_map,
    canonical_pattern,
    diffeo_orientation,
    reduce_to_trivial_base,
)


class ClassificationReport:
    """A family, its moduli datum, the certificates produced and the caveats;
    each report holds its own dict and lists."""

    __slots__ = ("family", "moduli", "certificates", "caveats")

    def __init__(self, family, moduli: dict | None = None, certificates: list[ConjugacyCertificate] | None = None,
                 caveats: list | None = None):
        self.family = family  # 1..8, "linear-stratum", "rational-special", "reality-only", "out-of-scope"
        self.moduli = {} if moduli is None else moduli
        self.certificates = [] if certificates is None else certificates
        self.caveats = [] if caveats is None else caveats

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "moduli": self.moduli,
            "certificates": [certificate_json(c) for c in self.certificates],
            "caveats": self.caveats,
        }


def _matrix_json(mat: ProjMat) -> list[list[str]]:
    a, b, c, d = mat.entries()
    return [[str(a), str(b)], [str(c), str(d)]]


def spheremap_to_json(g: SphereMap) -> dict:
    base = g.base
    if base.kind == "id":
        base_json: object = "id"
    elif base.kind == "neg":
        base_json = "neg"
    else:
        t = _shift_to_interval_t(base.b.as_rational()) if base.b.is_rational() else None
        base_json = {"interval_t": str(t)} if t is not None else {"interval_b": str(base.b)}
        if base.flip:
            base_json["flip"] = True
    return {"fiber": _matrix_json(g.fiber), "base": base_json}


def certificate_json(cert: ConjugacyCertificate) -> dict:
    """The report form of a verified certificate: a base reduction prints
    its conjugator as a sphere map and the base it reaches, the others print
    their fiber matrices."""
    if cert.kind == "base-reduction":
        conjugator = spheremap_to_json(cert.conjugator)
        return {"kind": cert.kind, "conjugator": conjugator, "residual_base": cert.target.base.kind, "verified": True}
    return {
        "kind": cert.kind,
        "target": _matrix_json(cert.target.fiber),
        "conjugator": _matrix_json(cert.conjugator.fiber),
        "verified": True,
    }


def _shift_to_interval_t(bq: Fraction) -> Fraction | None:
    # b = 2t/(1+t^2) <=> t = (1 - sqrt(1-b^2))/b, rational for Pythagorean b
    s2 = 1 - bq * bq
    num, den = s2.numerator, s2.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return (1 - Fraction(rn, rd)) / bq


def spheremap_from_json(data: dict) -> SphereMap:
    from .parsing import parse_poly, parse_scalar

    try:
        rows = data["fiber"]
        if len(rows) != 2 or not all(isinstance(row, list) and len(row) == 2 for row in rows):
            raise TypeError
        fiber = ProjMat.of(*(parse_poly(entry) for row in rows for entry in row))
        base_json = data.get("base", "id")
        if base_json == "id":
            base = BaseMobius.identity()
        elif base_json == "neg":
            base = BaseMobius.negation()
        else:
            if "interval_t" in base_json:
                try:
                    t = Fraction(base_json["interval_t"])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"malformed sphere map JSON: interval_t must be a rational, "
                                     f"got {base_json['interval_t']!r}") from None
                b = Fraction(2 * t, 1 + t * t)
            else:
                try:
                    b = parse_scalar(base_json["interval_b"]).as_real()
                except (ParseError, ValueError, ZeroDivisionError):
                    raise ParseError(f"malformed sphere map JSON: interval_b must be a real constant, "
                                     f"got {base_json['interval_b']!r}") from None
            base = BaseMobius(BaseMobius.shift(b).b, bool(base_json.get("flip")))
        return SphereMap(fiber, base)
    except (KeyError, TypeError) as exc:
        raise ParseError('malformed sphere map JSON: expected {"fiber": [["a11", "a12"], ["a21", "a22"]], '
                         '"base": "id", "neg" or {"interval_t" or "interval_b": "q", "flip": true}}') from exc
    except ValueError as exc:
        raise ParseError(f"malformed sphere map JSON: {exc}") from exc


def spheremap_from_json_text(text: str) -> SphereMap:
    """spheremap_from_json of JSON text, inline, from a file or from stdin:
    json loads on the first call, and text that is no JSON is a ParseError,
    as every malformed literal is."""
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed sphere map JSON: {exc}") from exc
    return spheremap_from_json(data)


def parse_element(text: str) -> SphereMap:
    """Accept builtin:NAME, a matrix literal (trivial base), a diag(...)
    shorthand, or inline JSON.  The text grammar loads on the first
    literal, and json on the first JSON: a builtin needs neither.
    A literal that names no element (a zero matrix or determinant, a
    builtin parameter out of range) is a ParseError in every syntax, as
    spheremap_from_json makes it for JSON."""
    text = text.strip()
    if text.startswith("{"):
        return spheremap_from_json_text(text)
    try:
        if text.startswith("builtin:"):
            return builtin_map(text[len("builtin:") :])
        from .parsing import parse_diag, parse_matrix

        if text.startswith("diag("):
            return SphereMap.trivial_base(parse_diag(text[len("diag") :]))
        if text.startswith("[["):
            return SphereMap.trivial_base(parse_matrix(text))
    except ValueError as exc:
        raise ParseError(f"{text} names no element: {exc}") from exc
    raise ParseError(f"cannot interpret element {text!r}")


# -- routing ------------------------------------------------------------------------------------


def _route(g: SphereMap) -> tuple[SphereMap, int | None, list[ConjugacyCertificate]]:
    """The routing front shared by classify_spheremap and decide_conjugacy:
    (g conjugated to base id or neg, its order, base-reduction certificates).

    An interval shift has infinite order and keeps its base; a flipped shift
    is conjugated to base neg by reduce_to_trivial_base.  Raises
    NotRealityMember when g does not commute with the real structure
    (SphereMap.reality_check, memoised for b = 0)."""
    if not g.reality_check():
        raise NotRealityMember("element does not commute with the real structure")
    if g.base.kind != "flipped_shift":
        return g, g.order(), []
    cert = reduce_to_trivial_base(g)
    return cert.target, cert.target.order(), [cert]


def classify_spheremap(g: SphereMap) -> ClassificationReport:
    try:
        g, n, certificates = _route(g)
    except NotRealityMember as exc:
        return ClassificationReport(family="out-of-scope", caveats=[str(exc)])
    if n is None and g.base.b:  # only an interval shift keeps b != 0 after routing
        return ClassificationReport(
            family="reality-only",
            moduli={"base": str(g.base)},
            caveats=[
                "infinite order: interval shifts with b != 0 are never of finite order; "
                "reality verified, no conjugacy family applies"
            ],
        )
    if n is None:
        return ClassificationReport(
            family="reality-only",
            caveats=["infinite order; no family assigned"],
        )
    if n == 1:
        return ClassificationReport(family=3, moduli={"angle": [0, 1]}, caveats=["identity map"])
    caveats = [] if is_prime(n) else [
        f"order {n} is not prime; reporting the family of the cyclic generator"
    ]
    flip = g.base.kind == "neg"
    if not g.orientation():
        moduli = {}
        if n == 2 and flip:
            from .etatwist import h2_invariant

            moduli["twist_class"] = h2_invariant(g).to_json()
        elif n == 2:
            moduli["fixed_curve"] = fixed_curve(g.fiber).to_json()
        caveat = "element is birational but contracts a real fiber, so it is not a birational diffeomorphism"
        if moduli:
            caveat += f"; {'twist-class' if flip else 'fixed-curve'} data is still reported"
        return ClassificationReport("out-of-scope", moduli, certificates, caveats + [caveat])
    if flip and n != 2:
        raise UndecidedExact(f"classification of base-flip elements of order {n} is not decided")
    report = classify_flip_involution(g) if flip else classify_trivialbase(g.fiber)
    report.certificates = certificates + report.certificates
    report.caveats = caveats + report.caveats
    return report


def classify_trivialbase(mat: ProjMat) -> ClassificationReport:
    """Sort a finite-order birational diffeomorphism with trivial base
    action into its conjugacy family: 3, 4, 6, 7 or "rational-special";
    NotDiffeomorphism for a map that is not defined at every real point.

    Lemma: the two certified involutions share their target's model, so
    construct_conjugator need not decide them.
    - Orientation-reversing, degree <= 2: a(1) = a(-1) = 0, and then
      b(+-1) != 0 (FiberPattern.stripped_determinant), so z = +-1 are simple
      roots of D and z^2 - 1 divides m.  With degree <= 2, m = z^2 - 1, the
      model of x_flip.
    - Orientation-preserving, degree 0: m is monic, so m = 1, the model of
      diag(1, -1)."""
    orientation = diffeo_orientation(mat)
    if not orientation:
        raise NotDiffeomorphism(f"{mat} is not defined at every real point")
    angle = mat.rotation_angle()
    if angle is None:
        raise NotFiniteOrder(f"{mat} has infinite order")
    if angle[1] == 1:
        return ClassificationReport(3, {"angle": list(angle)})
    if angle[1] > 2:
        return ClassificationReport(3, {"angle": list(angle)}, [rotation_normal_form(mat).verified()])
    model = fixed_curve(mat)
    moduli = {"fixed_curve": model.to_json(), "genus": model.genus()}
    if orientation < 0:  # one oval
        if model.degree <= 2:
            return ClassificationReport(4, moduli, [construct_conjugator(mat, _flip_fiber())])
        return ClassificationReport(7, moduli)
    if model.degree == 0:
        cert = construct_conjugator(mat, _diagonal_involution())
        return ClassificationReport(3, {"angle": [1, 2]} | moduli, [cert])
    if model.degree == 2:
        # rational curve without real points: the one-parameter stratum
        # conjugate to base-flip representatives.  The shift by the root b of
        # beta b^2 + 2 (1 + gamma) b + beta in (-1, 1) makes
        # m = z^2 + beta z + gamma even, with branch points z^2 = -c; the two
        # roots multiply to 1 and 1 + gamma > |beta| since m > 0 at +-1
        one = CoeffScalar(1)
        beta, gamma = model.m[1] / model.m[2], model.m[0] / model.m[2]
        b = -beta / (one + gamma + ((one + gamma) * (one + gamma) - beta * beta).sqrt())
        c = (b * b + beta * b + gamma) / (one + beta * b + gamma * b * b)
        caveat = ("rational fixed curve without real points: conjugate to the base-flip "
                  "family; the parameter is the branch value t^2")
        return ClassificationReport("rational-special", moduli | {"parameter": str(c)}, caveats=[caveat])
    return ClassificationReport(6, moduli)


def classify_flip_involution(pair: SphereMap) -> ClassificationReport:
    """Family report for an involution acting by z -> -z on the base: 8 for
    a nontrivial twist class; for a linear one, 5 when no real point is
    fixed and "linear-stratum" otherwise.  With chi = pair.orientation()
    and P = (a, b) the memoised pattern, no real point is fixed exactly when
    chi = -1 and P(0) is not scalar, that is a(0) is not real.  The
    base-flip layer etatwist loads on the first call.

    Lemma.  The flip moves every real z but 0, so the real fixed points lie
    on the fiber z = 0, the circle t conj(t) = 1, acted on by P(0) = [[a0, b0],
    [~b0, ~a0]] (h(0) = 1).  P P(-z) is scalar (twisted_square), so P(0)^2 is:
    P(0) is scalar and fixes the whole circle, or has trace 0, a0 = i p with
    p real.  Then the fixed points (i p +- sqrt(|b0|^2 - p^2)) / ~b0 (0 and
    infinity for b0 = 0) lie on the circle exactly when D(0) = p^2 - |b0|^2
    < 0.  A diffeomorphism's D has no real root in (-1, 1), its only real
    roots are the e = +-1 with a(e) = 0 (FiberPattern.stripped_determinant),
    and D > 0 for |z| > 1: so D(0) > 0 exactly when the fiber preserves
    orientation, chi = -1 as the base flip reverses it.  Then a trace-0
    P(0) has p^2 > |b0|^2 >= 0, so P(0) is scalar exactly when a0 is real.
    The antipodal map has chi = -1 and P(0) not scalar, no fixed point;
    tilde_eta has P(0) scalar, a circle; the fiber of tau over the flip has
    chi = 1, two points."""
    from .etatwist import h2_invariant

    if pair.base.kind != "neg":
        raise ValueError("base action must be the flip z -> -z")
    orientation = pair.orientation()
    if not orientation:
        raise NotDiffeomorphism("the pair is not defined at every real point")
    twist_class = h2_invariant(pair)
    moduli = {"twist_class": twist_class.to_json()}
    if not twist_class.is_linear_model():
        return ClassificationReport(8, moduli)
    pattern = canonical_pattern(pair.fiber)
    if orientation < 0 and not pattern.a(0).is_real():
        return ClassificationReport(5, moduli)
    caveats = [
        "class is linear at the birational level; the finer conjugacy "
        "within birational diffeomorphisms is reported, not decided"
    ]
    return ClassificationReport("linear-stratum", moduli, caveats=caveats)


# -- the degree-4 and degree-2 routes ------------------------------------------------------------


def classify_dp4_datum(op: str, mu=None) -> ClassificationReport:
    """Family report for a named automorphism of the blown-up surfaces, read
    off the lattice facts of picard.  A surface parameter mu is checked by
    DP4Surface (DegenerateConfiguration for mu in {0, 1, -1}) and reported;
    it applies to the degree-4 surface only, so with geiser it is a
    ParseError."""
    from .picard import DP4_ACTIONS, DP4Surface, geiser_facts, lattice_make, real_invariant_rank

    if op == "geiser":
        if mu is not None:
            raise ParseError("--mu applies to dp4:alpha1 and dp4:alpha2 only")
        facts = geiser_facts()
        moduli = {"surface_degree": 2, "invariant_rank": facts["invariant_rank"],
                  "minus_one_classes": facts["minus_one_classes"]}
        return ClassificationReport(family=1, moduli=moduli)
    if op in ("alpha1", "alpha2"):
        moduli = {"surface_degree": 4, "operator": op,
                  "invariant_rank": real_invariant_rank(lattice_make(4), DP4_ACTIONS[op])}
        if mu is not None:
            moduli["mu"] = str(DP4Surface(scalar(mu)).mu)
        return ClassificationReport(family=2, moduli=moduli)
    raise ParseError(f"unknown surface operator {op!r} (expected alpha1, alpha2 or geiser)")


# -- conjugacy front end --------------------------------------------------------------------------


def decide_conjugacy(g1: SphereMap, g2: SphereMap) -> dict:
    """Conjugacy of two finite-order elements.  Both are routed as in
    classify_spheremap (a non-real input raises NotRealityMember, naming the
    argument), so each is a map r of order n with base id or z -> -z, b = 0,
    and the pair is decided in this order:

    1. two infinite orders raise UndecidedExact, two different orders read
       false;
    2. the orientation character chi (SphereMap.orientation), read when
       the base actions differ or both are base flips of order 2: two
       diffeomorphisms with different chi read false, as chi is a conjugacy
       invariant among diffeomorphisms;
    3. other pairs with different base actions, and base flips of an order
       other than 2, raise UndecidedExact;
    4. equal inputs are conjugate by the identity (equal routed maps are not
       enough: a flipped shift routes to the flip it is conjugate to);
    5. base flips of order 2 are decided in the fiber-compatible birational
       group by the twist class, a `true` without a conjugator;
    6. trivial-base involutions by their fixed-curve models up to the
       interval group, and trivial-base rotations by their angle, each
       `true` with a conjugator verified once against the inputs.  An
       involution pair whose determinants multiply to a constant times a
       square shares its model, and is `true` with base action the
       identity, its conjugator read off that square root
       (involution_conjugator); no model is built.  Only the other pairs
       build both models and compare them under the interval group.

    Lemma: for square-free monic m_A and m_B, D_A D_B = c m_A m_B
    (scale_A scale_B)^2, from the square-free splits D = lead m scale^2
    and c the product of the two leads, is a constant times a square
    exactly when m_A = m_B.  If m_A = m_B,
    D_A D_B = c (m_A scale_A scale_B)^2.  Conversely, if D_A D_B = k t^2,
    then m_A m_B = (k / c) (t / (scale_A scale_B))^2 is a constant times
    the square of a polynomial (a rational function whose square is a
    polynomial is one), so every irreducible factor of m_A m_B divides it
    an even number of times; each divides m_A and m_B at most once, so
    every factor of one divides the other, and the two monic square-free
    polynomials are equal.  Square-freeness does not depend on the field
    (characteristic 0), so the test may run over the coefficient field of
    D_A D_B.

    For the other involution pairs, basis_equiv_moduli returns the base
    action of a map S carrying the fixed curve of r1 to that of r2 or
    None, and the conjugator of (S r1 S^-1, r2) composed with S conjugates
    r1 to r2 (UnsupportedExtension when the base action or S leaves the
    tower).  Lemma: S r1 S^-1 has r2's model, so it is not compared again,
    and the square root of its conjugator exists.  Its fiber is
    Q (A o sigma^-1) Q^-1, sigma^-1 = num/den the inverse base action of S
    and A the pattern lift of r1, so its pattern determinant is lam^2 E,
    lam in C(z) and E = D_A o sigma^-1 cleared by den^(deg D_A), an even
    power.  sigma keeps |z| > 1, where
    D_A > 0, so E has a positive lead like every pattern determinant; lam^2
    is then real with a positive lead, so lam is real.  The model is thus
    E's square-free part: m_A o sigma^-1 cleared, which is a constant times
    m_B for the base action basis_equiv_moduli returns."""
    routed = []
    for which, g in (("first", g1), ("second", g2)):
        try:
            routed.append(_route(g)[:2])
        except NotRealityMember as exc:
            raise NotRealityMember(f"{which} argument: {exc}") from None
    (r1, n1), (r2, n2) = routed
    if n1 is None and n2 is None:
        raise UndecidedExact("conjugacy of infinite-order elements is not decided")
    if n1 != n2:
        return {"conjugate": False, "reason": "different orders"}
    across, flips = r1.base.kind != r2.base.kind, r1.base.kind == r2.base.kind == "neg"
    if across or flips and n1 == 2:
        chi1, chi2 = r1.orientation(), r2.orientation()
        if chi1 and chi2 and chi1 != chi2:
            return {"conjugate": False, "reason": "different orientation characters"}
    if across:
        raise UndecidedExact(f"conjugacy of elements of order {n1} with different base actions is not decided")
    if flips and n1 != 2:
        raise UndecidedExact(f"conjugacy of base-flip elements of order {n1} is not decided")
    if g1 == g2:
        conjugator = SphereMap.identity()
    elif flips:
        from .etatwist import h2_invariant

        t1, t2 = h2_invariant(r1), h2_invariant(r2)
        return {"conjugate": t1 == t2, "invariants": [t1.to_json(), t2.to_json()]}
    elif n1 == 2:
        fiber = involution_conjugator(r1.fiber, r2.fiber)
        if fiber is not None:
            conjugator = SphereMap.trivial_base(fiber)
        else:
            models = [fixed_curve(r.fiber) for r in (r1, r2)]
            base = basis_equiv_moduli(*models)
            if base is None:
                return {"conjugate": False, "fixed_curves": [m.to_json() for m in models]}
            s = base_realisation(base)
            fiber = involution_conjugator(s.compose(r1).compose(s.inverse()).fiber, r2.fiber)
            if fiber is None:
                raise RuntimeError("the moved involution does not have the second model")
            conjugator = SphereMap.trivial_base(fiber).compose(s)
    else:
        # the angle is a conjugacy invariant: equal to that of the normal form
        angles = [list(r.fiber.rotation_angle()) for r in (r1, r2)]
        if angles[0] != angles[1]:
            return {"conjugate": False, "angles": angles}
        ra, rb = rotation_normal_form(r1.fiber), rotation_normal_form(r2.fiber)
        # J_B^-1 swap J_A as one pattern product (D != 0: invertible factors); x_flip swaps the targets
        pa, pb = (r.conjugator.fiber.real_pattern for r in (ra, rb))
        if ra.target != rb.target:
            pa = _flip_fiber().real_pattern * pa
        conjugator = SphereMap.trivial_base((pb.inverse() * pa).lift_matrix())
    ConjugacyCertificate("conjugation", g1, g2, conjugator).verified()
    shown = _matrix_json(conjugator.fiber) if conjugator.base.kind == "id" else spheremap_to_json(conjugator)
    return {"conjugate": True, "conjugator": shown, "verified": True}
