"""Classification reports: routing an input element to its conjugacy family.

The eight families are: (1) the degree-2 double-cover involution, (2) the
two special degree-4 involutions, (3) rotations, (4) the reflection, (5)
the antipodal map, (6) fiberwise involutions with a pointless fixed curve
of positive genus, (7) the orientation-reversing ones with a one-oval
fixed curve, and (8) base-flip involutions with nontrivial twist class.
Reports carry the family, its moduli datum, any certificates produced, and
explicit caveats for the strata the invariants do not separate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import NotDiffeomorphism, NotRealityMember, ParseError, UndecidedExact, UnsupportedExtension
from .factor import is_prime
from .involutions import (
    HyperellipticModel,
    TrivialBaseReport,
    _flip_fiber,
    basis_equiv_moduli,
    classify_trivialbase,
    fixed_curve,
    involution_conjugator,
    rotation_normal_form,
)
from .projmat import ProjMat
from .scalars import scalar
from .sphere import (
    BaseMobius,
    ConjugacyCertificate,
    SphereMap,
    base_realisation,
    builtin_map,
    diffeo_orientation,
    reduce_to_trivial_base,
)


@dataclass
class ClassificationReport:
    family: object  # 1..8, "linear-stratum", "rational-special", "reality-only", "out-of-scope"
    moduli: dict = field(default_factory=dict)
    certificates: list[ConjugacyCertificate] = field(default_factory=list)
    caveats: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "moduli": self.moduli,
            "certificates": [certificate_json(c) for c in self.certificates],
            "caveats": self.caveats,
        }


def model_to_json(model: HyperellipticModel) -> dict:
    """w^2 = -m: -D has a negative lead for every real involution (HyperellipticModel)."""
    return {"m": str(model.m), "sign": "-"}


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


def parse_element(text: str) -> SphereMap:
    """Accept builtin:NAME, a matrix literal (trivial base), a diag(...)
    shorthand, or inline/loaded JSON.  The text grammar loads on the
    first literal: a builtin needs none of it."""
    text = text.strip()
    if text.startswith("builtin:"):
        return builtin_map(text[len("builtin:") :])
    if text.startswith("{"):
        return spheremap_from_json(json.loads(text))
    from .parsing import parse_matrix, parse_poly

    if text.startswith("diag(") and text.endswith(")"):
        inner = text[len("diag(") : -1]
        depth, cut = 0, None
        for k, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                cut = k
                break
        if cut is None:
            raise ParseError("diag(...) needs two comma-separated entries")
        a, d = parse_poly(inner[:cut]), parse_poly(inner[cut + 1 :])
        return SphereMap.trivial_base(ProjMat.diag(a, d))
    if text.startswith("[["):
        return SphereMap.trivial_base(parse_matrix(text))
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
    if g.base.kind == "neg":
        from .etatwist import classify_flip_involution

        flip = classify_flip_involution(g)
        moduli = {"twist_class": flip.twist_class.to_json()}
        return ClassificationReport(flip.family, moduli, certificates, caveats + list(flip.caveats))
    try:
        report = classify_trivialbase(g.fiber)
    except NotDiffeomorphism:
        out = ClassificationReport(
            family="out-of-scope",
            caveats=caveats
            + [
                "element is birational but contracts a real fiber, so it is not a "
                "birational diffeomorphism; fixed-curve data is still reported"
            ],
        )
        if n == 2:
            out.moduli["fixed_curve"] = model_to_json(fixed_curve(g.fiber))
        return out
    return _from_trivial_report(report, caveats, certificates)


def _from_trivial_report(rep: TrivialBaseReport, caveats, certificates) -> ClassificationReport:
    moduli: dict = {}
    if rep.angle is not None:
        moduli["angle"] = list(rep.angle)
    if rep.model is not None:
        moduli["fixed_curve"] = model_to_json(rep.model)
        moduli["genus"] = rep.model.genus()
    if rep.parameter is not None:
        moduli["parameter"] = str(rep.parameter)
        caveats = caveats + [
            "rational fixed curve without real points: conjugate to the base-flip "
            "family; the parameter is the branch value t^2"
        ]
    if rep.certificate is not None:
        certificates = certificates + [rep.certificate]
    return ClassificationReport(rep.family, moduli, certificates, caveats)


# -- the degree-4 and degree-2 routes ------------------------------------------------------------


def classify_dp4_datum(op: str, mu=None) -> ClassificationReport:
    """Family report for a named automorphism of the blown-up surfaces.  A
    surface parameter mu is checked by DP4Surface (DegenerateConfiguration
    for mu in {0, 1, -1}) and reported; it applies to the degree-4 surface
    only, so with geiser it is a ParseError."""
    from .picard import (
        DP4Surface,
        alpha1_matrix,
        alpha2_matrix,
        geiser_matrix,
        invariant_rank,
        lattice_make,
        minus_one_classes,
    )

    if op == "geiser":
        if mu is not None:
            raise ParseError("--mu applies to dp4:alpha1 and dp4:alpha2 only")
        lat = lattice_make(2)
        rank = invariant_rank(lat, [geiser_matrix(lat), lat.sigma])
        return ClassificationReport(
            family=1,
            moduli={
                "surface_degree": 2,
                "invariant_rank": rank,
                "minus_one_classes": len(minus_one_classes(lat)),
            },
        )
    if op in ("alpha1", "alpha2"):
        lat = lattice_make(4)
        mat = alpha1_matrix() if op == "alpha1" else alpha2_matrix()
        rank = invariant_rank(lat, [mat, lat.sigma])
        moduli = {"surface_degree": 4, "operator": op, "invariant_rank": rank}
        if mu is not None:
            moduli["mu"] = str(DP4Surface(scalar(mu)).mu)
        return ClassificationReport(family=2, moduli=moduli)
    raise ParseError(f"unknown surface operator {op!r} (expected alpha1, alpha2 or geiser)")


# -- conjugacy front end --------------------------------------------------------------------------


def decide_conjugacy(g1: SphereMap, g2: SphereMap) -> dict:
    """Conjugacy of two finite-order elements.  Every `true` but a base
    flip's carries a conjugator verified once against the inputs; routing,
    as in classify_spheremap, keeps trivial-base inputs as they are.

    Equal inputs are conjugate by the identity (equal routed maps are not
    enough: a flipped shift routes to the flip it is conjugate to).
    Trivial-base rotations are decided by their angle, and trivial-base
    involutions on one path by their fixed-curve models up to the interval
    group: basis_equiv_moduli finds the base map S carrying the fixed curve
    of r1 to that of r2 (S = id for equal models) or refutes one, and the
    conjugator of (S r1 S^-1, r2) composed with S conjugates r1 to r2
    (UnsupportedExtension when S leaves the tower).  Lemma: S r1 S^-1 has
    r2's model, so it is not compared again.  Its fiber is Q (A o sigma^-1)
    Q^-1, sigma^-1 = num/den the inverse base action of S and A the pattern
    lift of r1, so its pattern determinant is lam^2 E, lam in C(z) and E
    = D_A o sigma^-1 cleared by den^(deg D_A), an even power.  sigma keeps
    |z| > 1, where D_A > 0, so E has a positive lead like every pattern
    determinant; lam^2 is then real with a positive lead, so lam is real.
    The model is thus E's square-free part: m_A o sigma^-1 cleared, which
    is a constant times m_B when basis_equiv_moduli reads "equivalent".
    Two diffeomorphisms of different orientation characters are not
    conjugate among diffeomorphisms, which is all that decides a pair with
    different base actions (trivial and z -> -z); base flips of order 2 that
    agree there are decided in the fiber-compatible birational group by the
    twist class.  Two infinite-order inputs, other elements with different
    base actions and base flips of another order raise UndecidedExact; a
    non-real input raises NotRealityMember."""
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
    if r1.base.kind != r2.base.kind:
        if r1.is_diffeo() and r2.is_diffeo() and (
            r1.is_orientation_preserving_diffeo() != r2.is_orientation_preserving_diffeo()
        ):
            return {"conjugate": False, "reason": "different orientation characters"}
        raise UndecidedExact(f"conjugacy of elements of order {n1} with different base actions is not decided")
    if r1.base.kind == "neg" and n1 != 2:
        raise UndecidedExact(f"conjugacy of base-flip elements of order {n1} is not decided")
    if g1 == g2:
        conjugator = SphereMap.identity()
    elif r1.base.kind == "neg":
        from .etatwist import h2_invariant

        # for base z -> -z the fiber carries the diffeomorphism membership
        # and the orientation character, which conjugation by a diffeomorphism
        # preserves
        o1, o2 = (diffeo_orientation(r.fiber) for r in (r1, r2))
        if o1 and o2 and o1 != o2:
            return {"conjugate": False, "reason": "different orientation characters"}
        t1, t2 = h2_invariant(r1), h2_invariant(r2)
        return {"conjugate": t1 == t2, "invariants": [t1.to_json(), t2.to_json()]}
    elif n1 == 2:
        models = [fixed_curve(r.fiber) for r in (r1, r2)]
        moduli = basis_equiv_moduli(*models)
        if moduli.status == "inequivalent":
            return {"conjugate": False, "fixed_curves": [model_to_json(m) for m in models]}
        if moduli.status != "equivalent":
            raise UnsupportedExtension("the interval map between the fixed curves leaves the tower")
        s = base_realisation(BaseMobius(BaseMobius.shift(-moduli.witness_b).b, moduli.flipped))
        moved = s.compose(r1).compose(s.inverse()).fiber
        conjugator = SphereMap.trivial_base(involution_conjugator(moved, r2.fiber)).compose(s)
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
