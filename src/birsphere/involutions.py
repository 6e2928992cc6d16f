"""Involutions among fiberwise-real maps: normal forms, fixed curves,
conjugators with certificates, the moduli comparison, realization, and
rotation normal forms for higher order.  The family table that reads these
invariants is classify's (classify_trivialbase, decide_conjugacy).

An involution with trivial base action has the shape
[[i*p, q*h], [conj q, -i*p]] with p real; its fixed curve is the double
cover w^2 = -D with D the pattern determinant.  -D has a negative lead, so
its square class in R(z)* is -m for one monic square-free m, and m up to
the interval group is a complete conjugacy invariant, compared once by
classify.decide_conjugacy.  Two involutions share m exactly when D_A D_B
is a constant times a square (`monic_square_root`), so a shared m is
found without either model, and only a pair that fails that test has its
models compared: basis_equiv_moduli returns the base action that carries
one m to the other, or None.  Conjugators are produced in closed form:
with f = -D, both sides are companions alpha [[0, f], [1, 0]] alpha^-1,
aligned by a rescale u with u^2 = D_A / D_B in lowest terms, read off the
square root s of D_A D_B / lead as D_A / s reduced by gcd(D_A, s), and
glued by a Hilbert-90 element c + w conj(c) of the algebra
C(z)[r]/(r^2 - f), w the quotient of the two twist units mu_B / mu_A.  The
witness c is 1: a lemma on canonical patterns proves it a unit, so the
conjugator is invertible.  The conjugator is born divided by q_B u_num,
the factor all its entries share, as the lift of a pattern in closed form:
two fused sums over the two canonical patterns and the rescale, and two
products (_conjugator_entries).  The lift is canonicalised on the pattern's
two entries.
An input's pattern memoises its involution form and fixed-curve model.
"""

from __future__ import annotations

from functools import cache

from .errors import (
    HasRealRoot,
    NotInvolution,
    NotFiniteOrder,
    UnsupportedExtension,
)
from .poly import (
    ONE_MINUS_Z2,
    Poly,
    RealAlgebraic,
    cofactors,
    dot,
    monic_square_root,
    real_roots_in_tower_poly,
    sturm_count,
    times_h,
)
from .projmat import TWO_COS, ProjMat
from .scalars import CoeffScalar, TowerReal
from .sphere import (
    BaseMobius,
    ConjugacyCertificate,
    FiberPattern,
    HyperellipticModel,
    InvolutionForm,
    SphereMap,
    canonical_pattern,
    cleared_substitution,
    x_flip,
)


# -- normal forms and fixed curves ---------------------------------------------------


def involution_normal_form(mat: ProjMat) -> InvolutionForm:
    """The form of an element of order 2, memoised on its pattern (FiberPattern.involution_form)."""
    form = canonical_pattern(mat).involution_form
    if form is None:
        raise NotInvolution(f"{mat} does not have order 2")
    return form


def fixed_curve(mat: ProjMat) -> HyperellipticModel:
    """The double cover w^2 = -D traced by the fiberwise fixed points, reduced
    to its square-free model: FiberPattern.fixed_model, D = p^2 - q conj(q) h."""
    involution_normal_form(mat)  # NotInvolution unless mat has order 2
    return canonical_pattern(mat).fixed_model


# -- conjugacy decision and certificates --------------------------------------------------


# The lift [[z, h], [1, z]] of the pattern (z, 1) moves diag(1, -1) to
# [[1, -2 z h], [2 z, -1]], and the lift of its inverse (z, -1) moves it back.
_MOVER = FiberPattern(Poly.z(), Poly.const(1))
_OFF_DIAGONAL = ProjMat.of(Poly.const(1), (Poly.z() * ONE_MINUS_Z2).scale(-2), Poly.z().scale(2), Poly.const(-1))
_IDENTITY = FiberPattern(Poly.const(1), Poly())


# The catalogue matrices certificates are built against, each once, on first use.


@cache
def _flip_fiber() -> ProjMat:
    """x_flip's fiber, the involution of model m = z^2 - 1."""
    return x_flip().fiber


@cache
def _diagonal_involution() -> ProjMat:
    """diag(1, -1), the involution of model m = 1."""
    return ProjMat.diag(Poly.const(1), Poly.const(-1))


def construct_conjugator(mat_a: ProjMat, mat_b: ProjMat) -> ConjugacyCertificate:
    """The "conjugation" certificate of involution_conjugator's C, verified
    once, for two involutions with one fixed-curve model m; RuntimeError
    when they have two.  Nothing is decided here:
    classify.classify_trivialbase proves its two pairs have one m."""
    conjugator = involution_conjugator(mat_a, mat_b)
    if conjugator is None:
        raise RuntimeError("the two involutions have different fixed-curve models")
    maps = (SphereMap.trivial_base(m) for m in (mat_a, mat_b, conjugator))
    return ConjugacyCertificate("conjugation", *maps).verified()


def involution_conjugator(mat_a: ProjMat, mat_b: ProjMat) -> ProjMat | None:
    """An explicit conjugator C in the reality group with C A C^-1 = B for
    two involutions with one fixed-curve model m, or None when their models
    differ, decided by one square test (_conjugator_entries); nothing is
    verified here.

    Both involutions are written as alpha [[0, f], [1, 0]] alpha^-1 with
    f = -D, the companion of B is aligned to that of A by the rescale
    diag(1, u) with u^2 = f_A / f_B in lowest terms, read off the square
    root of D_A D_B, and the reality defect is repaired by a Hilbert-90
    element xi = c + w conj(c) of the algebra C(z)[r]/(r^2 - f), w =
    mu_B / mu_A the quotient of the twist units.  Since xi mu_A = c mu_A + conj(c) mu_B and
    alpha mu_A is proportional to tau conj(alpha), proportional to
    [[-1, i p], [0, conj q]], the conjugator is born without inverses:

        C = beta diag(1, u) M(c mu_A + conj(c) mu_B) [[conj q, -i p], [0, -1]]

    with (p, q) the form of A, beta the companion matrix of B and M(x + y r)
    = [[x, f y], [y, x]].  Divided by q_B u_num it is the lift of a pattern
    (a, b) (_conjugator_entries proves both), and C is returned as the
    canonical form of that lift, born with its pattern
    (FiberPattern.lift_matrix), so its content is taken on two entries and
    its reality is not derived again.  The witness c is 1, with a proof
    that it makes C invertible (_conjugator_entries).

    The closed form needs q != 0.  The only involution with q = 0 is
    [[i p, 0], [0, -i p]], projectively diag(1, -1), so at most one of two
    different ones has it, and the constant lift of _MOVER conjugates it to
    the constant _OFF_DIAGONAL, whose form has p = 1 and q = -2 i z != 0,
    and whose model is m = 1 like diag(1, -1)'s: -D = -(2 z^2 - 1)^2.  So
    moving A or B changes neither the answer None nor the model."""
    pattern = _conjugator_pattern(mat_a, mat_b)
    return None if pattern is None else pattern.lift_matrix()


def _conjugator_pattern(mat_a: ProjMat, mat_b: ProjMat) -> FiberPattern | None:
    """A pattern of involution_conjugator's C, times _MOVER or its inverse
    where A or B has q = 0, or None for two models.  Its D is nonzero, as
    lift_matrix requires: the movers are invertible, and for q, q_B != 0
    the undivided product has
    determinant -q_B h u_den u_num ~q (x^2 - f y^2), eta = (x + y r)/d,
    which is nonzero exactly as the witness c = 1 makes eta a unit (the
    last lemma of _conjugator_entries).
    The q of an involution's form is its pattern's b (FiberPattern.involution_form)."""
    if mat_a == mat_b:
        return _IDENTITY
    if not canonical_pattern(mat_a).b:
        pattern = _conjugator_pattern(_OFF_DIAGONAL, mat_b)
        return None if pattern is None else pattern * _MOVER
    if not canonical_pattern(mat_b).b:
        pattern = _conjugator_pattern(mat_a, _OFF_DIAGONAL)
        return None if pattern is None else _MOVER.inverse() * pattern
    return _conjugator_entries(mat_a, mat_b)


def _conjugator_entries(mat_a: ProjMat, mat_b: ProjMat) -> FiberPattern | None:
    """The pattern of the conjugator C of involution_conjugator, whose lift
    is C born divided by q_B u_num, in closed form, or None when D_A D_B is
    not a constant times a square, that is when A and B have two models
    (the lemma of classify.decide_conjugacy): with (a, b) and (a_B, b_B) the
    canonical patterns of A and B,

        (-h ~b y, b (u_den a - u_num a_B)),  y = u_num b_B + u_den b,

    where y and u_den a - u_num a_B are each one fused sum (`dot`).

    Notation: h = 1 - z^2; (p, q) and (p_B, q_B) the forms of A and B, so
    (a, b) = (i p, q) and (a_B, b_B) = (i p_B, q_B); f = -D_A and
    f_B = -D_B; the algebra C(z)[r]/(r^2 - f), whose conjugation ~ acts on
    the coefficients; c_A, c_B > 0 the leads of D_A and D_B, and s the
    monic square root of D_A D_B / (c_A c_B) (`monic_square_root`), taken
    once per pair.  u = -D_A / (sqrt(c_A c_B) s) solves u^2 = f / f_B, as
    u^2 = D_A^2 / (c_A c_B s^2) = D_A / D_B; in lowest terms u = u_num / u_den
    with u_num = (D_A / G) sqrt(c_A c_B) / c_A and u_den = -c_B s / G, G =
    gcd(D_A, s), their `cofactors`; u_num and u_den are real.
    The twist units are mu_A = (i p - r)/q and mu_B = nu / (q_B u_num) with
    nu = i p_B u_num - u_den r, and for a witness c, eta = c mu_A + ~c mu_B
    is (x + y' r)/(q q_B u_num).  Multiplying out C = beta diag(u_den,
    u_num) M(x + y' r) [[~q, -i p], [0, -1]], with
    beta = [[0, q_B h], [-1, -i p_B]], gives the first row
    q_B u_num h [~q y', -(i p y' + x)] and the second row [-~q L, i p L + K],
    where L and K are the r-part and the scalar part of
    (i p_B u_num + u_den r)(x + y' r) = -~nu (x + y' r).  The witness is
    c = 1: eta = mu_A + mu_B has x = u_num (a b_B + a_B b) and y' = -y, so
    h ~q y' = -h ~b y and -(i p y' + x) = a y - x = b (u_den a - u_num a_B),
    the closed form.

    Lemma: the twist units have equal norms, so nothing checks them.
    mu_A ~mu_A = (p^2 + f)/(q ~q) = h, as f + p^2 = q ~q h, and mu_B ~mu_B =
    (p_B^2 u_num^2 + u_den^2 f)/(q_B ~q_B u_num^2) is h exactly when
    u_den^2 f = u_num^2 f_B, that is u^2 = f / f_B, which holds by the
    choice of u.  verify checks every printed conjugator.

    Lemma: with a' = h ~q y' and b' = -(i p y' + x),

        C / (q_B u_num) = [[a', b' h], [~b', ~a']],

    the lift of the pattern (a', b'): the bottom row is the conjugate of the
    top row, with factor 1, for every witness c.
    Proof: the twist units have equal norms (above), so eta ~mu_A =
    c mu_A ~mu_A + ~c mu_B ~mu_A = mu_B ~eta.  Times q_B u_num ~q this reads
    (x + y' r)(-i p - r)/q = nu (~x + ~y' r)/(~q_B u_num), and its
    conjugate, negated, reads -~nu (x + y' r) = q_B u_num (~x + ~y' r)(r -
    i p)/~q, as p, p_B, u_num and u_den are real.  Its r-part and scalar
    part give L = q_B u_num (~x - i p ~y')/~q and K = q_B u_num (f ~y' -
    i p ~x)/~q.  So -~q L = q_B u_num ~b', and i p L + K = q_B u_num
    (p^2 + f) ~y'/~q = q_B u_num h q ~y' = q_B u_num ~a', as
    f + p^2 = q ~q h.  Dividing by q_B u_num, the matrix is the same
    projectively, so lift_matrix takes the content of what is left, and
    the bottom row is two conjugations.

    Lemma: C is invertible, that is the witness c = 1 makes eta a unit, for
    two different involutions A and B of one model whose patterns are
    canonical_pattern's.  eta = mu_A xi with xi = 1 + w, w = mu_B / mu_A
    of norm w ~w = 1, and mu_A is a unit, so eta is one exactly when xi is.
    - xi = 1 + w is singular exactly when w = -1.  Where f is not a square
      the algebra is a field.  Where f = s^2, ~s^2 = f gives ~s = +-s, and
      ~s = s is excluded, as f = -D < 0 for real |z| > 1.
      t_0 + t_1 r -> (t_0 + t_1 s, t_0 - t_1 s) splits the algebra into two
      copies of C(z), which conjugation swaps, so w = (v, 1/~v) and 1 + w is singular
      only for v = -1.
    - w = -1 is mu_B = -mu_A.  Its r-parts give b_B = -(u_den/u_num) b, and
      then its scalar parts a_B = (u_den/u_num) a: B's pattern is
      (u_den/u_num)(a, -b), whose lift is D L D with D = diag(1, -1) and L
      the lift of (a, b).  So B = D A D.
    - canonical_pattern reads the canonical form of D A D as e (a, -b),
      e = +-1: the canonical form is k L with k the constant that makes the
      first nonzero entry monic, and `_summed_pattern` reads off k L a real
      constant times (a, b) that changes sign with k.  D L D has L's first
      entry a when a != 0, so the same k and e = 1; only for a = 0 is its
      first entry -b h, and then e = -1.  A pattern born with its matrix
      (FiberPattern.lift_matrix) is `_summed_pattern` of that canonical
      matrix too.
    - The patterns e (a, -b) and (a, b) have one determinant D, so
      s = D / c with c = lead D > 0, G = s, and u = u_num / u_den =
      c / (-c) = -1.  Then w = -1 needs
      (a_B, b_B) = -(a, -b) = e (a, -b), so e = -1, so a = 0, and B's
      pattern is (0, b), A's own: B = A.  _conjugator_pattern answers A = B
      with _IDENTITY before it reaches this function."""
    pat_a, pat_b = canonical_pattern(mat_a), canonical_pattern(mat_b)
    d_a, d_b = pat_a.determinant(), pat_b.determinant()
    s = monic_square_root(d_a * d_b)
    if s is None:
        return None
    c_a, c_b = d_a.lead(), d_b.lead()
    u_num, u_den = cofactors(d_a, s)
    u_num, u_den = u_num.scale((c_a * c_b).sqrt() / c_a), u_den.scale(-c_b)
    a, b, a_b, b_b = pat_a.a, pat_a.b, pat_b.a, pat_b.b
    y = dot(((1, u_num, b_b), (1, u_den, b)))
    return FiberPattern(-times_h(b.conj() * y), b * dot(((1, u_den, a), (-1, u_num, a_b))))


# -- realization ---------------------------------------------------------------------------


def realize_oval(beta: Poly) -> ProjMat:
    """The involution [[0, beta*h], [conj beta, 0]]; orientation-reversing
    with fixed curve w^2 = (1-z^2) * beta * conj(beta)."""
    if not beta:
        raise HasRealRoot("zero polynomial is not allowed")
    norm = beta * beta.conj()
    if sturm_count(norm) != 0:
        raise HasRealRoot(f"{beta} has a real root")
    return ProjMat.of(Poly(), beta * ONE_MINUS_Z2, beta.conj(), Poly())


def realize_no_oval(f: Poly) -> ProjMat:
    """An orientation-preserving involution with fixed curve w^2 = -f, read
    off the decomposition f = a^2 + P (z^2 - 1) (`v_decomp`) and P = b ~b
    (`norm_factor`) as the form (a, b).  ValueError when f is not strictly
    positive.  UnsupportedExtension when the decomposition needs a square
    root outside the tower, as for z^2 + z + 1, z^2 + 2z + 2 and
    z^2 + 2z + 5, whose P is a tower constant with no square root in the
    tower; z^2 + 3 and (z^2 + 1)(z^2 + 4) are realised.  Whether such an f
    has another realization over the tower is not decided here."""
    from .positivity import is_real_positive, norm_factor, v_decomp

    if not is_real_positive(f):
        raise ValueError("strictly positive polynomial required")
    a, p = v_decomp(f)
    i = CoeffScalar.i()
    if not p:
        return ProjMat.diag(a.scale(i), a.scale(-i))
    b = norm_factor(p)
    return InvolutionForm(a, b).matrix()


# -- rotation normal form ---------------------------------------------------------------------


def rotation_normal_form(mat: ProjMat) -> ConjugacyCertificate:
    """The "rotation-normal-form" certificate conjugating a finite-order
    fiberwise-real map of order > 2 to the rotation diag(1, zeta^{+-1})
    inside the reality group, in closed form.

    Let (a, b) be the pattern of A, t = a + conj(a), and theta = pi k / n for
    the angle (k, n).  Then kappa = t^2 / det = 4 cos^2(theta), so
    Delta^2 = t^2 - 4 det = (a - conj(a))^2 + 4 b conj(b) h is
    -tan^2(theta) t^2, and Delta = i tan(theta) sign(lead t) t.  If b = 0, A is
    already diagonal and J = 1.  Otherwise put x = conj(a) - a - Delta and
    J = [[x, -2 b h], [2 conj(b), x]]:
    - Delta is i times a real polynomial, so conj(Delta) = -Delta and
      conj(x) = -x; hence J = i [[-i x, 2 i b h], [conj(2 i b), conj(-i x)]]
      is built as the lift of the pattern (-i x, 2 i b)
      (FiberPattern.lift_matrix), in the reality group;
    - det J = -2 Delta x, and x = 0 would force b conj(b) h = 0, so J is
      invertible;
    - the columns (x, -2 conj(b)) and (2 b h, x) of adj J are eigenvectors of
      A for (t + Delta)/2 and (t - Delta)/2, so J A J^-1 = diag(t + Delta,
      t - Delta), which is diag(1, exp(-+2 i theta)) projectively.
    tan(theta) = sqrt((1 - cos 2 theta)/(1 + cos 2 theta)) lies in the tower,
    as n is never 5 or 10.  Lemma: no reality element over the tower has order
    5 or 10, so classify and conj meet the prime orders 2 and 3 only.  With
    a = r + i s, r and s real, the identity above reads
    tan^2(theta) r^2 = s^2 - b conj(b) h.  At z = +-1, where h = 0, tan(theta)
    would generate a cyclic quartic field, which lies in no multiquadratic
    one, so r and s vanish there; then b conj(b) h vanishes to second order,
    so b(+-1) = 0, and (a, b) / (z^2 - 1) is a smaller pattern of the same
    map: an infinite descent.  The certificate is not verified here: classify
    verifies it for its report, conj only the one it composes from two.
    """
    angle = mat.rotation_angle()
    if angle is None:
        raise NotFiniteOrder(f"{mat} has infinite order")
    if angle[1] <= 2:
        raise ValueError("rotation normal form needs order > 2")
    pat = canonical_pattern(mat)
    if not pat.b:
        conjugator, target = ProjMat.identity(), mat
    else:
        t = pat.a + pat.a.conj()
        k, target = _rotation_target(angle, t.lead().as_real().sign())
        x = pat.a.conj() - pat.a - t.scale(k)
        conjugator = FiberPattern(x.scale(-CoeffScalar.i()), pat.b.scale(CoeffScalar(0, 2))).lift_matrix()
    source, target, conjugator = (SphereMap.trivial_base(m) for m in (mat, target, conjugator))
    return ConjugacyCertificate("rotation-normal-form", source, target, conjugator)


@cache
def _rotation_target(angle: tuple[int, int], sign: int) -> tuple[CoeffScalar, ProjMat]:
    """(k, diag(1 + k, 1 - k)) with k = i sign tan(theta), for the angle and
    theta of rotation_normal_form and the sign of lead(t), computed once.

    Lemma: Delta = k t, so t +- Delta = t (1 +- k), and diag(t + Delta,
    t - Delta) is projectively the constant diag(1 + k, 1 - k).  The
    canonical form is unique, so this is the target the entries give."""
    cos2 = TWO_COS[angle] / 2
    k = CoeffScalar(0, ((1 - cos2) / (1 + cos2)).sqrt() * sign)
    return k, ProjMat.diag(1 + k, 1 - k)


# -- moduli comparison under the interval group ----------------------------------------------


def basis_equiv_moduli(model_a: HyperellipticModel, model_b: HyperellipticModel) -> BaseMobius | None:
    """The base action sigma, shift_-b with the flip z -> -z applied first
    or not, that carries the branch divisor of model_a to that of model_b, in
    closed form (classify.decide_conjugacy moves model_a's involution by its
    realisation); None when no interval-preserving base map does.

    In u = (1 + z)/(1 - z) the shift z -> (z + b)/(1 + b z) is u -> lam u with
    lam = (1 + b)/(1 - b) > 0, and the flip z -> -z is u -> 1/u.  With
    (u + 1)^d m((u - 1)/(u + 1)) = sum c_k u^k, d the degree, the shift
    carries m_a to a multiple of m_b exactly when c^b_k = mu lam^k c^a_k for
    every k, and the flip reverses the list c^a.  So both lists need one
    support S, and the ratios r_k = c^b_k / c^a_k need r_k / r_k0 = lam^(k - k0)
    on S, k0 < k1 its two least indices.  As positive e-th roots are unique,
    e = k1 - k0, that holds for some lam > 0 exactly when r_k / r_k0 > 0 and
    (r_k / r_k0)^e = (r_k1 / r_k0)^(k - k0) for k in S; then lam is the
    positive e-th root of r_k1 / r_k0, b = (lam - 1)/(lam + 1), and sigma
    has -b = (1 - lam)/(1 + lam), in (-1, 1) as lam > 0.  When |S| = 1 every
    shift works, and b = 0.  UnsupportedExtension when lam has no tower
    form (`RealAlgebraic.to_tower`) and no other orientation is found.  A
    symmetric model passes both orientations: one whose shift
    base_realisation builds (sqrt(lam) in the tower) comes first.  Equal
    models take the identity from the flip-free pass: c^b = c^a makes every
    r_k equal to 1, so lam = 1 and b = 0; decide_conjugacy never asks, as
    its square test answers them.  No sign is compared: both curves are
    w^2 = -m (HyperellipticModel).
    """
    if model_a.degree != model_b.degree:
        return None
    source, target = _u_coefficients(model_a), _u_coefficients(model_b)
    undecided, found = False, []
    for flipped in (False, True):
        lam = _scaling(source[::-1] if flipped else source, target)
        if lam is None:
            continue
        try:
            lam = lam.to_tower()
        except ValueError:
            undecided = True
            continue
        found.append(BaseMobius((1 - lam) / (1 + lam), flipped))
        try:
            lam.sqrt()  # base_realisation's sqrt(1 - b^2) is 2 sqrt(lam)/(lam + 1)
            return found[-1]
        except UnsupportedExtension:
            continue
    if found:
        return found[0]
    if undecided:
        raise UnsupportedExtension("the interval map between the fixed curves leaves the tower")
    return None


def _u_coefficients(model: HyperellipticModel) -> list[TowerReal]:
    """c_0, ..., c_d with (u + 1)^d m((u - 1)/(u + 1)) = sum c_k u^k."""
    form = cleared_substitution(model.m, Poly([-1, 1]), Poly([1, 1]), model.degree)
    return [form[k].as_real() for k in range(model.degree + 1)]


def _scaling(source: list[TowerReal], target: list[TowerReal]) -> RealAlgebraic | None:
    """The lam > 0 with source_k lam^k proportional to target_k, if any."""
    support = [k for k, c in enumerate(source) if c]
    if support != [k for k, c in enumerate(target) if c]:
        return None
    if len(support) == 1:
        return RealAlgebraic.from_rational(1)
    k0, k1 = support[:2]
    e = k1 - k0
    r0 = target[k0] / source[k0]
    rho = target[k1] / source[k1] / r0
    for k in support:
        x = target[k] / source[k] / r0
        if x.sign() < 0 or x**e != rho ** (k - k0):
            return None
    return real_roots_in_tower_poly(Poly([-rho] + [0] * (e - 1) + [1]))[-1]
