"""Exact classification toolkit for birational maps and birational
diffeomorphisms of the real sphere compatible with its conic-bundle
projection onto the line."""

from .errors import (
    BasePointHit,
    BirsphereError,
    DegenerateConfiguration,
    HasRealRoot,
    IndeterminateFiber,
    InfiniteOrderBase,
    NotAutomorphism,
    NotDiffeomorphism,
    NotEvenFunction,
    NotFiniteOrder,
    NotInvolution,
    NotOnSphere,
    NotRationalPolynomial,
    NotRealPolynomial,
    NotRealityMember,
    ParseError,
    UndecidedExact,
    UnsupportedExtension,
)
from .scalars import CoeffScalar, TowerReal
from .poly import Poly, RealAlgebraic, sturm_count
from .positivity import is_real_positive, norm_factor, quadratic_decomp, v_decomp
from .projmat import INF, ProjMat
from .sphere import (
    BaseMobius,
    ConjugacyCertificate,
    FiberPattern,
    SphereFormula,
    SphereMap,
    builtin_map,
    canonical_pattern,
    contracted_fibers,
    diffeo_orientation,
    in_diffeo_group,
    psi_forward,
    psi_inverse,
    reality_twist,
    reduce_to_trivial_base,
    rotation,
)
from .involutions import (
    HyperellipticModel,
    InvolutionForm,
    basis_equiv_moduli,
    classify_trivialbase,
    construct_conjugator,
    fixed_curve,
    involution_normal_form,
    realize_no_oval,
    realize_oval,
    rotation_normal_form,
)
from .etatwist import (
    TwistClass,
    classify_flip_involution,
    factor_even,
    h2_invariant,
    h2_reduce,
    twisted_square,
)
from .picard import (
    DP4Surface,
    PicLattice,
    geiser_action,
    image_rho_check,
    invariant_rank,
    is_lattice_aut,
    lattice_make,
    minus_one_classes,
)
from .classify import ClassificationReport, classify_spheremap, decide_conjugacy

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
