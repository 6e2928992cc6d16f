"""Exact classification toolkit for birational maps and birational
diffeomorphisms of the real sphere compatible with its conic-bundle
projection onto the line.

Importing the package loads the layers a classification or conjugacy
answer runs through: errors, scalars, factor, poly, projmat, sphere,
involutions and classify.  The layers most answers never reach load on
first use: etatwist (the twist classes of base-flip involutions), parsing
(the text grammar of literals), picard (the lattices of the blown-up
surfaces) and positivity (the decompositions behind `realize_no_oval`).
Their public names stay reachable here through the module `__getattr__`.
The package's classes are plain classes, so the import loads no
`dataclasses` (nor the `inspect` it imports), and `json` loads only for a
JSON literal or the command line's output."""

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
    construct_conjugator,
    fixed_curve,
    involution_normal_form,
    realize_no_oval,
    realize_oval,
    rotation_normal_form,
)
from .classify import (
    ClassificationReport,
    classify_flip_involution,
    classify_spheremap,
    classify_trivialbase,
    decide_conjugacy,
)

_DEFERRED_MODULES = ("etatwist", "parsing", "picard", "positivity")
_DEFERRED = {
    **dict.fromkeys(
        ("TwistClass", "factor_even", "h2_invariant", "h2_reduce", "twisted_square"),
        "etatwist",
    ),
    **dict.fromkeys(
        (
            "DP4Surface",
            "PicLattice",
            "geiser_action",
            "image_rho_check",
            "invariant_rank",
            "is_lattice_aut",
            "lattice_make",
            "minus_one_classes",
        ),
        "picard",
    ),
    **dict.fromkeys(("is_real_positive", "norm_factor", "quadratic_decomp", "v_decomp"), "positivity"),
}


def __getattr__(name):
    """A deferred submodule, or a public name of one, imported on first use (PEP 562)."""
    from importlib import import_module

    if name in _DEFERRED_MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _DEFERRED:
        return getattr(import_module(f"{__name__}.{_DEFERRED[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_DEFERRED_MODULES) | set(_DEFERRED))
__version__ = "0.1.0"
