"""What `import birsphere` loads, and the command line run from a fresh
interpreter.  The in-process tests cannot see a missing deferred import:
their modules import etatwist, parsing, picard and positivity at
collection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import birsphere
from conftest import PACKAGE_MEMOS

SRC = str(Path(birsphere.__file__).parent.parent)

# The public names of the package when it imported every layer eagerly.
PUBLIC_NAMES = {
    "BaseMobius", "BasePointHit", "BirsphereError", "ClassificationReport", "CoeffScalar",
    "ConjugacyCertificate", "DP4Surface", "DegenerateConfiguration", "FiberPattern", "HasRealRoot",
    "HyperellipticModel", "INF", "IndeterminateFiber", "InfiniteOrderBase", "InvolutionForm",
    "NotAutomorphism", "NotDiffeomorphism", "NotEvenFunction", "NotFiniteOrder", "NotInvolution",
    "NotOnSphere", "NotRationalPolynomial", "NotRealPolynomial", "NotRealityMember", "ParseError",
    "PicLattice", "Poly", "ProjMat", "RealAlgebraic", "SphereFormula", "SphereMap", "TowerReal",
    "TwistClass", "UndecidedExact", "UnsupportedExtension", "basis_equiv_moduli", "builtin_map",
    "canonical_pattern", "classify", "classify_flip_involution", "classify_spheremap",
    "classify_trivialbase", "construct_conjugator", "contracted_fibers", "decide_conjugacy",
    "diffeo_orientation", "errors", "etatwist", "factor", "factor_even", "fixed_curve",
    "geiser_action", "h2_invariant", "h2_reduce", "image_rho_check", "in_diffeo_group",
    "invariant_rank", "involution_normal_form", "involutions", "is_lattice_aut", "is_real_positive",
    "lattice_make", "minus_one_classes", "norm_factor", "parsing", "picard", "poly", "positivity",
    "projmat", "psi_forward", "psi_inverse", "quadratic_decomp", "reality_twist", "realize_no_oval",
    "realize_oval", "reduce_to_trivial_base", "rotation", "rotation_normal_form", "scalars", "sphere",
    "sturm_count", "twisted_square", "v_decomp",
}


def test_public_names_unchanged():
    assert set(birsphere.__all__) == PUBLIC_NAMES


def test_queries_leave_deferred_layers_unloaded():
    """In a fresh interpreter, neither the import nor a classification, a
    conjugacy decision, a contracted-fiber query or `classify builtin:tau`
    loads parsing, picard or positivity; every public name still resolves
    on the package."""
    script = (
        "import sys\n"
        "import birsphere\n"
        "DEFERRED = ('birsphere.parsing', 'birsphere.picard', 'birsphere.positivity')\n"
        "def loaded():\n"
        "    return [m for m in DEFERRED if m in sys.modules]\n"
        "assert not loaded(), loaded()\n"
        "from birsphere import builtin_map, classify_spheremap, contracted_fibers, decide_conjugacy\n"
        "from birsphere.cli import main\n"
        "assert classify_spheremap(builtin_map('g2p:1/2')).family == 8\n"
        "assert decide_conjugacy(builtin_map('g1p:1/2'), builtin_map('g1p:-1/2'))['conjugate'] is True\n"
        "assert contracted_fibers(builtin_map('tau').fiber) == []\n"
        "assert main(['classify', 'builtin:tau']) == 0\n"
        "assert not loaded(), loaded()\n"
        "for name in birsphere.__all__:\n"
        "    getattr(birsphere, name)\n"
        "assert birsphere.lattice_make is birsphere.picard.lattice_make\n"
        "assert birsphere.v_decomp is birsphere.positivity.v_decomp\n"
        "assert sorted(loaded()) == sorted(DEFERRED)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_builds_no_memo_and_flip_free_queries_leave_etatwist_unloaded():
    """In a fresh interpreter, `import birsphere` leaves every cache of the
    package empty, so no rotation target or catalogue involution is built
    at import; a conjugacy decision, a classification and a membership query
    with trivial base leave the base-flip layer etatwist unloaded, and a
    base-flip classification loads it."""
    memos = sorted(key for key, decorator in PACKAGE_MEMOS.items() if decorator != "cached_property")
    script = (
        "import sys\n"
        "import birsphere\n"
        f"for module, name in {memos!r}:\n"
        "    info = getattr(sys.modules[f'birsphere.{module}'], name).cache_info()\n"
        "    assert info.currsize == 0, (name, info)\n"
        "from birsphere import builtin_map, classify_spheremap, contracted_fibers, decide_conjugacy, in_diffeo_group\n"
        "assert decide_conjugacy(builtin_map('g1p:1/2'), builtin_map('g1p:-1/2'))['conjugate'] is True\n"
        "assert classify_spheremap(builtin_map('rot:1/3')).family == 3\n"
        "assert in_diffeo_group(builtin_map('tau').fiber) and contracted_fibers(builtin_map('tau').fiber) == []\n"
        "assert 'birsphere.etatwist' not in sys.modules\n"
        "assert classify_spheremap(builtin_map('g2p:1/2')).family == 8\n"
        "assert 'birsphere.etatwist' in sys.modules\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


def test_startup_loads_no_generated_class_machinery():
    """In a fresh interpreter, the import and a library classification that
    loads etatwist, a conjugacy decision, a membership query and a lattice
    that loads picard leave dataclasses (and the inspect it imports) and
    json unloaded: the package's classes are plain, and json loads only
    for JSON input."""
    script = (
        "import sys\n"
        "import birsphere\n"
        "from birsphere import builtin_map, classify_spheremap, decide_conjugacy, in_diffeo_group\n"
        "assert classify_spheremap(builtin_map('g2p:1/2')).family == 8\n"
        "assert decide_conjugacy(builtin_map('g1p:1/2'), builtin_map('g1p:-1/2'))['conjugate'] is True\n"
        "assert in_diffeo_group(builtin_map('tau').fiber)\n"
        "assert birsphere.lattice_make(4).degree == 4\n"
        "assert 'birsphere.etatwist' in sys.modules and 'birsphere.picard' in sys.modules\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": SRC}, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        birsphere.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "[[0, 1-z^2],[1, 0]]"),
        ("classify", "dp4:alpha1", "--mu", "1/3"),
        ("conj", "builtin:g2p:1/2", "builtin:g2p:1/3"),
        ("member", "--group", "H0", "diag(z+2i,z-2i)"),
        ("fix", "builtin:tau"),
        ("h2", "builtin:g2p:1/2"),
        ("eval", "builtin:tau", "--point", "1,3/5,0,4/5"),
        ("order", "builtin:rot:1/6"),
        ("builtin",),
        ("picard", "dp4", "--check", "preserves", "--op", "gamma1"),
        ("picard", "counts", "4"),
        ("picard", "geiser"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_subcommand_in_fresh_interpreter(argv):
    """Each subcommand, run as `python -m birsphere` in its own interpreter,
    finds every layer it defers and prints JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-m", "birsphere", *argv], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert isinstance(json.loads(run.stdout), dict)
