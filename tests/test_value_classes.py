"""The package's value classes are plain classes with hand-written methods:
the ones that compare do so by value and hash alike, the ones the benchmark
keys its inputs by print as they always have, the inputs survive pickling,
the memo holders refuse new attributes, and every report owns its lists."""

import pickle
from fractions import Fraction

import pytest

from birsphere.classify import ClassificationReport
from birsphere.etatwist import TwistClass, h2_invariant
from birsphere.poly import Poly, RealAlgebraic
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import BaseMobius, FiberPattern, SphereMap, builtin_map, canonical_pattern

Z = Poly.z()
I = CoeffScalar.i()


def _matrix():
    return ProjMat.of(Z + I, Z * Z - 1, Poly.const(3), Z * Z - 2)


def _twin_values():
    """Pairs of equal values of each comparing class, built separately."""
    return [
        (_matrix(), _matrix()),
        (BaseMobius.shift(Fraction(1, 3)), BaseMobius(TowerReal.from_rational(Fraction(1, 3)), False)),
        (BaseMobius.negation(), BaseMobius(TowerReal(), True)),
        (builtin_map("gb:1/2"), builtin_map("gb:1/2")),
        (builtin_map("g2p:1/2"), SphereMap(builtin_map("g2p:1/2").fiber, BaseMobius.negation())),
        (h2_invariant(builtin_map("g2p:1/2")), h2_invariant(builtin_map("g2p:1/2"))),
        (TwistClass(-1, ()), TwistClass(-1, ())),
        (RealAlgebraic.roots_of_irreducible(Z * Z - 2)[1], RealAlgebraic.roots_of_irreducible(Z * Z - 2)[1]),
    ]


@pytest.mark.parametrize("pair", _twin_values(), ids=lambda pair: type(pair[0]).__name__)
def test_equal_values_compare_and_hash_alike(pair):
    x, y = pair
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert x != "not a value" and not x == 3.5 and x != object()


def test_different_values_differ():
    assert _matrix() != _matrix().inverse()
    assert BaseMobius.shift(Fraction(1, 3)) != BaseMobius(BaseMobius.shift(Fraction(1, 3)).b, True)
    assert builtin_map("tau") != builtin_map("upsilon") and builtin_map("gb:1/2") != builtin_map("gb:-1/2")
    assert TwistClass(1, ()) != TwistClass(-1, ()) and h2_invariant(builtin_map("g2p:1/2")) != TwistClass(1, ())
    assert ProjMat.identity() != SphereMap.identity() and SphereMap.identity() != ProjMat.identity()


@pytest.mark.parametrize("value", [builtin_map("gb:1/2"), builtin_map("g2p:1/2"), _matrix(),
                                   BaseMobius.shift(Fraction(4, 5))], ids=lambda value: type(value).__name__)
def test_inputs_survive_pickling(value):
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_matrix_pickles_with_its_memos_and_stays_immutable():
    mat = builtin_map("tau").fiber
    pattern = canonical_pattern(mat)
    copy = pickle.loads(pickle.dumps(mat))
    assert copy == mat and copy.rotation_angle() == (1, 2)
    assert (copy.real_pattern.a, copy.real_pattern.b) == (pattern.a, pattern.b)
    with pytest.raises(AttributeError, match="immutable"):
        copy.a11 = Poly()


def test_memo_holders_refuse_new_attributes():
    mat = _matrix()
    pattern = FiberPattern(Z + 3, Poly.const(1))
    for obj, name in ((mat, "a11"), (mat, "real_pattern"), (pattern, "a"), (pattern, "contracted")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
    assert mat.a11 == Z + I and pattern.contracted.count == 0


def test_benchmark_keys_print_as_before():
    """perfbench keys each input by repr(case.args); these strings were
    printed by the dataclass reprs the classes had before."""
    assert repr(builtin_map("gb:1/2")) == (
        "SphereMap(fiber=[[1, 0], [0, 4/3*z+5/3]], base=BaseMobius(b=TowerReal(4/5), flip=False))"
    )
    assert repr(builtin_map("g2p:1/2")) == (
        "SphereMap(fiber=[[z^2-1, (1/2+i)*z^2-1/2-i], [1/2-i, -z^2+1]], base=BaseMobius(b=TowerReal(0), flip=True))"
    )


def test_each_report_owns_its_lists():
    first, second = ClassificationReport(3), ClassificationReport(3)
    first.moduli["angle"] = [0, 1]
    first.certificates.append(None)
    first.caveats.append("identity map")
    assert (second.moduli, second.certificates, second.caveats) == ({}, [], [])
