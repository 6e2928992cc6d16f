import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from birsphere.classify import (
    classify_dp4_datum,
    classify_spheremap,
    decide_conjugacy,
    parse_element,
    spheremap_from_json,
    spheremap_to_json,
)
from birsphere.cli import main
from birsphere.parsing import parse_poly
from birsphere.projmat import ProjMat
from birsphere.scalars import CoeffScalar, TowerReal
from birsphere.sphere import (
    BUILTIN_NAMES,
    BaseMobius,
    ConjugacyCertificate,
    SphereFormula,
    SphereMap,
    _normalize_point,
    base_realisation,
    builtin_map,
    on_sphere,
    psi_inverse,
    rotation,
    unit_root,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_element_forms():
    assert parse_element("builtin:tau") == builtin_map("tau")
    g = parse_element("[[0, 1-z^2],[1, 0]]")
    assert g.fiber == builtin_map("tau").fiber
    d = parse_element("diag(z+2i, z-2i)")
    assert d.base.kind == "id"


def test_spheremap_json_roundtrip():
    for name in ("tau", "upsilon", "antipodal", "tilde_eta", "rot:1/3", "gb:1/2", "g2p:1/2"):
        g = builtin_map(name)
        data = spheremap_to_json(g)
        back = spheremap_from_json(json.loads(json.dumps(data)))
        assert back == g, name
    # an irrational interval parameter prints as its tower string
    g = base_realisation(BaseMobius.shift(TowerReal.sqrt_rational(2) / 2)).compose(builtin_map("tilde_eta"))
    data = spheremap_to_json(g)
    assert data["base"] == {"interval_b": "1/2*sqrt(2)", "flip": True}
    assert spheremap_from_json(json.loads(json.dumps(data))) == g


def test_classification_table():
    expectations = {
        "tau": 4,
        "upsilon": 4,
        "antipodal": 5,
        "rot:1/2": 3,
        "rot:1/3": 3,
        "g2p:1/2": 8,
        "tilde_eta": "linear-stratum",
        "g1p:1/2": "rational-special",
        "gb:1/2": "reality-only",
    }
    for name, family in expectations.items():
        report = classify_spheremap(builtin_map(name))
        assert report.family == family, (name, report.family)


def test_classify_flipped_shift_reduces():
    g = builtin_map("gb:1/2").compose(builtin_map("tilde_eta"))
    report = classify_spheremap(g)
    reductions = [c for c in report.to_json()["certificates"] if c["kind"] == "base-reduction"]
    assert reductions and all(c["verified"] is True for c in reductions)
    assert report.family in (3, 4, 5, 6, 7, 8, "linear-stratum", "rational-special")


def test_decide_conjugacy():
    res = decide_conjugacy(builtin_map("tau"), builtin_map("upsilon"))
    assert res["conjugate"] and res["verified"]
    res = decide_conjugacy(builtin_map("g1p:1/2"), builtin_map("g1p:1/3"))
    assert not res["conjugate"]
    res = decide_conjugacy(builtin_map("g1p:1/2"), builtin_map("g1p:-1/2"))
    assert res["conjugate"] and res["verified"]
    res = decide_conjugacy(builtin_map("g2p:1/2"), builtin_map("g2p:1/3"))
    assert not res["conjugate"]
    res = decide_conjugacy(builtin_map("g2p:1/2"), builtin_map("g2p:-1/2"))
    assert res["conjugate"]


def test_conj_flip_orientation_characters():
    """The half-turn y_flip o z_flip = (x, -y, -z) preserves orientation and
    the reflection tilde_eta = (x, y, -z) reverses it; their twist classes
    agree, but no diffeomorphism conjugates them."""
    from birsphere.etatwist import h2_invariant

    half_turn, eta = builtin_map("tau").compose(builtin_map("tilde_eta")), builtin_map("tilde_eta")
    assert (half_turn.orientation(), eta.orientation()) == (1, -1)
    assert h2_invariant(half_turn) == h2_invariant(eta)
    for pair in ((half_turn, eta), (eta, half_turn)):
        assert decide_conjugacy(*pair) == {"conjugate": False, "reason": "different orientation characters"}


CONJ_CATALOGUE = (
    "tau", "upsilon", "antipodal", "tilde_eta", "rot:1/2", "rot:1/3", "rot:2/3", "g2p:1/2", "g2p:-1/2", "g2p:1/3"
)


def test_conj_catalogue_answers_are_sound():
    """Over every ordered pair of a fixed builtin list plus the half-turn
    y_flip o z_flip, conj either raises a typed UndecidedExact or
    UnsupportedExtension, answers false, or answers true with a conjugator
    that verifies against the inputs as printed.  An uncertified true is a
    pair of distinct base flips whose twist classes and orientation
    characters agree; only g2p:1/2 against g2p:-1/2, both ways, is left.
    Of the pairs of one order with different base actions (trivial and
    z -> -z), exactly the 20 diffeomorphism pairs whose orientation
    characters differ read false for that reason, and the other 16 stay
    undecided."""
    from birsphere.errors import UndecidedExact, UnsupportedExtension
    from birsphere.etatwist import h2_invariant

    names = list(CONJ_CATALOGUE) + ["half-turn"]
    maps = [builtin_map(name) for name in CONJ_CATALOGUE]
    maps.append(builtin_map("tau").compose(builtin_map("tilde_eta")))
    uncertified, by_orientation, undecided = [], [], []
    for name1, g1 in zip(names, maps):
        for name2, g2 in zip(names, maps):
            try:
                res = decide_conjugacy(g1, g2)
            except UndecidedExact:
                undecided.append((name1, name2))
                continue
            except UnsupportedExtension:
                continue
            if not res["conjugate"]:
                if g1.base.kind != g2.base.kind and res.get("reason") != "different orders":
                    assert res == {"conjugate": False, "reason": "different orientation characters"}
                    by_orientation.append((name1, name2))
                continue
            if res.get("verified") is True:
                assert _certificate_verifies(res, g1, g2), (name1, name2)
                continue
            uncertified.append((name1, name2))
            assert g1 != g2 and g1.base.kind == g2.base.kind == "neg", (g1, g2)
            assert h2_invariant(g1) == h2_invariant(g2)
            assert g1.orientation() == g2.orientation(), (g1, g2)
    assert uncertified == [("g2p:1/2", "g2p:-1/2"), ("g2p:-1/2", "g2p:1/2")]
    characters = [g.orientation() for g in maps]
    across = [
        (names[j], names[k], characters[j] and characters[k] and characters[j] != characters[k])
        for j, g1 in enumerate(maps)
        for k, g2 in enumerate(maps)
        if g1.base.kind != g2.base.kind and g1.order() == g2.order()
    ]
    assert by_orientation == [(n1, n2) for n1, n2, differ in across if differ]
    assert undecided == [(n1, n2) for n1, n2, differ in across if not differ]
    assert len(by_orientation) == 20 and len(undecided) == 16
    assert {("tau", "g2p:1/2"), ("tau", "half-turn"), ("rot:1/2", "antipodal")} <= set(by_orientation)


def _fiber_from_json(rows) -> SphereMap:
    return SphereMap.trivial_base(ProjMat.of(*(parse_poly(e) for row in rows for e in row)))


def _certificate_verifies(res, g1, g2) -> bool:
    """The printed conjugator, read back as a matrix for a trivial base and
    as a sphere map otherwise, conjugates g1 to g2."""
    data = json.loads(json.dumps(res["conjugator"]))
    conjugator = spheremap_from_json(data) if isinstance(data, dict) else _fiber_from_json(data)
    return ConjugacyCertificate("conjugation", g1, g2, conjugator).verify()


def test_conj_self_pairs_carry_the_identity(capsys):
    """An element is conjugate to itself by the identity: the order-1 pair,
    a trivial-base involution and a base flip alike."""
    identity = [["1", "0"], ["0", "1"]]
    for name in ("rot:1/1", "tau", "antipodal", "g2p:1/2"):
        code, out, _ = run_cli(capsys, "conj", f"builtin:{name}", f"builtin:{name}")
        assert code == 0 and json.loads(out) == {"conjugate": True, "conjugator": identity, "verified": True}, name


def test_conj_rotations(capsys):
    code, out, _ = run_cli(capsys, "conj", "builtin:rot:1/3", "builtin:rot:2/3")
    res = json.loads(out)
    assert code == 0 and res["conjugate"] and res["verified"]
    assert res["conjugator"] == [["0", "z^2-1"], ["1", "0"]]  # x_flip
    assert _certificate_verifies(res, builtin_map("rot:1/3"), builtin_map("rot:2/3"))
    res = decide_conjugacy(builtin_map("rot:1/8"), builtin_map("rot:3/8"))
    assert res == {"conjugate": False, "angles": [[1, 8], [3, 8]]}


def test_conj_different_angles_builds_no_normal_form(monkeypatch):
    """Rotations of different angles are refuted by the angle alone, before
    either rotation normal form is built."""
    import birsphere.classify as classify

    built = []
    real = classify.rotation_normal_form
    monkeypatch.setattr(classify, "rotation_normal_form", lambda mat: built.append(mat) or real(mat))
    res = decide_conjugacy(builtin_map("rot:1/8"), builtin_map("rot:3/8"))
    assert res == {"conjugate": False, "angles": [[1, 8], [3, 8]]}
    assert built == []
    assert decide_conjugacy(builtin_map("rot:1/8"), builtin_map("rot:7/8"))["conjugate"]
    assert len(built) == 2


def test_conj_infinite_order(capsys):
    for pair in (("builtin:gb:1/2", "builtin:gb:1/3"), ("diag(2+i, 2-i)", "diag(2+i, 2-i)")):
        code, out, err = run_cli(capsys, "conj", *pair)
        assert code == 4 and not out and err.startswith("undecided:")
    for pair in (("builtin:gb:1/2", "builtin:tau"), ("builtin:tau", "builtin:gb:1/2")):
        code, out, _ = run_cli(capsys, "conj", *pair)
        assert code == 0 and json.loads(out) == {"conjugate": False, "reason": "different orders"}


def test_conj_typed_errors():
    from birsphere.errors import NotRealityMember, UndecidedExact
    from birsphere.poly import Poly
    from birsphere.projmat import ProjMat
    from birsphere.scalars import CoeffScalar
    from birsphere.sphere import BaseMobius, SphereMap

    unreal = parse_element("[[1, 1],[1, 1+z]]")
    with pytest.raises(NotRealityMember, match="second argument"):
        decide_conjugacy(builtin_map("tau"), unreal)
    with pytest.raises(NotRealityMember, match="first argument"):
        decide_conjugacy(unreal, builtin_map("tau"))
    order4 = SphereMap(ProjMat.diag(Poly.const(1), Poly.const(CoeffScalar.i())), BaseMobius.negation())
    assert order4.reality_check() and order4.order() == 4
    with pytest.raises(UndecidedExact):
        decide_conjugacy(order4, order4)


def test_conj_shifted_base_flip():
    from birsphere.sphere import interval_shift

    s = interval_shift(Fraction(1, 2))
    eta = builtin_map("tilde_eta")
    shifted = s.compose(eta).compose(s.inverse())
    assert shifted.base.kind == "flipped_shift"
    # the routed pair is (eta, eta), yet the identity does not conjugate the
    # inputs, so it must not be printed for them
    assert not ConjugacyCertificate("conjugation", shifted, eta, SphereMap.identity()).verify()
    for pair in ((shifted, eta), (eta, shifted)):
        res = decide_conjugacy(*pair)
        assert res["conjugate"] and "conjugator" not in res
    res = decide_conjugacy(shifted, shifted)
    assert res["conjugate"] and res["verified"] and _certificate_verifies(res, shifted, shifted)


def test_twist_class_computed_once(monkeypatch):
    import birsphere.etatwist as etatwist

    calls = []
    real = etatwist.h2_invariant
    monkeypatch.setattr(etatwist, "h2_invariant", lambda g: calls.append(1) or real(g))
    res = decide_conjugacy(builtin_map("g2p:1/2"), builtin_map("g2p:1/3"))
    assert not res["conjugate"] and len(res["invariants"]) == 2
    assert len(calls) == 2


def test_dp4_data_route():
    rep = classify_dp4_datum("alpha1")
    assert rep.family == 2 and rep.moduli["invariant_rank"] == 1
    rep = classify_dp4_datum("geiser")
    assert rep.family == 1 and rep.moduli["minus_one_classes"] == 56


def test_cli_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "builtin:tau")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == 4
    assert payload["certificates"][0]["verified"]


def test_cli_member_fix_h2_order(capsys):
    code, out, _ = run_cli(capsys, "member", "--group", "H0", "diag(z+2i,z-2i)")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run_cli(capsys, "member", "--group", "H0", "builtin:tau")
    assert code == 0 and json.loads(out)["member"] is False
    code, out, _ = run_cli(capsys, "member", "--group", "H", "builtin:tau")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run_cli(capsys, "fix", "builtin:tau")
    payload = json.loads(out)
    assert payload == {"m": "z^2-1", "sign": "-", "genus": 0}
    code, out, _ = run_cli(capsys, "h2", "builtin:g2p:1/2")
    payload = json.loads(out)
    assert payload["sign"] == "+" and len(payload["gens"]) == 1
    code, out, _ = run_cli(capsys, "order", "builtin:rot:1/6")
    assert json.loads(out)["order"] == 6


def test_cli_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "builtin:tau", "--point", "1,3/5,0,4/5")
    payload = json.loads(out)
    assert payload["defined"] and payload["image"] == ["1", "3/5", "0", "4/5"]
    code, out, _ = run_cli(capsys, "eval", "builtin:tau", "--point", "0,i,1,0")
    assert not json.loads(out)["defined"]


def test_cli_picard(capsys):
    code, out, _ = run_cli(capsys, "picard", "counts", "2")
    assert json.loads(out)["minus_one_classes"] == 56
    code, out, _ = run_cli(capsys, "picard", "dp4", "--op", "alpha1", "--check", "rank")
    assert json.loads(out)["invariant_rank"] == 1
    code, out, _ = run_cli(capsys, "picard", "dp4", "--op", "gamma1", "--check", "preserves", "--mu", "3/5+4/5i")
    assert json.loads(out)["preserves_quadrics"] is True
    code, out, _ = run_cli(capsys, "picard", "geiser")
    payload = json.loads(out)
    assert payload["swaps_with_minus_k"] and payload["invariant_rank"] == 1
    code, out, _ = run_cli(capsys, "picard", "dp4", "--check", "rho", "--mu", "3/5+4/5i")
    assert json.loads(out)["extra_symmetry"] is True


@pytest.mark.parametrize("check, valid", [
    ("rank", "alpha1, alpha2, g1, g2"),
    ("aut", "alpha1, alpha2, g1, g2, rejected1, rejected2"),
    ("preserves", "gamma1, gamma2, gamma, alpha1, alpha2"),
])
def test_picard_dp4_unknown_op_is_a_parse_error(capsys, check, valid):
    code, out, err = run_cli(capsys, "picard", "dp4", "--check", check, "--op", "foo")
    assert code == 2 and not out and f"(expected {valid})" in err and "'foo'" in err


@pytest.mark.parametrize("mu", ["0", "1", "-1"])
def test_picard_dp4_dataset_validates_mu(capsys, mu):
    """--check dataset validates mu through DP4Surface, as the other checks
    do: 1 and -1 verified a degenerate surface, and 0 failed on an inverse."""
    code, out, err = run_cli(capsys, "picard", "dp4", "--check", "dataset", "--mu", mu)
    assert code == 5 and not out and "mu must avoid {0, 1, -1}" in err


@pytest.mark.parametrize("check", ["rho", "dataset"])
def test_picard_dp4_op_is_refused_where_unused(capsys, check):
    """--check rho and --check dataset read no operator, so an --op, even a
    valid one, is a parse error rather than ignored; without it they answer."""
    for op in ("foo", "alpha1"):
        code, out, err = run_cli(capsys, "picard", "dp4", "--check", check, "--op", op)
        assert code == 2 and not out and "--op applies to --check rank, aut and preserves only" in err
    code, out, _ = run_cli(capsys, "picard", "dp4", "--check", check, "--mu", "3/5+4/5i")
    assert code == 0 and json.loads(out)


def test_classify_dp4_mu_is_parsed_and_checked(capsys):
    code, out, _ = run_cli(capsys, "classify", "dp4:alpha1", "--mu", "3/5+4/5i")
    assert code == 0 and json.loads(out)["moduli"]["mu"] == str(CoeffScalar(Fraction(3, 5), Fraction(4, 5)))
    for bad in ("zz", "1/0", "z"):
        code, out, _ = run_cli(capsys, "classify", "dp4:alpha1", "--mu", bad)
        assert code == 2 and not out
    for degenerate in ("0", "1", "-1", "2/2"):
        code, out, err = run_cli(capsys, "classify", "dp4:alpha2", "--mu", degenerate)
        assert code == 5 and not out and "mu must avoid" in err
    for element in ("geiser", "dp4:geiser", "builtin:tau"):
        code, out, err = run_cli(capsys, "classify", element, "--mu", "2")
        assert code == 2 and not out and "--mu applies to dp4:alpha1 and dp4:alpha2 only" in err


def test_cli_exit_codes(capsys, tmp_path, monkeypatch):
    code, _, err = run_cli(capsys, "classify", "builtin:nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "order", "not a matrix")
    assert code == 2
    code, _, err = run_cli(capsys, "fix", "builtin:gb:1/2")
    assert code == 5 and "infinite order" in err  # an interval shift fixes no curve
    code, _, err = run_cli(capsys, "fix", "builtin:tilde_eta")
    assert code == 4 and "base action neg" in err  # no fixed curve is computed for a base flip
    code, _, err = run_cli(capsys, "h2", "builtin:rot:1/3")
    assert code == 5  # base action is not the flip
    code, _, err = run_cli(capsys, "classify", "builtin:rot:1/0")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "builtin:rot:1/-3")
    assert code == 2
    # a literal that names no element exits 2 in every syntax, as it does in JSON:
    # zero matrices, zero determinants and interval parameters outside (-1, 1)
    for element in ("[[0,0],[0,0]]", "diag(0,0)", "[[1,1],[1,1]]", "builtin:gb:1", "builtin:gb:0", "builtin:gb:3/2",
                    '{"fiber": [["0", "0"], ["0", "0"]]}',
                    '{"fiber": [["1", "0"], ["0", "1"]], "base": {"interval_t": "1"}}'):
        code, _, err = run_cli(capsys, "classify", element)
        assert code == 2 and err.startswith("parse error:"), (element, code, err)
    # so does malformed JSON, inline, in a file and on stdin
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    monkeypatch.setattr("sys.stdin", io.StringIO("{bad"))
    for element in ("{bad", str(bad), "-"):
        code, _, err = run_cli(capsys, "classify", element)
        assert code == 2 and err.startswith("parse error: malformed sphere map JSON"), (element, code, err)
    # and so does input that is not UTF-8, in a file and on a stdin that decodes strictly
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe{")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"))
    for element in (str(undecodable), "-"):
        code, _, err = run_cli(capsys, "classify", element)
        assert code == 2 and err.startswith("parse error:"), (element, code, err)
    # errors of the package's own types keep their codes
    code, _, err = run_cli(capsys, "classify", "builtin:rot:1/5")
    assert code == 3
    code, _, err = run_cli(capsys, "classify", "builtin:g1p:0")
    assert code == 5 and "degenerates the surface" in err
    # a point is checked before the map is evaluated: all zero, like three coordinates, is a parse error
    for point in ("0,0,0,0", "0,0,0"):
        code, _, err = run_cli(capsys, "eval", "builtin:tau", "--point", point)
        assert code == 2 and "not all zero" in err, point
    # a base action is no conjugacy invariant: tilde_eta and tau are both
    # reflections, rot:1/2 and tau composed with tilde_eta are half-turns,
    # and classify calls g1p:1/2 conjugate to the base-flip family
    tau_flip = json.dumps(spheremap_to_json(builtin_map("tau").compose(builtin_map("tilde_eta"))))
    for first, second in (("builtin:tilde_eta", "builtin:tau"), ("builtin:rot:1/2", tau_flip),
                          ("builtin:g1p:1/2", "builtin:g2p:1/2")):
        code, _, err = run_cli(capsys, "conj", first, second)
        assert code == 4 and "order 2 with different base actions" in err


def test_python_m_birsphere_runs_the_cli():
    """`python -m birsphere` runs the command line from a checkout with
    src on the path, without an installed entry point."""
    import os
    import subprocess
    import sys

    import birsphere

    src = str(Path(birsphere.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "birsphere", "builtin"], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0 and "tau" in json.loads(proc.stdout)["builtins"]


def test_an_unstattable_or_unreadable_argument_is_a_parse_error(capsys, tmp_path, monkeypatch):
    """An argument too long to be a file name (stat raises ENAMETOOLONG) is
    parsed as an element: exit 2 and one stderr line, no traceback.  A file
    that cannot be read is a parse error too."""
    import os
    import subprocess
    import sys

    import birsphere

    env = dict(os.environ, PYTHONPATH=str(Path(birsphere.__file__).parent.parent))
    for name in ("z" * 5000, "a/" * 3000):
        proc = subprocess.run([sys.executable, "-m", "birsphere", "classify", name], capture_output=True, env=env,
                              timeout=60)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 2 and len(lines) == 1 and lines[0].startswith("parse error:"), proc.stderr[-300:]
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text('{"fiber": [["1", "0"], ["0", "1"]]}')

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run_cli(capsys, "classify", str(unreadable))
    assert (code, out) == (2, "") and err == f"parse error: cannot read {unreadable}: Permission denied\n"


def test_closed_pipe_ends_the_cli_quietly():
    """A reader that has closed its end of the pipe (`birsphere builtin |
    head -0`) ends the command with exit 0 and nothing on stderr."""
    import os
    import subprocess
    import sys

    import birsphere

    env = dict(os.environ, PYTHONPATH=str(Path(birsphere.__file__).parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "birsphere", "builtin"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_error_messages_print_values_not_python_text(capsys):
    """An off-sphere point prints its coordinates through str, and sphere-map
    JSON of the wrong shape names the shape it expects; exit codes 5 and 2."""
    code, _, err = run_cli(capsys, "eval", "builtin:tau", "--point", "1,0,0,0")
    assert (code, err) == (5, "error: (1, 0, 0, 0) does not satisfy w^2 = x^2+y^2+z^2\n")
    expected = (
        'parse error: malformed sphere map JSON: expected {"fiber": [["a11", "a12"], ["a21", "a22"]], '
        '"base": "id", "neg" or {"interval_t" or "interval_b": "q", "flip": true}}\n'
    )
    for text in ('{"fiber": 3}', '{"fiber": [[1]]}', '{"fiber": ["ab", "cd"]}', '{"fiber": [["1", "0"], ["0"]]}',
                 '{"fiber": [["1", "0"], ["0", "1"]], "base": "up"}', "{}"):
        code, _, err = run_cli(capsys, "order", text)
        assert (code, err) == (2, expected), text


def test_bad_interval_parameter_is_a_parse_error(capsys):
    """A sphere-map JSON interval_t that is not a rational, or interval_b
    that is not a real constant, exits 2 with a message naming the field,
    not Python's own text or the scalar parser's."""
    for field, kind, texts in (("interval_t", "a rational", ("1/0", "abc")),
                               ("interval_b", "a real constant", ("1/0", "abc", "i"))):
        for text in texts:
            element = json.dumps({"fiber": [["1", "0"], ["0", "1"]], "base": {field: text}})
            code, out, err = run_cli(capsys, "order", element)
            assert (code, out) == (2, "")
            assert err == f"parse error: malformed sphere map JSON: {field} must be {kind}, got {text!r}\n"


def test_eval_on_the_conic_at_infinity_with_rank_one_leading_terms(capsys):
    """At a point with w = 0, which the chart sends to (INF, INF) whatever
    its place on the conic, eval answers the limit of the map there, also
    when the leading coefficients form a rank-1 matrix.  Approach the point
    along t = s z, z -> INF, with s = (x - iy)/z = -i its place on the
    conic: [[z, 1], [1, 2]] gives t/z -> 1, the point s = 1 of the conic,
    (0, 0, 1, -i) (worked by hand); [[z, 0], [z, 1]] and [[1, z], [2, 3]]
    give t -> 1 and t -> (1 + 1/s)/2 on the line z/w = INF, which the
    inverse chart maps to (0, 1, -i, 0)."""
    point = "0,1,0,i"  # w = 0: the chart point (INF, INF)
    for mat, payload in (
        ("[[z, 1],[1, 2]]", {"defined": True, "image": ["0", "0", "1", "-i"]}),
        ("[[z, 0],[z, 1]]", {"defined": True, "image": ["0", "1", "-i", "0"]}),
        ("[[1, z],[2, 3]]", {"defined": True, "image": ["0", "1", "-i", "0"]}),
    ):
        code, out, err = run_cli(capsys, "eval", mat, "--point", point)
        assert (code, json.loads(out), err) == (0, payload, ""), mat


def test_eval_of_automorphisms_on_the_conic_at_infinity(capsys):
    """tau, (x, y, z) -> (x, -y, z), fixes (0, 1, 0, i), and the half-turn
    diag(1, -1), (x, y) -> (-x, -y), sends it to (0, -1, 0, i); the chart
    alone sent both points to (INF, INF) and answered "undefined".  On
    random points of the conic, rotations act as the linear rotation about
    the z-axis and the interval shifts gb:+-1/2 as their linear maps (also
    at finite points), and eval agrees with composition."""
    for element, image in (("builtin:tau", ["0", "1", "0", "i"]), ("diag(1,-1)", ["0", "1", "0", "-i"])):
        code, out, err = run_cli(capsys, "eval", element, "--point", "0,1,0,i")
        assert (code, json.loads(out), err) == (0, {"defined": True, "image": image}, ""), element
    rng = random.Random(31)
    for _ in range(6):
        s = CoeffScalar(Fraction(rng.randint(1, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        point = (0, s * s - 1, CoeffScalar.i() * (s * s + 1), 2 * s)  # x - iy = s z, x + iy = -z/s
        assert on_sphere(point)
        for k, n in ((1, 4), (1, 3), (1, 8)):
            zeta = unit_root(k, n)  # x + iy -> zeta (x + iy), x - iy -> (x - iy) / zeta
            w, x, y, z = point
            plus, minus = zeta * (x + CoeffScalar.i() * y), (x - CoeffScalar.i() * y) / zeta
            rotated = (w, (plus + minus) / 2, (plus - minus) / (2 * CoeffScalar.i()), z)
            assert SphereFormula(rotation(k, n)).eval(point) == _normalize_point(rotated)
        for e in (1, -1):  # gb:e/2 is the linear map eval uses, here and at a finite point
            for p in (point, psi_inverse(s, CoeffScalar(Fraction(rng.randint(-9, 9), 7)))):
                w, x, y, z = p
                shifted = _normalize_point((5 * w + 4 * e * z, 3 * x, 3 * y, 5 * z + 4 * e * w))
                assert SphereFormula(builtin_map(f"gb:{e}/2")).eval(p) == shifted
        f, g = builtin_map("tau"), builtin_map("gb:-1/3")
        assert SphereFormula(f.compose(g)).eval(point) == SphereFormula(f).eval(SphereFormula(g).eval(point))


def test_commands_without_a_golden_pin(capsys):
    """Answers no golden file pins, checked against facts that do not come
    from the code.  A real del Pezzo surface of degree d has K^2 = d and 0
    (the quadric P^1 x P^1), 6, 16 or 56 (-1)-classes for d = 8, 6, 4, 2;
    builtin lists the builtin tokens; a sphere map read back from its JSON
    is the same map, through the CLI too; and a matrix literal or diag(...)
    spells the builtin whose fiber it writes out."""
    for degree, classes in ((8, 0), (6, 6), (4, 16), (2, 56)):
        code, out, _ = run_cli(capsys, "picard", "counts", str(degree))
        payload = json.loads(out)
        assert (code, payload["k_square"], payload["minus_one_classes"]) == (0, degree, classes)
    code, out, _ = run_cli(capsys, "builtin")
    assert (code, json.loads(out)) == (0, {"builtins": list(BUILTIN_NAMES)})
    maps = {name: builtin_map(name) for name in (*CONJ_CATALOGUE, "gb:1/3")}
    maps["flipped shift"] = builtin_map("gb:1/3").compose(builtin_map("tilde_eta"))
    assert maps["flipped shift"].base.kind == "flipped_shift"
    for name, g in maps.items():
        text = json.dumps(spheremap_to_json(g))
        assert spheremap_from_json(json.loads(text)) == g, name
        code, out, _ = run_cli(capsys, "order", text)
        assert (code, json.loads(out)) == (0, {"order": g.order()}), name
    for text, name in (("[[0, 1-z^2],[1, 0]]", "tau"), ("[[0, z^2-1],[1, 0]]", "upsilon"),
                       ("diag(1, -1)", "rot:1/2"), ("diag(1, i)", "rot:1/4")):
        assert parse_element(text) == builtin_map(name), text


def test_cli_pseudoprime_radicand_exit_code(capsys):
    """sqrt(PSI_12 * 399165290221) - 399165290221 * sqrt(798330580441) is 0,
    so the matrix is the identity; PSI_12 passes the primality test, and the
    radicand cannot be put in canonical tower form, which exits 3 rather
    than answer an order for the wrong number."""
    entry = "1+sqrt(127200349625844970906114293036698881)-399165290221*sqrt(798330580441)"
    code, out, _ = run_cli(capsys, "order", f"diag(1, {entry})")
    assert code == 3 and out == ""


def test_tower_involution_needs_no_root(capsys):
    """A real involution with tower coefficients: -D has lead 4 - 2 sqrt(2),
    which has no tower square root, and its fixed-curve model needs none."""
    mat = "[[z-3+3*sqrt(2), (-1+sqrt(2))*i*z^2+(1-sqrt(2))*i],[(1-sqrt(2))*i, -z+3-3*sqrt(2)]]"
    curve = {"m": "z^2+(3/2*sqrt(2))*z+4-2*sqrt(2)", "sign": "-"}
    code, out, _ = run_cli(capsys, "classify", mat)
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "rational-special" and payload["moduli"]["fixed_curve"] == curve
    code, out, _ = run_cli(capsys, "fix", mat)
    assert code == 0 and json.loads(out) == curve | {"genus": 0}


def test_cli_builtin_list(capsys):
    code, out, _ = run_cli(capsys, "builtin")
    names = json.loads(out)["builtins"]
    assert "tau" in names and "g2p:t" in names


def test_classification_stable_under_rescaling(capsys):
    g = builtin_map("g1p:1/2")
    a, b, c, d = g.fiber.entries()
    from birsphere.poly import Poly
    from birsphere.projmat import ProjMat
    from birsphere.sphere import SphereMap

    scaled = SphereMap(ProjMat.of(*(p * Poly([3, 7]) for p in (a, b, c, d))), g.base)
    rep1 = classify_spheremap(g)
    rep2 = classify_spheremap(scaled)
    assert rep1.family == rep2.family and rep1.moduli == rep2.moduli


def test_cli_dp4_and_geiser_routes(capsys):
    code, out, _ = run_cli(capsys, "classify", "dp4:alpha2")
    payload = json.loads(out)
    assert code == 0 and payload["family"] == 2 and payload["moduli"]["invariant_rank"] == 1
    code, out, _ = run_cli(capsys, "classify", "geiser")
    payload = json.loads(out)
    assert payload["family"] == 1 and payload["moduli"]["minus_one_classes"] == 56


def test_cli_nonprime_order_caveat(capsys):
    code, out, _ = run_cli(capsys, "classify", "builtin:rot:1/4")
    payload = json.loads(out)
    assert payload["family"] == 3 and payload["moduli"]["angle"] == [1, 4]
    assert any("not prime" in c for c in payload["caveats"])


def test_cli_out_of_scope_contracting_involution(capsys):
    code, out, _ = run_cli(capsys, "classify", "[[i*z, 1-z^2],[1, -i*z]]")
    payload = json.loads(out)
    assert payload["family"] == "out-of-scope"
    assert payload["moduli"]["fixed_curve"]["m"] == "z^2-1/2"


def test_classify_base_flip_outside_the_diffeomorphisms():
    """A base-flip involution whose D = 4 z^2 - 3 contracts the real fibers
    z = +-sqrt(3)/2 reads "out-of-scope" with its twist class, as its
    trivial-base twin reads it with its fixed curve, and a conjugate of
    rot:1/3 by that fiber reads it with no datum and says none; a base flip
    of order 4 that is a diffeomorphism is undecided and names its order."""
    from birsphere.errors import UndecidedExact

    flip = spheremap_from_json({"fiber": [["i", "2-2*z^2"], ["2", "-i"]], "base": "neg"})
    assert not flip.is_diffeo() and flip.order() == 2
    report = classify_spheremap(flip).to_json()
    assert report["family"] == "out-of-scope"
    assert report["moduli"] == {"twist_class": {"gens": [], "sign": "+"}}
    assert "contracts a real fiber" in report["caveats"][0]
    twin = classify_spheremap(SphereMap.trivial_base(flip.fiber)).to_json()
    assert twin["family"] == "out-of-scope" and set(twin["moduli"]) == {"fixed_curve"}
    third = SphereMap.trivial_base(flip.fiber * builtin_map("rot:1/3").fiber * flip.fiber.inverse())
    assert third.order() == 3
    report = classify_spheremap(third).to_json()
    assert (report["moduli"], report["caveats"]) == (
        {}, ["element is birational but contracts a real fiber, so it is not a birational diffeomorphism"]
    )
    quarter = spheremap_from_json({"fiber": [["1", "0"], ["0", "i"]], "base": "neg"})
    assert quarter.is_diffeo() and quarter.order() == 4
    with pytest.raises(UndecidedExact, match="order 4"):
        classify_spheremap(quarter)


def test_cli_linear_stratum_exit_code(capsys):
    code, out, _ = run_cli(capsys, "classify", "builtin:tilde_eta")
    assert code == 4  # explicitly-undecided stratum
    code, out, _ = run_cli(capsys, "classify", "builtin:tilde_eta", "--allow-undecided")
    assert code == 0


def test_catalogue_golden(capsys):
    """classify, order, member, fix, h2 and eval print exactly the recorded
    JSON for every builtin, and conj for every ordered pair of
    CONJ_CATALOGUE and the half-turn, and for the builtin pairs of
    test_decide_conjugacy, test_conj_rotations and test_conj_infinite_order;
    so do five interval-moved involution pairs under conj, builtin, every
    picard subcommand and check, the dp4 and geiser routes of classify, and
    a matrix literal and a JSON input under each element subcommand, among
    them a flipped shift and sqrt(2) entries; and the lines that pin a path
    no other line runs (tests/test_reach.py): a member with a D' over the
    tower, eval on the conic at infinity, an order that factors by Pollard's
    rho, a conjugated rotation's normal form, diag(...), a twist class of
    two generators whose w-polynomial Hensel-lifts in several steps, an
    interval_b base, eval at a point with a sqrt(2) coordinate, two base
    flips that classify does not sort (one contracts a real fiber, one has
    order 4), and three trivial-base branches of classify_spheremap: the
    identity, an infinite-order diagonal map and an involution that
    contracts a real fiber;
    tests/data/catalogue_cli.json maps each command line to its exit code
    and stdout (tests/data/record_catalogue.py re-records named lines)."""
    golden = json.loads((Path(__file__).parent / "data" / "catalogue_cli.json").read_text())
    mismatched = []
    for command, want in sorted(golden.items()):
        code, out, _ = run_cli(capsys, *command.split())
        if (code, out) != (want["exit"], want["stdout"]):
            mismatched.append(command)
    assert not mismatched


def test_catalogue_certificates_verify():
    """Every certificate in tests/data/catalogue_cli.json verifies once it is
    parsed back from its JSON: each classify certificate maps the classified
    element to its target, a base reduction's printed sphere-map conjugator
    carrying it to a map of the printed residual base, and each conj
    conjugator maps the first element to the second.  The conj lines cover
    every ordered pair of CONJ_CATALOGUE and the half-turn, and five
    interval-moved involution pairs; the only `true`s without a certificate
    are g2p:1/2 against g2p:-1/2, in both orders, two base flips decided by
    their twist class alone (the open ROADMAP item on base flips)."""
    golden = json.loads((Path(__file__).parent / "data" / "catalogue_cli.json").read_text())
    checked = {"classify": 0, "conj": 0}
    uncertified = []
    for command, want in sorted(golden.items()):
        verb, *args = command.split()
        if verb == "classify" and want["stdout"]:  # an undecided classify prints nothing
            for cert in json.loads(want["stdout"]).get("certificates", []):
                source = parse_element(args[0])
                if cert["kind"] == "base-reduction":
                    conjugator = spheremap_from_json(cert["conjugator"])
                    target = conjugator.compose(source).compose(conjugator.inverse())
                    assert target.base.kind == cert["residual_base"], command
                else:
                    target, conjugator = _fiber_from_json(cert["target"]), _fiber_from_json(cert["conjugator"])
                assert ConjugacyCertificate(cert["kind"], source, target, conjugator).verify(), command
                checked[verb] += 1
        elif verb == "conj" and want["exit"] == 0:
            res = json.loads(want["stdout"])
            if res["conjugate"] and "conjugator" in res:
                assert _certificate_verifies(res, parse_element(args[0]), parse_element(args[1])), command
                checked[verb] += 1
            elif res["conjugate"]:
                uncertified.append(command)
    assert checked == {"classify": 57, "conj": 20}
    assert uncertified == ["conj builtin:g2p:-1/2 builtin:g2p:1/2", "conj builtin:g2p:1/2 builtin:g2p:-1/2"]


def test_catalogue_classify_tests_positivity_once(monkeypatch):
    """classify decides membership and orientation from one diffeomorphism
    test: one real-root record of the stripped determinant (`RealRoots`,
    whose count it reads; a Sturm count before the record) for every map
    whose trivial-base part is a diffeomorphism, of either orientation, and
    none for an interval shift, whose infinite order ends the routing.  The
    record is memoised on the pattern, which is memoised on its matrix, so
    each command reads a fresh copy of its fiber: a matrix met before (the
    catalogue's reality twist is one object) would read 0."""
    import birsphere.sphere as sphere

    calls = []
    real = sphere.RealRoots
    monkeypatch.setattr(sphere, "RealRoots", lambda f: calls.append(f) or real(f))
    golden = json.loads((Path(__file__).parent / "data" / "catalogue_cli.json").read_text())
    counts, orientations = {}, set()
    for command in sorted(golden):
        verb, *args = command.split()
        if verb != "classify" or not args[0].startswith("builtin:"):
            continue
        g = parse_element(args[0])
        g = SphereMap(ProjMat.of(*g.fiber.entries()), g.base)
        calls.clear()
        classify_spheremap(g)
        counts[command] = (len(calls), 0 if g.base.kind == "shift" else 1)
        if g.base.kind != "shift":
            orientations.add(sphere.diffeo_orientation(g.trivial_base_part().fiber))
    assert len(counts) == 59
    assert orientations == {1, -1}
    assert [command for command, (ran, want) in counts.items() if ran != want] == []


@pytest.mark.parametrize("shape", [0, 1])
@pytest.mark.parametrize("name, family", [("g2p:1/2", 8), ("tilde_eta", "linear-stratum"), ("antipodal", 5)])
def test_flip_classify_work(monkeypatch, name, family, shape):
    """A base flip conjugated by [[a, b h], [~b, ~a]] in the shape of the
    benchmark's diffeomorphic conjugators (a = 17 + i z, b = 1 or a = 17,
    b = 1 + i z) classifies with no cleared substitution and no gcd-chain
    canonical form: z -> -z substitutes by reflection, the order reads
    kappa off the unreduced square A(-z) A, and the diffeomorphism test
    reads the flip's own fiber."""
    import birsphere.sphere as sphere
    from birsphere.poly import Poly
    from birsphere.scalars import CoeffScalar

    z, i = Poly.z(), CoeffScalar.i()
    a, b = (Poly.const(17) + z.scale(i), Poly.const(1)) if shape == 0 else (Poly.const(17), Poly.const(1) + z.scale(i))
    c = sphere.FiberPattern(a, b).matrix()
    g = builtin_map(name)
    g = SphereMap(c.reflect_z() * g.fiber * c.inverse(), BaseMobius.negation())
    substitutions, canonical = [], []
    real_sub, real_canonical = sphere.cleared_substitution, ProjMat._canonical
    monkeypatch.setattr(sphere, "cleared_substitution", lambda *args: substitutions.append(1) or real_sub(*args))
    monkeypatch.setattr(ProjMat, "_canonical", classmethod(lambda cls, polys: canonical.append(1) or real_canonical(polys)))
    assert classify_spheremap(g).family == family
    assert (len(substitutions), len(canonical)) == (0, 0)


def test_cli_infinite_order(capsys):
    code, out, _ = run_cli(capsys, "classify", "diag(2+i, 2-i)")
    payload = json.loads(out)
    assert code == 0 and payload["family"] == "reality-only"
    assert payload["caveats"] == ["infinite order; no family assigned"]
    code, out, _ = run_cli(capsys, "order", "diag(2+i, 2-i)")
    assert json.loads(out) == {"order": None}


def test_readme_command_lines(capsys):
    """Every line of the README's "Command line" block runs and exits 0, and
    the fix line prints the JSON its comment states."""
    import shlex

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "birsphere"
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        if argv[0] == "fix":
            assert json.loads(out) == json.loads(line.split("#", 1)[1])
