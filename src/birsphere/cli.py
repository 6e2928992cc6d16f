"""Command-line surface: classify, conj, member, fix, h2, eval, order,
picard, builtin.  All output is machine-readable JSON; exit codes are 2 for
parse errors (malformed JSON too), 3 for tower-frontier failures, 4 for undecided answers and 5
for domain errors."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import classify as routing
from .errors import (
    BirsphereError,
    InfiniteOrderBase,
    ParseError,
    UndecidedExact,
    UnsupportedExtension,
)
from .involutions import fixed_curve
from .sphere import BUILTIN_NAMES, SphereFormula

EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDECIDED = 4
EXIT_DOMAIN = 5


def _load_element(text: str):
    # os.path.isfile, unlike Path.is_file, is False for a name that cannot be stat'ed (one too long, say)
    if text == "-" or (not text.startswith(("builtin:", "[[", "{", "diag(")) and os.path.isfile(text)):
        try:
            source = sys.stdin.read() if text == "-" else Path(text).read_text()
        except UnicodeDecodeError as exc:  # a ValueError, which main would call a domain error
            raise ParseError(f"malformed sphere map JSON: {exc}") from exc
        except OSError as exc:
            raise ParseError(f"cannot read {text}: {exc.strerror}") from exc
        return routing.spheremap_from_json_text(source)
    return routing.parse_element(text)


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    sys.stdout.flush()


def cmd_classify(args) -> int:
    if args.element.startswith("dp4:") or args.element.startswith("geiser"):
        from .parsing import parse_scalar

        op = args.element.split(":", 1)[-1] if ":" in args.element else "geiser"
        mu = None if args.mu is None else parse_scalar(args.mu)
        report = routing.classify_dp4_datum(op, mu=mu)
        _emit(report.to_json())
        return 0
    if args.mu is not None:
        raise ParseError("--mu applies to dp4:alpha1 and dp4:alpha2 only")
    g = _load_element(args.element)
    report = routing.classify_spheremap(g)
    _emit(report.to_json())
    return 4 if report.family in ("linear-stratum",) and not args.allow_undecided else 0


def cmd_conj(args) -> int:
    g1 = _load_element(args.first)
    g2 = _load_element(args.second)
    result = routing.decide_conjugacy(g1, g2)
    _emit(result)
    return 0


def cmd_member(args) -> int:
    g = _load_element(args.element)
    if args.group == "G":
        ok = g.reality_check()
    elif args.group == "H":
        ok = g.reality_check() and g.is_diffeo()
    else:
        ok = g.reality_check() and g.orientation() == 1
    _emit({"group": args.group, "member": ok})
    return 0


def cmd_fix(args) -> int:
    g = _load_element(args.element)
    if g.base.kind == "shift":
        raise InfiniteOrderBase("interval shifts with b != 0 have infinite order, so they fix no curve")
    if g.base.kind != "id":
        raise UndecidedExact(f"fixed curves are computed for trivial base action, not for base action {g.base.kind}")
    model = fixed_curve(g.fiber)
    _emit(model.to_json() | {"genus": model.genus()})
    return 0


def cmd_h2(args) -> int:
    from .etatwist import h2_invariant

    g = _load_element(args.element)
    cls = h2_invariant(g)
    _emit(cls.to_json())
    return 0


def cmd_eval(args) -> int:
    from .parsing import parse_scalar

    g = _load_element(args.element)
    coords = [parse_scalar(c) for c in args.point.split(",")]
    if len(coords) != 4 or not any(coords):
        raise ParseError("point must have four comma-separated coordinates w,x,y,z, not all zero")
    formula = SphereFormula(g)
    from .errors import BasePointHit

    try:
        image = formula.eval(tuple(coords))
    except BasePointHit as exc:
        _emit({"defined": False, "reason": str(exc)})
        return 0
    _emit({"defined": True, "image": [str(c) for c in image]})
    return 0


def cmd_order(args) -> int:
    g = _load_element(args.element)
    n = g.order()
    _emit({"order": n})
    return 0


def cmd_builtin(args) -> int:
    _emit({"builtins": list(BUILTIN_NAMES)})
    return 0


def cmd_picard(args) -> int:
    from .parsing import parse_scalar
    from .picard import (
        DP4_ACTIONS,
        SIGN_MAPS,
        DP4Surface,
        conic_pairs,
        geiser_facts,
        image_rho_check,
        is_lattice_aut,
        lattice_make,
        minus_one_classes,
        real_invariant_rank,
        sign_map_preserves_quadric,
        verify_anticanonical_dataset,
    )

    if args.picard_cmd == "counts":
        lat = lattice_make(args.degree)
        payload = {
            "degree": args.degree,
            "minus_one_classes": len(minus_one_classes(lat)),
            "k_square": int(lat.k_square()),
        }
        if args.degree == 4:
            payload["conic_pairs"] = len(conic_pairs(lat))
        _emit(payload)
    elif args.picard_cmd == "geiser":
        _emit(geiser_facts())
    else:
        lat = lattice_make(4)
        automorphisms = [name for name, mat in DP4_ACTIONS.items() if is_lattice_aut(lat, mat)]
        ops = {"rank": automorphisms, "aut": DP4_ACTIONS, "preserves": SIGN_MAPS}.get(args.check)
        if ops is None and args.op is not None:
            raise ParseError(f"--op applies to --check rank, aut and preserves only, not {args.check}")
        op = "alpha1" if args.op is None else args.op
        if ops is not None and op not in ops:
            raise ParseError(f"unknown --op {op!r} for --check {args.check} (expected {', '.join(ops)})")
        if args.check == "rank":
            _emit({"op": op, "invariant_rank": real_invariant_rank(lat, DP4_ACTIONS[op])})
        elif args.check == "aut":
            _emit({"op": op, "lattice_automorphism": is_lattice_aut(lat, DP4_ACTIONS[op])})
        elif args.check == "preserves":
            quadrics = DP4Surface(parse_scalar(args.mu)).quadrics()
            _emit({"op": op, "preserves_quadrics": all(sign_map_preserves_quadric(op, q) for q in quadrics)})
        elif args.check == "dataset":
            _emit({"dataset_verifies": verify_anticanonical_dataset(parse_scalar(args.mu))})
        else:
            mu = parse_scalar(args.mu)
            _emit({"mu": str(mu), "extra_symmetry": image_rho_check(mu)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birsphere",
        description="Exact classification toolkit for birational maps of the real sphere "
        "compatible with its conic-bundle projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="conjugacy family of an element")
    p.add_argument("element", help="builtin:NAME, matrix literal, JSON file, dp4:OP or geiser")
    p.add_argument("--mu", help="surface parameter for dp4 data")
    p.add_argument("--allow-undecided", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conj", help="decide conjugacy of two finite-order elements")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("member", help="group membership tests")
    p.add_argument("--group", choices=("G", "H", "H0"), required=True,
                   help="G: real maps; H: diffeomorphisms, chi != 0; H0: orientation-preserving ones, chi = 1")
    p.add_argument("element")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("fix", help="fixed-curve model of an involution")
    p.add_argument("element")
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("h2", help="twist class of a base-flip involution")
    p.add_argument("element")
    p.set_defaults(func=cmd_h2)

    p = sub.add_parser("eval", help="evaluate the sphere formula at a point")
    p.add_argument("element")
    p.add_argument("--point", required=True, help="w,x,y,z in the scalar grammar")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("order", help="projective order of an element")
    p.add_argument("element")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("builtin", help="list builtin element tokens")
    p.set_defaults(func=cmd_builtin)

    p = sub.add_parser("picard", help="lattice computations for the blown-up sphere")
    psub = p.add_subparsers(dest="picard_cmd", required=True)
    pc = psub.add_parser("counts")
    pc.add_argument("degree", type=int, choices=(8, 6, 4, 2))
    pc.set_defaults(func=cmd_picard)
    pd = psub.add_parser("dp4")
    pd.add_argument("--op", help="the operator of --check rank, aut or preserves (default alpha1)")
    pd.add_argument("--check", default="rank", choices=("rank", "aut", "preserves", "dataset", "rho"))
    pd.add_argument("--mu", default="1/2+i")
    pd.set_defaults(func=cmd_picard)
    pg = psub.add_parser("geiser")
    pg.set_defaults(func=cmd_picard)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # _emit flushes, so a gone reader shows here: end quietly,
        # and send the interpreter's final flush of what is left to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedExtension as exc:
        print(f"outside the quadratic tower: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except UndecidedExact as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (BirsphereError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
