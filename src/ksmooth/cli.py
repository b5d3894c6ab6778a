"""Batch command-line front end.

Subcommands: construct a system and write it to JSON, verify every rational
member of a stored system, check a single form, lift a prime-field system to
the rationals and spot-check random members, run the characteristic-2 quadric
refutation, and reproduce the built-in GF(3) cubic example.

Exit codes: 0 = success / K-smooth, 1 = singular member found (witness
emitted), 2 = usage, input or hypothesis error, 3 = internal error (a failed
invariant check, an exhausted step budget, or a certificate that no witness
search confirms).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .constructions import (
    builtin_example_f3,
    char2_find_singular_member,
    construct_system_with_details,
    construction_to_json,
    lift_to_char_zero,
    moore_symmetries,
)
from .fields import FieldDescriptor, enumerate_projective_points, get_descriptor, json_ints
from .multipoly import (
    form_from_json,
    random_system,
    system_from_json,
    system_to_json,
)
from .smoothness import (
    DEFAULT_WITNESS_CAP,
    Smooth,
    is_smooth,
    search_singular_point,
    verify_system_K_smooth,
    witness_to_json,
)

DEFAULT_ORACLE_EXT = 4


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_SCALARS = {str, int, float, bool, type(None)}
# the C encoder of a list of scalars at each depth, by depth
_LIST_ENCODERS = {}


def _dumps(obj, depth=0):
    """json.dumps(obj, indent=2), byte for byte, for JSON data with string
    keys, with each list of scalars written by the C encoder in one call:
    its item separator carries the newline and the indentation (json.dumps
    with an indent takes the pure Python encoder for the whole document)."""
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + ",".join(pad + json.dumps(k) + ": " + _dumps(v, depth + 1)
                              for k, v in obj.items()) + pad[:-2] + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _SCALARS.issuperset(map(type, obj)):
            encode = _LIST_ENCODERS.get(depth)
            if encode is None:
                encode = _LIST_ENCODERS[depth] = json.JSONEncoder(separators=("," + pad, ": ")).encode
            return "[" + pad + encode(obj)[1:-1] + pad[:-2] + "]"
        return "[" + ",".join(pad + _dumps(v, depth + 1) for v in obj) + pad[:-2] + "]"
    return json.dumps(obj)


def _emit_json(obj):
    print(_dumps(obj))


def _point_str(point):
    return "[" + ":".join(str(c) for c in point) + "]"


def _witness_line(witness):
    line = f"singular at {_point_str(witness.point)} over {witness.field!r}"
    if witness.member is not None:
        line = f"member {_point_str(witness.member)} {line}"
    return line


def _cmd_construct(args):
    system, result = construct_system_with_details(args.p, args.e, args.n, args.d, args.r)
    obj = construction_to_json(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_dumps(obj) + "\n")
    if args.json:
        _emit_json(obj)
    else:
        q = args.p ** args.e
        print(f"constructed case {result.case} system over GF({q}): "
              f"n={args.n} d={args.d} r={args.r}")
        for i, g in enumerate(system.generators):
            print(f"  G{i} = {g}")
        if args.output:
            print(f"wrote {args.output}")
    return 0


def _symmetries(obj, system):
    """The `moore_symmetries` of the normal element a `construct` file
    stores under "alpha", for a full system (r = n) over a finite field;
    none without that key.  `verify_system_K_smooth` checks them, so an
    alpha that does not fit the system only costs the check.  A smaller
    system, which `construct` writes as a prefix of the generators that
    the shift cycles, is not mapped onto itself, so it is verified without
    building GF(q^(n+1)) at all."""
    field = system.field
    if "alpha" not in obj or not isinstance(field, FieldDescriptor):
        return ()
    alpha = json_ints(obj["alpha"], "alpha")
    e = field.e * system.nvars
    if len(alpha) != e:
        raise ValueError(f'"alpha" over GF({field.p}^{e}) needs {e} entries, got {alpha!r}')
    if system.dim != system.nvars - 1:
        return ()
    return moore_symmetries(field, get_descriptor(field.p, e).element(alpha))


def _cmd_verify(args):
    obj = _load(args.file)
    system = system_from_json(obj)
    report = verify_system_K_smooth(system, _symmetries(obj, system))
    if args.oracle:
        for coeffs, verdict in zip(
                enumerate_projective_points(system.field, system.dim),
                report.verdicts):
            # a singular verdict's witness was found within DEFAULT_WITNESS_CAP
            singular = verdict == "singular"
            bound = max(args.max_ext, DEFAULT_WITNESS_CAP) if singular else args.max_ext
            found = search_singular_point(system.member(coeffs), bound) is not None
            if found != singular:
                raise AssertionError(
                    f"certificate and search oracle disagree on member {_point_str(coeffs)}")
    if args.json:
        obj = report.to_json()
        if args.oracle:
            obj["oracle_checked"] = True
        _emit_json(obj)
    else:
        smooth = sum(1 for v in report.verdicts if v == "smooth")
        print(f"{smooth}/{report.member_count} members smooth")
        if report.witness is not None:
            print(_witness_line(report.witness))
        print(f"K-smooth: {'yes' if report.k_smooth else 'no'}")
    return 0 if report.k_smooth else 1


def _cmd_check(args):
    form = form_from_json(_load(args.file))
    verdict = is_smooth(form)
    if isinstance(verdict, Smooth):
        if args.json:
            _emit_json({"smooth": True,
                        "certificate_size": len(verdict.certificate.elements)})
        else:
            print(f"smooth (certificate with {len(verdict.certificate.elements)} "
                  "basis elements)")
        return 0
    if args.json:
        _emit_json({"smooth": False,
                    "witness": witness_to_json(verdict.witness)
                    if verdict.witness else None})
    elif verdict.witness is not None:
        print(_witness_line(verdict.witness))
    else:
        print("singular (no explicit witness over the rationals)")
    return 1


def _cmd_lift(args):
    system = system_from_json(_load(args.file))
    lifted = lift_to_char_zero(system)
    rng = random.Random(args.seed)
    count = len(lifted.generators)
    outcomes = []
    for _ in range(args.samples):
        while True:
            coeffs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(count))
            if any(coeffs):
                break
        verdict = is_smooth(lifted.member(coeffs))
        outcomes.append((coeffs, isinstance(verdict, Smooth)))
    good = sum(1 for _, ok in outcomes if ok)
    if args.json:
        _emit_json({"samples": args.samples, "smooth": good,
                    "members": [{"coeffs": [str(c) for c in cs], "smooth": ok}
                                for cs, ok in outcomes]})
    else:
        print(f"lifted {count} generators to the rationals")
        print(f"{good}/{args.samples} sampled members smooth")
    return 0 if good == args.samples else 1


def _cmd_quadrics(args):
    systems = []
    if args.system:
        systems.append(system_from_json(_load(args.system)))
    else:
        field = get_descriptor(2, args.k)
        rng = random.Random(args.seed)
        for _ in range(args.random):
            systems.append(random_system(field, args.n + 1, 2, args.n + 1, rng))
    results = []
    for system in systems:
        results.append(char2_find_singular_member(system))
    if args.json:
        _emit_json({"systems": len(results),
                    "results": [{"branch": res.branch,
                                 "member": [str(c) for c in res.coefficients],
                                 "witness": witness_to_json(res.witness)}
                                for res in results]})
    else:
        for i, res in enumerate(results):
            print(f"system {i}: branch={res.branch} "
                  f"member {_point_str(res.coefficients)} singular at "
                  f"{_point_str(res.witness.point)} over {res.witness.field!r}")
    return 1 if results else 0


def _cmd_example(args):
    system = builtin_example_f3()
    report = verify_system_K_smooth(system) if args.verify else None
    if args.json:
        obj = {"system": system_to_json(system)}
        if report is not None:
            obj["report"] = report.to_json()
        _emit_json(obj)
    else:
        print("built-in cubic system over GF(3):")
        for i, g in enumerate(system.generators):
            print(f"  F{i} = {g}")
        if report is not None:
            smooth = sum(1 for v in report.verdicts if v == "smooth")
            print(f"{smooth}/{report.member_count} members smooth")
    if report is not None and not report.k_smooth:
        return 1
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ksmooth",
        description="construct and certify linear systems of smooth hypersurfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="construct a K-smooth system")
    c.add_argument("--p", type=int, required=True, help="field characteristic")
    c.add_argument("--e", type=int, default=1, help="base field extension degree")
    c.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    c.add_argument("--d", type=int, required=True, help="degree of the forms")
    c.add_argument("--r", type=int, required=True, help="projective dimension of the system")
    c.add_argument("-o", "--output", help="write system JSON to this file")
    c.add_argument("--json", action="store_true", help="print the system JSON")

    v = sub.add_parser("verify", help="verify every rational member of a stored system")
    v.add_argument("file", help="system JSON file")
    v.add_argument("--oracle", action="store_true",
                   help="cross-check each verdict with the extension point search")
    v.add_argument("--max-ext", type=_positive_int, default=DEFAULT_ORACLE_EXT,
                   help="extension-degree bound of the oracle search on smooth "
                        "members; a singular member is searched up to the larger of "
                        f"this and {DEFAULT_WITNESS_CAP}, the bound its witness was "
                        "found within")
    v.add_argument("--json", action="store_true", help="print the machine report")

    k = sub.add_parser("check", help="decide smoothness of a single stored form")
    k.add_argument("file", help="form JSON file")
    k.add_argument("--json", action="store_true")

    l = sub.add_parser("lift", help="lift a prime-field system to the rationals")
    l.add_argument("file", help="system JSON file")
    l.add_argument("--samples", type=_positive_int, default=20,
                   help="number of random integer members to check")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--json", action="store_true")

    q = sub.add_parser("quadrics",
                       help="produce singular members of odd-dimensional quadric systems in characteristic 2")
    grp = q.add_mutually_exclusive_group(required=True)
    grp.add_argument("--system", help="system JSON file")
    grp.add_argument("--random", type=_positive_int, metavar="N",
                     help="refute N random systems")
    q.add_argument("--k", type=int, default=1, help="field is GF(2^k)")
    q.add_argument("--n", type=int, default=3, help="odd ambient dimension")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true")

    x = sub.add_parser("example", help="built-in systems")
    x.add_argument("name", choices=["f3"])
    x.add_argument("--verify", action="store_true",
                   help="verify every rational member")
    x.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser():
    """The parser of `main`, built on its first call; `parse_args` keeps no
    state between calls, each fills a fresh namespace."""
    return build_parser()


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "lift": _cmd_lift,
    "quadrics": _cmd_quadrics,
    "example": _cmd_example,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
