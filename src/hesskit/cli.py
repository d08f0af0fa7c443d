"""Command-line front end.

Every verb prints one JSON document to stdout and keeps human-oriented
status lines on stderr, so piping stdout always yields clean JSON.  Exit
codes: 0 when everything the verb claims was verified, 1 on a verification
failure, 2 on usage errors, 3 on fixture problems.  Argument values are
checked by the library alone: an ``InputError`` it raises becomes a usage
error with the library's message.  The front end only checks which flags go
together, and that a ``suite --out`` path can be written before the suite
runs.  A usage error in a verb's arguments, from argparse, a handler or the
library, prints that verb's own usage line.  A config file holds
``key = value`` lines for the shared int knobs (``CONFIG_KEYS``, none of
which picks a rank route); explicit flags win.
"""

from __future__ import annotations

import argparse
import errno
import os
import random
import sys
from typing import Dict, List, Optional

from ._version import __version__
from .curves import CONDITION_FAMILIES, CONDITIONS, FAMILIES, \
    condition_matches_curve, scan_condition, verify_family
from .errors import InputError, VerificationError
from .indeterminacy import NAMED_FAMILIES, limit_divisibility_check, \
    sample_family
from .orbit_checks import SPECIAL_POINTS, verify_closed_form, verify_pair, \
    verify_pairs
from .rank_certificates import SpecialPoint, verify_special_point_rank
from .reports import FixtureError, canonical_json, certify, run_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_FIXTURE = 3

CONFIG_KEYS = ("seed", "bound", "jobs", "kmin", "kmax")

# ``verify prop --id``: 2.7 is the closed form, the others the pair identities
_PAIR_OF_ID = {row.identity: row.pair for row in SPECIAL_POINTS.values()}


def load_config(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset args from the config file, then from hard defaults."""
    config: Dict[str, str] = {}
    if args.config:
        try:
            config = load_config(args.config)
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
    def fill(name: str, fallback: int):
        if getattr(args, name, None) is not None:
            return
        if name in config:
            try:
                setattr(args, name, int(config[name]))
            except ValueError:
                parser.error(f"config key {name} has a bad value "
                             f"{config[name]!r}")
        elif hasattr(args, name):
            setattr(args, name, fallback)

    fill("seed", 0)
    fill("bound", 10 ** 6)
    fill("jobs", 1)
    fill("kmin", 2)
    fill("kmax", 20)


def _emit(doc: dict) -> None:
    sys.stdout.write(canonical_json(doc))


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesskit",
        description="Exact verification toolkit for ternary Hessian recovery")
    parser.add_argument("--version", action="version",
                        version=f"hesskit {__version__}")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value file for shared options")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="check one closed-form or perturbation identity")
    v_sub = p_verify.add_subparsers(dest="verify_what", required=True)
    p_prop = v_sub.add_parser("prop", help="identity checks by id")
    p_prop.add_argument("--id", required=True,
                        choices=("2.7",) + tuple(_PAIR_OF_ID),
                        help="which identity family to check")
    p_prop.add_argument("--r", type=int, required=True,
                        help="r + 1 is the number of variables")
    p_prop.add_argument("--k", type=int, required=True)
    p_prop.add_argument("--m", type=int, default=None,
                        help="perturbation index; omitted = every valid m")
    p_prop.add_argument("--h", type=int, default=0,
                        help="power of the linear factor (id 2.7 only)")
    p_prop.set_defaults(handler=_cmd_verify_prop, verb_parser=p_prop)

    p_rank = sub.add_parser("rank", help="injectivity certificate at a special point")
    p_rank.add_argument("--point", required=True, choices=tuple(SPECIAL_POINTS))
    p_rank.add_argument("--d", type=int, required=True, help="degree of the form")
    p_rank.add_argument("--r", type=int, default=2)
    p_rank.add_argument("--seed", type=int, default=None)
    p_rank.set_defaults(handler=_cmd_rank, verb_parser=p_rank)

    p_scan = sub.add_parser("scan", help="integer-condition vanishing scan")
    p_scan.add_argument("--condition", required=True, choices=tuple(CONDITIONS))
    p_scan.add_argument("--r", type=int, default=2)
    p_scan.add_argument("--kmin", type=int, default=None)
    p_scan.add_argument("--kmax", type=int, default=None)
    p_scan.set_defaults(handler=_cmd_scan, verb_parser=p_scan)

    p_curves = sub.add_parser("curves", help="auxiliary curve point sets")
    c_sub = p_curves.add_subparsers(dest="curves_what", required=True)
    p_cv = c_sub.add_parser("verify", help="dual-route integer point check")
    p_cv.add_argument("--family", type=int, required=True,
                      choices=tuple(FAMILIES))
    p_cv.add_argument("--bound", type=int, default=None,
                      help="brute-force search box half-width")
    p_cv.set_defaults(handler=_cmd_curves_verify, verb_parser=p_cv)

    p_limit = sub.add_parser("limit", help="Hessian limit divisibility along a family")
    p_limit.add_argument("--fixture", default=None,
                         help=f"named family: {', '.join(sorted(NAMED_FAMILIES))}")
    p_limit.add_argument("--d", type=int, default=None,
                         help="degree for a seeded random family instead")
    p_limit.add_argument("--seed", type=int, default=None)
    p_limit.set_defaults(handler=_cmd_limit, verb_parser=p_limit)

    p_cert = sub.add_parser("certify", help="full certificate for one degree")
    p_cert.add_argument("--d", type=int, required=True)
    p_cert.set_defaults(handler=_cmd_certify, verb_parser=p_cert)

    p_suite = sub.add_parser("suite", help="run the registered verification battery")
    p_suite.add_argument("--filter", default=None,
                         help="keep entries whose name contains this string")
    p_suite.add_argument("--jobs", type=int, default=None)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--bound", type=int, default=None)
    p_suite.add_argument("--out", metavar="PATH", default=None,
                         help="also write the JSON document to a file")
    p_suite.set_defaults(handler=_cmd_suite, verb_parser=p_suite)
    return parser


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _cmd_verify_prop(args, parser) -> int:
    r, k = args.r, args.k
    if args.id == "2.7":
        if args.m is not None:
            parser.error("--m does not apply to id 2.7")
        rep = verify_closed_form(r, k, args.h)
        _emit(rep.to_json_dict())
        return EXIT_OK if rep.matches else EXIT_VERIFICATION

    if args.h != 0:
        parser.error(f"--h does not apply to id {args.id}")
    kind = _PAIR_OF_ID[args.id]
    if args.m is not None:
        rep = verify_pair(kind, r, k, args.m)
        _emit(rep.to_json_dict())
        return EXIT_OK if rep.matches else EXIT_VERIFICATION
    reports = verify_pairs(kind, r, k)
    ok = all(rep.matches for rep in reports)
    _emit({"id": args.id, "kind": kind, "r": r, "k": k, "passed": ok,
           "reports": [rep.to_json_dict() for rep in reports]})
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_rank(args, parser) -> int:
    point = SpecialPoint.at_degree(args.point, args.d)
    rng = random.Random(args.seed)
    try:
        rep = verify_special_point_rank(point, r=args.r, rng=rng)
    except VerificationError as exc:
        _emit({"point": point.label(), "r": args.r, "d": args.d,
               "passed": False, "error": str(exc)})
        return EXIT_VERIFICATION
    _emit(dict(rep.to_json_dict(), passed=True))
    return EXIT_OK


def _cmd_scan(args, parser) -> int:
    rep = scan_condition(args.condition, args.r, args.kmin, args.kmax)
    doc = rep.to_json_dict()
    exit_code = EXIT_OK
    row = CONDITION_FAMILIES.get(args.condition) if args.r == 2 else None
    if row is not None:
        m_min = CONDITIONS[args.condition][1]
        grid = [(k, m) for k in range(args.kmin, min(args.kmax, args.kmin + 30) + 1)
                for m in range(m_min, k + 1)]
        bridge = condition_matches_curve(args.condition, row.curve, grid)
        doc["curve_bridge"] = {"curve": row.curve.name, "consistent": bridge}
        if not bridge:
            exit_code = EXIT_VERIFICATION
    _emit(doc)
    return exit_code


def _cmd_curves_verify(args, parser) -> int:
    rep = verify_family(args.family, bound=args.bound)
    _emit(rep.to_json_dict())
    return EXIT_OK if rep.passed() else EXIT_VERIFICATION


def _cmd_limit(args, parser) -> int:
    if (args.fixture is None) == (args.d is None):
        parser.error("give exactly one of --fixture or --d")
    if args.fixture is not None:
        make = NAMED_FAMILIES.get(args.fixture)
        if make is None:
            _log(f"unknown fixture {args.fixture!r}; known: "
                 + ", ".join(sorted(NAMED_FAMILIES)))
            return EXIT_FIXTURE
        family = make()
        source = {"fixture": args.fixture}
    else:
        family = sample_family(args.d, random.Random(args.seed))
        source = {"random_degree": args.d, "seed": args.seed}
    rep = limit_divisibility_check(family)
    _emit(dict(rep.to_json_dict(), source=source))
    return EXIT_OK if rep.passed() else EXIT_VERIFICATION


def _cmd_certify(args, parser) -> int:
    cert = certify(args.d)
    _emit(cert.to_json_dict())
    return EXIT_OK if cert.ok else EXIT_VERIFICATION


def _check_out_path(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would meet where the file
    system already shows it; creates and truncates nothing."""
    parent = os.path.dirname(path) or "."
    code = (errno.EISDIR if os.path.isdir(path) else
            errno.ENOENT if not os.path.isdir(parent) else
            0 if os.access(path if os.path.exists(path) else parent, os.W_OK)
            else errno.EACCES)
    if code:
        raise OSError(code, os.strerror(code), path)


def _cmd_suite(args, parser) -> int:
    if args.out:
        try:
            _check_out_path(args.out)
        except OSError as exc:
            parser.error(f"cannot write --out file: {exc}")
    result = run_suite(name_filter=args.filter, jobs=args.jobs,
                       seed=args.seed, bound=args.bound)
    doc = result.to_json_dict()
    text = canonical_json(doc)
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out file: {exc}")
    for name, took in result.timings.items():
        status = "ok" if result.entries[name].get("passed") else "FAIL"
        _log(f"{name:<24} {status:<5} {took:7.2f}s")
    counts = result.counts()
    _log(f"suite: {counts['passed']}/{counts['total']} passed")
    return EXIT_OK if result.passed() else EXIT_VERIFICATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    try:
        return args.handler(args, args.verb_parser)
    except FixtureError as exc:
        _log(str(exc))
        return EXIT_FIXTURE
    except InputError as exc:
        args.verb_parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
