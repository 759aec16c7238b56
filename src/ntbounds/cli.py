"""Command-line surface tying the modules together.

A request is parsed once.  When its first argument names a subcommand, the
rest goes straight to that subcommand's parser, and the top-level parser
refuses any leftover arguments as argparse would.  Any other argv (empty,
help, an unknown subcommand, an option before the subcommand) goes through
the top-level parser and its subparsers.

A refusal (see :mod:`ntbounds.errors`, which lists the exit codes) prints one
stderr line and returns its exit code; any other exception is a program fault
and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path

from .bounds import (
    bound_transverse_E2,
    bound_weaktransverse_EN,
    constants_CN,
    constants_D,
    constants_D_printed,
    exponents,
    family_final_bound,
    THEOREM_IDS,
)
from .elliptic import curve_from_json, weierstrass_height_expr
from .errors import DomainError, IndeterminateError, InputParseError, NtboundsError
from .presets import PRESET_NAMES, ambient_gamma
from .reporting import (
    SCHEMA_VERSION,
    bound_report_payload,
    bounded_real_payload,
    canonical_dumps,
    census_payload,
    exponents_payload,
    family_audit_payload,
    search_report_payload,
)
from .rounding import (
    MIN_PRECISION,
    ConstExpr,
    Direction,
    LogRat,
    Prod,
    Rat,
    Sum,
    rat,
)
from .search import GammaSpec, search_rational_points
from .subgroups import DEFAULT_CEILING, census
from .rings import ring_by_name

__all__ = ["main", "parse_height_expr"]

# The preset Gammas, validated once; each keeps its generator's last
# canonical-height enclosure from one search request to the next.
_PRESET_GAMMAS = {name: ambient_gamma(name) for name in PRESET_NAMES}


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\s*\*?\s*)?"
    r"log\s*(?:\(\s*(?P<parg>\d+(?:/\d+)?)\s*\)|(?P<iarg>\d+))"
    r"(?:\s*/\s*(?P<div>\d+))?$"
)
_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_height_expr(text: str) -> ConstExpr:
    """Decimal-free height expressions: sums of rationals and rational
    multiples of logarithms, e.g. '0', '1/3log2', 'log(2)/3 + 1/2'."""
    terms = []
    try:
        for piece in text.split("+"):
            piece = piece.strip()
            if not piece:
                raise InputParseError(f"empty term in height expression {text!r}")
            if _RAT_RE.match(piece):
                terms.append(Rat(Fraction(piece)))
                continue
            m = _TERM_RE.match(piece)
            if not m:
                raise InputParseError(
                    f"cannot parse height term {piece!r}; use forms like '1/3log2', "
                    f"'log(2)/3', or a plain rational 'p/q'")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if m.group("div"):
                coeff /= int(m.group("div"))
            arg = Fraction(m.group("parg") or m.group("iarg"))
            terms.append(Prod((Rat(coeff), LogRat(arg))))
    except ZeroDivisionError as exc:
        raise InputParseError(f"zero denominator in height expression {text!r}") from exc
    except (InputParseError, DomainError):
        raise
    except ValueError as exc:  # Fraction() refuses ints past the str() digit limit
        raise InputParseError(f"cannot parse height expression: {exc}") from exc
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputParseError(f"cannot parse {what} {text!r}: {exc}") from exc


def _load_curve(spec: str):
    """A path to a curve JSON file, or a preset name (f1/f2, preset:f1, ...)."""
    gamma = _PRESET_GAMMAS.get(spec.removeprefix("preset:"))
    if gamma is not None:
        return gamma.curve, gamma.generator, 1, 1
    path = Path(spec)
    if not path.exists():
        raise InputParseError(f"curve file {spec!r} does not exist and is not a preset "
                              f"({', '.join(PRESET_NAMES)})")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read curve file {spec!r}: {exc}") from exc
    return curve_from_json(text)


def _resolve_hw(args) -> ConstExpr:
    if args.hw:
        return parse_height_expr(args.hw)
    if args.curve:
        curve, _gen, _rank, _tor = _load_curve(args.curve)
        return weierstrass_height_expr(curve)
    return rat(0)


def _emit(payload: dict, out: str | None) -> None:
    blob = canonical_dumps(payload)
    if out:
        Path(out).write_bytes(blob)
    else:
        sys.stdout.buffer.write(blob)


def _default_precision() -> int:
    env = os.environ.get("NTBOUNDS_PRECISION", "")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise InputParseError(f"NTBOUNDS_PRECISION must be an integer, got {env!r}")
        if value < MIN_PRECISION:
            raise InputParseError(f"NTBOUNDS_PRECISION must be >= {MIN_PRECISION}")
        return value
    return 256


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> None:
    hw = _resolve_hw(args)
    payload = {"schema_version": SCHEMA_VERSION, "kind": "constants",
               "precision_bits": args.precision}
    if args.d:
        names, values = ("d1", "d2", "d3"), constants_D(hw, Direction.UPPER, args.precision)
        payload["set"] = "transverse-square"
        payload["printed_approximations"] = constants_D_printed(args.precision)
    else:
        names = ("c1", "c2", "c3")
        values = constants_CN(args.cn, hw, Direction.UPPER, args.precision)
        payload["set"] = "weak-transverse-power"
        payload["N"] = args.cn
    payload["values"] = {name: bounded_real_payload(value, args.digits)
                         for name, value in zip(names, values)}
    _emit(payload, args.out)


def _cmd_bound(args) -> None:
    hw = _resolve_hw(args)
    h_c = parse_height_expr(args.h_c)
    if args.branch == "square":
        report = bound_transverse_E2(h_c, args.deg_c, hw, args.precision)
    else:
        if args.N is None:
            raise InputParseError("--branch power requires --N")
        report = bound_weaktransverse_EN(args.N, h_c, args.deg_c, hw, args.precision)
    _emit(bound_report_payload(report, args.digits), args.out)


def _cmd_family_audit(args) -> None:
    if args.n is not None:
        ns = [args.n]
    else:
        try:
            lo, hi = args.n_range.split(":")
            ns = list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise InputParseError(f"bad --n-range {args.n_range!r}; use A:B") from exc
        if not ns:
            raise InputParseError("empty --n-range")
    reports = []
    for n in ns:
        rep = family_final_bound(n, args.family, args.precision)
        if rep.verdict == "indeterminate":
            raise IndeterminateError(
                f"composed-versus-closed-form comparison indeterminate at n={n}; "
                f"raise --precision")
        reports.append(rep)
    _emit(family_audit_payload(reports, args.digits), args.out)


def _cmd_search(args) -> None:
    gamma = _PRESET_GAMMAS.get(args.curve.removeprefix("preset:"))
    if gamma is None:
        curve, gen, rank, torsion = _load_curve(args.curve)
        if rank != 1 or torsion != 1:
            # The search walks Z*g with torsion {O}: a file declaring more
            # would be searched in part and reported as if in full.
            raise DomainError(f"search needs rank 1 and torsion order 1; the curve file "
                              f"declares rank {rank} and torsion order {torsion}")
        gamma = GammaSpec(curve, gen)
    tol = _parse_fraction(args.tol, "--tol")
    bound = _parse_fraction(args.height_bound, "--height-bound")
    t0 = time.perf_counter()
    report = search_rational_points(args.family, args.n, gamma, bound, tol,
                                    shards=args.shards, precision=args.precision)
    wall = time.perf_counter() - t0
    pairs_per_second = report.pairs_scanned / wall if wall > 0 else 0.0
    _emit(search_report_payload(report, args.digits), args.out)
    print(f"search metrics: wall={wall:.3f}s "
          f"pairs/s={pairs_per_second:.0f} shards={args.shards}", file=sys.stderr)
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps({
            "wall_clock_seconds": wall,
            "pairs_per_second": pairs_per_second,
            "shards": args.shards,
        }, sort_keys=True) + "\n")


def _cmd_census(args) -> None:
    ring = ring_by_name(args.ring)
    report = census(ring, args.N, args.r, args.max_degree, args.torsion,
                    ceiling=args.ceiling)
    _emit(census_payload(report), args.out)


def _cmd_exponents(args) -> None:
    report = exponents(args.theorem, case=args.case or "", N=args.N, r=args.r,
                       t=args.t, dim_v=args.dim_v)
    _emit(exponents_payload(report), args.out)


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and, by subcommand name, each subcommand's parser
    and handler; built once per process: parsing does not mutate them."""
    parser = argparse.ArgumentParser(
        prog="ntbounds",
        description="Explicit Neron-Tate height bounds for curves in powers of "
                    "elliptic curves: constants, bound audits, searches, censuses.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        commands[name] = p, handler
        return p

    def common(p, digits_default=40):
        p.add_argument("--precision", type=int, default=None,
                       help="evaluation precision in bits (default: "
                            "NTBOUNDS_PRECISION or 256)")
        p.add_argument("--digits", type=int, default=digits_default,
                       help="significant digits in decimal output")
        p.add_argument("--out", help="write the canonical JSON report here "
                                     "(default: stdout)")

    def hw_source(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--hw", help="h_W(E) as a decimal-free expression, e.g. '1/3log2'")
        group.add_argument("--curve", help="curve file or preset (f1/f2) to compute h_W from")

    p = command("constants", _cmd_constants, "evaluate the explicit bound constants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", action="store_true",
                       help="the transverse-in-E^2 constant set")
    group.add_argument("--cn", type=int, metavar="N",
                       help="the weak-transverse power constant set for E^N")
    hw_source(p)
    common(p)

    p = command("bound", _cmd_bound, "evaluate a height bound for given curve data")
    p.add_argument("--branch", choices=("square", "power"), required=True)
    p.add_argument("--N", type=int, help="ambient power for --branch power (N >= 3)")
    p.add_argument("--deg-c", type=int, required=True, help="degree of the curve")
    p.add_argument("--h-c", required=True,
                   help="normalized height of the curve (decimal-free expression)")
    hw_source(p)
    common(p)

    p = command("family-audit", _cmd_family_audit,
                "degree/genus/height pipeline audit for the curve families")
    p.add_argument("--family", choices=("f1", "f2"), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-range", metavar="A:B")
    common(p)

    p = command("search", _cmd_search, "bounded-height rational point search")
    p.add_argument("--family", choices=("f1", "f2"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--curve", required=True,
                   help="curve JSON file or preset name (f1/f2)")
    p.add_argument("--height-bound", required=True)
    p.add_argument("--tol", default="1e-10")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--metrics-out", help="write volatile timing metrics here")
    common(p, digits_default=30)

    p = command("census", _cmd_census, "bounded-degree algebraic subgroup census")
    p.add_argument("--ring", default="z", help="z, zi, or zw")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--torsion", type=int, required=True,
                   help="torsion order bound T for the count sum")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                   help="resource guard: the most loop steps a counted shape "
                        "may take, or row combinations a walked shape may scan")
    common(p)

    p = command("exponents", _cmd_exponents, "exact exponents of the quantitative theorems")
    p.add_argument("--theorem", required=True,
                   help=f"one of: {', '.join(sorted(THEOREM_IDS))}")
    p.add_argument("--case", default="")
    p.add_argument("--N", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--dim-v", type=int)
    common(p)

    return parser, commands


def _parse(argv: list[str]) -> tuple[argparse.Namespace, Callable]:
    """The parsed arguments of one request and the handler of its subcommand."""
    parser, commands = _parser()
    if argv and argv[0] in commands:
        subparser, handler = commands[argv[0]]
        args, extra = subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, handler
    args = parser.parse_args(argv)
    return args, commands[args.command][1]


def main(argv=None) -> int:
    args, handler = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.precision is None:
            args.precision = _default_precision()
        elif args.precision < MIN_PRECISION:
            raise InputParseError(f"--precision must be >= {MIN_PRECISION}")
        if args.digits < 1:
            raise InputParseError("--digits must be >= 1")
        handler(args)
    except NtboundsError as exc:
        print(f"ntbounds: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
