"""Command-line front end: enumerate, census, verify, construct, check, reciprocal.

Exit codes: 0 success, 1 mathematical failure (a check or construction did
not hold), 2 usage or parse error, 3 size guard exceeded, 141 the reader
closed the output before it was all written (as `| head` does), with no
traceback; 141 = 128 + SIGPIPE is the status a shell reports for a writer
that a closed pipe stops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import IO, Iterator, Sequence

from . import constructions, enumeration, morphisms, records
from .groups import (SUBGROUP_GUARD, AbelianGroup, InvalidFactorError, SizeGuardError,
                     make_group, parse_group_literal)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_PIPE = 141


class UsageError(Exception):
    """A flag that names something unusable, such as an unwritable --out."""


@contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The --out stream: stdout for None or "-", else the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from exc
    with handle:
        yield handle


def _check_guard(order: int, args) -> None:
    """Raise SizeGuardError above the guard, before any table is built.

    `check`, `construct` and `verify theorem2` each build an order x order
    addition table, so without --max-order they share the subgroup guard."""
    guard = args.max_order if args.max_order is not None else SUBGROUP_GUARD
    if order > guard:
        raise SizeGuardError(
            f"group order {order} exceeds {args.command} guard {guard}; raise --max-order"
        )


def _emit(out: IO[str], line: str) -> None:
    out.write(line + "\n")


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def group_order(text: str) -> int:
    """argparse type of the group-order flags: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a group order >= 1")
    return value


def _parse_groups_flag(text: str) -> list[AbelianGroup]:
    return [parse_group_literal(part) for part in text.split(",") if part.strip()]


def _oracle_guard(args) -> int:
    return args.max_order if args.max_order is not None else enumeration.ORACLE_GUARD


def _check_enumeration_guards(groups: Sequence[AbelianGroup], args) -> None:
    """Raise SizeGuardError for a group over its guard.  Run before --out is
    opened, so that a refused run leaves no file behind, and --out before
    any enumeration, so that an unwritable path is reported at once."""
    for group in groups:
        if not getattr(args, "oracle", False):
            enumeration.check_search_guard(group, args.max_order)
        elif group.order > _oracle_guard(args):
            raise SizeGuardError(
                f"order {group.order} exceeds oracle guard {_oracle_guard(args)}; raise --max-order"
            )


def _report(group: AbelianGroup, args) -> enumeration.EnumerationReport:
    if getattr(args, "oracle", False):
        return enumeration.brute_force_oracle(group, _oracle_guard(args))
    return enumeration.enumerate_skew_morphisms(group, args.max_order)


def cmd_enumerate(args) -> int:
    group = parse_group_literal(args.group)
    _check_enumeration_guards([group], args)
    with _output(args.out) as out:
        report = _report(group, args)
        for sm in report.morphisms:
            _emit(out, records.to_json_line(sm))
    _info(args, f"{group.label}: {report.total} skew morphisms "
                f"({report.automorphisms} automorphisms, {report.nonsmooth} non-smooth)")
    return EXIT_OK


def cmd_census(args) -> int:
    groups: list[AbelianGroup] = []
    if args.groups:
        groups.extend(_parse_groups_flag(args.groups))
    if args.cyclic_from is not None or args.cyclic_to is not None:
        lo = args.cyclic_from if args.cyclic_from is not None else 1
        hi = args.cyclic_to if args.cyclic_to is not None else lo
        if lo > hi:
            raise UsageError(f"census: empty range --cyclic-from {lo} --cyclic-to {hi}")
        groups.extend(make_group([n] if n > 1 else []) for n in range(lo, hi + 1))
    if not groups:
        print("census: nothing to do (use --groups or --cyclic-from/--cyclic-to)", file=sys.stderr)
        return EXIT_USAGE
    _check_enumeration_guards(groups, args)
    with _output(args.out) as out:
        _emit(out, records.CSV_HEADER)
        for group in groups:
            report = _report(group, args)
            _emit(out, records.census_row(group.label, report))
            out.flush()  # a row can take seconds: hand each on as it is done
    return EXIT_OK


def cmd_construct(args) -> int:
    # a non-positive p is left to nse_construct to reject
    order = max(args.p, 0) ** 2 if args.family == "nse" else args.n
    _check_guard(order, args)
    try:
        sm = args.build(args)
    except constructions.ParameterRejection as exc:
        print(f"construct {args.family}: {exc}", file=sys.stderr)
        return EXIT_MATH
    with _output(args.out) as out:
        _emit(out, records.to_json_line(sm))
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        data = records.parse_record(text)
        _check_guard(make_group(data["group"]).order, args)
        mismatches = records.check_record(data)
    except (records.MalformedRecord, InvalidFactorError) as exc:
        print(f"check: malformed record: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if mismatches:
        print(f"check: mismatch in field(s): {', '.join(mismatches)}", file=sys.stderr)
        return EXIT_MATH
    _info(args, "check: record is consistent")
    return EXIT_OK


def cmd_reciprocal(args) -> int:
    group_m = make_group([args.m] if args.m > 1 else [])
    group_n = make_group([args.n] if args.n > 1 else [])
    _check_enumeration_guards([group_m, group_n], args)
    with _output(args.out) as out:
        rep_m = enumeration.enumerate_skew_morphisms(group_m, args.max_order)
        rep_n = enumeration.enumerate_skew_morphisms(group_n, args.max_order)
        pairs = [
            (a, b)
            for a in rep_m.morphisms
            for b in rep_n.morphisms
            if morphisms.is_reciprocal_pair(a, b)
        ]
        _emit(out, json.dumps({"m": args.m, "n": args.n, "count": len(pairs)}))
        if args.list:
            for a, b in pairs:
                _emit(out, json.dumps(
                    {"phi": records.to_record(a), "phi_tilde": records.to_record(b)},
                    separators=(",", ":"),
                ))
    return EXIT_OK


def _fail(counterexample: dict) -> int:
    print(json.dumps(counterexample, separators=(",", ":")))
    return EXIT_MATH


def _verify_theorem1(args) -> int:
    verdict = enumeration.verify_theorem1(args.max_n, args.max_order)
    for row in verdict.rows:
        if not row.agrees:
            return _fail({
                "suite": "theorem1",
                "n": row.n,
                "nonsmooth": row.nonsmooth,
                "predicted_smooth_only": row.predicted_smooth_only,
            })
        _info(args, f"n={row.n}: total={row.total} nonsmooth={row.nonsmooth} "
                    f"smooth_only={row.predicted_smooth_only}")
    nonsmooth = ", ".join(str(n) for n in verdict.nonsmooth_orders) or "none"
    _info(args, f"theorem1 verified for n <= {args.max_n}; non-smooth orders: {nonsmooth}")
    return EXIT_OK


def _verify_csm(args) -> int:
    ns = [args.n] if args.n is not None else range(2, args.max_n + 1)
    # both guards grow with n, so the largest n stands for every input
    top = max(ns, default=1)
    constructions.check_csm_guard(top)
    _check_enumeration_guards([make_group([top] if top > 1 else [])], args)
    for n in ns:
        family = {
            constructions.csm_construct(p).perm
            for p in constructions.enumerate_csm_params(n)
        }
        report = enumeration.cached_enumeration((n,) if n > 1 else (), args.max_order)
        smooth_proper = {
            sm.perm for sm in report.morphisms if sm.is_proper and morphisms.is_smooth(sm)
        }
        if family != smooth_proper:
            witness = sorted(family ^ smooth_proper)[0]
            return _fail({"suite": "csm", "n": n, "witness_perm": list(witness)})
        _info(args, f"n={n}: smooth family complete ({len(family)} proper smooth)")
    return EXIT_OK


def _verify_identities(args) -> int:
    groups = _parse_groups_flag(args.groups) if args.groups else [make_group([6]), make_group([9])]
    _check_enumeration_guards(groups, args)
    for group in groups:
        report = enumeration.enumerate_skew_morphisms(group, args.max_order)
        for sm in report.morphisms:
            bad = _identity_failures(sm)
            if bad:
                return _fail({
                    "suite": "identities",
                    "group": group.label,
                    "perm": list(sm.perm),
                    "failed": bad,
                })
        _info(args, f"{group.label}: {report.total} morphisms, all identities hold")
    return EXIT_OK


def _identity_failures(sm: morphisms.SkewMorphism) -> list[str]:
    group = sm.group
    n = group.order
    add = group.add_table
    failures = []
    pw = sm.power_tables
    if any(
        sm.perm[add[a][b]] != add[sm.perm[a]][pw[sm.power[a]][b]]
        for a in range(n)
        for b in range(n)
    ):
        failures.append("defining-identity")
    ker = set(morphisms.kernel(sm).members)
    if {sm.perm[x] for x in ker} != ker:
        failures.append("kernel-preserved")
    if set(morphisms.core(sm).members) != ker:
        failures.append("core-equals-kernel")
    spg = morphisms.skew_product_group(sm)
    if set(morphisms.core_of_translations(spg).members) != set(morphisms.core(sm).members):
        failures.append("core-of-translations")
    m = sm.order
    for a in range(n):
        for b in range(n):
            total = sum(sm.power[pw[i][b]] for i in range(sm.power[a]))
            if (total - sm.power[add[a][b]]) % m != 0:
                failures.append("sum-identity")
                break
        else:
            continue
        break
    return failures


def _verify_theorem2(args) -> int:
    groups = _parse_groups_flag(args.groups)
    for group in groups:
        if group.is_cyclic:
            print(f"verify theorem2: {group.label} is cyclic; use theorem1", file=sys.stderr)
            return EXIT_USAGE
        _check_guard(group.order, args)
    for group in groups:
        necessary = enumeration.theorem2_necessary(group)
        if necessary:
            _info(args, f"{group.label}: necessary condition holds; no witness required")
            continue
        witness = constructions.nonsmooth_witness(group)
        if witness is None or morphisms.is_smooth(witness):
            return _fail({"suite": "theorem2", "group": group.label})
        _info(args, f"{group.label}: non-smooth witness of order {witness.order} found")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewmorph",
        description="Skew morphisms of finite abelian groups: enumeration, constructions, verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-order", type=group_order, default=None,
                        help="override the enumeration size guard")
    common.add_argument("--quiet", action="store_true", help="suppress progress messages")
    # the commands that write a file: enumerate, census, construct, reciprocal
    writer = argparse.ArgumentParser(add_help=False, parents=[common])
    writer.add_argument("--out", default=None, help="output file (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[writer],
                       help="list all skew morphisms of a group as JSONL")
    p.add_argument("group", help="group literal, e.g. Z6 or Z2xZ4")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force permutation scan (order <= 10)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("census", parents=[writer], help="summary counts per group as CSV")
    p.add_argument("--cyclic-from", type=group_order, default=None)
    p.add_argument("--cyclic-to", type=group_order, default=None)
    p.add_argument("--groups", default=None, help="comma-separated group literals")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run a verification suite")
    suites = p.add_subparsers(dest="suite", required=True)

    def suite(name: str, run) -> argparse.ArgumentParser:
        """A verify suite that, like a construct family, takes only its own flags."""
        s = suites.add_parser(name, parents=[common], allow_abbrev=False)
        s.set_defaults(func=run)
        return s

    suite("theorem1", _verify_theorem1).add_argument("--max-n", type=group_order, default=20)
    one_or_all = suite("csm", _verify_csm).add_mutually_exclusive_group()
    one_or_all.add_argument("--n", type=group_order, default=None)
    # a string default is parsed like the flag, so an explicit --max-n 20
    # is not the default object and still conflicts with --n
    one_or_all.add_argument("--max-n", type=group_order, default="20")
    suite("identities", _verify_identities).add_argument("--groups", default=None)
    suite("theorem2", _verify_theorem2).add_argument("--groups", required=True)

    p = sub.add_parser("construct", help="build a morphism from a family")
    families = p.add_subparsers(dest="family", required=True)
    # each family's required flags and construction; no abbreviations, so
    # that --n of another family is refused, not read as nse's --nu
    for family, flags, build in (
        ("csm", "n k r s t",
         lambda a: constructions.csm_construct(constructions.csm_params(a.n, a.k, a.r, a.s, a.t))),
        ("root", "n k s",
         lambda a: constructions.root_construct(constructions.root_params(a.n, a.k, a.s))),
        ("nse", "p d nu r", lambda a: constructions.nse_construct(a.p, a.d, a.nu, a.r)),
    ):
        f = families.add_parser(family, parents=[writer], allow_abbrev=False)
        for flag in flags.split():
            f.add_argument(f"--{flag}", type=int, required=True)
        f.set_defaults(func=cmd_construct, build=build)

    p = sub.add_parser("check", parents=[common], help="revalidate a skew-morphism JSON record")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reciprocal", parents=[writer],
                       help="count (and list) reciprocal pairs for Z_m and Z_n")
    p.add_argument("--m", type=group_order, required=True)
    p.add_argument("--n", type=group_order, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_reciprocal)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (or an --out pipe); point stdout at devnull
        # so that the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return status


def _dispatch(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InvalidFactorError, UsageError) as exc:
        print(f"skewmorph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"skewmorph: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
