"""Command-line front end: enumerate, census, verify, construct, check, reciprocal.

Exit codes: 0 success, 1 mathematical failure (a check or construction did
not hold), 2 usage or parse error, 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Sequence

from . import constructions, enumeration, morphisms, records
from .groups import AbelianGroup, InvalidFactorError, SizeGuardError, make_group, parse_group_literal

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

# largest group order `check` revalidates without --max-order; validation
# builds an order x order addition table
CHECK_GUARD = 256


def _open_out(path: str | None) -> IO[str]:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _emit(out: IO[str], line: str) -> None:
    out.write(line + "\n")


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _parse_groups_flag(text: str) -> list[AbelianGroup]:
    return [parse_group_literal(part) for part in text.split(",") if part.strip()]


def _report(group: AbelianGroup, args) -> enumeration.EnumerationReport:
    if getattr(args, "oracle", False):
        guard = args.max_order if args.max_order else enumeration.ORACLE_GUARD
        return enumeration.brute_force_oracle(group, guard)
    return enumeration.enumerate_skew_morphisms(group, args.max_order)


def cmd_enumerate(args) -> int:
    group = parse_group_literal(args.group)
    report = _report(group, args)
    out = _open_out(args.out)
    try:
        for sm in report.morphisms:
            _emit(out, records.to_json_line(sm))
    finally:
        if out is not sys.stdout:
            out.close()
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
        groups.extend(make_group([n] if n > 1 else []) for n in range(lo, hi + 1))
    if not groups:
        print("census: nothing to do (use --groups or --cyclic-from/--cyclic-to)", file=sys.stderr)
        return EXIT_USAGE
    out = _open_out(args.out)
    try:
        _emit(out, records.CSV_HEADER)
        for group in groups:
            report = _report(group, args)
            _emit(out, records.census_row(group.label, report))
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_construct(args) -> int:
    try:
        if args.family == "csm":
            sm = constructions.csm_construct(
                constructions.csm_params(args.n, args.k, args.r, args.s, args.t)
            )
        elif args.family == "root":
            sm = constructions.root_construct(constructions.root_params(args.n, args.k, args.s))
        else:
            sm = constructions.nse_construct(args.p, args.d, args.nu, args.r)
    except constructions.ParameterRejection as exc:
        print(f"construct {args.family}: {exc}", file=sys.stderr)
        return EXIT_MATH
    out = _open_out(args.out)
    try:
        _emit(out, records.to_json_line(sm))
    finally:
        if out is not sys.stdout:
            out.close()
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
        guard = args.max_order or CHECK_GUARD
        if make_group(data["group"]).order > guard:
            raise SizeGuardError(f"group order exceeds check guard {guard}; raise --max-order")
        mismatches = records.check_record(data)
    except records.MalformedRecord as exc:
        print(f"check: malformed record: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidFactorError as exc:
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
    rep_m = enumeration.enumerate_skew_morphisms(group_m, args.max_order)
    rep_n = enumeration.enumerate_skew_morphisms(group_n, args.max_order)
    pairs = [
        (a, b)
        for a in rep_m.morphisms
        for b in rep_n.morphisms
        if morphisms.is_reciprocal_pair(a, b)
    ]
    out = _open_out(args.out)
    try:
        _emit(out, json.dumps({"m": args.m, "n": args.n, "count": len(pairs)}))
        if args.list:
            for a, b in pairs:
                _emit(out, json.dumps(
                    {"phi": records.to_record(a), "phi_tilde": records.to_record(b)},
                    separators=(",", ":"),
                ))
    finally:
        if out is not sys.stdout:
            out.close()
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
    ns = [args.n] if args.n else range(2, args.max_n + 1)
    for n in ns:
        family = {
            constructions.csm_construct(p).perm
            for p in constructions.enumerate_csm_params(n)
        }
        report = enumeration.cached_enumeration((n,), args.max_order)
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
    if spg.order != n * sm.order:
        failures.append("product-order")
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
    if not args.groups:
        print("verify theorem2: --groups is required", file=sys.stderr)
        return EXIT_USAGE
    for group in _parse_groups_flag(args.groups):
        if group.is_cyclic:
            print(f"verify theorem2: {group.label} is cyclic; use theorem1", file=sys.stderr)
            return EXIT_USAGE
        necessary = enumeration.theorem2_necessary(group)
        if necessary:
            _info(args, f"{group.label}: necessary condition holds; no witness required")
            continue
        witness = constructions.nonsmooth_witness(group)
        if witness is None or morphisms.is_smooth(witness):
            return _fail({"suite": "theorem2", "group": group.label})
        _info(args, f"{group.label}: non-smooth witness of order {witness.order} found")
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = {
        "theorem1": _verify_theorem1,
        "csm": _verify_csm,
        "identities": _verify_identities,
        "theorem2": _verify_theorem2,
    }
    return suites[args.suite](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewmorph",
        description="Skew morphisms of finite abelian groups: enumeration, constructions, verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-order", type=int, default=None,
                        help="override the enumeration size guard")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--quiet", action="store_true", help="suppress progress messages")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list all skew morphisms of a group as JSONL")
    p.add_argument("group", help="group literal, e.g. Z6 or Z2xZ4")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force permutation scan (order <= 10)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("census", parents=[common], help="summary counts per group as CSV")
    p.add_argument("--cyclic-from", type=int, default=None)
    p.add_argument("--cyclic-to", type=int, default=None)
    p.add_argument("--groups", default=None, help="comma-separated group literals")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=["theorem1", "csm", "identities", "theorem2"])
    p.add_argument("--max-n", type=int, default=20)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--groups", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", parents=[common], help="build a morphism from a family")
    p.add_argument("family", choices=["csm", "root", "nse"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--nu", type=int, default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", parents=[common], help="revalidate a skew-morphism JSON record")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reciprocal", parents=[common],
                       help="count (and list) reciprocal pairs for Z_m and Z_n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_reciprocal)
    return parser


_REQUIRED_FLAGS = {
    "csm": ("n", "k", "r", "s", "t"),
    "root": ("n", "k", "s"),
    "nse": ("p", "d", "nu", "r"),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "construct":
        missing = [f for f in _REQUIRED_FLAGS[args.family] if getattr(args, f) is None]
        if missing:
            print(f"construct {args.family}: missing --" + ", --".join(missing), file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except InvalidFactorError as exc:
        print(f"skewmorph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"skewmorph: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
