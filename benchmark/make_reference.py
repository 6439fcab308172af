"""Regenerate benchmark/reference.json from the skewmorph sources.

    python3 benchmark/make_reference.py

The reference holds, per group, (total, automorphisms, non-smooth) counts,
and the families-roundtrip record pool: each record's constructor and
arguments, a digest of its clean JSON line, and for every corruption
variant the exact mismatch list `check_record` returns.  Variants that
`check_record` cannot detect (an empty list) are left out, so every
corrupted record is flagged.  Enumerating Z35 and Z40 takes over a minute;
the whole run takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from skewmorph import constructions, enumeration, groups, records  # noqa: E402
from skewmorph.constructions import ParameterRejection  # noqa: E402

from workloads import (  # noqa: E402
    CYCLIC_POOL,
    FLIPS,
    NONCYCLIC_POOL,
    REFERENCE_PATH,
    build,
    corrupt,
    line_digest,
)

ORACLE_MAX = 9
CYCLIC_MAX = 40  # the paper's non-smooth cyclic orders are stated up to 40
CSM_ORDERS = range(4, 41)
ROOT_ORDERS = range(4, 65)
NSE_TRIPLES = (
    [(3, d, nu, r) for d in (1, 2) for nu in (1, 2) for r in (2,)]
    + [(5, d, nu, r) for d in range(1, 5) for nu in range(1, 5) for r in range(2, 5)]
    + [(7, 1, nu, r) for nu in range(1, 7) for r in range(2, 7)]
)
WITNESS_GROUPS = (
    (9,), (18,), (25,), (27,), (32,), (36,), (3, 3), (2, 9), (3, 6), (3, 9),
    (5, 5), (2, 3, 3), (4, 9), (2, 25), (49,), (7, 7),
)
SWAPS_PER_RECORD = 2


def group_labels() -> list[str]:
    labels = []
    for n in range(1, ORACLE_MAX + 1):
        labels.extend(g.label for g in groups.abelian_group_presentations(n))
    labels.extend(f"Z{n}" for n in range(ORACLE_MAX + 1, CYCLIC_MAX + 1))
    labels.extend(CYCLIC_POOL)
    labels.extend(NONCYCLIC_POOL)
    return sorted(set(labels), key=lambda s: (groups.parse_group_literal(s).order, s))


def family_specs() -> list[tuple[str, list[int]]]:
    specs = []
    for n in CSM_ORDERS:
        for p in constructions.enumerate_csm_params(n):
            specs.append(("csm", [p.n, p.k, p.r, p.s, p.t]))
    for n in ROOT_ORDERS:
        for k in range(2, n):
            if n % k:
                continue
            for s in range(n):
                try:
                    constructions.root_params(n, k, s)
                except ParameterRejection:
                    continue
                specs.append(("root", [n, k, s]))
    specs.extend(("nse", list(t)) for t in NSE_TRIPLES)
    specs.extend(("witness", list(f)) for f in WITNESS_GROUPS)
    return specs


def record_entry(family: str, args: list[int]) -> dict:
    line = records.to_json_line(build(family, args))
    n = len(json.loads(line)["perm"])
    rng = random.Random(f"{family}{args}")
    pairs = set()
    while len(pairs) < SWAPS_PER_RECORD:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    variants = {}
    for name in [f"swap:{i}:{j}" for i, j in sorted(pairs)] + [f"flip:{f}" for f in FLIPS]:
        data = records.parse_record(line)
        corrupt(data, name)
        mismatches = records.check_record(data)
        if mismatches:
            variants[name] = mismatches
    return {"family": family, "args": args, "sha": line_digest(line), "variants": variants}


def main() -> int:
    table = {}
    for label in group_labels():
        report = enumeration.cached_enumeration(groups.parse_group_literal(label).factors)
        table[label] = [report.total, report.automorphisms, report.nonsmooth]
        print(f"{label}: {table[label]}", file=sys.stderr, flush=True)
    pool = [record_entry(family, args) for family, args in family_specs()]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as out:
        json.dump({"groups": table, "records": pool}, out, separators=(",", ":"))
        out.write("\n")
    print(f"wrote {len(table)} groups and {len(pool)} records to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
