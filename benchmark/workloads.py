"""The benchmark's workloads: seeded inputs and one checked op per input.

Each workload is a closed loop in one process and one thread: the next op
starts when the previous one has returned.  The seed only orders the pool
(and, for families-roundtrip, picks which records are corrupted and how), so
every seed runs the same amount of work and runs stay comparable.

* cyclic-sweep     -- census of Z_n over CYCLIC_POOL.  The quotient-lifting
  search dominates; multi-prime orders (30, 33, 39) fan out into many cells.
* noncyclic-sweep  -- census of NONCYCLIC_POOL.  Kernel assembly validates
  every assembled table, so the reject path of validation dominates.
* families-roundtrip -- construct a closed-form record, encode it, corrupt a
  seeded share, and re-check it.  Accept-path validation plus invariants;
  the only workload that exercises constructions and records.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from skewmorph import constructions, enumeration, groups, records

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Slower orders stay out: Z40 19 s, Z35 55 s, Z42 147 s, Z45 565 s (README.md).
CYCLIC_POOL = tuple(f"Z{n}" for n in range(2, 40) if n != 35)
# Slower groups stay out: Z2xZ12 5 s, Z2xZ14 12 s, Z2xZ2xZ2xZ2 16 s, Z3xZ9 28 s.
NONCYCLIC_POOL = (
    "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ8",
    "Z4xZ4", "Z2xZ2xZ4", "Z3xZ6", "Z2xZ10", "Z5xZ5",
)
CORRUPT_SHARE = 0.25
# smoke runs keep the pools' cheapest entries
SMOKE_SIZE = {"cyclic-sweep": 12, "noncyclic-sweep": 6, "families-roundtrip": 40}

FLIPS = ("order", "power", "smooth", "skew_type", "kernel", "proper")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def corrupt(data: dict, variant: str) -> None:
    """Apply a named corruption to a parsed record in place.

    'swap:i:j' exchanges two perm entries; 'flip:<field>' changes one field.
    """
    kind, _, rest = variant.partition(":")
    if kind == "swap":
        i, j = (int(v) for v in rest.split(":"))
        perm = data["perm"]
        perm[i], perm[j] = perm[j], perm[i]
    elif rest == "order":
        data["order"] += 1
    elif rest == "power":
        data["power"][1] += 1
    elif rest in ("smooth", "proper"):
        data[rest] = not data[rest]
    elif rest == "skew_type":
        data["skew_type"] += 1
    elif rest == "kernel":
        data["kernel"] = data["kernel"][:-1]
    else:
        raise ValueError(f"unknown corruption {variant!r}")


def build(family: str, args: list[int]):
    """Construct a closed-form morphism; module attributes are looked up per
    call so that the tracer's wrappers take effect."""
    if family == "csm":
        return constructions.csm_construct(constructions.csm_params(*args))
    if family == "root":
        return constructions.root_construct(constructions.root_params(*args))
    if family == "nse":
        return constructions.nse_construct(*args)
    if family == "witness":
        return constructions.nonsmooth_witness(groups.make_group(args))
    raise ValueError(f"unknown family {family!r}")


def sweep_op(item) -> bool:
    """Enumerate one group the way `skewmorph census` does and check it."""
    factors, expected = item
    report = enumeration.enumerate_skew_morphisms(groups.make_group(factors))
    ok = [report.total, report.automorphisms, report.nonsmooth] == expected
    if len(factors) == 1:
        predicted = enumeration.smooth_only_predicate(factors[0])
        ok = ok and predicted == (report.nonsmooth == 0)
    return ok


def family_op(item) -> bool:
    """Construct, encode, maybe corrupt, re-check; compare with the reference."""
    family, args, digest, variant, expected = item
    line = records.to_json_line(build(family, args))
    data = records.parse_record(line)
    if variant is not None:
        corrupt(data, variant)
    mismatches = records.check_record(data)
    return line_digest(line) == digest and mismatches == expected


def make_inputs(workload: str, seed: int, reference: dict, smoke: bool = False):
    """The seeded op list of one pass, and the function that runs one op."""
    rng = random.Random(seed)
    if workload == "families-roundtrip":
        pool = reference["records"]
        if smoke:
            pool = pool[: SMOKE_SIZE[workload]]
        order = rng.sample(range(len(pool)), len(pool))
        corrupted = set(order[: round(len(pool) * CORRUPT_SHARE)])
        items = []
        for idx in order:
            rec = pool[idx]
            variant, expected = None, []
            if idx in corrupted:
                variant = rng.choice(sorted(rec["variants"]))
                expected = rec["variants"][variant]
            items.append((rec["family"], rec["args"], rec["sha"], variant, expected))
        return items, family_op
    if workload == "cyclic-sweep":
        pool = CYCLIC_POOL
    elif workload == "noncyclic-sweep":
        pool = NONCYCLIC_POOL
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        pool = pool[: SMOKE_SIZE[workload]]
    table = reference["groups"]
    items = [
        (groups.parse_group_literal(label).factors, table[label])
        for label in rng.sample(pool, len(pool))
    ]
    return items, sweep_op
