"""Serialization: skew-morphism JSON records and census CSV rows."""

from __future__ import annotations

import json
from typing import Any

from .groups import make_group
from .morphisms import SkewMorphism, is_smooth, kernel, try_validate

RECORD_FIELDS = ("group", "perm", "order", "power", "smooth", "skew_type", "kernel", "proper")

CSV_HEADER = "group,order,total,autos,proper,smooth,nonsmooth,ms"


class MalformedRecord(ValueError):
    """Structurally broken record: not a JSON object, missing fields, or mistyped arrays."""


def to_record(sm: SkewMorphism) -> dict[str, Any]:
    ker = kernel(sm)
    return {
        "group": list(sm.group.factors),
        "perm": list(sm.perm),
        "order": sm.order,
        "power": list(sm.power),
        "smooth": is_smooth(sm),
        "skew_type": sm.group.order // ker.size,
        "kernel": list(ker.members),
        "proper": sm.is_proper,
    }


def to_json_line(sm: SkewMorphism) -> str:
    return json.dumps(to_record(sm), separators=(",", ":"))


def parse_record(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, oversized ints, deep nesting
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedRecord("record is not a JSON object")
    missing = [f for f in RECORD_FIELDS if f not in data]
    if missing:
        raise MalformedRecord(f"missing fields: {', '.join(missing)}")
    for name in ("group", "perm", "power", "kernel"):
        value = data[name]
        if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
            raise MalformedRecord(f"{name} is not an integer array")
    return data


def check_record(data: dict[str, Any]) -> list[str]:
    """Revalidate a record from parse_record; returns the mismatched fields.

    The permutation is revalidated from scratch and every derived field is
    compared against the stored one.  A perm that is not a bijection or not
    a skew morphism reports as a 'perm' mismatch.  Stored power entries are
    compared modulo the derived order.
    """
    try:
        group = make_group(int(f) for f in data["group"])
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(f"bad group field: {exc}") from exc
    sm = try_validate(group, data["perm"])
    if sm is None:
        return ["perm"]
    mismatches = []
    if data["order"] != sm.order:
        mismatches.append("order")
    stored_power = data["power"]
    if len(stored_power) != group.order or any(
        (v - sm.power[i]) % sm.order != 0 for i, v in enumerate(stored_power)
    ):
        mismatches.append("power")
    if bool(data["smooth"]) != is_smooth(sm):
        mismatches.append("smooth")
    ker = kernel(sm)
    if data["skew_type"] != group.order // ker.size:
        mismatches.append("skew_type")
    if data["kernel"] != list(ker.members):
        mismatches.append("kernel")
    if bool(data["proper"]) != sm.is_proper:
        mismatches.append("proper")
    return mismatches


def census_row(label: str, report) -> str:
    return (
        f"{label},{report.group.order},{report.total},{report.automorphisms},"
        f"{report.proper},{report.smooth},{report.nonsmooth},{int(report.elapsed_ms)}"
    )
