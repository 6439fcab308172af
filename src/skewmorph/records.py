"""Serialization: skew-morphism JSON records and census CSV rows."""

from __future__ import annotations

import json
from typing import Any

from .groups import make_group
from .morphisms import SkewMorphism, is_smooth, kernel, try_validate

RECORD_FIELDS = ("group", "perm", "order", "power", "smooth", "skew_type", "kernel", "proper")

CSV_HEADER = "group,order,total,autos,proper,smooth,nonsmooth,ms"


class MalformedRecord(ValueError):
    """Structurally broken record: not a JSON object, missing fields, or mistyped fields."""


def _derived_fields(sm: SkewMorphism) -> dict[str, Any]:
    """Every record field after group and perm, in RECORD_FIELDS order, as
    derived from a validated morphism; power and kernel are tuples."""
    ker = kernel(sm)
    return {
        "order": sm.order,
        "power": sm.power,
        "smooth": is_smooth(sm),
        "skew_type": sm.group.order // ker.size,
        "kernel": ker.members,
        "proper": sm.is_proper,
    }


def to_record(sm: SkewMorphism) -> dict[str, Any]:
    record: dict[str, Any] = {"group": list(sm.group.factors), "perm": list(sm.perm)}
    for name, value in _derived_fields(sm).items():
        record[name] = list(value) if isinstance(value, tuple) else value
    return record


def to_json_line(sm: SkewMorphism) -> str:
    return json.dumps(to_record(sm), separators=(",", ":"))


def parse_record(text: str) -> dict[str, Any]:
    """Parse one record and check its schema; raises MalformedRecord.

    JSON booleans are not integers here, although Python's bool is an int
    (an exact type test refuses them, and json.loads makes no other int
    subclass): the four arrays hold integers, order and skew_type are
    integers, and smooth and proper are booleans.
    """
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
        if not isinstance(value, list) or not set(map(type, value)) <= {int}:
            raise MalformedRecord(f"{name} is not an integer array")
    for name in ("order", "skew_type"):
        if type(data[name]) is not int:
            raise MalformedRecord(f"{name} is not an integer")
    for name in ("smooth", "proper"):
        if not isinstance(data[name], bool):
            raise MalformedRecord(f"{name} is not a boolean")
    return data


def check_record(data: dict[str, Any]) -> list[str]:
    """Revalidate a record from parse_record; returns the mismatched fields.

    The permutation is revalidated from scratch, and the fields to_record
    derives from it are compared with the stored ones in RECORD_FIELDS
    order.  A perm that is not a bijection or not a skew morphism reports
    as a 'perm' mismatch.  Stored power entries are compared modulo the
    derived order.
    """
    try:
        group = make_group(int(f) for f in data["group"])
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(f"bad group field: {exc}") from exc
    sm = try_validate(group, data["perm"])
    if sm is None:
        return ["perm"]
    power = tuple(v % sm.order for v in data["power"])
    stored = dict(data, power=power, kernel=tuple(data["kernel"]))
    return [name for name, value in _derived_fields(sm).items() if stored[name] != value]


def census_row(label: str, report) -> str:
    return (
        f"{label},{report.group.order},{report.total},{report.automorphisms},"
        f"{report.proper},{report.smooth},{report.nonsmooth},{int(report.elapsed_ms)}"
    )
