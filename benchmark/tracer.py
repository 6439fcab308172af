"""In-memory span tracer for the benchmark.

The tracer replaces skewmorph's public functions, as bound in every module
that holds them, with wrappers that record one span per call: name, start,
end, parent span and op id.  Nothing under src/ is edited; uninstall()
puts the original functions back, so untraced passes run the plain code.

Per-span-name aggregates are kept as the spans close:

* calls   -- every call, nested ones included;
* busy_s  -- time at least one span of the name is open (outermost spans);
* self_s  -- duration minus the part covered by direct child spans;

plus counters measured at the same boundaries (validation accepts and
rejects, distinct morphisms found, encoded bytes, flagged records).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from skewmorph import constructions, enumeration, groups, morphisms, records

MODULES = (groups, morphisms, constructions, enumeration, records)

# span name -> functions, named by their defining module and attribute
TRACED = {
    "enumeration.enumerate": [(enumeration, "enumerate_skew_morphisms")],
    "morphisms.try_validate": [(morphisms, "try_validate"), (morphisms, "validate")],
    "morphisms.invariants": [
        (morphisms, "kernel"),
        (morphisms, "core"),
        (morphisms, "is_smooth"),
        (morphisms, "skew_type"),
    ],
    "groups.subgroups": [(groups, "enumerate_subgroups")],
    "groups.automorphisms": [(groups, "enumerate_automorphisms")],
    "groups.quotient": [(groups, "quotient_group")],
    "constructions.params": [
        (constructions, "csm_params"),
        (constructions, "root_params"),
        (constructions, "enumerate_csm_params"),
    ],
    "constructions.construct": [
        (constructions, "csm_construct"),
        (constructions, "root_construct"),
        (constructions, "nse_construct"),
        (constructions, "nonsmooth_witness"),
    ],
    "records.encode": [(records, "to_json_line")],
    "records.check": [(records, "check_record")],
}


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Counters:
    accept_n: int = 0
    accept_s: float = 0.0
    reject_n: int = 0
    reject_s: float = 0.0
    candidates: int = 0  # validations called from the enumeration module
    candidates_accepted: int = 0
    distinct: int = 0  # morphisms returned by enumerate_skew_morphisms
    encoded_bytes: int = 0
    flagged: int = 0  # check_record calls returning a mismatch list


class Tracer:
    def __init__(self) -> None:
        self._installed: list[tuple[object, str, object]] = []
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and aggregates; start a new traced pass."""
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stats = {name: SpanStats() for name in TRACED}
        self.counters = Counters()
        self.root_s: dict[str, float] = {}  # layer -> time in spans with no parent
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [id, child time]
        self._depth = dict.fromkeys(TRACED, 0)

    def install(self) -> None:
        for name, targets in TRACED.items():
            for home, attr in targets:
                original = getattr(home, attr)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        wrapped = self._wrap(original, name, module.__name__)
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name: str, origin: str):
        hook = self._hook_for(name, origin)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            depth = self._depth
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            result = None
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                st = self.stats[name]
                st.calls += 1
                st.self_s += duration - frame[1]
                if depth[name] == 0:
                    st.busy_s += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s[layer] = self.root_s.get(layer, 0.0) + duration
                self.spans.append((span_id, name, start, end, parent, self.op))
                if hook is not None:
                    hook(result, failed, duration)

        return traced

    def _hook_for(self, name: str, origin: str):
        if name == "morphisms.try_validate":
            from_enumeration = origin == enumeration.__name__

            def hook(result, failed, duration):
                c = self.counters
                accepted = result is not None and not failed
                if accepted:
                    c.accept_n += 1
                    c.accept_s += duration
                else:
                    c.reject_n += 1
                    c.reject_s += duration
                if from_enumeration:
                    c.candidates += 1
                    c.candidates_accepted += accepted

            return hook
        if name == "enumeration.enumerate":

            def hook(result, failed, duration):
                if not failed:
                    self.counters.distinct += result.total

            return hook
        if name == "records.encode":

            def hook(result, failed, duration):
                if not failed:
                    self.counters.encoded_bytes += len(result)

            return hook
        if name == "records.check":

            def hook(result, failed, duration):
                if not failed and result:
                    self.counters.flagged += 1

            return hook
        return None

    def layer_metrics(self, cache_hits: int, cache_misses: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset()."""
        s = self.stats
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        groups_calls = sum(
            s[n].calls for n in ("groups.subgroups", "groups.automorphisms", "groups.quotient")
        )
        return {
            "enumeration.enumerate.calls": s["enumeration.enumerate"].calls,
            "enumeration.enumerate.self_s": s["enumeration.enumerate"].self_s,
            "enumeration.cache.hits": cache_hits,
            "enumeration.cache.misses": cache_misses,
            "enumeration.candidates": c.candidates,
            "enumeration.accept_ratio": ratio(c.candidates_accepted, c.candidates),
            "enumeration.distinct_ratio": ratio(c.distinct, c.candidates_accepted),
            "morphisms.try_validate.calls": s["morphisms.try_validate"].calls,
            "morphisms.try_validate.busy_s": s["morphisms.try_validate"].busy_s,
            "morphisms.try_validate.reject_us": ratio(c.reject_s, c.reject_n) * 1e6,
            "morphisms.try_validate.accept_us": ratio(c.accept_s, c.accept_n) * 1e6,
            "morphisms.invariants.busy_s": s["morphisms.invariants"].busy_s,
            "groups.calls": groups_calls,
            "groups.subgroups.busy_s": s["groups.subgroups"].busy_s,
            "groups.automorphisms.busy_s": s["groups.automorphisms"].busy_s,
            "groups.quotient.busy_s": s["groups.quotient"].busy_s,
            "constructions.params.busy_s": s["constructions.params"].busy_s,
            "constructions.construct.calls": s["constructions.construct"].calls,
            "constructions.construct.busy_s": s["constructions.construct"].busy_s,
            "records.encode.busy_s": s["records.encode"].busy_s,
            "records.encode.bytes": c.encoded_bytes,
            "records.check.calls": s["records.check"].calls,
            "records.check.busy_s": s["records.check"].busy_s,
            "records.check.flagged_ratio": ratio(c.flagged, s["records.check"].calls),
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: id,name,start,end,parent,op."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,start,end,parent,op\n")
            for span_id, name, start, end, parent, op in sorted(self.spans):
                out.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{op}\n")
