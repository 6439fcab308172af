"""Self-test of the benchmark.

    python3 benchmark/selftest.py

Checks, from the root of a checkout:

1. reference.json against independent facts: the brute-force oracle for
   every group of order <= 9, the paper's 64 = 48 + 16 skew morphisms of
   Z3xZ3, and its non-smooth cyclic orders up to 40, {9, 18, 25, 27, 32, 36};
2. a smoke-sized run of each workload, traced and untraced, emits exactly
   the metrics BENCHMARK.json declares, with their units, and no failures;
3. a deliberately wrong reference entry makes ops fail, so the correctness
   gate is not vacuous;
4. in a directory holding only BENCHMARK.json and benchmark/, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from skewmorph import enumeration, groups  # noqa: E402

PAPER_NONSMOOTH_CYCLIC_TO_40 = {9, 18, 25, 27, 32, 36}


def check_reference(reference: dict) -> None:
    table = reference["groups"]
    for n in range(1, 10):
        for group in groups.abelian_group_presentations(n):
            oracle = enumeration.brute_force_oracle(group)
            got = [oracle.total, oracle.automorphisms, oracle.nonsmooth]
            assert table[group.label] == got, (group.label, table[group.label], got)
    assert table["Z3xZ3"] == [64, 48, 16], table["Z3xZ3"]
    nonsmooth = {n for n in range(1, 41) if table[f"Z{n}" if n > 1 else "Z1"][2] > 0}
    assert nonsmooth == PAPER_NONSMOOTH_CYCLIC_TO_40, sorted(nonsmooth)
    for label in workloads.CYCLIC_POOL + workloads.NONCYCLIC_POOL:
        assert label in table, label
    assert all(rec["variants"] for rec in reference["records"])
    print("reference: oracle to order 9 and the paper's facts agree")


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def check_smoke_runs(declared: dict) -> None:
    for workload in run.PASS_SECONDS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
            )
            result = result_line(done.stdout)
            assert result["correct"] and result["failed"] == 0, (workload, trace, done.stderr)
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            if workload == "families-roundtrip" and trace:
                flagged = result["metrics"]["records.check.flagged_ratio"]["value"]
                assert flagged == workloads.CORRUPT_SHARE, flagged
            print(f"smoke {workload} trace {trace}: {len(got)} metrics, no failures")


def check_wrong_reference(reference: dict) -> None:
    for workload in run.PASS_SECONDS:
        bad = copy.deepcopy(reference)
        if workload == "families-roundtrip":
            bad["records"][0]["sha"] = "0" * 16
        else:
            pool = workloads.CYCLIC_POOL if workload == "cyclic-sweep" else workloads.NONCYCLIC_POOL
            bad["groups"][pool[0]][0] += 1
        items, execute = workloads.make_inputs(workload, 7, bad, smoke=True)
        errors: list[str] = []
        result = run.run_pass(items, execute, None, errors)
        assert result.failed > 0, workload
        print(f"wrong reference on {workload}: fail_ratio "
              f"{result.failed / len(items):.3f} > 0")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "cyclic-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print(f"bare directory: exit code {done.returncode}, no result printed")


def main() -> int:
    reference = workloads.load_reference()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_reference(reference)
    check_smoke_runs(declared)
    check_wrong_reference(reference)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
