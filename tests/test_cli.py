import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from skewmorph.cli import main
from skewmorph.enumeration import cached_enumeration
from skewmorph.records import (
    CSV_HEADER,
    RECORD_FIELDS,
    MalformedRecord,
    check_record,
    parse_record,
    to_record,
)
from skewmorph.groups import make_group
from skewmorph.morphisms import validate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_z5(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "Z5", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert rec["group"] == [5]
        assert not rec["proper"]


def test_enumerate_z1(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "Z1", "--quiet")
    assert code == 0
    assert out.strip().splitlines() == ['{"group":[],"perm":[0],"order":1,"power":[0],'
                                        '"smooth":true,"skew_type":1,"kernel":[0],"proper":false}']


def test_enumerate_oracle_z3xz3(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "Z3xZ3", "--oracle", "--quiet")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 64
    proper = [json.loads(l) for l in lines if json.loads(l)["proper"]]
    assert len(proper) == 16
    assert all(not rec["smooth"] for rec in proper)


def test_enumerate_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "Z9", "--quiet")
    _, second, _ = run_cli(capsys, "enumerate", "Z9", "--quiet")
    assert first == second


def test_parse_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "Q5", "--quiet")
    assert code == 2
    assert "parse" in err


def test_guard_exit_3(capsys):
    code, _, err = run_cli(capsys, "enumerate", "Z97", "--quiet")
    assert code == 3
    assert "guard" in err


def test_census_rows(capsys, tmp_path):
    path = tmp_path / "census.csv"
    code, _, _ = run_cli(capsys, "census", "--cyclic-from", "4", "--cyclic-to", "5",
                         "--out", str(path), "--quiet")
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["Z4", "Z5"]
    for row in rows:
        total, autos, proper, smooth, nonsmooth = map(int, row[2:7])
        assert proper == 0
        assert total == autos + proper == smooth + nonsmooth


def test_census_z9_and_z15(capsys):
    code, out, _ = run_cli(capsys, "census", "--groups", "Z9,Z15", "--quiet")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    assert int(rows["Z9"][6]) >= 1  # nonsmooth column
    assert int(rows["Z15"][6]) == 0


def test_census_determinism_modulo_timing(capsys):
    _, first, _ = run_cli(capsys, "census", "--groups", "Z6,Z9", "--quiet")
    _, second, _ = run_cli(capsys, "census", "--groups", "Z6,Z9", "--quiet")
    strip_ms = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]
    assert strip_ms(first) == strip_ms(second)


def test_verify_suites_pass(capsys):
    assert run_cli(capsys, "verify", "theorem1", "--max-n", "12", "--quiet")[0] == 0
    assert run_cli(capsys, "verify", "csm", "--n", "6", "--quiet")[0] == 0
    assert run_cli(capsys, "verify", "identities", "--groups", "Z6,Z9", "--quiet")[0] == 0
    assert run_cli(capsys, "verify", "theorem2", "--groups", "Z3xZ3,Z32xZ2", "--quiet")[0] == 0


def test_verify_theorem2_rejects_cyclic(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem2", "--groups", "Z9", "--quiet")
    assert code == 2
    assert "cyclic" in err


def test_construct_round_trip(capsys, tmp_path):
    path = tmp_path / "root.json"
    code, _, _ = run_cli(capsys, "construct", "root", "--n", "9", "--k", "3", "--s", "8",
                         "--out", str(path), "--quiet")
    assert code == 0
    assert run_cli(capsys, "check", "--file", str(path), "--quiet")[0] == 0

    record = json.loads(path.read_text())
    tampered = dict(record, smooth=True)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    code, _, err = run_cli(capsys, "check", "--file", str(bad), "--quiet")
    assert code == 1
    assert "smooth" in err

    broken = dict(record, perm=[0] * 9)
    badperm = tmp_path / "badperm.json"
    badperm.write_text(json.dumps(broken))
    code, _, err = run_cli(capsys, "check", "--file", str(badperm), "--quiet")
    assert code == 1
    assert "perm" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli(capsys, "check", "--file", str(garbage), "--quiet")[0] == 2


@pytest.mark.parametrize(
    "field,value",
    [("kernel", 5), ("power", [0, "1", 2]), ("power", [0, 1.5, 2]), ("perm", {"0": 0})],
)
def test_check_mistyped_field_exit_2(capsys, tmp_path, field, value):
    code, _, _ = run_cli(capsys, "construct", "root", "--n", "9", "--k", "3", "--s", "8",
                         "--out", str(tmp_path / "root.json"), "--quiet")
    assert code == 0
    record = json.loads((tmp_path / "root.json").read_text())
    record[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "check", "--file", str(bad), "--quiet")
    assert code == 2
    assert f"{field} is not an integer array" in err


def test_check_size_guard_exit_3(capsys, tmp_path):
    n = 100000
    record = {"group": [n], "perm": list(range(n)), "order": 1, "power": [0] * n,
              "smooth": True, "skew_type": 1, "kernel": list(range(n)), "proper": False}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "check", "--file", str(path), "--quiet")
    assert code == 3
    assert "guard" in err
    small = tmp_path / "z9.json"
    run_cli(capsys, "construct", "root", "--n", "9", "--k", "3", "--s", "8", "--out", str(small))
    assert run_cli(capsys, "check", "--file", str(small), "--max-order", "8", "--quiet")[0] == 3
    assert run_cli(capsys, "check", "--file", str(small), "--max-order", "9", "--quiet")[0] == 0


def test_check_unreadable_text_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (deep, binary):
        assert run_cli(capsys, "check", "--file", str(path), "--quiet")[0] == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


def _assert_check_exit(text):
    """`check` ends in a documented exit code; parse_record rejects exit with 2."""
    try:
        parse_record(text)
        rejected = False
    except MalformedRecord:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code = main(["check", "--file", path, "--quiet"])
    assert code in (0, 1, 2, 3)
    if rejected:
        assert code == 2


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_check_fuzz_arbitrary_json(value):
    _assert_check_exit(json.dumps(value))


@settings(max_examples=300, deadline=None)
@given(
    factors=st.sampled_from([(9,), (2, 4), (3, 3)]),
    index=st.integers(0, 7),
    field=st.sampled_from(RECORD_FIELDS),
    value=JSON_VALUES | st.lists(st.integers(-3, 20), max_size=10),
    drop=st.booleans(),
)
def test_check_fuzz_mutated_records(factors, index, field, value, drop):
    morphisms = cached_enumeration(factors).morphisms
    record = to_record(morphisms[-1 - index % len(morphisms)])
    if drop:
        del record[field]
    else:
        record[field] = value
    _assert_check_exit(json.dumps(record))


def test_construct_csm_and_nse(capsys):
    code, out, _ = run_cli(capsys, "construct", "csm", "--n", "6", "--k", "2",
                           "--r", "1", "--s", "1", "--t", "2", "--quiet")
    assert code == 0
    assert json.loads(out)["perm"] == [0, 3, 2, 5, 4, 1]
    code, out, _ = run_cli(capsys, "construct", "nse", "--p", "3", "--d", "1",
                           "--nu", "1", "--r", "2", "--quiet")
    assert code == 0
    assert json.loads(out)["order"] == 6
    code, _, err = run_cli(capsys, "construct", "csm", "--n", "6", "--k", "2",
                           "--r", "0", "--s", "1", "--t", "2", "--quiet")
    assert code == 1
    code, _, err = run_cli(capsys, "construct", "csm", "--n", "6", "--quiet")
    assert code == 2


def test_reciprocal_counts(capsys):
    code, out, _ = run_cli(capsys, "reciprocal", "--m", "1", "--n", "1", "--quiet")
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["count"] == 1
    code, out, _ = run_cli(capsys, "reciprocal", "--m", "3", "--n", "3", "--quiet")
    assert json.loads(out.strip().splitlines()[0])["count"] == 1


def test_reciprocal_automorphism_partner_is_smooth(capsys):
    for m, n in ((4, 4), (5, 5), (6, 4)):
        code, out, _ = run_cli(capsys, "reciprocal", "--m", str(m), "--n", str(n),
                               "--list", "--quiet")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            pair = json.loads(line)
            if not pair["phi"]["proper"]:
                assert pair["phi_tilde"]["smooth"]
            if not pair["phi_tilde"]["proper"]:
                assert pair["phi"]["smooth"]


def test_records_round_trip():
    sm = validate(make_group([9]), tuple((-x - 3 * x * (x - 1) // 2) % 9 for x in range(9)))
    record = parse_record(json.dumps(to_record(sm)))
    assert check_record(record) == []


def test_module_entry_point():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "skewmorph", "enumerate", "Z5", "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4
