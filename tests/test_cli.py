import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from skewmorph import constructions, enumeration, morphisms
from skewmorph.cli import EXIT_PIPE, main
from skewmorph.enumeration import cached_enumeration
from skewmorph.records import (
    CSV_HEADER,
    RECORD_FIELDS,
    MalformedRecord,
    check_record,
    parse_record,
    to_record,
)
from skewmorph.groups import make_group, subgroup_generated_by
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


def test_progress_goes_to_stderr_without_quiet(capsys):
    code, out, err = run_cli(capsys, "enumerate", "Z6")
    assert code == 0
    assert err == "Z6: 4 skew morphisms (2 automorphisms, 0 non-smooth)\n"
    lines = out.splitlines()
    assert out.endswith("\n") and len(lines) == 4
    assert all(json.loads(line)["group"] == [6] for line in lines)
    code, _, err = run_cli(capsys, "verify", "theorem1", "--max-n", "4")
    assert code == 0
    assert err.endswith("theorem1 verified for n <= 4; non-smooth orders: none\n")


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


def test_automorphism_guard_exit_3(capsys, monkeypatch, tmp_path):
    """Z2^5 is within the order guard but has 9,999,360 automorphisms: the
    guard counts them without listing one, before --out is opened."""
    def refuse(*args, **kwargs):
        raise AssertionError("automorphisms listed")

    monkeypatch.setattr(enumeration, "enumerate_automorphisms", refuse)
    path = tmp_path / "out"
    code, _, err = run_cli(capsys, "enumerate", "Z2xZ2xZ2xZ2xZ2", "--out", str(path), "--quiet")
    assert code == 3 and "automorphism guard" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--cyclic-from", "-2", "--cyclic-to", "1"),
        ("census", "--cyclic-from", "1", "--cyclic-to", "0"),
        ("reciprocal", "--m", "0", "--n", "3"),
        ("reciprocal", "--m", "3", "--n", "-4"),
        ("verify", "theorem1", "--max-n", "-5"),
        ("verify", "csm", "--n", "0"),
        ("enumerate", "Z6", "--max-order", "0"),
        ("enumerate", "Z3xZ3", "--oracle", "--max-order", "0"),
        ("check", "--file", "unread.json", "--max-order", "0"),
    ],
    ids=[
        "cyclic-from", "cyclic-to", "reciprocal-m", "reciprocal-n", "max-n", "verify-n",
        "enumerate-max-order", "oracle-max-order", "check-max-order",
    ],
)
def test_order_flags_below_one_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert code == 2
    assert "group order" in err
    assert out == ""


def test_order_flags_accept_one(capsys):
    code, out, _ = run_cli(capsys, "census", "--cyclic-from", "1", "--cyclic-to", "1", "--quiet")
    assert code == 0
    assert out.splitlines()[1].startswith("Z1,")
    assert run_cli(capsys, "verify", "csm", "--n", "1", "--quiet")[0] == 0


def test_max_order_is_the_guard_everywhere(capsys, tmp_path):
    """--max-order is the guard itself on every route, never a stand-in for the default."""
    record = tmp_path / "z9.json"
    run_cli(capsys, "construct", "root", "--n", "9", "--k", "3", "--s", "8", "--out", str(record))
    for argv, order in [
        (("enumerate", "Z6"), 6),
        (("enumerate", "Z3xZ3", "--oracle"), 9),
        (("check", "--file", str(record)), 9),
        (("construct", "root", "--n", "9", "--k", "3", "--s", "8"), 9),
        (("verify", "theorem2", "--groups", "Z32xZ2"), 64),
    ]:
        code, _, err = run_cli(capsys, *argv, "--max-order", str(order - 1), "--quiet")
        assert code == 3 and "guard" in err, argv
        assert run_cli(capsys, *argv, "--max-order", str(order), "--quiet")[0] == 0, argv


@pytest.mark.parametrize("argv", [
    ("construct", "root", "--n", "4096", "--k", "1", "--s", "4095"),
    ("construct", "csm", "--n", "9000000000", "--k", "2", "--r", "1", "--s", "1", "--t", "1"),
    ("construct", "nse", "--p", "17", "--d", "1", "--nu", "1", "--r", "2"),
    ("verify", "theorem2", "--groups", "Z64xZ64"),
])
def test_table_builders_stop_at_the_default_guard(capsys, argv):
    """construct and verify theorem2 check the order before building a table."""
    code, _, err = run_cli(capsys, *argv, "--quiet")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "Z5"),
    ("census", "--groups", "Z4"),
    ("construct", "root", "--n", "9", "--k", "3", "--s", "8"),
    ("reciprocal", "--m", "3", "--n", "4"),
    ("enumerate", "Z40"),
])
def test_unwritable_out_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    """--out is opened before any enumeration runs, so its failure is immediate."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before --out was opened")

    monkeypatch.setattr(enumeration, "_search_morphisms", refuse)
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "out"), "--quiet")
    assert code == 2
    assert "--out" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "Z65"),
    ("enumerate", "Z3xZ4", "--oracle"),
    ("census", "--groups", "Z4,Z65"),
    ("reciprocal", "--m", "3", "--n", "65"),
    ("enumerate", "Z2xZ150", "--max-order", "300"),
])
def test_over_guard_run_leaves_no_file(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(path), "--quiet")
    assert code == 3 and "guard" in err
    assert not path.exists()


def test_verify_csm_guard_exit_3(capsys):
    code, _, err = run_cli(capsys, "verify", "csm", "--n", "200", "--max-order", "256", "--quiet")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("argv,code", [
    (("theorem2", "--groups", "Z2xZ2,Z3xZ3,Z4"), 2),
    (("identities", "--groups", "Z6,Z2xZ18"), 3),
    (("csm", "--max-n", "66"), 3),
    (("csm", "--max-n", "130", "--max-order", "256"), 3),
])
def test_verify_checks_every_input_before_the_first_verdict(capsys, monkeypatch, argv, code):
    """A suite refuses a bad input before it prints a verdict for a good one."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before every input was checked")

    monkeypatch.setattr(enumeration, "_search_morphisms", refuse)
    monkeypatch.setattr(constructions, "nonsmooth_witness", refuse)
    got, out, err = run_cli(capsys, "verify", *argv)
    assert got == code
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(("skewmorph:", "verify theorem2:"))


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
    # the necessary condition holds, so no witness is needed
    assert run_cli(capsys, "verify", "theorem2", "--groups", "Z2xZ4", "--quiet")[0] == 0


@pytest.mark.parametrize("suite,target,name,stub,argv", [
    ("theorem1", enumeration, "smooth_only_predicate", lambda n: False, ("--max-n", "2")),
    ("csm", constructions, "enumerate_csm_params", lambda n: [], ("--n", "6")),
    ("identities", morphisms, "core", lambda sm: subgroup_generated_by(sm.group, []),
     ("--groups", "Z6")),
    ("theorem2", constructions, "nonsmooth_witness", lambda group: None, ("--groups", "Z3xZ3")),
])
def test_verify_suite_disagreement_exits_1(capsys, monkeypatch, suite, target, name, stub, argv):
    """Each suite reports a disagreement with the library as exit 1 and one
    JSON line on stdout naming the suite."""
    monkeypatch.setattr(target, name, stub)
    code, out, _ = run_cli(capsys, "verify", suite, *argv, "--quiet")
    assert code == 1
    assert json.loads(out)["suite"] == suite


def test_bare_census_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "census")
    assert code == 2 and out == ""
    assert "nothing to do" in err


def test_empty_cyclic_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "census", "--cyclic-from", "5", "--cyclic-to", "3")
    assert code == 2 and out == ""
    assert "--cyclic-from 5 --cyclic-to 3" in err and "nothing to do" not in err


def test_verify_theorem2_rejects_cyclic(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem2", "--groups", "Z9", "--quiet")
    assert code == 2
    assert "cyclic" in err


def test_verify_theorem2_requires_groups(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem2", "--quiet")
    assert code == 2 and out == ""
    assert "--groups" in err and "required" in err


@pytest.mark.parametrize("argv,flag", [
    (("verify", "theorem1", "--groups", "Z6"), "--groups"),
    (("verify", "theorem1", "--n", "6"), "--n"),
    (("verify", "identities", "--max-n", "40"), "--max-n"),
    (("verify", "theorem2", "--groups", "Z3xZ3", "--max-n", "5"), "--max-n"),
    (("verify", "csm", "--groups", "Z6"), "--groups"),
    (("verify", "csm", "--n", "6", "--max-n", "8"), "--max-n"),
    (("verify", "csm", "--n", "6", "--max-n", "20"), "--max-n"),
    (("check", "--file", "{record}", "--out", "{out}"), "--out"),
    (("verify", "theorem1", "--out", "{out}"), "--out"),
])
def test_every_accepted_flag_is_read(capsys, monkeypatch, tmp_path, argv, flag):
    """A flag that the command would not read exits 2, naming the flag,
    before any enumeration or output: each verify suite takes only its own
    flags, csm's --n and --max-n exclude each other (an explicit --max-n 20,
    the default, included), and only the commands that write take --out."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated although a flag was refused")

    monkeypatch.setattr(enumeration, "_search_morphisms", refuse)
    record, out_path = tmp_path / "record.json", tmp_path / "out"
    run_cli(capsys, "construct", "root", "--n", "9", "--k", "3", "--s", "8", "--out", str(record))
    argv = [a.format(record=record, out=out_path) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert code == 2 and out == ""
    assert flag in err
    assert not out_path.exists()


def test_verify_identities_reports_a_broken_power_function(capsys, monkeypatch):
    """A proper morphism of Z6 whose power is changed at one element outside
    its kernel, to another value than 1, keeps its kernel a subgroup, and
    breaks the defining identity and the sum identity, each reported by
    name."""
    report = enumeration.enumerate_skew_morphisms(make_group([6]))
    sm = next(sm for sm in report.morphisms if sm.is_proper)
    a = next(x for x in range(6) if x not in morphisms.kernel(sm).members)
    power = list(sm.power)
    power[a] = next(v for v in range(sm.order) if v not in (1, power[a]))
    bad = dataclasses.replace(sm, power=tuple(power))
    assert morphisms.kernel(bad) == morphisms.kernel(sm)
    monkeypatch.setattr(enumeration, "enumerate_skew_morphisms",
                        lambda group, max_order=None: dataclasses.replace(report, morphisms=(bad,)))
    code, out, _ = run_cli(capsys, "verify", "identities", "--groups", "Z6", "--quiet")
    assert code == 1
    assert json.loads(out)["failed"] == ["defining-identity", "sum-identity"]


def test_verify_identities_reports_a_kernel_phi_moves(capsys, monkeypatch):
    """A forged morphism of Z4 with phi = (1 2) and power 1 exactly on
    {0, 2}: its kernel is a subgroup, and phi moves 2 out of it, which
    verify identities reports as kernel-preserved, beside the identities
    the forgery breaks with it."""
    group = make_group([4])
    forged = morphisms.SkewMorphism(group, (0, 2, 1, 3), 2, (1, 0, 1, 0))
    assert morphisms.kernel(forged).members == (0, 2)
    report = enumeration.enumerate_skew_morphisms(group)
    monkeypatch.setattr(enumeration, "enumerate_skew_morphisms",
                        lambda group, max_order=None: dataclasses.replace(report, morphisms=(forged,)))
    code, out, _ = run_cli(capsys, "verify", "identities", "--groups", "Z4", "--quiet")
    assert code == 1
    assert json.loads(out)["failed"] == [
        "defining-identity", "kernel-preserved", "core-equals-kernel", "sum-identity"
    ]


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

    for perm in ([0] * 9, record["perm"][:-1]):  # not a bijection; wrong length
        badperm = tmp_path / "badperm.json"
        badperm.write_text(json.dumps(dict(record, perm=perm)))
        code, _, err = run_cli(capsys, "check", "--file", str(badperm), "--quiet")
        assert code == 1
        assert "perm" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli(capsys, "check", "--file", str(garbage), "--quiet")[0] == 2


@pytest.mark.parametrize(
    "field,value",
    [
        ("kernel", 5),
        ("power", [0, "1", 2]),
        ("power", [0, 1.5, 2]),
        ("perm", {"0": 0}),
        ("perm", [False, True]),
        ("group", [True]),
        ("power", [0, True, 2]),
        ("kernel", [False]),
    ],
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


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("order", 1.0, "order is not an integer"),
        ("order", True, "order is not an integer"),
        ("skew_type", "1", "skew_type is not an integer"),
        ("skew_type", False, "skew_type is not an integer"),
        ("smooth", 1, "smooth is not a boolean"),
        ("proper", None, "proper is not a boolean"),
    ],
)
def test_check_mistyped_scalar_exit_2(capsys, tmp_path, field, value, message):
    """A scalar of the wrong JSON type is malformed, even where Python would
    compare it equal to the derived value (1.0 == 1, True == 1, 0 == False)."""
    record = to_record(cached_enumeration((2,)).morphisms[0])
    good = tmp_path / "good.json"
    good.write_text(json.dumps(record))
    assert run_cli(capsys, "check", "--file", str(good), "--quiet")[0] == 0
    record[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    code, _, err = run_cli(capsys, "check", "--file", str(bad), "--quiet")
    assert code == 2
    assert message in err


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


def test_construct_csm_rejection_names_the_given_t(capsys):
    """--t 3 is 0 mod m = 3: the message names the value given and its residue."""
    code, out, err = run_cli(capsys, "construct", "csm", "--n", "6", "--k", "2",
                             "--r", "1", "--s", "1", "--t", "3")
    assert code == 1 and out == ""
    assert "t=3 (= 0 mod m=3)" in err


@pytest.mark.parametrize("argv", [
    ("construct", "--n", "6", "csm", "--k", "2", "--r", "1", "--s", "1", "--t", "2"),
    ("construct", "--quiet", "root", "--n", "9", "--k", "3", "--s", "8"),
    ("construct", "root", "--n", "9", "--k", "3", "--s", "8", "--t", "2"),
    ("construct", "nse", "--p", "3", "--d", "1", "--nu", "1", "--r", "2", "--n", "9"),
    ("construct", "--quiet"),
])
def test_construct_flags_belong_to_one_family(capsys, argv):
    """Each family takes exactly its own flags, after the family name: a
    flag before the name, another family's flag and a missing family all
    exit 2 with nothing on stdout."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2 and out == ""


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


def test_check_compares_power_modulo_the_order():
    sm = validate(make_group([9]), tuple((-x - 3 * x * (x - 1) // 2) % 9 for x in range(9)))
    shifted = [v + sm.order * i for i, v in enumerate(sm.power)]
    assert check_record(to_record(sm) | {"power": shifted}) == []
    assert check_record(to_record(sm) | {"power": shifted[:-1]}) == ["power"]
    shifted[1] += 1
    assert check_record(to_record(sm) | {"power": shifted}) == ["power"]


def test_check_record_refuses_a_factor_below_two():
    record = to_record(validate(make_group([3]), (0, 1, 2))) | {"group": [1]}
    with pytest.raises(MalformedRecord, match="bad group field"):
        check_record(record)


def _subprocess_env() -> dict:
    """The environment for a child Python that imports this checkout's src."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point():
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "skewmorph", "enumerate", "Z5", "--quiet"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["enumerate", "Z5xZ5"], ["census", "--cyclic-from", "2", "--cyclic-to", "50"]],
    ids=["enumerate", "census"],
)
def test_closed_output_pipe_exits_without_a_traceback(argv, unbuffered):
    """A reader that closes the pipe after the first line, as `| head -1`
    does, stops the command with EXIT_PIPE and no traceback, with and
    without PYTHONUNBUFFERED.  The 768 records of Z5xZ5 are larger than a
    pipe buffer, and census hands on each row as it is done and takes
    most of a second after its header for Z2..Z50, so the pipe closes
    while the command is still writing."""
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewmorph", *argv, "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert "Traceback" not in err and "Error" not in err, err


def test_closed_stdout_in_process_returns_exit_pipe(monkeypatch):
    """main called in-process on a stdout whose pipe has no reader returns
    EXIT_PIPE, and leaves the stream writable (to the null device) so that
    closing it cannot raise again."""
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["enumerate", "Z5", "--quiet"]) == EXIT_PIPE


def test_package_imports_only_the_standard_library():
    """The package stays pure Python with no runtime dependency."""
    env = _subprocess_env()
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import skewmorph, skewmorph.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(tops - set(sys.stdlib_module_names) - {'skewmorph'})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
