from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from pathlib import Path

import pytest

from _oracles import per_cell_marks_text
import burnside
from burnside import (
    SubgroupFamily,
    artin_exponent,
    build_group,
    burnside_ring,
    catalog,
    cli,
    enumerate_subgroups,
    groups,
    parse_group_spec,
    standard_catalog,
    table_of_marks,
    verify_main_theorem,
)
from burnside.cli import ENUM_CAP_ENV, run

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"

EA23_NONMEMBER = "5,1,2,0,3,1,1,0,2,1,0,1,1,0,1,1"
# violates 12 pair congruences; D(16) has non-normal subgroups that are not
# their class's representative
D16_NONMEMBER = "1,1,1,1,1,1,0,0,0,0,0"

# argv, the file under tests/golden holding its exact stdout, and the exit code
GOLDEN_RUNS = [
    (("exponent", "C(2^5)", "--certify"), "exponent-C32-certify.txt", 0),
    (("exponent", "C(2^5)", "--certify", "--json"), "exponent-C32-certify.json", 0),
    (("exponent", "Q(16)", "--certify"), "exponent-Q16-certify.txt", 0),
    (("exponent", "Q(16)", "--certify", "--json"), "exponent-Q16-certify.json", 0),
    (("exponent", "SD(16)", "--certify"), "exponent-SD16-certify.txt", 0),
    (("exponent", "SD(16)", "--certify", "--json"), "exponent-SD16-certify.json", 0),
    (("exponent", "ES+(3)", "--certify"), "exponent-ESplus3-certify.txt", 0),
    (("exponent", "ES+(3)", "--certify", "--json"), "exponent-ESplus3-certify.json", 0),
    (("member", "C2", "--vector", "1,0"), "member-C2-1-0.txt", 0),
    (("member", "EA(2,3)", "--vector", EA23_NONMEMBER), "member-EA23-nonmember.txt", 0),
    (
        ("member", "EA(2,3)", "--vector", EA23_NONMEMBER, "--json"),
        "member-EA23-nonmember.json",
        0,
    ),
    (("member", "Q8", "--vector", "6,2,0,2,0,1"), "member-Q8-nonmember.txt", 0),
    (("member", "Q8", "--vector", "6,2,0,2,0,1", "--json"), "member-Q8-nonmember.json", 0),
    (("lattice", "SD(32)"), "lattice-SD32.txt", 0),
    (("lattice", "SD(32)", "--json"), "lattice-SD32.json", 0),
    (("lattice", "C4xC2xC2"), "lattice-C4xC2xC2.txt", 0),
    (("lattice", "C4xC2xC2", "--json"), "lattice-C4xC2xC2.json", 0),
    (("marks", "D(16)"), "marks-D16.txt", 0),
    (("marks", "Q8", "--json"), "marks-Q8.json", 0),
    (("marks", "C4xC2xC2"), "marks-C4xC2xC2.txt", 0),
    (("verify-main-theorem", "--max-order", "64"), "verify-main-theorem-64.txt", 3),
    (("catalog", "--max-order", "128"), "catalog-128.txt", 0),
    (("catalog", "--max-order", "128", "--json"), "catalog-128.json", 0),
    (("lattice", "Q8xC2"), "lattice-Q8xC2.txt", 0),
    (("lattice", "C6"), "lattice-C6.txt", 0),
    (("verify-main-theorem", "--max-order", "128"), "verify-main-theorem-128.txt", 3),
    (
        ("verify-main-theorem", "--max-order", "128", "--json"),
        "verify-main-theorem-128.json",
        3,
    ),
    (
        ("exponent", "M(16)", "--family", "cyclic", "--certify"),
        "exponent-M16-cyclic-certify.txt",
        0,
    ),
    (
        ("exponent", "M(16)", "--family", "cyclic", "--certify", "--json"),
        "exponent-M16-cyclic-certify.json",
        0,
    ),
    (("lattice", "EA(2,5)"), "lattice-EA25.txt", 0),
    (("lattice", "ES-(5)", "--json"), "lattice-ESminus5.json", 0),
    (("member", "D(16)", "--vector", D16_NONMEMBER), "member-D16-nonmember.txt", 0),
    (
        ("member", "D(16)", "--vector", D16_NONMEMBER, "--json"),
        "member-D16-nonmember.json",
        0,
    ),
    (("exponent", "D(32)", "--certify"), "exponent-D32-certify.txt", 0),
    (("exponent", "D(32)", "--certify", "--json"), "exponent-D32-certify.json", 0),
    (("lattice", "D(128)"), "lattice-D128.txt", 0),
    (("lattice", "SD(128)", "--json"), "lattice-SD128.json", 0),
    (("marks", "ES-(3)"), "marks-ESminus3.txt", 0),
    (("marks", "ES+(3)", "--json"), "marks-ESplus3.json", 0),
    (("lattice", "Q(64)", "--json"), "lattice-Q64.json", 0),
    # not a p-group: no closed-form line, closed_form null
    (("exponent", "D(8)xC3"), "exponent-D8xC3.txt", 0),
    (("exponent", "D(8)xC3", "--json"), "exponent-D8xC3.json", 0),
    # a family other than ea hides the closed form
    (("exponent", "Q8", "--family", "all"), "exponent-Q8-all.txt", 0),
    (("exponent", "Q8", "--family", "all", "--json"), "exponent-Q8-all.json", 0),
    # a member: no first violated congruence
    (("member", "C2", "--vector", "3,1"), "member-C2-3-1.txt", 0),
    (("member", "C2", "--vector", "3,1", "--json"), "member-C2-3-1.json", 0),
    (("verify-main-theorem", "--max-order", "4"), "verify-main-theorem-4.txt", 0),
    (("verify-main-theorem", "--max-order", "4", "--json"), "verify-main-theorem-4.json", 0),
]


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, golden, exit_code", GOLDEN_RUNS, ids=[g for _, g, _ in GOLDEN_RUNS]
)
def test_output_matches_golden_file(argv, golden, exit_code, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code and err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_the_exponent_path_never_runs_the_marks_solve(monkeypatch, capsys, lattice_of):
    def refuse(*_):
        raise AssertionError("the table of marks was built or solved")

    monkeypatch.setattr(burnside_ring, "table_of_marks", refuse)
    monkeypatch.setattr(burnside_ring, "_scaled_solve", refuse)
    for spec in standard_catalog(64):
        for family in SubgroupFamily:
            artin_exponent(lattice_of(spec.text()), family)
    assert len(verify_main_theorem(64).rows) == 48
    for argv, golden, exit_code in GOLDEN_RUNS:
        if argv[0] == "exponent":
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (exit_code, "")
            assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_the_exponent_path_never_builds_the_pair_system(monkeypatch, capsys):
    def refuse(lattice):
        raise AssertionError("the pair congruences were built")

    monkeypatch.setattr(burnside_ring, "dress_congruences", refuse)
    assert len(verify_main_theorem(64).rows) == 48
    code, out, err = run_cli(capsys, "verify-main-theorem", "--max-order", "64")
    assert (code, err) == (3, "")
    assert out == (GOLDEN / "verify-main-theorem-64.txt").read_text(encoding="utf-8")
    golden = (GOLDEN / "exponent-Q16-certify.txt").read_text(encoding="utf-8")
    code, out, err = run_cli(capsys, "exponent", "Q(16)")
    assert (code, err) == (0, "")
    witnesses = [ln for ln in golden.splitlines() if ln.startswith("d = ")]
    assert out.splitlines() == golden.splitlines()[: -len(witnesses)]
    for argv, name, exit_code in GOLDEN_RUNS:
        if "--certify" in argv:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (exit_code, "")
            assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_member_never_builds_the_pair_system(monkeypatch, capsys):
    """``member`` decides on the Weyl rows read off the kept walks: with
    the pair congruences refused, every ``member`` golden run prints its
    golden output, members and non-members alike."""
    def refuse(lattice):
        raise AssertionError("the pair congruences were built")

    monkeypatch.setattr(burnside_ring, "dress_congruences", refuse)
    runs = [run for run in GOLDEN_RUNS if run[0][0] == "member"]
    assert any("nonmember" in name for _, name, _ in runs)
    for argv, name, exit_code in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (exit_code, "")
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("text", [spec.text() for spec in standard_catalog(32)])
def test_marks_text_equals_the_per_cell_renderer(text, capsys, lattice_of):
    code, out, err = run_cli(capsys, "marks", text)
    assert (code, err) == (0, "")
    matrix = table_of_marks(lattice_of(text)).entries
    assert out.splitlines() == per_cell_marks_text(matrix)
    assert out.endswith("\n") and out.count("\n") == len(matrix)


def test_exponent_elementary_abelian(capsys):
    code, out, _ = run_cli(capsys, "exponent", "EA(3,2)")
    assert code == 0
    assert "e = 1" in out


def test_exponent_cyclic_eight(capsys):
    code, out, _ = run_cli(capsys, "exponent", "C(2^3)")
    assert code == 0
    assert "e = 4" in out


def test_exponent_quaternion_reports_honest_value(capsys):
    code, out, _ = run_cli(capsys, "exponent", "Q8", "--family", "ea")
    assert code == 0
    assert "e = 4" in out
    assert "closed form: 2 (case b), agrees: no" in out


def test_exponent_certify_lists_divisor_witnesses(capsys):
    code, out, _ = run_cli(capsys, "exponent", "Q8", "--certify")
    assert code == 0
    assert "d = 1:" in out and "d = 2:" in out


def test_exponent_json_payload(capsys):
    code, out, _ = run_cli(capsys, "exponent", "SD(16)", "--json", "--certify")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "exponent"
    assert data["group_spec"] == "SD(16)"
    payload = data["payload"]
    assert payload["exponent"] == 8
    assert payload["closed_form"] == {"value": 4, "case": "b", "agrees": False}
    assert [w["divisor"] for w in payload["certificate"]] == [1, 2, 4]


def test_lattice_text_census(capsys):
    code, out, _ = run_cli(capsys, "lattice", "Q8")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("class")]
    assert len(lines) == 6
    assert "6 subgroups in 6 classes" in out


def test_lattice_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "lattice", "C(2^2)", "--json")
    assert code == 0
    data = json.loads(out)
    classes = data["payload"]["classes"]
    assert [c["order"] for c in classes] == [1, 2, 4]
    assert all(c["normal"] for c in classes)


def test_marks_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "marks", "C2")
    assert code == 0
    assert out.splitlines() == ["2 1", "0 1"]
    code, out, _ = run_cli(capsys, "marks", "C2", "--json")
    data = json.loads(out)
    assert data["payload"]["matrix"] == [[2, 1], [0, 1]]


def test_member_reports_both_routes(capsys):
    code, out, _ = run_cli(capsys, "member", "C2", "--vector", "1,0")
    assert code == 0
    assert "congruence test: not a member" in out
    assert "marks test: not a member" in out
    assert "coefficients: 1/2, 0" in out
    assert "first violated congruence" in out
    code, out, _ = run_cli(capsys, "member", "C2", "--vector", "2,0")
    assert code == 0
    assert "congruence test: member" in out
    assert "first violated" not in out


def test_member_json(capsys):
    code, out, _ = run_cli(capsys, "member", "Q8", "--vector", "4,4,0,0,0,0", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["dress"]["holds"] is True
    assert payload["marks"]["is_member"] is True
    assert payload["marks"]["coefficients"] == ["0", "1", "0", "0", "0", "0"]
    assert payload["agree"] is True


def test_member_vector_length_mismatch(capsys):
    code, _, err = run_cli(capsys, "member", "Q8", "--vector", "1,2")
    assert code == 1
    assert "error:" in err


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--max-order", "16")
    assert code == 0
    assert "Q(8)" in out and "M(16)" in out and "EA(2,4)" in out
    assert "D(32)" not in out


def test_catalog_builds_no_group(monkeypatch, capsys):
    def refuse(spec, **_):
        raise AssertionError(f"built {spec.text()}")

    monkeypatch.setattr(cli, "build_group", refuse)
    code, out, err = run_cli(capsys, "catalog", "--max-order", "4096")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    code, out, err = run_cli(capsys, "catalog", "--max-order", "4096", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert [row["spec"] for row in payload] == [line.split()[0] for line in lines]
    assert max(row["order"] for row in payload) == 4096


def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--max-order", "8", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    specs = [row["spec"] for row in payload]
    assert "Q(8)" in specs and "C1" in specs
    assert all(row["order"] <= 8 for row in payload)


def test_verify_main_theorem_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify-main-theorem", "--max-order", "4")
    assert code == 0
    assert "all rows agree" in out
    code, out, _ = run_cli(capsys, "verify-main-theorem", "--max-order", "8")
    assert code == 3
    assert "disagreements: 2" in out


def test_verify_main_theorem_json(capsys):
    code, out, _ = run_cli(capsys, "verify-main-theorem", "--max-order", "8", "--json")
    assert code == 3
    payload = json.loads(out)["payload"]
    assert payload["all_agree"] is False
    rows = {row["spec"]: row for row in payload["rows"]}
    assert rows["Q(8)"]["brute_force"] == 4
    assert rows["Q(8)"]["closed_form"] == 2


def test_output_is_byte_identical_across_runs(capsys):
    first = run_cli(capsys, "lattice", "SD(16)", "--json")
    second = run_cli(capsys, "lattice", "SD(16)", "--json")
    assert first == second
    third = run_cli(capsys, "verify-main-theorem", "--max-order", "8")
    fourth = run_cli(capsys, "verify-main-theorem", "--max-order", "8")
    assert third == fourth


def test_json_keys_are_sorted(capsys):
    _, out, _ = run_cli(capsys, "marks", "C2", "--json")
    data = json.loads(out)
    assert list(data) == sorted(data)
    assert json.dumps(data, sort_keys=True, indent=2) == out.strip()


def test_bad_spec_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "exponent", "Z9")
    assert code == 1
    assert "error:" in err


def test_invalid_parameters_are_domain_errors(capsys):
    code, _, err = run_cli(capsys, "lattice", "SD(8)")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run_cli(capsys, "exponent", "Q8", "--family", "bogus")
    assert code == 2


def test_cap_exceeded_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "lattice", "C(2^9)")
    assert code == 1
    assert "cap" in err


def test_memory_error_is_a_one_line_error(capsys, monkeypatch):
    """A stage that runs out of memory, as the dense marks of a large
    lattice can, exits 1 with one line on stderr and no traceback."""

    def exhausted(lattice):
        raise MemoryError

    monkeypatch.setattr(cli, "table_of_marks", exhausted)
    assert run_cli(capsys, "marks", "Q8") == (1, "", "error: out of memory\n")


def test_cap_is_checked_before_the_table_is_built(capsys, monkeypatch):
    def refuse(spec, **_):
        raise AssertionError(f"built {spec.text()} although it exceeds the cap")

    monkeypatch.setattr(cli, "build_group", refuse)
    code, _, err = run_cli(capsys, "lattice", "C(2^20)")
    assert code == 1
    assert err == "error: group order 1048576 exceeds the enumeration cap 256\n"


# Literals far above the cap. Primality tests of the first two took seconds
# of trial division, and the last three name orders too long for decimal.
HUGE_LITERALS = [
    ("C100000000000031", "100000000000031"),
    ("C(100000000000031^1)", "100000000000031"),
    ("C(2^10000000)", "2^10000000"),
    ("EA(3,10000)", "3^10000"),
    ("C(2^1000000000)", "2^1000000000"),
]


@pytest.mark.parametrize("spec, order", HUGE_LITERALS, ids=[s for s, _ in HUGE_LITERALS])
def test_huge_literals_stop_at_the_cap_at_once(spec, order, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lattice", spec)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == f"error: group order {order} exceeds the enumeration cap 256\n"


def test_cap_is_checked_before_any_literal_is_tested(capsys, monkeypatch):
    def refuse(n, *_):
        raise AssertionError(f"tested or factorized {n} although it exceeds the cap")

    monkeypatch.setattr(catalog, "is_prime", refuse)
    monkeypatch.setattr(catalog, "factorize", refuse)
    for spec in ("C1000003", "C(1000003^1)", "ES+(1009)", "C4xC1000003", "D(1000)"):
        code, _, err = run_cli(capsys, "lattice", spec)
        assert code == 1 and "exceeds the enumeration cap 256" in err, spec
    monkeypatch.setenv(ENUM_CAP_ENV, "1000")
    code, _, err = run_cli(capsys, "lattice", "D(1000)")
    assert (code, err) == (1, "error: at position 0: dihedral groups are defined for "
                              "orders 2^n with n >= 3, got 1000\n")


def test_cap_message_prints_every_order_that_fits_in_decimal(capsys):
    # 2^14000 has 4215 digits, under Python's default limit of 4300 for
    # str(); 2^14300 has 4305, so it is named by its powers
    for spec, order in (
        ("C(2^14000)", str(2**14000)),
        ("C(2^20)xC100000000000031", str(2**20 * 100000000000031)),
        ("C(2^14300)", "2^14300"),
        ("C(2^20000)xC3xEA(5,2)", "2^20000*3*5^2"),
    ):
        code, _, err = run_cli(capsys, "lattice", spec)
        assert (code, err) == (1, f"error: group order {order} exceeds the enumeration cap 256\n")


def test_perm_closure_stops_at_the_enumeration_cap(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a group table was built although it exceeds the cap")

    # S6 has order 720, above the default cap 256
    monkeypatch.setattr(groups, "FiniteGroup", refuse)
    code, out, err = run_cli(capsys, "lattice", f"perm:{DATA / 's6.perm'}")
    assert (code, out) == (1, "")
    assert err == "error: closure exceeds the order cap 256\n"
    monkeypatch.setenv(ENUM_CAP_ENV, "100")
    code, _, err = run_cli(capsys, "lattice", f"perm:{DATA / 's6.perm'}")
    assert (code, err) == (1, "error: closure exceeds the order cap 100\n")


def test_perm_closure_takes_the_whole_cap_above_the_default(monkeypatch, tmp_path):
    """BURNSIDE_ENUM_CAP bounds a perm spec's closure as it is, with no lower
    ceiling: S6 x C2 (order 1440) closes under a cap of 2000. The table is
    gathered column by column once the closure is done, and the first
    gather reads the identity's column, one entry per element; the run
    stops there, so no table is built."""

    class ClosureDone(Exception):
        pass

    gathered = []

    def record(column):  # the first column read is the identity's
        gathered.append(tuple(column))
        raise ClosureDone

    path = tmp_path / "s6xc2.perm"
    path.write_text("degree 8\n(0 1 2 3 4 5)\n(0 1)\n(6 7)\n", encoding="utf-8")
    monkeypatch.setenv(ENUM_CAP_ENV, "2000")
    monkeypatch.setattr(groups, "entries_at", record)
    with pytest.raises(ClosureDone):
        run(["lattice", f"perm:{path}"])
    assert gathered == [tuple(range(1440))]


def test_enumeration_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV, "8")
    code, _, err = run_cli(capsys, "lattice", "D16")
    assert code == 1
    assert "cap 8" in err
    monkeypatch.setenv(ENUM_CAP_ENV, "16")
    code, _, _ = run_cli(capsys, "lattice", "D16")
    assert code == 0
    monkeypatch.setenv(ENUM_CAP_ENV, "not-a-number")
    code, _, err = run_cli(capsys, "lattice", "C2")
    assert code == 1
    assert ENUM_CAP_ENV in err


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_closed_output_pipe_exits_quietly():
    # the read end is closed before the child starts, so its first write fails
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "burnside.cli", "lattice", "EA(2,4)"],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=120,
        )
    finally:
        os.close(write_fd)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_output_pipe_closed_mid_document_exits_quietly():
    # EA(2,5)'s marks document is megabytes, far more than a pipe holds, so
    # the child is still writing it when the reader goes away
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "burnside.cli", "marks", "EA(2,5)", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    head = proc.stdout.read(4096)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b'{\n  "command": "marks"')
    assert err == b""


class _CountingSink:
    """A stdout that keeps nothing: it counts the characters written."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_json_output_is_written_without_holding_the_document(monkeypatch):
    """``--json`` writes the envelope in batches of encoder chunks: on
    EA(2,5)'s marks payload (374 x 374 marks, over 1 MB of JSON) the
    writing allocates under 1 MB at its peak, and writes json.dumps's
    characters and a newline."""
    lattice = enumerate_subgroups(build_group(parse_group_spec("EA(2,5)")))
    payload = {
        "group": lattice.group.name,
        "class_orders": [c.order for c in lattice.classes],
        "matrix": table_of_marks(lattice).entries,
    }
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._emit(Namespace(json=True), "marks", "EA(2,5)", payload, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    envelope = {
        "command": "marks",
        "group_spec": "EA(2,5)",
        "payload": payload,
        "tool_version": burnside.__version__,
    }
    size = len(json.dumps(envelope, sort_keys=True, indent=2))
    assert sink.written == size + 1
    assert size > 1 << 20
    assert peak < 1 << 20


def test_start_up_imports_only_what_commands_run():
    # -S: no site hooks, so every module found was loaded by the import
    lazy = ("dataclasses", "inspect", "fractions", "decimal", "json")
    script = f"import sys, burnside.cli; print(*[m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


def test_interrupt_exits_130(monkeypatch):
    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 130
