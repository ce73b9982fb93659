"""The developer tools under tools/, run end to end on this checkout, so a
tool that names a function the package no longer has fails here."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    """Import a module of tools/ by name."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module


def test_ab_inproc_runs_every_stage_on_one_tree(tool, monkeypatch, capsys):
    ab = tool("ab_inproc")
    monkeypatch.setattr(ab, "CLI", (("catalog", "--max-order", "4"),))
    monkeypatch.setattr(ab.bench, "pin_to_one_cpu", lambda: None)  # leave the test process unpinned
    monkeypatch.chdir(ROOT)
    groups = "C4xC2;perm:bench/data/s5.perm"
    assert ab.main([str(ROOT), str(ROOT), "--pairs", "1", "--groups", groups]) == 0
    out = capsys.readouterr().out
    assert {line.split()[0] for line in out.splitlines()[4:] if line[0] != " "} == set(ab.STAGES)
    for seen in ("collections", "first-pass digest", "enum peak", "tracked objects", "peak RSS"):
        assert seen in out


def test_ab_inproc_bench_stage_compares_every_end_to_end_metric(tool, monkeypatch, capsys, tmp_path):
    """The bench stage runs each workload of BENCHMARK.json at its run
    seconds, alternating the trees, and prints a row per end-to-end
    metric, counting b's wins in the metric's direction. The runs are
    canned: every metric reads 1 on tree a and 2 on tree b."""
    ab = tool("ab_inproc")
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "src").mkdir(parents=True)
    calls = []

    def child(tree, args, rss):
        calls.append((tree.name, args))
        metrics = {m["name"]: {"value": 1.0 + (tree.name == "b")} for m in ab.BENCHMARK["end_to_end"]}
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        return 1.0, (0, b"meta {}\n" + json.dumps(result).encode())

    monkeypatch.setattr(ab, "child", child)
    ab.bench_stage(trees, 29, 2)
    seconds = str(ab.BENCHMARK["run_seconds"])
    assert calls == [
        (tree, ("bench/run.py", "--workload", workload, "--seed", "29", "--seconds", seconds))
        for workload in ab.WORKLOADS
        for tree in "abba"
    ]
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    metrics = ab.BENCHMARK["end_to_end"]
    assert [(row[1], row[2]) for row in rows] == [(w, m["name"]) for w in ab.WORKLOADS for m in metrics]
    for row, metric in zip(rows, metrics * len(ab.WORKLOADS)):
        assert row[row.index("b/a") + 1] == "2.000"
        assert row[row.index("wins") + 1] == ("0/2" if metric["better"] == "lower" else "2/2")


@pytest.mark.parametrize("correct,failed", [("false", 0), ("true", 1)])
def test_ab_inproc_stops_on_a_benchmark_run_that_is_not_correct(tool, monkeypatch, correct, failed):
    ab = tool("ab_inproc")
    result = f'{{"correct": {correct}, "attempted": 3, "failed": {failed}, "metrics": {{}}}}'.encode()
    monkeypatch.setattr(ab, "child", lambda tree, args, rss: (1.0, (0, b"meta {}\n" + result)))
    with pytest.raises(SystemExit, match="not correct"):
        ab.bench_run(ROOT, ("--workload", "membership-batch"))


def test_ab_inproc_stops_when_the_trees_disagree(tool, capsys):
    ab = tool("ab_inproc")
    with pytest.raises(SystemExit, match="the trees disagree"):
        ab.alternate("stage", 1, lambda side: (1.0, side))


def test_codelines_total_is_the_sum_of_the_modules(tool, capsys):
    codelines = tool("codelines")
    assert codelines.main() == 0
    *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert [name for _, name in rows] == sorted(p.name for p in codelines.PACKAGE.glob("*.py"))
    assert total == [str(sum(int(count) for count, _ in rows)), "total"]


def test_codelines_counts_no_docstring_comment_or_blank(tool, tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""Module."""\n\n# note\ndef f():\n    """Doc."""\n    return """a\nb"""\n')
    assert tool("codelines").code_lines(source) == 3
