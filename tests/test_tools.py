"""The developer tools under tools/, run end to end on this checkout, so a
tool that names a function the package no longer has fails here."""

from __future__ import annotations

import importlib
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
