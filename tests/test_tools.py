"""Smoke tests of the scripts in ``tools/``: the bit fingerprint and the
code-line count, which report on the package and break silently when
its signatures change."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_prints_every_label(capsys):
    """Levels 1 to 3 give eight hashes each, the lift's two from level
    3, the study's two and one per export kind at level 3."""
    assert _load("fingerprint").main(["1", "2", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    base = ["mesh", "tri_table", "A", "hierarchy", "b", "center_load", "x", "recovered"]
    want = ([f"level  {lv}  {label}" for lv in (1, 2) for label in base]
            + [f"level  3  {label}" for label in base + ["lift coeffs", "lift residual"]]
            + ["study 1..3  csv", "study 1..3  values"]
            + [f"export 3  {what}" for what in ("mesh", "solution", "lift")])
    assert len(lines) == len(want) == 31
    for line, label in zip(lines, want):
        head, digest = line.rsplit(" ", 1)
        assert " ".join(head.split()) == " ".join(label.split())
        assert len(digest) == 64 and int(digest, 16) >= 0


def test_study_fingerprint_is_pinned():
    """The bits of ``study --min-level 1 --max-level 5 --lift``: its CSV
    and the ``float.hex`` of every error and order.  A change that moves
    a number on purpose re-pins these and says why."""
    assert dict(_load("fingerprint").study_hashes(5)) == {
        "csv": "91e4e5752191f734544ae00582173e21fb71388c9c7130c5be656724bdbcf96c",
        "values": "687c8dbef9ce63be073cb71d7c1a9420deebcde65f57292f51047b1421c4d05b",
    }


def test_fingerprint_needs_a_level(capsys):
    assert _load("fingerprint").main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_sloc_prints_a_total_of_the_package(capsys):
    assert _load("sloc").main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(n) for n, name in rows}
    assert {"cli.py", "system.py", "problem.py"} <= counts.keys()
    total = counts.pop("total")
    assert total == sum(counts.values()) > 0
    assert all(n > 0 for n in counts.values())


@pytest.mark.parametrize("source, code", [
    ('"""Doc."""\n\n# note\nx = 1\n', 1),
    ('def f():\n    """Doc\n    more."""\n    return (1,\n            2)\n', 3),
])
def test_sloc_skips_docstrings_comments_and_blanks(tmp_path, source, code):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert _load("sloc").code_lines(path) == code
