"""Tests of the negative-control table ``tools/mutants.py``: one cheap row
is killed, and a stale row, or one whose tests fail unmutated, is refused
before any row runs."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _harness():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    harness = importlib.util.module_from_spec(spec)
    # The dataclass of the rows looks its module up by name.
    sys.modules[spec.name] = harness
    spec.loader.exec_module(harness)
    return harness


def test_one_cheap_row_is_killed():
    """About 2 s: the copy of the tree and one test in a fresh interpreter."""
    argv = ["--rows", "settled-eigenvalue-without-reflection"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = json.loads(done.stdout.strip().splitlines()[-1])["rows"]
    assert [(row["name"], row["outcome"]) for row in rows] == [
        ("settled-eigenvalue-without-reflection", "killed")
    ]


def test_every_row_applies_to_the_tree_exactly_once():
    harness = _harness()
    assert len({row.name for row in harness.MUTANTS}) == len(harness.MUTANTS)
    for row in harness.MUTANTS:
        assert harness.mutated_text(row, harness.ROOT) != (harness.ROOT / row.path).read_text()


def test_a_stale_row_is_refused_before_any_row_runs(monkeypatch, capsys):
    harness = _harness()
    row = harness.MUTANTS[0]
    missing = dataclasses.replace(row, name="missing", old="text found nowhere in the file")
    repeated = dataclasses.replace(row, name="repeated", old="import")
    for stale in (missing, repeated):
        with pytest.raises(ValueError, match="stale row"):
            harness.mutated_text(stale, harness.ROOT)

    def unrun(row, root):
        raise AssertionError(f"row {row.name} ran")

    monkeypatch.setattr(harness, "MUTANTS", (row, missing))
    monkeypatch.setattr(harness, "run_row", unrun)
    assert harness.main([]) == 2
    assert "stale row missing: its old text occurs 0 times" in capsys.readouterr().err


def test_a_row_whose_tests_fail_unmutated_is_refused(monkeypatch, capsys):
    """A named test that already fails on the unmutated tree would read as
    a kill: the one unmutated run of the selected rows' tests refuses that
    row before any mutant runs, and a row whose tests pass is let through."""
    harness = _harness()
    sound = harness.MUTANTS[0]
    broken = dataclasses.replace(sound, name="broken", tests=("tests/test_cochain.py::test_broken",))
    unmutated = []

    def run_tests(tests, root, row):
        assert row is None, f"row {row.name} ran"
        unmutated.append(tests)
        return [f"PASSED {test}" for test in sound.tests] + [
            f"FAILED {broken.tests[0]} - AssertionError"
        ]

    def unrun(row, root):
        raise AssertionError(f"row {row.name} ran")

    monkeypatch.setattr(harness, "MUTANTS", (sound, broken))
    monkeypatch.setattr(harness, "run_tests", run_tests)
    monkeypatch.setattr(harness, "run_row", unrun)
    assert harness.main([]) == 2
    assert len(unmutated) == 1 and set(unmutated[0]) == set(sound.tests + broken.tests)
    err = capsys.readouterr().err
    assert f"row {broken.name} names tests that do not pass on the unmutated tree" in err
    assert broken.tests[0] in err

    ran = []

    def killed(row, root):
        ran.append(row.name)
        return {"name": row.name, "outcome": "killed", "seconds": 0.0}

    monkeypatch.setattr(harness, "run_row", killed)
    assert harness.main(["--rows", sound.name]) == 0
    assert ran == [sound.name]
