"""Smoke test of the scaling harness ``tools/scale_curve.py``, which runs
the library calls every budget is set from."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def test_one_small_point_of_every_target_ends_in_its_outcome():
    """One point per target, one repeat each: about 2 s, most of it the
    interpreter start of the seven children."""
    script = Path(__file__).resolve().parents[1] / "tools" / "scale_curve.py"
    argv = ["--points", "2:2", "--modes", "32", "--lengths", "64", "--repeats", "1"]
    done = subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.strip().splitlines()[-1])["points"]
    assert [row["target"] for row in rows] == [
        "index",
        "unitary",
        "counterexample",
        "circle",
        "window",
        "window",
        "window",
    ]
    assert {row["blas_threads"] for row in rows} == {1}
    outcomes = {row["target"]: row["outcome"] for row in rows[:4]}
    assert outcomes["index"] is True
    assert outcomes["counterexample"] is True
    assert outcomes["circle"] is True
    assert outcomes["unitary"] < 1e-8
    heat, *sweeps = rows[4:]
    assert heat["experiment"] == "heat-oracle" and heat["outcome"] < 1e-12
    for sweep in sweeps:
        assert sweep["experiment"] == "damp-sweep"
        assert sweep["outcome"] == ["diverging", "converged"]


def test_one_small_point_of_every_budget_target_ends_in_its_outcome():
    """The targets outside the default run, at one small point each."""
    script = Path(__file__).resolve().parents[1] / "tools" / "scale_curve.py"
    argv = ["--targets", "pv-modes,pv-sites,summability", "--modes", "32", "--lengths", "64"]
    done = subprocess.run(
        [sys.executable, str(script), *argv, "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.strip().splitlines()[-1])["points"]
    assert [(row["target"], row["outcome"]) for row in rows] == [
        ("pv-modes", True),
        ("pv-sites", True),
        ("summability", True),
    ]
    assert rows[1]["sites"] == 65 and rows[2]["modes"] == 65
    assert {row["blas_threads"] for row in rows} == {1}
