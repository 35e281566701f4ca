"""Smoke test of the scaling harness ``tools/scale_curve.py``, which runs
the experiments' runners and the library calls every budget is set from."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twistzeta import cli

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "scale_curve.py"


def _all_passed(outcome) -> bool:
    """Every check of an experiment point passed: a refused point has the
    outcome false, and a point without checks shows nothing."""
    return isinstance(outcome, list) and bool(outcome) and all(outcome)


def test_one_small_point_of_every_target_ends_in_its_outcome():
    """One point per target, one repeat each: about 2 s, most of it the
    interpreter start of the seven children."""
    argv = ["--points", "2:2", "--modes", "32", "--lengths", "64", "--repeats", "1"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120
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
    assert _all_passed(outcomes["index"])
    assert _all_passed(outcomes["counterexample"])
    assert _all_passed(outcomes["circle"])
    assert outcomes["unitary"] < 1e-8
    assert rows[0]["vertices"] == 2 * 2 + 1  # the L=2 window
    assert rows[0]["summands"] == 8  # both cochains at d=2
    heat, *sweeps = rows[4:]
    assert heat["experiment"] == "heat-oracle" and max(heat["computed"]) < 1e-12
    for sweep in sweeps:
        assert sweep["experiment"] == "damp-sweep"
        assert sweep["computed"][:2] == ["diverging", "converged"]


def test_one_small_point_of_every_budget_target_ends_in_its_outcome():
    """The targets outside the default run, at one small point each; the
    commutator norms at M=32 are those of criterion 06, the twisted one at
    its plateau."""
    targets = "pv-modes,pv-sites,summability,commutator"
    argv = ["--targets", targets, "--modes", "32", "--lengths", "64"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv, "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.strip().splitlines()[-1])["points"]
    *budgets, commutator = rows
    assert [(row["target"], _all_passed(row["outcome"])) for row in budgets] == [
        ("pv-modes", True),
        ("pv-sites", True),
        ("summability", True),
    ]
    assert commutator["target"] == "commutator" and commutator["M"] == 32
    plain, twisted, logged = commutator["outcome"]
    assert [plain, twisted, logged] == pytest.approx([7.62548, 1.42119, 0.95803], abs=1e-4)
    assert rows[1]["sites"] == 65 and rows[2]["modes"] == 65
    assert {row["blas_threads"] for row in rows} == {1}


def test_a_measured_tree_is_left_without_bytecode(tmp_path):
    """The children import the package under --src without writing
    __pycache__ into it, which a later benchmark run there would read."""
    source = Path(__file__).resolve().parents[1] / "src"
    copy = tmp_path / "src"
    shutil.copytree(source, copy, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--src", str(copy), "--targets", "unitary", "--modes", "8", "--repeats", "1"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["src"] == str(copy)
    assert not list(copy.rglob("__pycache__"))


def test_one_point_of_the_census_target_ends_in_its_outcome():
    """The three census runs at d=10, the smallest of the target's fixed
    ranks, each as the one child the harness starts for that point."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(source), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    outcomes = []
    for run in ("0", "1", "2"):
        done = subprocess.run(
            [sys.executable, str(SCRIPT), "--child", "census", run, "10"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outcomes.append(json.loads(done.stdout.strip().splitlines()[-1])["outcome"])
    assert outcomes == [[True, True, False, False, True], [True, True], [True, True, False]]


def test_one_point_of_the_assembly_target_ends_in_its_outcome():
    """One stage of a1 at d=2, as the one child the harness starts for
    that point: the pole classes of the heat slice and of the word slice,
    and the fastest of the calls it timed."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(source), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", "assembly", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout.strip().splitlines()[-1])
    assert row["outcome"] == [
        ["0 even 1", "0 odd 2", "log(2d-1) even 2"],
        ["0 even 1", "0 odd 1", "log(2d-1) even 1"],
    ]
    assert row["seconds"] > 0 and row["blas_threads"] == 1 and row["calls"] == 30


def test_an_experiment_target_measures_past_the_budget():
    """The index point d=1965667148573 L=1, the smallest d whose cochain
    summands pass their budget, is refused by the command line but measured
    by the harness, which runs the experiment's runner: about 1 s and
    60 MB."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = {"PYTHONPATH": str(source), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", "index", "0", "1965667148573", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout.strip().splitlines()[-1])
    assert row["fields"] == {
        "experiment": "counterexample",
        "family": "free_group",
        "d": 1965667148573,
        "L": 1,
        "vertices": 3,
        "summands": 103881,
    }
    assert row["fields"]["summands"] > cli.FREE_GROUP_SUMMAND_BUDGET
    assert _all_passed(row["outcome"]) and "refused" not in row


def test_a_point_the_runner_refuses_reads_as_failed(monkeypatch, capsys):
    """A runner's usage error is recorded as the outcome false with its
    message, never as a list of passes."""
    spec = importlib.util.spec_from_file_location("scale_curve", SCRIPT)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)

    def refuse(params):
        raise cli.UsageError("no point here")

    refusing = dataclasses.replace(cli.EXPERIMENTS["summability"], runner=refuse)
    monkeypatch.setitem(cli.EXPERIMENTS, "summability", refusing)
    for name in harness.BLAS_VARIABLES:
        monkeypatch.setenv(name, "1")
    harness._child("summability", [0, 32])
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert row["outcome"] is False and row["refused"] == "no point here"
    assert row["fields"] == {"experiment": "summability", "M": 32, "modes": 65}
    assert not _all_passed(row["outcome"])
