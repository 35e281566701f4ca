"""Tests for the experiment command line, its config plumbing, and emitters."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistzeta.ckalg import Monomial, _prefix_walk
from twistzeta.cochain import (
    boundary_translation_index,
    cochain_word_trace,
    compressed_kernel_dimension,
    compressed_translation_index,
    free_group_cochain,
)
from twistzeta.cli import (
    CIRCLE_MODE_BUDGET,
    LATTICE_SITE_BUDGET,
    PV_WINDOW_BUDGET,
    SUMMABILITY_MODE_BUDGET,
    WINDOW_STEP_BUDGET,
    EXPERIMENTS,
    CheckRecord,
    Count,
    ExperimentReport,
    UsageError,
    _free_group_setup,
    build_config,
    emit,
    main,
    parse_chain,
    read_config_section,
    report_from_json,
    report_to_csv,
    report_to_json,
    run,
)
from twistzeta.damp import free_group_summability
from twistzeta.traces import (
    _heat_partial_sum,
    brute_force_heat_trace,
    brute_force_toeplitz_trace,
    closed_form_heat_trace,
    closed_form_toeplitz_trace,
)
from twistzeta.words import FreeGroup


def test_build_config_merges_defaults_file_and_flags():
    config = build_config("damp-sweep", {"L": "64", "d": "3"}, {"L": "128"})
    assert config.parameters["L"] == 128
    assert config.parameters["d"] == 3
    assert config.parameters["t"] == "a1"
    assert config.parameters["s"] == [1.0, 1.2]


def test_build_config_rejects_bad_input_with_schema_diagnostics():
    with pytest.raises(UsageError, match="known:"):
        build_config("damp-sweep", {"bogus": "1"}, {})
    with pytest.raises(UsageError, match="not an integer"):
        build_config("damp-sweep", {}, {"L": "soon"})
    with pytest.raises(UsageError, match="below the minimum"):
        build_config("heat-oracle", {}, {"d": "1"})
    with pytest.raises(UsageError, match="known families"):
        build_config("counterexample", {}, {"family": "torus"})
    with pytest.raises(UsageError, match="known:"):
        build_config("tea-leaves", {}, {})
    with pytest.raises(UsageError, match="report format"):
        build_config("summability", {}, {}, out_format="yaml")


def test_read_config_section_scopes_by_experiment(tmp_path):
    path = tmp_path / "experiments.cfg"
    path.write_text(
        "[damp-sweep]\nL = 64\n\n[summability]\nM = 32\n", encoding="utf-8"
    )
    assert read_config_section(str(path), "damp-sweep") == {"L": "64"}
    assert read_config_section(str(path), "heat-oracle") == {}
    with pytest.raises(UsageError, match="cannot be read"):
        read_config_section(str(tmp_path / "absent.cfg"), "damp-sweep")


def test_parse_chain_reads_projections_and_explicit_monomials():
    model = FreeGroup(2)
    assert parse_chain("a1", model) == [Monomial((0,), (0,))]
    assert parse_chain("a1:a1", model) == [Monomial((0,), (0,))] * 2
    assert parse_chain("e", model) == [Monomial((), ())]
    assert parse_chain("a1.*", model) == [Monomial((0,), ())]
    assert parse_chain("a1*", model) == [Monomial((), (0,))]
    assert parse_chain("a1.b2*", model) == [Monomial((0,), (3,))]
    assert parse_chain("a1.a2", model) == [Monomial((0, 2), (0, 2))]


def test_parse_chain_rejects_malformed_stages():
    model = FreeGroup(2)
    with pytest.raises(UsageError, match="chain stage"):
        parse_chain("zz", model)
    with pytest.raises(UsageError, match="plain letters first"):
        parse_chain("a1*.a1", model)
    with pytest.raises(UsageError, match="empty-word marker"):
        parse_chain("a1.*.*", model)


def test_heat_oracle_defaults_pass_within_tolerance(capsys):
    assert main(["heat-oracle"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("PASS heat-oracle: 3/3")
    report = run(build_config("heat-oracle"))
    for check in report.checks:
        assert check.passed
        assert check.computed <= check.tolerance


def test_pole_audit_reports_the_exact_base_points(capsys):
    config = build_config("pole-audit", flag_values={"chain": "a1:a1"})
    report = run(config)
    by_name = {check.name: check for check in report.checks}
    bases = by_name["heat pole base points"]
    assert bases.computed == "0, log(3)"
    assert bases.passed
    assert by_name["heat pole orders"].computed == 2
    assert by_name["heat pole orders"].passed
    assert by_name["word-basis pole orders"].passed
    assert not by_name["heat double poles confined to the branch point"].passed
    assert not by_name["word-basis poles confined to the branch point"].passed
    assert main(["pole-audit", "--chain", "a1:a1"]) == 1
    assert "FAIL pole-audit" in capsys.readouterr().out


def test_counterexample_subcommand_covers_all_families(capsys):
    assert main(["counterexample", "--family", "free_group", "--t", "a1", "--L", "5"]) == 0
    assert main(["counterexample", "--family", "circle", "--M", "64"]) == 0
    assert main(["counterexample", "--family", "moebius", "--M", "64"]) == 0
    output = capsys.readouterr().out
    assert "index pairing by covariant compression" in output


def test_damp_sweep_brackets_the_rate_and_flags_unbracketed_grids(capsys):
    assert main(["damp-sweep"]) == 0
    assert main(["damp-sweep", "--s", "2.0,3.0"]) == 1
    output = capsys.readouterr().out
    assert "computed none" in output


@pytest.mark.parametrize(
    "argv",
    [
        ["damp-sweep", "--d", "3", "--L", "512"],
        ["heat-oracle", "--d", "3", "--chain", "a1", "--L", "600", "--s", "2.0"],
        ["heat-oracle", "--d", "2", "--chain", "a1", "--L", "700", "--s", "1.2"],
    ],
)
def test_word_counts_beyond_float_range_end_in_a_verdict(argv, capsys):
    assert main(argv) in (0, 1)
    assert "checks passed" in capsys.readouterr().out


def test_ranks_past_the_float_range_are_refused_without_a_traceback(capsys):
    """A census weight (d=10^75, and the unit chain's at d=10^160) too large
    for a float is a stated refusal: a failed check of heat-oracle, and
    exit 2 from damp-sweep."""
    flags = ["--chain", "a1:a1", "--L", "6", "--s", "150,150"]
    assert main(["heat-oracle", "--d", str(10**75), *flags]) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert lines and all(
        line.endswith("refused: census weight exceeds the float range, expected 0") for line in lines
    )
    assert main(["damp-sweep", "--d", str(10**160), "--L", "16", "--s", "480,481"]) == 2
    assert capsys.readouterr().err == "twistzeta: census weight exceeds the float range\n"


def test_closed_form_coefficients_past_the_float_range_are_compared(capsys):
    """At d=10^80 the closed form's coefficients exceed float range but its
    terms do not, so each check is a numeric comparison with the oracle."""
    assert main(["heat-oracle", "--d", str(10**80), "--s", "240,241,242"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == 3 and all(
        line.startswith("PASS") and "(tolerance 1e-08)" in line for line in lines
    )


def test_heat_oracle_below_the_refinement_length_is_refused(capsys):
    """Below its refinement length 6 the chain a1:a1 would pass against a
    tail bound of 2.5e26 at L=1, so each comparison is a stated refusal;
    at L=6 it passes."""
    assert main(["heat-oracle", "--chain", "a1:a1", "--L", "1", "--s", "2,2"]) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == 2 and all(
        line.endswith("refused: truncation L=1 is below the chain's refinement length 6, expected 0")
        for line in lines
    )
    assert main(["heat-oracle", "--chain", "a1:a1", "--L", "6", "--s", "2,2"]) == 0
    capsys.readouterr()


def test_damp_sweep_brackets_the_rate_at_two_thousand_letters(capsys):
    assert main(["damp-sweep", "--d", "2", "--L", "2048"]) == 0
    assert "3/3 checks passed" in capsys.readouterr().out


def test_chains_past_the_old_enumeration_limit_end_in_a_verdict(capsys):
    """Refinement lengths 26 and 18: listing every cylinder of these chains
    took minutes and exhausted memory; counting them takes milliseconds."""
    chains = [
        ("2", ":".join(["a1.b2.a2.b1"] * 3)),
        ("2", ":".join(["a1"] * 8)),
        ("5", ":".join(["a1"] * 8)),
    ]
    start = time.perf_counter()
    for d, chain in chains:
        for experiment in ("pole-audit", "heat-oracle"):
            assert main([experiment, "--d", d, "--chain", chain]) in (0, 1)
            assert "checks passed" in capsys.readouterr().out
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "argv, verdict",
    [
        case
        for generators in ("10000", "1000000", "1000000000")
        for case in (
            (["pole-audit", "--d", generators], "FAIL pole-audit: 3/5 checks passed"),
            (
                ["heat-oracle", "--d", generators, "--chain", "a1:a1", "--s", "12,13"],
                "PASS heat-oracle: 2/2 checks passed",
            ),
        )
    ],
)
def test_ten_thousand_generators_end_in_a_verdict(argv, verdict):
    """Both read the census of a1:a1 through one stand-in for the letters
    outside the anchor pair, in a fresh interpreter: under 1 s with the
    interpreter start at every d, held to 30 s here."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode in (0, 1), done.stderr
    assert done.stdout.strip().splitlines()[-1].startswith(verdict)


def test_pv_order_and_summability_defaults_pass():
    assert main(["pv-order"]) == 0
    assert main(["summability"]) == 0


def test_pv_order_below_the_mode_floor_is_refused(capsys):
    """At M=1 D_log vanishes on the whole window and the symbol lane has no
    constants to measure: M=1 exits 2 at once, naming the floor 2, and M=2
    passes all four default verdicts."""
    start = time.perf_counter()
    assert main(["pv-order", "--M", "1"]) == 2
    assert time.perf_counter() - start < 0.5
    assert "1 is below the minimum 2" in capsys.readouterr().err
    assert main(["pv-order", "--M", "2"]) == 0
    assert "PASS pv-order: 4/4 checks passed" in capsys.readouterr().out


def test_every_free_group_entry_point_refuses_an_anchor_outside_the_alphabet():
    model, chain = FreeGroup(2), [Monomial((0,), (0,))]
    for outside in (model.size, 7, -1):
        for call in (
            lambda: closed_form_heat_trace(chain, outside, model),
            lambda: closed_form_toeplitz_trace(chain, outside, model),
            lambda: brute_force_heat_trace(chain, outside, model, [2.5], 8),
            lambda: brute_force_toeplitz_trace(chain, outside, model, [2.5], 8),
            lambda: _heat_partial_sum(chain, outside, model, [2.5], [8]),
            lambda: boundary_translation_index(0, outside, model),
            lambda: compressed_kernel_dimension(0, outside, model, 4),
            lambda: compressed_translation_index(0, outside, model, source_length=4),
            lambda: cochain_word_trace((1, 0), outside, model),
            lambda: free_group_cochain((1, 0), outside, model, cutoff=0),
            lambda: free_group_summability(model, outside, [1.0], (8, 16, 32, 64, 128)),
        ):
            with pytest.raises(ValueError, match="outside alphabet"):
                call()
    with pytest.raises(UsageError, match="unknown letter name"):
        _free_group_setup({"d": 2, "t": "7"})
    assert _free_group_setup({"d": 3, "t": "b3"}) == (FreeGroup(3), 5)


def test_refused_convergence_regime_is_a_failed_check(capsys):
    assert main(["heat-oracle", "--s", "0.5"]) == 1
    assert "refused" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    assert main(["counterexample", "--family", "torus"]) == 2
    assert main(["heat-oracle", "--d", "zero"]) == 2
    assert main(["summability", "--config", "/absent.cfg"]) == 2
    err = capsys.readouterr().err
    assert "known families" in err
    assert "not an integer" in err
    assert "cannot be read" in err


@pytest.mark.parametrize(
    "argv",
    (["damp-sweep", "--L", "8"], ["pv-order", "--L", "16"], ["summability", "--M", "8"]),
)
def test_sweeps_below_the_schema_minimum_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "below the minimum" in capsys.readouterr().err


def test_free_group_windows_past_the_vertex_budget_are_refused(capsys):
    """The smallest refused window at d=2, 3 and 3000 and an input a hundred
    million letters long all exit 2 at once, naming the exact count and the
    largest accepted window: the window's 2L + 1 representative heads, at
    every d."""
    for argv, vertices in (
        (["--L", "500000"], 1000001),
        (["--d", "3", "--L", "500000"], 1000001),
        (["--d", "3000", "--L", "500000"], 1000001),
        (["--L", "100000000"], 2 * 10**8 + 1),
    ):
        start = time.perf_counter()
        assert main(["counterexample", "--family", "free_group", *argv]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"visits {vertices} vertices, above the budget of 1000000" in err
        assert "the largest window accepted is L=499999" in err


def test_free_group_ranks_past_the_summand_budget_are_refused(capsys):
    """The smallest refused rank and d=10^100 exit 2 at once, naming the
    exact cochain summands and the largest accepted d, whose summands are
    in budget."""
    largest = 1965667148572
    for generators, summands in ((largest + 1, 103881), (10**100, 350835331)):
        start = time.perf_counter()
        argv = ["counterexample", "--family", "free_group", "--d", str(generators)]
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"assembles {summands} cochain summands, above the budget of 100000" in err
        assert f"the largest d accepted is {largest}" in err
    assert not _over_budget("counterexample", _free_group_window(largest, 1))


def test_free_group_ranks_past_the_old_word_trace_bound_pass_at_once(capsys):
    """d=40 at L=1, the first d the per-letter word traces were refused at,
    and d=3000 at L=12 print PASS 7/7 in well under a second each."""
    for argv in (["--d", "40", "--L", "1"], ["--d", "3000", "--L", "12"]):
        start = time.perf_counter()
        assert main(["counterexample", "--family", "free_group", *argv]) == 0
        assert time.perf_counter() - start < 1.0
        assert "PASS counterexample: 7/7 checks passed" in capsys.readouterr().out


def test_circle_windows_past_the_mode_budget_are_refused(capsys):
    """The smallest refused window of both circle families, and M=4096, which
    ran unbounded before the budget, exit 2 at once and name the largest
    accepted window."""
    for family in ("circle", "moebius"):
        for max_mode in (CIRCLE_MODE_BUDGET + 1, 4096):
            start = time.perf_counter()
            assert main(["counterexample", "--family", family, "--M", str(max_mode)]) == 2
            assert time.perf_counter() - start < 0.5
            err = capsys.readouterr().err
            assert f"the {family} window at M={max_mode} is above the mode budget" in err
            assert f"largest window accepted is M={CIRCLE_MODE_BUDGET}" in err


def test_largest_accepted_free_group_window_ends_in_a_verdict():
    """d=2 L=499999 in a fresh interpreter, so its peak memory (about
    60 MB) is returned when it ends: a PASS in about 0.2 s with the
    interpreter start, held to 2 s here."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    argv = ["counterexample", "--family", "free_group", "--L", "499999"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 2.0
    assert "PASS index pairing by windowed kernel dimensions: computed -1" in done.stdout


def test_largest_accepted_free_group_rank_ends_in_a_verdict():
    """d=1965667148572, the largest accepted d, in a fresh interpreter: a
    PASS with 78,996 cochain summands in about 0.5 s with the interpreter
    start, held to 3 s here."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    argv = ["counterexample", "--family", "free_group", "--d", "1965667148572"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 3.0
    assert "PASS counterexample: 7/7 checks passed" in done.stdout


def test_largest_accepted_moebius_window_ends_in_a_verdict():
    """counterexample --family moebius at the mode budget in a fresh
    interpreter, so its peak memory (about 350 MB) is returned when it ends;
    about 0.5 s with the interpreter start, held to 30 s here."""
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    argv = ["counterexample", "--family", "moebius", "--M", str(CIRCLE_MODE_BUDGET)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert time.perf_counter() - start < 30.0
    assert done.returncode == 0, done.stderr
    assert "PASS index pairing by covariant compression: computed -1" in done.stdout


# The smallest refused and the largest accepted L on each experiment's
# default grid, and the grid's size.
STEP_BUDGET_EDGES = {"heat-oracle": (8193, 8192, 3), "damp-sweep": (6145, 6144, 2)}


@pytest.mark.parametrize("experiment", sorted(STEP_BUDGET_EDGES))
def test_heat_sums_past_the_step_budget_are_refused(experiment, capsys):
    """The smallest refused L, and L = 10^8, which ended in a MemoryError
    after about 9 s before the budget, exit 2 at once, naming the estimate
    and the largest accepted L."""
    refused, accepted, exponents = STEP_BUDGET_EDGES[experiment]
    for length in (refused, 100_000_000):
        start = time.perf_counter()
        assert main([experiment, "--L", str(length)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"the {experiment} windows at L={length} take" in err
        assert f"above the budget of {WINDOW_STEP_BUDGET}" in err
        assert f"largest L accepted on a grid of {exponents} exponents is {accepted}" in err


@pytest.mark.parametrize("experiment", sorted(STEP_BUDGET_EDGES))
def test_a_rank_that_admits_no_window_names_none(experiment, capsys):
    """At d=10^4000 one word-length step weighs past the whole budget, so
    no L is accepted, and the refusal names none."""
    assert main([experiment, "--d", str(10**4000)]) == 2
    assert capsys.readouterr().err.endswith("exponents is none\n")


@pytest.mark.parametrize("experiment", sorted(STEP_BUDGET_EDGES))
def test_largest_accepted_heat_sum_ends_in_a_verdict(experiment, capsys):
    """About 1.3 s for heat-oracle and 0.3 s for damp-sweep on one core,
    held to 20 s here."""
    _, accepted, _ = STEP_BUDGET_EDGES[experiment]
    start = time.perf_counter()
    assert main([experiment, "--L", str(accepted)]) == 0
    assert time.perf_counter() - start < 20.0
    assert f"PASS {experiment}:" in capsys.readouterr().out


# Per circle-side budget: the flags that reach it, the smallest refused and
# the largest accepted value, an input that failed or ran unbounded before
# the budget, and the start of the refusal.
CIRCLE_SIDE_EDGES = {
    "pv-order --L": (8_388_608, 8_388_607, 100_000_000, "the pv-order sweep at L="),
    "pv-order --M": (1025, 1024, 20_000, "the pv-order symbol lane at M="),
    "summability --M": (2_100_000, 2_099_999, 100_000_000, "the summability window at M="),
}


@pytest.mark.parametrize("flags", sorted(CIRCLE_SIDE_EDGES))
def test_circle_side_inputs_past_their_budget_are_refused(flags, capsys):
    """The smallest refused value and the input that, before the budget,
    ended in a MemoryError (summability --M 10^8, pv-order --M 20000) or ran
    unbounded (pv-order --L 10^8) exit 2 at once, naming the estimate and
    the largest accepted value."""
    refused, accepted, former, opening = CIRCLE_SIDE_EDGES[flags]
    for value in (refused, former):
        start = time.perf_counter()
        assert main([*flags.split(), str(value)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"{opening}{value}" in err
        assert "above the budget of" in err
        assert err.rstrip().endswith(f"accepted is {accepted}")


@pytest.mark.parametrize("flags", sorted(CIRCLE_SIDE_EDGES))
def test_largest_accepted_circle_side_input_ends_in_a_verdict(flags):
    """In a fresh interpreter, so its peak memory (260 to 320 MB) is returned
    when it ends: under 1 s for pv-order --L and summability --M, 5 s for
    pv-order --M on one core, held to 60 s here."""
    _, accepted, _, _ = CIRCLE_SIDE_EDGES[flags]
    source = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    experiment = flags.split()[0]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", *flags.split(), str(accepted)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert time.perf_counter() - start < 60.0
    assert done.returncode == 0, done.stderr
    assert f"PASS {experiment}:" in done.stdout


def _declared(experiment: str, params: dict[str, object]) -> tuple[Count, ...]:
    """Declared counts, with the fields params does not name at their defaults."""
    fields = {field.name: field.default for field in EXPERIMENTS[experiment].fields}
    return EXPERIMENTS[experiment].cost({**fields, **params})


def _over_budget(experiment: str, params: dict[str, object]) -> list[Count]:
    return [count for count in _declared(experiment, params) if count.value > count.budget]


def _free_group_window(generators: int, length: int) -> dict[str, object]:
    return {"family": "free_group", "d": generators, "L": length, "M": 128}


def _circle_window(family: str, max_mode: int) -> dict[str, object]:
    return {"family": family, "d": 2, "L": 9, "M": max_mode}


# Per budget, the experiments and parameters its declared cost admits (None)
# or refuses (the refusal's expected text).
DECLARED_COSTS = {
    # Defaults, criterion 04 and the boundary-index benchmark (d2L9, d2L8,
    # d3L6), the windows that the int64 target keys once capped (d2L24,
    # d3L19), d=40 and d=3000, which the per-letter word traces once
    # refused, the largest accepted window and d, and the smallest refused
    # ones.
    "vertices": (
        *(
            ("counterexample", _free_group_window(generators, length), None)
            for generators, length in (
                (2, 9),
                (2, 8),
                (3, 6),
                (2, 24),
                (3, 19),
                (40, 1),
                (3000, 12),
                (10**9, 12),
                (2, 499999),
                (1965667148572, 499999),
            )
        ),
        *(
            ("counterexample", _free_group_window(generators, length), refusal)
            for generators, length, refusal in (
                (2, 500000, "the largest window accepted is L=499999"),
                (10**9, 500000, "the largest window accepted is L=499999"),
                (1965667148573, 1, "the largest d accepted is 1965667148572"),
            )
        ),
    ),
    # The CLI test (M=64), the default and criterion 06 (M=128) and the
    # moebius-sweep benchmark (M=512).
    "modes": (
        *(
            ("counterexample", _circle_window(family, max_mode), None)
            for family in ("circle", "moebius")
            for max_mode in (64, 128, 512, CIRCLE_MODE_BUDGET)
        ),
        *(
            (
                "counterexample",
                _circle_window(family, CIRCLE_MODE_BUDGET + 1),
                "above the mode budget",
            )
            for family in ("circle", "moebius")
        ),
    ),
    # Defaults and the gate (L=16, 128) and the window-sweep benchmark
    # (heat-oracle L=256 on two exponents, damp-sweep L=256 and 512).
    "steps": (
        ("heat-oracle", {"L": 16, "s": [2.5, 3.0, 3.5]}, None),
        ("heat-oracle", {"L": 256, "s": [1.2, 1.5]}, None),
        ("damp-sweep", {"L": 128, "s": [1.0, 1.2]}, None),
        ("damp-sweep", {"L": 256, "s": [1.5, 1.8]}, None),
        ("damp-sweep", {"L": 512, "s": [1.0, 1.2]}, None),
        ("heat-oracle", {"L": WINDOW_STEP_BUDGET + 1, "s": [2.5]}, "above the budget"),
        # Each step weighs log(2d-1)/log 3, the digits of its escape counts
        # against d=2: the largest accepted L at d=3 and d=10^5, the first
        # refused ones, and one exponent at the budget's L at d=10^5, which
        # the count accepted before its steps were weighted.
        ("damp-sweep", {"d": 3, "L": 256, "s": [1.5, 1.8]}, None),
        ("heat-oracle", {"d": 3, "L": 5591}, None),
        ("heat-oracle", {"d": 3, "L": 5592}, "is 5591"),
        ("damp-sweep", {"d": 3, "L": 4193}, None),
        ("damp-sweep", {"d": 3, "L": 4194}, "is 4193"),
        ("damp-sweep", {"d": 10_000}, None),
        ("heat-oracle", {"d": 100_000, "chain": "a1", "L": 2211, "s": [13.0]}, None),
        (
            "heat-oracle",
            {"d": 100_000, "chain": "a1", "L": 2212, "s": [13.0]},
            "grid of 1 exponents is 2211",
        ),
        (
            "heat-oracle",
            {"d": 100_000, "chain": "a1", "L": 24576, "s": [13.0]},
            "take about 273051 word-length steps",
        ),
    ),
    # The defaults (pv-order L=512 M=64, summability M=256), the CLI tests'
    # settings and the moebius-sweep benchmark (pv-order L=2048 M=256,
    # summability M=65536).
    "circle side": (
        *(
            ("pv-order", {"L": length, "M": max_mode}, None)
            for length, max_mode in ((512, 64), (16, 64), (2048, 256), (512, 2))
        ),
        *(("summability", {"M": max_mode}, None) for max_mode in (8, 16, 32, 64, 256, 65536)),
        ("pole-audit", {}, None),
    ),
}


def _check_declared_costs(budget: str) -> None:
    for experiment, params, refusal in DECLARED_COSTS[budget]:
        over = _over_budget(experiment, params)
        if refusal is None:
            assert not over, (experiment, params)
        else:
            assert over and refusal in over[0].refusal, (experiment, params)


def test_free_group_vertex_budget_admits_every_gate_and_benchmark_window():
    _check_declared_costs("vertices")


def test_circle_mode_budget_admits_every_gate_and_benchmark_window():
    _check_declared_costs("modes")


def test_step_budget_admits_every_gate_and_benchmark_window():
    _check_declared_costs("steps")


def test_the_census_walk_does_not_grow_with_the_rank():
    """The walk extends a prefix by the letters the chain names, 0 and 1,
    and one stand-in for the other letters: a1:a1 and a chain whose strip
    ends on a junction visit as many prefixes at d=10^6 as at d=3, and
    their multiplicities add up to the prefixes of the whole alphabet,
    4d + 1 and 8d + 1."""
    joined = (Monomial((0,), ()), Monomial((0,), (1, 1, 1)))
    square = (Monomial((0,), (0,)),) * 2
    for chain, per_letter in ((square, 4), (joined, 8)):
        visited = set()
        for generators in (3, 10**6):
            walk = list(_prefix_walk(chain, FreeGroup(generators)))
            visited.add(len(walk))
            assert sum(weight for _, _, weight in walk) == per_letter * generators + 1
        assert len(visited) == 1


def test_circle_side_budgets_admit_every_default_gate_and_benchmark_input():
    _check_declared_costs("circle side")
    assert (2 * 1024 + 1) ** 2 <= PV_WINDOW_BUDGET < (2 * 1025 + 1) ** 2
    assert 2 * 2_099_999 + 1 <= SUMMABILITY_MODE_BUDGET < 2 * 2_100_000 + 1
    assert 2**22 + 1 <= LATTICE_SITE_BUDGET < 2**23 + 1


def test_run_refuses_an_over_budget_config_without_calling_its_runner(monkeypatch):
    """One refused input per budget: cli.run raises the refusal before the
    runner, which here fails when called, is reached."""

    def runner(params: dict[str, object]) -> list[CheckRecord]:
        raise AssertionError(f"the runner was called on {params}")

    for experiment, flags in (
        ("counterexample", {"L": "500000"}),
        ("counterexample", {"d": "1965667148573"}),
        ("counterexample", {"family": "moebius", "M": "2049"}),
        ("heat-oracle", {"L": "8193"}),
        ("damp-sweep", {"L": "6145"}),
        ("heat-oracle", {"d": "100000", "chain": "a1", "L": "24576", "s": "13"}),
        ("pv-order", {"L": "8388608"}),
        ("pv-order", {"M": "1025"}),
        ("summability", {"M": "2100000"}),
    ):
        config = build_config(experiment, flag_values=flags)
        refused = dataclasses.replace(EXPERIMENTS[experiment], runner=runner)
        monkeypatch.setitem(EXPERIMENTS, experiment, refused)
        with pytest.raises(UsageError, match="budget"):
            run(config)


def test_usage_errors_come_before_cost_refusals(capsys):
    """An exponent outside (0, 1] is named even where L also passes the
    lattice-site budget: the fields are parsed before the costs are read."""
    assert main(["pv-order", "--s", "1.5", "--L", "100000000"]) == 2
    err = capsys.readouterr().err
    assert "parameter 's' for pv-order: position weight exponent 1.5 must lie in (0, 1]" in err
    assert "budget" not in err
    assert main(["pv-order", "--eps", "0.4,1.5", "--M", "20000"]) == 2
    err = capsys.readouterr().err
    assert "parameter 'eps' for pv-order: budget exponent 1.5 must lie in (0, 1]" in err


def test_json_report_round_trips_and_is_deterministic():
    config = build_config("summability", flag_values={"M": "64", "s": "0.5,1.0"})
    first = run(config)
    second = run(config)
    parsed = report_from_json(report_to_json(first))
    assert parsed == first
    flat_first = dataclasses.replace(first, wall_clock=0.0)
    flat_second = dataclasses.replace(second, wall_clock=0.0)
    assert report_to_json(flat_first) == report_to_json(flat_second)


@settings(max_examples=120, deadline=None)
@given(
    value=st.floats(allow_nan=True, allow_infinity=True),
    expected=st.floats(allow_nan=True, allow_infinity=True),
)
def test_numeric_fields_round_trip_through_json(value, expected):
    report = ExperimentReport(
        "summability",
        {"M": 16},
        (CheckRecord("probe", value, expected, None, True, "term-identity"),),
        0.125,
    )
    parsed = report_from_json(report_to_json(report))
    recovered = parsed.checks[0]
    for got, sent in ((recovered.computed, value), (recovered.expected, expected)):
        assert isinstance(got, float)
        assert math.isnan(got) if math.isnan(sent) else got == sent


def test_csv_emitter_writes_one_row_per_check(tmp_path):
    config = build_config("summability", flag_values={"M": "32"})
    report = run(config)
    text = report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "name,computed,expected,tolerance,passed,provenance"
    assert len(lines) == len(report.checks) + 1
    target = tmp_path / "report.csv"
    emit(report, "csv", str(target))
    assert target.read_text(encoding="utf-8") == text


def test_out_flag_writes_the_report_and_surfaces_io_failures(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["summability", "--M", "16", "--out", str(target)]) == 0
    parsed = report_from_json(target.read_text(encoding="utf-8"))
    assert parsed.experiment == "summability"
    assert parsed.passed
    missing = tmp_path / "absent" / "report.json"
    assert main(["summability", "--M", "16", "--out", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_config_file_values_yield_to_flags(tmp_path, capsys):
    path = tmp_path / "experiments.cfg"
    path.write_text("[damp-sweep]\nL = 64\ns = 1.0,1.2\n", encoding="utf-8")
    assert main(["damp-sweep", "--config", str(path), "--L", "128"]) == 0
    assert "3/3 checks" in capsys.readouterr().out
