"""Negative controls as a checked-in table: mutants of the program that
named tests must kill.

Usage, from the root of a checkout::

    python3 tools/mutants.py
    python3 tools/mutants.py --rows kernel-clip-off-by-one,run-skips-the-cost-check

Each row of ``MUTANTS`` gives a file, the exact old text, which must occur
in that file exactly once, the new text, and the test node ids that must
fail.  Every selected row is checked before any of them runs: a row whose
old text is missing or repeated is stale, and a row whose tests do not all
pass on an unmutated copy of the tree, run once for every selected row,
could be killed by a test that was already broken.  The tool refuses
either with exit code 2, never a pass.  Each row then runs on a temporary
copy of the tree with its mutant applied.  Tests always run in a fresh
interpreter with one BLAS thread and no bytecode written, and the row is
killed when every named test fails.  A row that survives or passes its
time limit is not killed.  One line per row gives the outcome and the
seconds taken; the last line of standard output is one JSON object with
every row and the total seconds.  The exit code is 0 when every row is
killed, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The parts of the tree a mutant's tests read.
COPIED = ("src", "tests", "tools")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds a row's tests may take; a mutant that hangs them is not killed.
ROW_TIMEOUT = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "kernel-clip-off-by-one",
        "src/twistzeta/cochain.py",
        "np.clip(landed - shifted, 0,",
        "np.clip(landed - shifted - 1, 0,",
        (
            "tests/test_cochain.py::test_compressed_kernel_dimension_sees_the_missing_basis_vector",
            "tests/test_cochain.py::test_compressed_kernel_dimension_matches_the_boundary_oracle",
        ),
    ),
    Mutant(
        "kernel-empty-head-counted-twice",
        "src/twistzeta/cochain.py",
        "(0, lengths[:1], lambda n: 1),",
        "(0, lengths[:1], lambda n: 2),",
        (
            "tests/test_cochain.py::test_compressed_kernel_dimension_sees_the_missing_basis_vector",
            "tests/test_cochain.py::test_windows_past_the_old_key_range_give_the_kernel_indicator",
        ),
    ),
    Mutant(
        "one-letter-head-counted-in-any-class",
        "src/twistzeta/cochain.py",
        "return int(first >= 2)",
        "return 1",
        ("tests/test_cochain.py::test_head_counts_by_first_letter_match_the_enumerated_heads",),
    ),
    Mutant(
        "translate-without-empty-head-absorption",
        "src/twistzeta/cochain.py",
        "grow = ~strip & ~(empty & (letter == 0))",
        "grow = ~strip",
        (
            "tests/test_cochain.py::test_translation_step_matches_both_oracles",
            "tests/test_cochain.py::test_cochain_word_trace_is_the_rank_one_projection_value",
        ),
    ),
    Mutant(
        "relabel-without-parity",
        "src/twistzeta/words.py",
        "2 * pairs.index(letter >> 1) | (letter ^ anchor) & 1",
        "2 * pairs.index(letter >> 1)",
        (
            "tests/test_cochain.py::test_compressed_kernel_dimension_sees_the_missing_basis_vector",
            "tests/test_cochain.py::test_word_trace_matches_the_per_letter_walk",
        ),
    ),
    Mutant(
        "word-trace-without-sign-flip",
        "src/twistzeta/cochain.py",
        "        coeff *= moved - now\n",
        "",
        ("tests/test_cochain.py::test_cochain_word_trace_is_the_rank_one_projection_value",),
    ),
    Mutant(
        "settled-eigenvalue-without-reflection",
        "src/twistzeta/words.py",
        "value = np.maximum(np.maximum(offset, depth), depth - 2 * offset)",
        "value = np.maximum(offset, depth)",
        ("tests/test_words.py::test_settled_eigenvalue_matches_sync_composition",),
    ),
    Mutant(
        "transfer-step-keeps-the-shared-count",
        "src/twistzeta/words.py",
        "others = rest * total - others",
        "others = rest * total",
        ("tests/test_words.py::test_free_group_step_matches_the_predecessor_lists",),
    ),
    Mutant(
        "slice-keeps-the-first-coordinate",
        "src/twistzeta/traces.py",
        "key = vector[-1:]",
        "key = vector[:1]",
        (
            "tests/test_traces.py::test_single_variable_two_stage_slice_matches_direct",
            "tests/test_traces.py::test_single_variable_keeps_the_last_coordinate",
        ),
    ),
    Mutant(
        "pole-lift-drops-the-sign",
        "src/twistzeta/traces.py",
        "lift = alpha ** abs(v)",
        "lift = abs(alpha) ** abs(v)",
        (
            "tests/test_traces.py::test_rank_two_pole_data_as_computed",
            "tests/test_traces.py::test_pole_extraction_reads_negative_exponents_as_the_oracle_does",
        ),
    ),
    Mutant(
        "pole-parity-ignores-the-sign",
        "src/twistzeta/traces.py",
        'parity = "odd" if alpha < 0 else "even"',
        'parity = "even"',
        (
            "tests/test_traces.py::test_rank_two_pole_data_as_computed",
            "tests/test_traces.py::test_pole_extraction_matches_the_taylor_oracle_on_criterion_03",
        ),
    ),
    Mutant(
        "evaluate-drops-the-amplitude",
        "src/twistzeta/traces.py",
        "/ (1 - scale * branch) ** power",
        "/ (1 - branch) ** power",
        (
            "tests/test_traces.py::test_evaluate_divides_each_part_by_its_own_denominator",
            "tests/test_traces.py::test_first_generator_square_closed_form_against_oracles",
            "tests/test_traces.py::test_branch_double_pole_principal_part",
        ),
    ),
    Mutant(
        "family-check-admits-any-amplitude",
        "src/twistzeta/traces.py",
        "denom.power < 1 or denom.amplitude not in (1, -1, 2 * self.d - 1)",
        "denom.power < 1",
        ("tests/test_traces.py::test_denom_validation",),
    ),
    Mutant(
        "bracket-ends-swapped",
        "src/twistzeta/damp.py",
        "return below, above",
        "return above, below",
        (
            "tests/test_damp.py::test_free_group_scan_brackets_log_five_for_three_generators",
            "tests/test_cli.py::test_damp_sweep_brackets_the_rate_and_flags_unbracketed_grids",
        ),
    ),
    Mutant(
        "run-skips-the-cost-check",
        "src/twistzeta/cli.py",
        "for count in experiment.cost(config.parameters):",
        "for count in ():",
        ("tests/test_cli.py::test_run_refuses_an_over_budget_config_without_calling_its_runner",),
    ),
)


def mutated_text(row: Mutant, root: Path) -> str:
    """The row's file under ``root`` with the mutant applied; a stale row,
    whose old text is missing or repeated, raises ValueError."""
    text = (root / row.path).read_text()
    found = text.count(row.old)
    if found != 1:
        raise ValueError(f"stale row {row.name}: its old text occurs {found} times in {row.path}")
    return text.replace(row.old, row.new)


def run_tests(tests: tuple[str, ...], root: Path, row: Mutant | None) -> list[str] | None:
    """The report lines of ``tests`` run on a temporary copy of ``root``,
    with ``row``'s mutant applied unless it is None; None when the run
    passes its time limit."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in COPIED:
            shutil.copytree(root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        if row is not None:
            (copy / row.path).write_text(mutated_text(row, root))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        env.update(dict.fromkeys(BLAS_VARIABLES, "1"))
        argv = ["-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(
                [sys.executable, *argv],
                cwd=copy,
                env=env,
                capture_output=True,
                text=True,
                timeout=ROW_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return None
    return done.stdout.splitlines()


def _reports(test: str, outcome: str, lines: list[str]) -> bool:
    return any(line == f"{outcome} {test}" or line.startswith(f"{outcome} {test} - ") for line in lines)


def run_row(row: Mutant, root: Path) -> dict[str, object]:
    """Apply one mutant to a temporary copy of ``root`` and run its tests."""
    start = time.perf_counter()
    lines = run_tests(row.tests, root, row)
    if lines is None:
        outcome = "timed out"
    elif all(_reports(test, "FAILED", lines) for test in row.tests):
        outcome = "killed"
    else:
        outcome = "survived"
    return {"name": row.name, "outcome": outcome, "seconds": time.perf_counter() - start}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", help="comma-separated row names; every row by default")
    args = parser.parse_args(argv)
    rows = {row.name: row for row in MUTANTS}
    names = args.rows.split(",") if args.rows else list(rows)
    unknown = sorted(set(names) - set(rows))
    if unknown:
        parser.error(f"unknown rows {', '.join(unknown)}; known: {', '.join(rows)}")
    for name in names:
        try:
            mutated_text(rows[name], ROOT)
        except ValueError as err:
            print(f"mutants: {err}", file=sys.stderr)
            return 2
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(test for name in names for test in rows[name].tests))
    lines = run_tests(tests, ROOT, None) or []
    for name in names:
        broken = [test for test in rows[name].tests if not _reports(test, "PASSED", lines)]
        if broken:
            print(
                f"mutants: row {name} names tests that do not pass on the unmutated tree: "
                f"{', '.join(broken)}",
                file=sys.stderr,
            )
            return 2
    results = []
    for name in names:
        result = run_row(rows[name], ROOT)
        results.append(result)
        print(f"{result['outcome']} {name}: {result['seconds']:.1f} s", flush=True)
    total = time.perf_counter() - start
    print(json.dumps({"rows": results, "seconds": total}))
    return 0 if all(result["outcome"] == "killed" for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
