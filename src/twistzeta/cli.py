"""Command-line front end running named experiments and emitting reports.

Each subcommand validates its parameters against a schema, runs one
deterministic experiment, prints a line per check, and exits 0 exactly
when every check passed.  Parameters may come from a sectioned key-value
config file (one section per subcommand); flags override file values.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from twistzeta.ckalg import Monomial
from twistzeta.circle import build_dirac
from twistzeta.cochain import COUNTEREXAMPLE_FAMILIES, cochain_summands, counterexample_verdict
from twistzeta.cochain import free_group_dimension
from twistzeta.damp import (
    free_group_summability,
    sgnlog_transform,
    summability_scan,
    truncation_sweep,
)
from twistzeta.higher_order import order_sweep
from twistzeta.traces import (
    brute_force_heat_trace,
    closed_form_heat_trace,
    closed_form_toeplitz_trace,
    poles_and_laurent,
    single_variable,
)
from twistzeta.words import FreeGroup


class UsageError(ValueError):
    """Configuration rejected before or during an experiment."""


def _parse_int(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise UsageError(f"{value} is below the minimum {minimum}")
        return value

    return parse


def _parse_positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{text!r} is not a number") from None
    if not value > 0.0 or not math.isfinite(value):
        raise UsageError(f"{value!r} is not a positive finite number")
    return value


def _parse_unit_float(text: str, what: str = "position weight exponent") -> float:
    value = _parse_positive_float(text)
    if value > 1.0:
        raise UsageError(f"{what} {value!r} must lie in (0, 1]")
    return value


def _parse_positive_grid(text: str, parse_value=_parse_positive_float) -> list[float]:
    pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not pieces:
        raise UsageError("the grid must list at least one value")
    return [parse_value(piece) for piece in pieces]


def _parse_budget_grid(text: str) -> list[float]:
    return _parse_positive_grid(text, lambda piece: _parse_unit_float(piece, "budget exponent"))


def _parse_name(text: str) -> str:
    token = text.strip()
    if not token or any(ch.isspace() for ch in token):
        raise UsageError(f"{text!r} is not a single name")
    return token


def _parse_family(text: str) -> str:
    token = text.strip()
    if token not in COUNTEREXAMPLE_FAMILIES:
        known = ", ".join(COUNTEREXAMPLE_FAMILIES)
        raise UsageError(f"unknown family {token!r}; known families: {known}")
    return token


def _parse_chain_text(text: str) -> str:
    token = text.strip()
    if not token:
        raise UsageError("the chain must name at least one stage")
    return token


@dataclass(frozen=True)
class _Field:
    name: str
    parse: Callable[[str], object]
    default: object
    help: str


@dataclass(frozen=True)
class Count:
    """One quantity an experiment's work grows with, its budget, and the
    refusal, naming the largest accepted input, of a value above it."""

    name: str
    value: float
    budget: float
    refusal: str


@dataclass(frozen=True)
class _Experiment:
    summary: str
    fields: tuple[_Field, ...]
    runner: Callable[[dict[str, object]], list["CheckRecord"]]
    cost: Callable[[Mapping[str, object]], tuple[Count, ...]] = lambda params: ()


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment invocation."""

    experiment: str
    parameters: Mapping[str, object]
    out_path: str | None = None
    out_format: str = "json"


@dataclass(frozen=True)
class CheckRecord:
    """One named comparison inside a report."""

    name: str
    computed: float | int | str
    expected: float | int | str
    tolerance: float | None
    passed: bool
    provenance: str


@dataclass(frozen=True)
class ExperimentReport:
    """Config echo plus per-check outcomes and the wall clock."""

    experiment: str
    parameters: Mapping[str, object]
    checks: tuple[CheckRecord, ...]
    wall_clock: float

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def build_config(
    experiment: str,
    file_values: Mapping[str, str] | None = None,
    flag_values: Mapping[str, str] | None = None,
    *,
    out_path: str | None = None,
    out_format: str = "json",
) -> ExperimentConfig:
    """Merge defaults, config-file values, and flags; flags win."""
    if experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise UsageError(f"unknown experiment {experiment!r}; known: {known}")
    schema = {field.name: field for field in EXPERIMENTS[experiment].fields}
    parameters = {name: field.default for name, field in schema.items()}
    for source in (file_values or {}, flag_values or {}):
        for key, raw in source.items():
            if key not in schema:
                known = ", ".join(schema)
                raise UsageError(
                    f"unknown parameter {key!r} for {experiment}; known: {known}"
                )
            try:
                parameters[key] = schema[key].parse(raw)
            except UsageError as err:
                raise UsageError(f"parameter {key!r} for {experiment}: {err}") from None
    if out_format not in ("json", "csv"):
        raise UsageError(f"unknown report format {out_format!r}; known: json, csv")
    return ExperimentConfig(experiment, parameters, out_path, out_format)


def read_config_section(path: str, experiment: str) -> dict[str, str]:
    """Key-value pairs of the experiment's section, empty when absent."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        loaded = parser.read(path)
    except configparser.Error as err:
        raise UsageError(f"config file {path}: {err}") from None
    if not loaded:
        raise UsageError(f"config file {path} cannot be read")
    if not parser.has_section(experiment):
        return {}
    return dict(parser.items(experiment))


def run(config: ExperimentConfig) -> ExperimentReport:
    """Refuse the config if a declared count passes its budget, else run it."""
    experiment = EXPERIMENTS[config.experiment]
    for count in experiment.cost(config.parameters):
        if count.value > count.budget:
            raise UsageError(count.refusal)
    start = time.perf_counter()
    checks = tuple(experiment.runner(dict(config.parameters)))
    elapsed = time.perf_counter() - start
    return ExperimentReport(config.experiment, dict(config.parameters), checks, elapsed)


def _report_payload(report: ExperimentReport) -> dict[str, object]:
    return {
        "experiment": report.experiment,
        "parameters": dict(report.parameters),
        "checks": [dict(vars(check)) for check in report.checks],
        "passed": report.passed,
        "wall_clock": report.wall_clock,
    }


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(_report_payload(report), indent=2) + "\n"


def report_from_json(text: str) -> ExperimentReport:
    payload = json.loads(text)
    checks = tuple(CheckRecord(**entry) for entry in payload["checks"])
    return ExperimentReport(
        payload["experiment"], payload["parameters"], checks, payload["wall_clock"]
    )


def _cell(value: float | int | str) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report_to_csv(report: ExperimentReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "computed", "expected", "tolerance", "passed", "provenance"])
    for check in report.checks:
        writer.writerow(
            [
                check.name,
                _cell(check.computed),
                _cell(check.expected),
                "" if check.tolerance is None else _cell(check.tolerance),
                "true" if check.passed else "false",
                check.provenance,
            ]
        )
    return buffer.getvalue()


def emit(report: ExperimentReport, out_format: str, path: str) -> None:
    """Write the report to a file in the requested format."""
    text = report_to_json(report) if out_format == "json" else report_to_csv(report)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError(f"cannot write report to {path}: {err}") from None


def parse_chain(text: str, model: FreeGroup) -> list[Monomial]:
    """Colon-separated stages, each a dot-separated monomial.

    A stage without any ``*`` token is the cylinder projection of its
    word.  A stage containing ``*`` tokens is explicit: plain names
    prepend, names suffixed with ``*`` strip and must come last, and a
    lone ``*`` marks an explicitly empty stripping word, so ``a1.*`` is
    the bare prepending isometry.  ``e`` is the unit stage.
    """
    stages = []
    for stage_text in text.split(":"):
        stage_text = stage_text.strip()
        if stage_text in ("", "e"):
            stages.append(Monomial((), ()))
            continue
        out_letters: list[int] = []
        in_letters: list[int] = []
        explicit = False
        for token in stage_text.split("."):
            token = token.strip()
            if token == "*":
                if explicit:
                    raise UsageError(
                        f"chain stage {stage_text!r} repeats the empty-word marker"
                    )
                explicit = True
                continue
            starred = token.endswith("*")
            name = token[:-1] if starred else token
            try:
                letter = model.letter_index(name)
            except ValueError as err:
                raise UsageError(f"chain stage {stage_text!r}: {err}") from None
            if starred:
                explicit = True
                in_letters.append(letter)
            elif explicit:
                raise UsageError(
                    f"chain stage {stage_text!r} lists a plain letter after a "
                    "starred one; write plain letters first"
                )
            else:
                out_letters.append(letter)
        if not explicit:
            in_letters = list(out_letters)
        try:
            stages.append(Monomial(tuple(out_letters), tuple(in_letters)))
        except ValueError as err:
            raise UsageError(f"chain stage {stage_text!r}: {err}") from None
    return stages


def _free_group_setup(params: Mapping[str, object]) -> tuple[FreeGroup, int]:
    model = FreeGroup(int(params["d"]))
    try:
        anchor = model.letter_index(str(params["t"]))
    except ValueError as err:
        raise UsageError(str(err)) from None
    return model, anchor


def _run_heat_oracle(params: dict[str, object]) -> list[CheckRecord]:
    model, anchor = _free_group_setup(params)
    chain = parse_chain(str(params["chain"]), model)
    closed = closed_form_heat_trace(chain, anchor, model)
    checks = []
    for s in params["s"]:
        grid = [float(s)] * len(chain)
        name = f"closed form matches the windowed oracle at s={s:g}"
        try:
            oracle = brute_force_heat_trace(chain, anchor, model, grid, int(params["L"]))
            exact = closed.evaluate(grid).real
        except ValueError as err:
            checks.append(
                CheckRecord(name, f"refused: {err}", 0.0, None, False, "oracle-comparison")
            )
            continue
        scale = max(abs(exact), abs(oracle.value), 1e-300)
        deviation = abs(exact - oracle.value) / scale
        allowed = max(1e-8, oracle.tail_bound / scale)
        checks.append(
            CheckRecord(name, deviation, 0.0, allowed, deviation <= allowed, "oracle-comparison")
        )
    return checks


def _pole_points(poles, branching: int) -> list[str]:
    rendered = {"0": "0", "log(2d-1)": f"log({branching})"}
    return sorted({rendered[pole.base_label] for pole in poles})


def _run_pole_audit(params: dict[str, object]) -> list[CheckRecord]:
    model, anchor = _free_group_setup(params)
    branching = 2 * int(params["d"]) - 1
    chain = parse_chain(str(params["chain"]), model)
    checks = []

    heat_poles = poles_and_laurent(single_variable(closed_form_heat_trace(chain, anchor, model)))
    points = ", ".join(_pole_points(heat_poles, branching)) or "none"
    checks.append(
        CheckRecord(
            "heat pole base points",
            points,
            f"within {{0, log({branching})}}",
            None,
            all(p.base_label in ("0", "log(2d-1)") for p in heat_poles),
            "exact-symbolic",
        )
    )
    deepest = max((pole.order for pole in heat_poles), default=0)
    checks.append(
        CheckRecord("heat pole orders", deepest, "at most 2", None, deepest <= 2, "exact-symbolic")
    )
    doubled = sorted(
        {f"log({branching})" if p.base_label != "0" else "0" for p in heat_poles if p.order >= 2}
    )
    checks.append(
        CheckRecord(
            "heat double poles confined to the branch point",
            ", ".join(doubled) or "none",
            f"log({branching}) only",
            None,
            all(p.base_label == "log(2d-1)" for p in heat_poles if p.order >= 2),
            "exact-symbolic",
        )
    )

    word_poles = poles_and_laurent(
        single_variable(closed_form_toeplitz_trace(chain, anchor, model))
    )
    points = ", ".join(_pole_points(word_poles, branching)) or "none"
    deepest = max((pole.order for pole in word_poles), default=0)
    checks.append(
        CheckRecord(
            "word-basis poles confined to the branch point",
            points,
            f"log({branching}) only",
            None,
            all(p.base_label == "log(2d-1)" for p in word_poles),
            "exact-symbolic",
        )
    )
    checks.append(
        CheckRecord(
            "word-basis pole orders", deepest, "at most 1", None, deepest <= 1, "exact-symbolic"
        )
    )
    return checks


def _run_counterexample(params: dict[str, object]) -> list[CheckRecord]:
    family = str(params["family"])
    if family == "free_group":
        _free_group_setup(params)
        verdict = counterexample_verdict(
            family,
            generators=int(params["d"]),
            anchor_letter=str(params["t"]),
            max_mode=int(params["M"]),
            source_length=int(params["L"]),
        )
    else:
        verdict = counterexample_verdict(family, max_mode=int(params["M"]))
    checks = [
        CheckRecord(
            f"index pairing by {record.method}",
            record.value,
            verdict.pairing,
            None,
            record.value == verdict.pairing,
            "exact-formula" if record.exact else "windowed-measurement",
        )
        for record in verdict.checks
    ]
    checks.append(
        CheckRecord(
            "index pairing is nonzero",
            verdict.pairing,
            "nonzero",
            None,
            verdict.pairing != 0,
            "exact-formula",
        )
    )
    for report in verdict.cochains:
        checks.append(
            CheckRecord(
                f"residue cochain of arity {report.arity} vanishes exactly",
                report.value,
                0.0,
                None,
                report.exact_zero,
                "entire-certificate",
            )
        )
        checks.append(
            CheckRecord(
                f"arity {report.arity} summand certificates",
                "; ".join(report.certificates) or "none",
                "entire on every summand",
                None,
                report.exact_zero and bool(report.certificates),
                "entire-certificate",
            )
        )
    return checks


def _run_damp_sweep(params: dict[str, object]) -> list[CheckRecord]:
    model, anchor = _free_group_setup(params)
    sweep = truncation_sweep(int(params["L"]))
    grid = [float(s) for s in params["s"]]
    try:
        report = free_group_summability(model, anchor, grid, sweep)
    except ValueError as err:
        raise UsageError(str(err)) from None
    threshold = math.log(2 * int(params["d"]) - 1)
    checks = []
    for s, verdict in zip(report.exponents, report.verdicts):
        expected = "diverging" if s <= threshold else "converged"
        checks.append(
            CheckRecord(
                f"heat series verdict at s={s:g}",
                verdict,
                expected,
                None,
                verdict == expected,
                "derived-threshold",
            )
        )
    name = "abscissa crossing brackets the branching rate"
    if report.bracket is None:
        checks.append(CheckRecord(name, "none", threshold, None, False, "derived-threshold"))
    else:
        diverging, converged = report.bracket
        half_gap = (converged - diverging) / 2.0
        deviation = abs(report.crossing - threshold)
        checks.append(
            CheckRecord(
                name,
                report.crossing,
                threshold,
                half_gap,
                deviation <= half_gap,
                "derived-threshold",
            )
        )
    return checks


def _run_pv_order(params: dict[str, object]) -> list[CheckRecord]:
    power = float(params["s"])
    stages = _lattice_stages(int(params["L"]))
    checks = []
    lanes = (
        ("translation", 1.0 / (1.0 + power), "windowed-measurement"),
        ("symbol", power / (1.0 + power), "derived-bound"),
    )
    for lane, threshold, provenance in lanes:
        reports = order_sweep(
            power, lane, params["eps"], stages, max_mode=int(params["M"])
        )
        for report in reports:
            expected = "plateau" if report.epsilon <= threshold + 1e-9 else "growing"
            checks.append(
                CheckRecord(
                    f"{lane} commutator at eps={report.epsilon:g}",
                    report.verdict,
                    expected,
                    None,
                    report.verdict == expected,
                    provenance,
                )
            )
    return checks


def _run_summability(params: dict[str, object]) -> list[CheckRecord]:
    window = int(params["M"])
    diagonal = build_dirac(window)
    magnitudes = np.abs(diagonal)
    logged = np.abs(sgnlog_transform(diagonal))
    checks = []
    for s in params["s"]:
        heat = np.exp(-float(s) * logged)
        power = (1.0 + magnitudes) ** (-float(s))
        worst = float(np.max(np.abs(heat - power) / power))
        checks.append(
            CheckRecord(
                f"dampened heat weight equals the shifted power weight at s={s:g}",
                worst,
                0.0,
                1e-12,
                worst <= 1e-12,
                "term-identity",
            )
        )
    grid = [float(s) for s in params["s"]]
    scan = summability_scan(diagonal, grid, truncation_sweep(window))
    for s, verdict in zip(scan.exponents, scan.verdicts):
        checks.append(
            CheckRecord(
                f"exponentiated dampening remains summable at p={s:g}",
                verdict,
                "converged",
                None,
                verdict == "converged",
                "derived-threshold",
            )
        )
    return checks


# Representative heads of the free-group counterexample's kernel window,
# 2L + 1 at every d, and the summands of its two cochains, which grow like
# (log d)^4 and hold all the rest of its work.  Measured by
# tools/scale_curve.py, target index (BENCH_28.json), on one core: L=499,999
# takes 0.04 s and 60 MB at d=2, d=10^9 0.14 s, and the largest accepted d,
# 78,996 summands, 0.37 s and 55 MB (the first refused one 0.48 s, 62 MB).
FREE_GROUP_VERTEX_BUDGET = 1_000_000
FREE_GROUP_SUMMAND_BUDGET = 100_000


def _free_group_cost(generators: int, length: int) -> tuple[Count, ...]:
    """Both counts are exact integers.  The largest accepted d is the last
    with 2d - 1 <= e^D at the last dimension proxy D whose summands fit."""
    vertices, summands = 2 * length + 1, cochain_summands(free_group_dimension(generators))
    dimension = 2
    while cochain_summands(dimension + 1) <= FREE_GROUP_SUMMAND_BUDGET:
        dimension += 1
    window = (
        f"the free-group counterexample at L={length} visits {vertices} vertices, above "
        f"the budget of {FREE_GROUP_VERTEX_BUDGET}; the largest window accepted is "
        f"L={(FREE_GROUP_VERTEX_BUDGET - 1) // 2}"
    )
    assembly = (
        f"the free-group counterexample at d={generators} assembles {summands} cochain "
        f"summands, above the budget of {FREE_GROUP_SUMMAND_BUDGET}; the largest d "
        f"accepted is {int((math.exp(dimension) + 1) / 2)}"
    )
    return (
        Count("vertices", vertices, FREE_GROUP_VERTEX_BUDGET, window),
        Count("summands", summands, FREE_GROUP_SUMMAND_BUDGET, assembly),
    )


# Mode radius of the circle counterexamples.  Measured by tools/scale_curve.py,
# target counterexample (BENCH_30.json): the Moebius one takes 0.08 s and
# 164 MB at M=2048; its memory, the dense (2M+1)^2 window matrix, grows like
# M^2 (M=1024: 72 MB, M=2560: 240 MB).  The free-group counterexample peaks at 60 MB at its largest
# window and 55 MB at its largest d (BENCH_28.json).
CIRCLE_MODE_BUDGET = 2048


def _counterexample_cost(params: Mapping[str, object]) -> tuple[Count, ...]:
    family, max_mode = str(params["family"]), int(params["M"])
    if family == "free_group":
        return _free_group_cost(int(params["d"]), int(params["L"]))
    refusal = (
        f"the {family} window at M={max_mode} is above the mode budget; "
        f"the largest window accepted is M={CIRCLE_MODE_BUDGET}"
    )
    return (Count("radius", max_mode, CIRCLE_MODE_BUDGET, refusal),)


# Word-length steps of the windowed heat sums, one per escape depth of one
# window: per exponent, L for heat-oracle and under 2L for damp-sweep's sweep
# L/16, L/8, ..., L.  The escape counts of a step have about L log(2d-1)
# digits, so a step weighs log(2d-1)/log 3, exactly 1 at d=2.  Measured by
# tools/scale_curve.py, target window (BENCH_22.json), on one core: the
# budget is heat-oracle's default grid of three exponents at L=8192, 0.25 s
# and 36 MB at d=2, whose exponents read one stream of escape counts;
# damp-sweep's two at L=8192 take 0.15 s.  The counts grow with L, so one
# exponent at the budget's L=24576 takes about 1.6 s (0.7 s of library time
# in BENCH_23.json).  The largest weighted L, 5591 for heat-oracle at d=3 and
# 2211 for one exponent at d=10^5, takes 0.11 s and 0.13 s of library time.
WINDOW_STEP_BUDGET = 24576


def _step_cost(experiment: str, per_exponent: int) -> Callable[..., tuple[Count, ...]]:
    def cost(params: Mapping[str, object]) -> tuple[Count, ...]:
        rate, length = per_exponent * len(params["s"]), int(params["L"])
        # Exact in the float weight, so that no L, however long, overflows.
        weight = Fraction(math.log(2 * int(params["d"]) - 1) / math.log(3))
        steps = math.ceil(rate * length * weight)
        largest = WINDOW_STEP_BUDGET // (rate * weight)
        refusal = (
            f"the {experiment} windows at L={length} take about {steps} word-length "
            f"steps, above the budget of {WINDOW_STEP_BUDGET}; the largest L accepted on a "
            f"grid of {len(params['s'])} exponents is {largest or 'none'}"
        )
        return (Count("steps", steps, WINDOW_STEP_BUDGET, refusal),)

    return cost


# Lattice sites of pv-order's deepest stage.  Both lanes evaluate every site
# of it as float arrays, one epsilon at a time, so memory grows with the
# sites alone.  Measured by tools/scale_curve.py, target pv-sites
# (BENCH_30.json), on one core at the default two epsilons: a deepest stage
# of 2^22 (every L up to 2^23 - 1) takes 0.76 s and 260 MB; 2^23 takes 1.3 s
# and 484 MB.
LATTICE_SITE_BUDGET = 5_000_000

# Entries of the (2M+1)^2 window whose dense SVD gives pv-order's symbol
# lane its step norm.  Measured by tools/scale_curve.py, target pv-modes
# (BENCH_30.json), on one core: M=1024 takes 3.0 s and 136 MB; M=1280 takes
# 6.4 s and 193 MB.
PV_WINDOW_BUDGET = 4_200_000

# Modes 2M+1 of the summability window, held as a few float arrays.
# Measured by tools/scale_curve.py, target summability (BENCH_16.json): the
# largest accepted M, 2,099,999, takes 0.42 s and 320 MB; M=2,499,999 takes
# 0.72 s and 374 MB.
SUMMABILITY_MODE_BUDGET = 4_200_000


def _lattice_stages(length: int) -> list[int]:
    """pv-order's doubling sweep 8, 16, ... up to L."""
    return [8 << k for k in range((length // 8).bit_length())]


def _pv_cost(params: Mapping[str, object]) -> tuple[Count, ...]:
    """The deepest stage 8 * 2^k <= L has the 8 * 2^k + 1 lattice sites n
    with |n| <= 4 * 2^k; the symbol lane's window has (2M+1)^2 entries."""
    length, max_mode = int(params["L"]), int(params["M"])
    sites, entries = _lattice_stages(length)[-1] + 1, (2 * max_mode + 1) ** 2
    deepest = _lattice_stages(LATTICE_SITE_BUDGET - 1)[-1]
    site_refusal = (
        f"the pv-order sweep at L={length} evaluates {sites} lattice sites per lane "
        f"and epsilon, above the budget of {LATTICE_SITE_BUDGET}; the largest L "
        f"accepted is {2 * deepest - 1}"
    )
    entry_refusal = (
        f"the pv-order symbol lane at M={max_mode} takes the SVD of {entries} window "
        f"entries, above the budget of {PV_WINDOW_BUDGET}; the largest M accepted is "
        f"{(math.isqrt(PV_WINDOW_BUDGET) - 1) // 2}"
    )
    return (
        Count("sites", sites, LATTICE_SITE_BUDGET, site_refusal),
        Count("entries", entries, PV_WINDOW_BUDGET, entry_refusal),
    )


def _summability_cost(params: Mapping[str, object]) -> tuple[Count, ...]:
    max_mode = int(params["M"])
    refusal = (
        f"the summability window at M={max_mode} holds {2 * max_mode + 1} modes, above "
        f"the budget of {SUMMABILITY_MODE_BUDGET}; the largest M accepted is "
        f"{(SUMMABILITY_MODE_BUDGET - 1) // 2}"
    )
    return (Count("modes", 2 * max_mode + 1, SUMMABILITY_MODE_BUDGET, refusal),)


_GROUP_FIELDS = (
    _Field("d", _parse_int(2), 2, "free generators of the group"),
    _Field("t", _parse_name, "a1", "letter whose infinite repetition anchors the boundary"),
)

EXPERIMENTS: dict[str, _Experiment] = {
    "heat-oracle": _Experiment(
        "closed-form heat traces against the windowed oracle",
        _GROUP_FIELDS
        + (
            _Field("chain", _parse_chain_text, "a1", "colon-separated monomial stages"),
            _Field("s", _parse_positive_grid, [2.5, 3.0, 3.5], "heat parameters, comma-separated"),
            _Field("L", _parse_int(1), 16, "word-length truncation of the oracle"),
        ),
        _run_heat_oracle,
        _step_cost("heat-oracle", 1),
    ),
    "pole-audit": _Experiment(
        "exact pole sets of the heat and word-basis traces",
        _GROUP_FIELDS
        + (_Field("chain", _parse_chain_text, "a1:a1", "colon-separated monomial stages"),),
        _run_pole_audit,
    ),
    "counterexample": _Experiment(
        "index pairing against the vanishing residue cochains",
        (
            _Field("family", _parse_family, "free_group", "free_group, circle, or moebius"),
        )
        + _GROUP_FIELDS
        + (
            _Field("M", _parse_int(8), 128, "mode window for the circle families"),
            _Field("L", _parse_int(1), 9, "source word length of the kernel window"),
        ),
        _run_counterexample,
        _counterexample_cost,
    ),
    "damp-sweep": _Experiment(
        "heat-series convergence bracketing of the branching rate",
        _GROUP_FIELDS
        + (
            _Field("s", _parse_positive_grid, [1.0, 1.2], "heat exponents, comma-separated"),
            _Field("L", _parse_int(16), 128, "deepest truncation of the five-stage sweep"),
        ),
        _run_damp_sweep,
        _step_cost("damp-sweep", 2),
    ),
    "pv-order": _Experiment(
        "weighted commutator growth across epsilon budgets",
        (
            _Field("s", _parse_unit_float, 1.0, "position weight exponent in (0, 1]"),
            _Field("eps", _parse_budget_grid, [0.4, 0.7], "epsilon budgets, comma-separated"),
            # At M=1 the window holds only the modes -1..1, where D_log
            # vanishes, so both constants of the symbol lane are zero and its
            # eps=0.7 verdict fails; every M from 2 to 64 passes all four
            # default verdicts (BENCH_16.json).
            _Field("M", _parse_int(2), 64, "mode window for the symbol lane"),
            _Field("L", _parse_int(32), 512, "deepest lattice radius of the doubling sweep"),
        ),
        _run_pv_order,
        _pv_cost,
    ),
    "summability": _Experiment(
        "dampened and exponentiated weights on the mode window",
        (
            _Field("s", _parse_positive_grid, [0.5, 1.0, 2.0], "exponents, comma-separated"),
            _Field("M", _parse_int(16), 256, "mode window radius"),
        ),
        _run_summability,
        _summability_cost,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistzeta",
        description="Run one named experiment and report per-check verdicts.",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        piece = subparsers.add_parser(name, help=experiment.summary)
        piece.add_argument(
            "--config", metavar="PATH", help="sectioned key-value file; flags override it"
        )
        for field in experiment.fields:
            piece.add_argument(
                f"--{field.name}",
                metavar="VALUE",
                help=f"{field.help} (default {field.default})",
            )
        piece.add_argument("--out", metavar="PATH", help="write the report to this path")
        piece.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="report format for --out",
        )
    return parser


def _check_line(check: CheckRecord) -> str:
    verdict = "PASS" if check.passed else "FAIL"

    def compact(value: float | int | str) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    tail = "" if check.tolerance is None else f" (tolerance {check.tolerance:.3g})"
    return (
        f"{verdict} {check.name}: computed {compact(check.computed)}, "
        f"expected {compact(check.expected)}{tail}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    space = parser.parse_args(argv)
    try:
        file_values = (
            read_config_section(space.config, space.experiment) if space.config else {}
        )
        flag_values = {
            field.name: value
            for field in EXPERIMENTS[space.experiment].fields
            if (value := getattr(space, field.name)) is not None
        }
        config = build_config(
            space.experiment,
            file_values,
            flag_values,
            out_path=space.out,
            out_format=space.format,
        )
        report = run(config)
    except UsageError as err:
        print(f"twistzeta: {err}", file=sys.stderr)
        return 2
    for check in report.checks:
        print(_check_line(check))
    tally = sum(1 for check in report.checks if check.passed)
    overall = "PASS" if report.passed else "FAIL"
    print(
        f"{overall} {report.experiment}: {tally}/{len(report.checks)} checks "
        f"passed in {report.wall_clock:.2f}s"
    )
    if config.out_path is not None:
        try:
            emit(report, config.out_format, config.out_path)
        except UsageError as err:
            print(f"twistzeta: {err}", file=sys.stderr)
            return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
