"""Acceptance gate: one verdict per shipped claim, at the stated tolerances.

Every test prints exactly one pass/fail line (collected again in the
terminal summary) and fails loudly when its claim does not hold, so the
suite doubles as the release checklist.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from test_circle import build_phase, mult_op

from twistzeta.ckalg import Monomial
from twistzeta.circle import (
    CrossedElement,
    MoebiusMap,
    TrigPoly,
    build_dirac,
    dirac_commutator,
    inner_block,
    log_dirac_commutator,
    numerical_rank,
    toeplitz_index,
    twisted_dirac_commutator,
)
from twistzeta.cochain import (
    circle_cochain,
    counterexample_verdict,
    free_group_cochain,
    multiindex_weight,
    rising_half_coeffs,
)
from twistzeta.damp import free_group_summability, sgnlog_transform
from twistzeta.higher_order import order_sweep
from twistzeta.operators import frac_power_integral_check
from twistzeta.traces import (
    brute_force_heat_trace,
    brute_force_toeplitz_trace,
    closed_form_heat_trace,
    closed_form_toeplitz_trace,
    poles_and_laurent,
    single_variable,
)
from twistzeta.words import FreeGroup

VERDICT_LINES: list[str] = []

_HEAT_GRID = (2.5, 3.0, 3.5)


def _verdict(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number:02d} {'PASS' if passed else 'FAIL'} - {detail}"
    VERDICT_LINES.append(line)
    print(line)
    if not passed:
        pytest.fail(line, pytrace=False)


def _sample_chains(model):
    first = model.letter_index("a1")
    flipped = model.letter_index("b1")
    second = model.letter_index("a2")
    unit = Monomial((), ())
    cylinders = (
        Monomial((first,), (first,)),
        Monomial((flipped,), (flipped,)),
        Monomial((second,), (second,)),
    )
    chains = [(unit,), *((stage,) for stage in cylinders)]
    chains.append((Monomial((first,), (flipped,)),))
    for left in (unit, *cylinders):
        for right in (unit, *cylinders):
            chains.append((left, right))
    return chains


def _oracle_margin(closed, oracle_result, grid):
    exact = closed.evaluate(grid).real
    scale = max(abs(exact), abs(oracle_result.value), 1e-300)
    deviation = abs(exact - oracle_result.value) / scale
    allowed = max(1e-8, oracle_result.tail_bound / scale)
    return deviation, allowed


def test_criterion_01_heat_trace_oracle_equivalence():
    start = time.perf_counter()
    comparisons = 0
    worst = 0.0
    for d in (2, 3):
        model = FreeGroup(d)
        first = model.letter_index("a1")
        for chain in _sample_chains(model):
            closed = closed_form_heat_trace(chain, first, model)
            for s in _HEAT_GRID:
                grid = [s] * len(chain)
                oracle = brute_force_heat_trace(chain, first, model, grid, 16)
                deviation, allowed = _oracle_margin(closed, oracle, grid)
                worst = max(worst, deviation / allowed)
                comparisons += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1.0 and elapsed < 30.0,
        f"closed heat trace vs oracle at L=16: {comparisons} comparisons, "
        f"worst deviation at {worst:.3g} of budget, {elapsed:.1f}s of 30s",
    )


def test_criterion_02_toeplitz_trace_oracle_equivalence():
    start = time.perf_counter()
    comparisons = 0
    worst = 0.0
    for d in (2, 3):
        model = FreeGroup(d)
        first = model.letter_index("a1")
        for chain in _sample_chains(model):
            closed = closed_form_toeplitz_trace(chain, first, model)
            for s in _HEAT_GRID:
                grid = [s] * len(chain)
                oracle = brute_force_toeplitz_trace(chain, first, model, grid, 32)
                exact = closed.evaluate(grid).real
                scale = max(abs(exact), abs(oracle.value), 1e-300)
                worst = max(worst, abs(exact - oracle.value) / scale)
                comparisons += 1
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst <= 1e-8 and elapsed < 30.0,
        f"word-basis trace vs oracle at L=32: {comparisons} comparisons, "
        f"worst relative deviation {worst:.3g} vs 1e-8, {elapsed:.1f}s of 30s",
    )


def test_criterion_03_pole_set_exactness():
    heat_bases_ok = True
    heat_orders_ok = True
    heat_double_ok = True
    word_location_ok = True
    word_orders_ok = True
    for d in (2, 3):
        model = FreeGroup(d)
        first = model.letter_index("a1")
        for chain in _sample_chains(model):
            heat = single_variable(closed_form_heat_trace(chain, first, model))
            for pole in poles_and_laurent(heat):
                heat_bases_ok &= pole.base_label in ("0", "log(2d-1)")
                heat_orders_ok &= pole.order <= 2
                if pole.order >= 2:
                    heat_double_ok &= pole.base_label == "log(2d-1)"
            word = single_variable(closed_form_toeplitz_trace(chain, first, model))
            for pole in poles_and_laurent(word):
                word_location_ok &= pole.base_label == "log(2d-1)"
                word_orders_ok &= pole.order <= 1
    held = {
        "heat bases in {0, log(2d-1)}": heat_bases_ok,
        "heat orders <= 2": heat_orders_ok,
        "heat double poles only at log(2d-1)": heat_double_ok,
        "word-basis poles only at log(2d-1)": word_location_ok,
        "word-basis orders <= 1": word_orders_ok,
    }
    failing = [name for name, ok in held.items() if not ok]
    _verdict(
        3,
        not failing,
        "exact pole audit over both families: "
        + (
            "all subclauses hold"
            if not failing
            else f"{len(held) - len(failing)}/{len(held)} subclauses hold; "
            f"false as computed: {'; '.join(failing)}"
        ),
    )


def test_criterion_04_free_group_counterexample():
    start = time.perf_counter()
    model = FreeGroup(2)
    first = model.letter_index("a1")
    anchor = counterexample_verdict("free_group", pairing_letter="a1", source_length=9)
    flipped = counterexample_verdict("free_group", pairing_letter="b1", source_length=9)
    pairing_ok = (
        anchor.pairing == -1
        and all(record.value == -1 for record in anchor.checks)
        and flipped.pairing == 1
        and all(record.value == 1 for record in flipped.checks)
    )
    cochains_ok = all(
        report.exact_zero and report.certificates
        for verdict in (anchor, flipped)
        for report in verdict.cochains
    )
    for name in ("a1", "b1", "a2", "b2"):
        a = model.letter_index(name)
        for arity, cutoff in ((1, 2), (3, 0)):
            letters = tuple(a ^ 1 if position % 2 == 0 else a for position in range(arity + 1))
            report = free_group_cochain(letters, first, model, cutoff=cutoff)
            cochains_ok &= report.exact_zero and bool(report.certificates)
    words = {
        (report.arity, summand.powers) for report in anchor.cochains for summand in report.summands
    }
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        pairing_ok and cochains_ok and len(words) == 4 and elapsed < 60.0,
        f"pairings -1/+1 with window cross-check at L=9: {pairing_ok}; "
        f"all generator cochains vanish with entire certificates: {cochains_ok}; "
        f"{elapsed:.1f}s of 60s",
    )


def test_criterion_05_circle_counterexample():
    start = time.perf_counter()
    coordinate = TrigPoly.coordinate()
    index_ok = toeplitz_index(coordinate, 128) == -1
    phase = build_phase(128)
    block = mult_op(coordinate, 128)
    bracket = phase[:, None] * block - block * phase[None, :]
    rank_ok = numerical_rank(bracket) == 1
    norm_gap = abs(float(np.linalg.norm(bracket, 2)) - 2.0)
    single = circle_cochain((coordinate.conjugate(), coordinate), cutoff=0)
    triple = circle_cochain(
        (coordinate.conjugate(), coordinate, coordinate.conjugate(), coordinate),
        cutoff=0,
    )
    vanish_ok = single.exact_zero and triple.exact_zero
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        index_ok and rank_ok and norm_gap <= 1e-10 and vanish_ok and elapsed < 20.0,
        f"toeplitz index -1 at M=128: {index_ok}; commutator rank 1 with norm gap "
        f"{norm_gap:.2g}; cochains vanish: {vanish_ok}; {elapsed:.1f}s of 20s",
    )


def test_criterion_06_moebius_counterexample():
    start = time.perf_counter()
    gamma = MoebiusMap.hyperbolic(1.0)
    element = CrossedElement.generator()
    plain = []
    twisted = []
    damped = []
    for max_mode in (64, 128, 256, 512):
        plain.append(
            float(np.linalg.norm(inner_block(dirac_commutator(element, gamma, max_mode)), 2))
        )
        twisted.append(
            float(
                np.linalg.norm(
                    inner_block(twisted_dirac_commutator(element, gamma, max_mode)), 2
                )
            )
        )
        damped.append(
            float(
                np.linalg.norm(
                    inner_block(log_dirac_commutator(element, gamma, max_mode)), 2
                )
            )
        )
    growth = plain[-1] / plain[0]
    twisted_spread = max(twisted) / min(twisted)
    damped_spread = max(damped) / min(damped)
    pairing = counterexample_verdict("moebius", max_mode=128)
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        growth >= 2.0
        and twisted_spread <= 1.1
        and damped_spread <= 1.1
        and pairing.pairing == -1
        and pairing.passed
        and elapsed < 120.0,
        f"plain commutator grows {growth:.2f}x over M=64..512 while twisted and "
        f"dampened spreads stay at {twisted_spread:.3f} and {damped_spread:.3f}; "
        f"crossed pairing {pairing.pairing}; {elapsed:.1f}s of 120s",
    )


def test_criterion_07_summability_equivalences():
    diagonal = build_dirac(256)
    logged = np.abs(sgnlog_transform(diagonal))
    magnitudes = np.abs(diagonal)
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        heat = np.exp(-s * logged)
        power = (1.0 + magnitudes) ** (-s)
        worst = max(worst, float(np.max(np.abs(heat - power) / power)))
    identity_ok = worst <= 1e-12
    model = FreeGroup(2)
    first = model.letter_index("a1")
    report = free_group_summability(model, first, (1.0, 1.2), (8, 16, 32, 64, 128))
    bracket_ok = (
        report.verdicts == ("diverging", "converged")
        and report.crossing is not None
        and abs(report.crossing - math.log(3.0)) <= 0.1
    )
    _verdict(
        7,
        identity_ok and bracket_ok,
        f"dampened heat weight equals the shifted power weight to {worst:.2g}; "
        f"divergence at s=1.0 and convergence at s=1.2 bracket log 3: {bracket_ok}",
    )


def test_criterion_08_higher_order_thresholds():
    stages = (8, 16, 32, 64, 128, 256, 512)
    symbol_one = order_sweep(1.0, "symbol", (0.4, 0.7), stages)
    translation_one = order_sweep(1.0, "translation", (0.4, 0.5), stages)
    symbol_half = order_sweep(0.5, "symbol", (0.25, 0.5), stages)
    outcomes = {
        "symbol s=1 eps=0.4": symbol_one[0].verdict == "plateau",
        "symbol s=1 eps=0.7": symbol_one[1].verdict == "growing",
        "translation s=1 eps=0.4": translation_one[0].verdict == "plateau",
        "translation s=1 eps=0.5": translation_one[1].verdict == "plateau",
        "symbol s=0.5 eps=0.25": symbol_half[0].verdict == "plateau",
        "symbol s=0.5 eps=0.5": symbol_half[1].verdict == "growing",
    }
    failing = [name for name, ok in outcomes.items() if not ok]
    _verdict(
        8,
        not failing,
        "commutator sweep verdicts match every stated threshold"
        if not failing
        else f"verdicts off at: {', '.join(failing)}",
    )


def test_criterion_09_fractional_power_integral():
    worst = 0.0
    for max_mode in (32, 64, 128):
        eigenvalues = [float(x) for x in build_dirac(max_mode)]
        for r in (0.25, 0.5, 0.75):
            worst = max(worst, frac_power_integral_check(eigenvalues, r))
    _verdict(
        9,
        worst <= 1e-6,
        f"fractional power integral deviation {worst:.2g} vs 1e-6 over r in "
        "{0.25, 0.5, 0.75} and windows to 128",
    )


def test_criterion_10_coefficient_combinatorics():
    factorial_ok = True
    for count in range(9):
        total = sum(
            coeff * Fraction(1, 2) ** power
            for power, coeff in enumerate(rising_half_coeffs(count))
        )
        factorial_ok &= total == math.factorial(count)

    def by_running_products(powers):
        value = Fraction(1)
        for entry in powers:
            value /= math.factorial(entry)
        running = 0
        for position, entry in enumerate(powers, start=1):
            running += entry
            value /= running + position
        return value

    def indices(length, budget):
        if length == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in indices(length - 1, budget - head):
                yield (head,) + rest

    weights_ok = all(
        multiindex_weight(powers) == by_running_products(powers)
        for length in (1, 2, 3)
        for powers in indices(length, 4)
    )
    _verdict(
        10,
        factorial_ok and weights_ok,
        f"half-shift coefficients recover factorials to n=8: {factorial_ok}; "
        f"multi-index weights match the factorial products to |k|=4: {weights_ok}",
    )
