"""Tests for the exact trace engine: partial fractions, closed-form
assembly, closed forms, oracles, shift slices, and pole extraction."""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_ckalg import (
    CKElement,
    CylinderSum,
    act_on_vertex,
    draw_word,
    monomial,
    netted_cylinder_census,
    product_diagonal,
    refine_diagonal,
    signed_diagonals,
)
from test_words import (
    T,
    enumerate_admissible,
    predecessor_transfer_counts,
    vertex_eigenvalue,
    word_key,
)

from test_acceptance import _sample_chains

from twistzeta import ckalg, traces
from twistzeta.ckalg import Monomial, _toeplitz_step, cylinder_census
from twistzeta.cli import build_config, parse_chain, run
from twistzeta.traces import (
    ENTIRE_DENOM,
    Denom,
    ExpSum,
    MeromorphicTrace,
    PoleDatum,
    _Accumulator,
    _canonical_chain,
    _canonical_heat_trace,
    _canonical_toeplitz_trace,
    _chain_summary,
    _escape_log_counts,
    _heat_partial_sum,
    _pair_split,
    _phi_series,
    _series_power,
    _signature_split,
    _summarize,
    _validate_oracle_inputs,
    _windowed_heat_value,
    brute_force_heat_trace,
    brute_force_toeplitz_trace,
    closed_form_heat_trace,
    closed_form_toeplitz_trace,
    poles_and_laurent,
    single_variable,
)
from twistzeta.words import (
    FreeGroup,
    Word,
    extension_species,
    settled_eigenvalue,
    settling_species,
    transfer_counts,
)

RANK_TWO = FreeGroup(2)
RANK_THREE = FreeGroup(3)
ANCHOR = 0


def oracle_escape_counts(model: FreeGroup, after: int, top: int, settling: bool) -> list[int]:
    """Exact escape counts, lengths 1..top, from the predecessor-list
    transfer rows: words following ``after`` whose last letter avoids the
    anchor's inverse, and for settling the anchor as well."""
    return [
        sum(row) - row[1] - (row[0] if settling else 0)
        for row in predecessor_transfer_counts(model, after, top)
    ]

FIRST_SQUARE = [Monomial((0,), (0,))]


# Independent oracles of the engine in twistzeta.traces: literal simulation
# of the closed forms, their term-by-term assembly, the term-by-term form of
# the window sums, and the word-by-word forms of the chain summary and of the
# short basis words.

def partial_fractions(factors: dict[int, int]) -> dict[Denom, Fraction]:
    """Decompose 1/prod (1-alpha E)^p into single powers, exactly, in the
    order the factors are listed; ``ENTIRE_DENOM`` stands for the constant
    1 (empty product)."""
    current = {ENTIRE_DENOM: Fraction(1)}
    for alpha, power in factors.items():
        for _ in range(power):
            updated: dict[Denom, Fraction] = {}

            def add(key: Denom, value: Fraction) -> None:
                if value:
                    updated[key] = updated.get(key, Fraction(0)) + value

            for key, coeff in current.items():
                if key == ENTIRE_DENOM:
                    add(Denom(alpha, 1), coeff)
                    continue
                beta, k = key
                if beta == alpha:
                    add(Denom(alpha, k + 1), coeff)
                    continue
                for split_key, split_coeff in _pair_split(beta, k, alpha).items():
                    add(split_key, coeff * split_coeff)
            current = updated
    return current


def taylor_pole_oracle(trace: MeromorphicTrace) -> list[PoleDatum]:
    """Pole classes of a single-variable trace from the Taylor data of each
    numerator at the denominator's root w_0: for every power, the
    coefficients sum coeff w_0^v (-v)^i / i! over the terms, times the
    reciprocal series of that power, rebuilt for each power.  Each class
    is listed with its root, label and parity.  Oracle of
    ``poles_and_laurent``, which reads integer moments from a per-order
    memo and derives each class from its amplitude."""
    branching = 2 * trace.d - 1
    classes = (
        (1, Fraction(1), "0", 0.0, "even"),
        (-1, Fraction(-1), "0", 0.0, "odd"),
        (branching, Fraction(1, branching), "log(2d-1)", math.log(branching), "even"),
    )
    found = []
    for amplitude, root, label, base_value, parity in classes:
        powers = {denom.power: num for denom, num in trace.parts if denom.amplitude == amplitude}
        if not powers:
            continue
        phi = _phi_series(max(powers))
        principal: dict[int, Fraction] = {}
        for power, numerator in powers.items():
            reciprocal = _series_power(phi, power, power - 1)
            taylor = [
                sum(
                    (
                        coeff * root**v * Fraction((-v) ** i, math.factorial(i))
                        for (v,), coeff in numerator.terms
                    ),
                    Fraction(0),
                )
                for i in range(power)
            ]
            for exponent in range(-power, 0):
                for i in range(power + exponent + 1):
                    step = taylor[i] * reciprocal[power + exponent - i]
                    principal[exponent] = principal.get(exponent, Fraction(0)) + step
        order = next((-e for e in sorted(principal) if principal[e]), 0)
        if order:
            principal_parts = tuple(principal.get(e, Fraction(0)) for e in range(-order, 0))
            found.append(PoleDatum(label, base_value, parity, order, principal_parts))
    return found


class TermwiseAccumulator:
    """Closed-form assembly one term at a time: every term is split into
    single powers by its own partial fractions and added to each power's
    numerator.  Oracle of ``_Accumulator``, which splits once per
    denominator signature."""

    def __init__(self, d: int, nvars: int) -> None:
        self.d = d
        self.nvars = nvars
        self.buckets: dict[Denom, dict] = {}

    def add_term(self, factors: dict[int, int], vector, coeff: Fraction) -> None:
        if not coeff:
            return
        key = tuple(vector)
        for denom, split_coeff in partial_fractions(factors).items():
            bucket = self.buckets.setdefault(denom, {})
            bucket[key] = bucket.get(key, Fraction(0)) + coeff * split_coeff

    def build(self) -> MeromorphicTrace:
        parts = {
            denom: ExpSum.from_terms(self.nvars, entries)
            for denom, entries in self.buckets.items()
        }
        return MeromorphicTrace.from_parts(self.d, self.nvars, parts)


def termwise_heat_trace(
    chain: Sequence[Monomial], anchor: int, model: FreeGroup
) -> MeromorphicTrace:
    """``closed_form_heat_trace`` assembled term by term: every species of
    every ending bucket adds its own escaping terms."""
    canonical = _canonical_chain(chain, anchor, model)
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return MeromorphicTrace.from_parts(model.generators, len(canonical), {})
    out = TermwiseAccumulator(model.generators, len(canonical))
    omegas, sigma_lengths = summary.omegas, summary.sigma_lengths
    for depths, weight in summary.settled_buckets:
        upper = max(t - w for t, w in zip(depths, omegas))
        lower = -max(omegas)
        out.add_term({1: 1}, tuple(w + upper for w in omegas), weight)
        for offset in range(lower, upper):
            vector = tuple(int(settled_eigenvalue(t, offset + w)) for t, w in zip(depths, omegas))
            out.add_term({}, vector, weight)
        out.add_term(
            {1: 1, -1: 1},
            tuple(t - 2 * w + 2 - 2 * lower for t, w in zip(depths, omegas)),
            weight,
        )
    shallow, deep = min(sigma_lengths), max(sigma_lengths)
    plateau = [
        tuple(max(sl, 2 * c - sl) for sl in sigma_lengths) for c in range(shallow + 1, deep + 1)
    ]
    one = Fraction(1)
    pieces = [
        ({1: 1}, [(sigma_lengths, one)]),
        ({}, [(sigma_lengths, Fraction(shallow))] + [(v, one) for v in plateau]),
        ({1: 1, -1: 1}, [(tuple(2 * deep + 2 - sl for sl in sigma_lengths), one)]),
    ]
    for last, weight in summary.ending_buckets:
        for coeff, alpha in settling_species(model, last):
            scale = weight * coeff * alpha
            out.add_term({alpha: 2}, tuple(sl + 1 for sl in sigma_lengths), scale)
            for extra, vectors in pieces:
                factors = dict(extra)
                factors[alpha] = factors.get(alpha, 0) + 1
                for vector, piece in vectors:
                    out.add_term(factors, tuple(x + 1 for x in vector), scale * piece)
    return out.build()


def termwise_toeplitz_trace(
    chain: Sequence[Monomial], anchor: int, model: FreeGroup
) -> MeromorphicTrace:
    """``closed_form_toeplitz_trace`` assembled term by term."""
    canonical = _canonical_chain(chain, anchor, model)
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return MeromorphicTrace.from_parts(model.generators, len(canonical), {})
    out = TermwiseAccumulator(model.generators, len(canonical))
    for vector, count in summary.short_vectors:
        out.add_term({}, vector, Fraction(count))
    bumped = tuple(sl + 1 for sl in summary.sigma_lengths)
    for last, weight in summary.ending_buckets:
        if last != 1:
            out.add_term({}, summary.sigma_lengths, weight)
        for coeff, amplitude in extension_species(model, last):
            out.add_term({amplitude: 1}, bumped, weight * coeff * amplitude)
    return out.build()


def literal_heat_trace(
    chain: Sequence[Monomial],
    anchor: int,
    model: FreeGroup,
    s: Sequence[float],
    truncation: int,
) -> float:
    """Same truncated trace by direct vertex-by-vertex simulation.

    Every vertex carried by a group word up to the truncation length is
    pushed through the interleaved product with the basis action; no
    cylinder structure is consulted.  Exponentially slow, but the ground
    truth the aggregated oracle is tested against.
    """
    canonical = _canonical_chain(chain, anchor, model)
    _validate_oracle_inputs(canonical, model, s, truncation)
    elements = [CKElement.of(pair) for pair in canonical]
    total = 0.0
    for length in range(truncation + 1):
        for word in enumerate_admissible(model, length):
            start = word_key(word, T, model)
            amplitudes = {start: 1.0}
            for j in range(len(canonical), 0, -1):
                weighted = {
                    vertex: amp * math.exp(-s[j - 1] * abs(vertex_eigenvalue(vertex)))
                    for vertex, amp in amplitudes.items()
                }
                amplitudes = {}
                for vertex, amp in weighted.items():
                    for target, coeff in act_on_vertex(
                        elements[j - 1], vertex, 0, model
                    ).items():
                        build = amplitudes.get(target, 0.0) + amp * float(coeff)
                        amplitudes[target] = build
            total += amplitudes.get(start, 0.0)
    return total


def literal_toeplitz_trace(
    chain: Sequence[Monomial],
    anchor: int,
    model: FreeGroup,
    s: Sequence[float],
    truncation: int,
) -> float:
    """Word-basis trace by direct simulation over all basis words."""
    canonical = _canonical_chain(chain, anchor, model)
    _validate_oracle_inputs(canonical, model, s, truncation)
    stages = len(canonical)
    total = 0.0
    for length in range(truncation + 1):
        for word in enumerate_admissible(model, length):
            if word and word[-1] == 1:
                continue
            current = word
            exponent = 0.0
            for j in range(stages, 0, -1):
                exponent += s[j - 1] * len(current)
                current = _toeplitz_step(current, canonical[j - 1], model)
                if current is None:
                    break
            if current == word:
                total += math.exp(-exponent)
    return total


def plain_eigenvalue(depth: int, offset: int) -> int:
    """The eigenvalue max(o, t, t - 2o) of settle depth t and offset o in
    plain ints: the oracle's own, not ``settled_eigenvalue``, which it checks."""
    return max(offset, depth, depth - 2 * offset)


def literal_window_sum(
    summary, model: FreeGroup, s: Sequence[float], truncation: int
) -> float:
    """Windowed heat sum term by term: every offset of every window, O(L^2).

    Independent oracle of the closed-form window sums in
    ``_windowed_heat_value``, with escape counts from the predecessor-list
    transfer matrix and eigenvalues from ``plain_eigenvalue``; the counts
    are converted to float, so it is only usable where they fit.
    """
    limit = truncation
    omegas = summary.omegas
    sigma_lengths = summary.sigma_lengths
    refined = summary.refined_length

    value = 0.0
    for depths, weight in summary.settled_buckets:
        terminal = depths[-1]
        partial = 0.0
        for offset in range(2 * terminal - limit, limit + 1):
            partial += math.exp(
                -sum(
                    sj * plain_eigenvalue(t, offset + w)
                    for sj, t, w in zip(s, depths, omegas)
                )
            )
        value += float(weight) * partial

    top = max(limit - refined, 0)
    for last, weight in summary.ending_buckets:
        if top >= 1:
            counts = [0] + oracle_escape_counts(model, last, top, settling=True)
            partial = 0.0
            for depth in range(1, top + 1):
                settle = refined + depth
                inner = 0.0
                for offset in range(2 * settle - limit, limit + 1):
                    inner += math.exp(
                        -sum(
                            sj * plain_eigenvalue(sl + depth, offset + w)
                            for sj, sl, w in zip(s, sigma_lengths, omegas)
                        )
                    )
                partial += counts[depth] * inner
            value += float(weight) * partial
    return value


def enumerated_summary(
    chain: tuple[Monomial, ...],
    model: FreeGroup,
    diagonal: list[tuple[Word, Fraction]],
):
    """Chain summary by walking every refined cylinder through the chain.

    The cylinders come from ``refine_diagonal``, which lists every
    extension of every diagonal word.  Ending weights are grouped by the
    class of the last letter: the anchor 0, its inverse 1, or any other
    letter, keyed by 2.
    """
    stages = len(chain)
    refined = sum(len(m.out_word) + len(m.in_word) for m in chain) + 2
    omegas = [0] * (stages + 1)
    for j in range(stages - 1, 0, -1):
        omegas[j] = omegas[j + 1] + len(chain[j].out_word) - len(chain[j].in_word)
    omega_tuple = tuple(omegas[1:])
    sigma_lengths = tuple(refined + w for w in omega_tuple)

    result = refine_diagonal(diagonal, model, refined)
    if not isinstance(result, CylinderSum):
        return (refined, omega_tuple, sigma_lengths, (), (), True)

    # Integer sums over the common denominator, divided once at the end.
    scale = math.lcm(*(weight.denominator for _, weight in result.cylinders))
    settled: dict[tuple[int, ...], int] = {}
    ending: dict[int, int] = {}
    for cylinder, fraction in result.cylinders:
        weight = fraction.numerator * (scale // fraction.denominator)
        assert len(cylinder) == refined
        sigma: dict[int, Word] = {stages: cylinder}
        for j in range(stages, 1, -1):
            pair = chain[j - 1]
            sigma[j - 1] = pair.out_word + sigma[j][len(pair.in_word) :]
        last = cylinder[-1]
        letter_class = min(last, 2)
        ending[letter_class] = ending.get(letter_class, 0) + weight
        if last != 1:
            depths = []
            for j in range(1, stages + 1):
                word = sigma[j]
                run = 0
                while run < len(word) and word[len(word) - 1 - run] == 0:
                    run += 1
                depths.append(len(word) - run)
            key = tuple(depths)
            settled[key] = settled.get(key, 0) + weight
    return (
        refined,
        omega_tuple,
        sigma_lengths,
        tuple(sorted((key, Fraction(total, scale)) for key, total in settled.items())),
        tuple(sorted((key, Fraction(total, scale)) for key, total in ending.items())),
        False,
    )


def literal_short_vectors(
    chain: tuple[Monomial, ...], model: FreeGroup, below: int
) -> list[tuple[int, ...]]:
    """Stage-length vectors of surviving diagonal basis words shorter than
    ``below``, one entry per word, by simulating every admissible word."""
    stages = len(chain)
    vectors = []
    for length in range(0, below):
        for word in enumerate_admissible(model, length):
            if word and word[-1] == 1:
                continue
            current = word
            lengths = [0] * stages
            for j in range(stages, 0, -1):
                lengths[j - 1] = len(current)
                current = _toeplitz_step(current, chain[j - 1], model)
                if current is None:
                    break
            if current == word:
                vectors.append(tuple(lengths))
    return vectors


def test_expsum_arithmetic_is_exact():
    entries = {(2, 2): Fraction(6), (1, 0): Fraction(1, 3) * 3, (0, 2): Fraction(0)}
    total = ExpSum.from_terms(2, entries)
    assert total.terms == (((1, 0), Fraction(1)), ((2, 2), Fraction(6)))
    assert dict(total.terms) == {(1, 0): Fraction(1), (2, 2): Fraction(6)}
    value = total.evaluate((0.5, 0.25))
    assert value.real == pytest.approx(
        math.exp(-0.5) + 6 * math.exp(-1 - 2 * 0.25), rel=1e-14
    )


def test_expsum_joins_terms_past_the_float_range_in_log_space():
    """A coefficient or exponential beyond float range alone still gives its
    term's value; a term beyond float range itself is refused."""
    huge = ExpSum.from_terms(1, {(1,): Fraction(-(10**400), 7), (-1,): Fraction(1, 3 * 10**469)})
    value = huge.evaluate((1000.0,))
    expected = -math.exp(400 * math.log(10) - math.log(7) - 1000) + math.exp(
        1000 - 469 * math.log(10) - math.log(3)
    )
    assert value.real == pytest.approx(expected, rel=1e-12)
    assert value.imag == 0
    with pytest.raises(ValueError, match="closed-form term exceeds the float range"):
        huge.evaluate((1.0,))


def test_expsum_rejects_ragged_vectors():
    with pytest.raises(ValueError):
        ExpSum(2, (((1,), Fraction(1)),))


def test_denom_validation():
    """A trace keeps the entire part (0, 0) and the amplitudes 1, -1 and
    2d-1 to positive powers, and refuses every other denominator."""
    numerator = ExpSum.from_terms(1, {(1,): Fraction(1)})
    for denom in (ENTIRE_DENOM, Denom(1, 1), Denom(-1, 2), Denom(3, 3)):
        assert MeromorphicTrace.from_parts(2, 1, {denom: numerator}).parts[0][0] == denom
    for d, denom in ((2, Denom(1, 0)), (2, Denom(0, 1)), (2, Denom(4, 1)), (3, Denom(3, 1))):
        with pytest.raises(ValueError, match="outside the representable family"):
            MeromorphicTrace.from_parts(d, 1, {denom: numerator})


def test_partial_fraction_splits_are_exact():
    one = Fraction(1)
    plain, alternating = Denom(1, 1), Denom(-1, 1)
    assert dict(_signature_split(((-1, 1), (1, 1)))) == {
        plain: Fraction(1, 2),
        alternating: Fraction(1, 2),
    }
    assert dict(_signature_split(((1, 1), (3, 1)))) == {
        Denom(3, 1): Fraction(3, 2),
        plain: Fraction(-1, 2),
    }
    assert dict(_signature_split(((-1, 2), (1, 1)))) == {
        plain: Fraction(1, 4),
        alternating: Fraction(1, 4),
        Denom(-1, 2): Fraction(1, 2),
    }
    assert _signature_split(()) == ((ENTIRE_DENOM, one),)


def test_first_generator_square_cylinder_census():
    summary = _chain_summary(tuple(FIRST_SQUARE), RANK_TWO)
    assert summary.refined_length == 4
    assert summary.ending_buckets == (
        (0, Fraction(7)),
        (1, Fraction(6)),
        (2, Fraction(14)),
    )
    depth_census: dict[int, Fraction] = {}
    for depths, weight in summary.settled_buckets:
        depth_census[depths[-1]] = depth_census.get(depths[-1], Fraction(0)) + weight
    assert depth_census == {
        0: Fraction(1),
        2: Fraction(2),
        3: Fraction(4),
        4: Fraction(14),
    }


def test_escape_data_see_a_letter_only_through_its_class():
    """The ending buckets key every letter outside the anchor's pair by 2;
    at d=4 each such letter has the species and the escape counts of 2."""
    model = FreeGroup(4)
    for letter in range(3, model.size):
        assert settling_species(model, letter) == settling_species(model, 2)
        assert extension_species(model, letter) == extension_species(model, 2)
        for settling in (True, False):
            counts = oracle_escape_counts(model, letter, 12, settling)
            assert counts == oracle_escape_counts(model, 2, 12, settling)
            assert _escape_log_counts(model, letter, 12, settling).tolist() == [
                math.log(n) for n in counts
            ]


def test_ending_buckets_are_the_three_letter_classes():
    model = FreeGroup(6)
    for chain in MIXED_CHAINS + [FIRST_SQUARE, [Monomial((), ())]]:
        summary = _chain_summary(tuple(chain), model)
        assert {last for last, _ in summary.ending_buckets} <= {0, 1, 2}
    square = _chain_summary(tuple(FIRST_SQUARE), model)
    assert [last for last, _ in square.ending_buckets] == [0, 1, 2]


def test_first_generator_square_closed_form_against_oracles():
    closed = closed_form_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    for s in (2.5, 3.0, 3.5):
        small = brute_force_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO, [s], 8)
        direct = literal_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO, [s], 8)
        assert small.value == pytest.approx(direct, rel=1e-12)
        window = brute_force_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO, [s], 16)
        value = closed.evaluate([s]).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12
        assert window.tail_bound < 1e-5


def test_first_generator_square_series_coefficient():
    element = CKElement.of(FIRST_SQUARE[0])
    count = Fraction(0)
    for length in range(9):
        for word in enumerate_admissible(RANK_TWO, length):
            vertex = word_key(word, T, RANK_TWO)
            if abs(vertex_eigenvalue(vertex)) != 3:
                continue
            count += act_on_vertex(element, vertex, 0, RANK_TWO).get(
                vertex, Fraction(0)
            )
    assert count == 19


def test_closed_form_is_tail_letter_invariant():
    reference = closed_form_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    renamed = closed_form_heat_trace([Monomial((3,), (3,))], 3, RANK_TWO)
    assert renamed.parts == reference.parts


def test_zero_diagonal_chain_is_certified_entire():
    chain = [Monomial((0,), (2,))]
    closed = closed_form_heat_trace(chain, ANCHOR, RANK_TWO)
    assert closed.parts == ()
    oracle = brute_force_heat_trace(chain, ANCHOR, RANK_TWO, [2.0], 10)
    assert oracle == (0.0, 0.0)
    assert literal_heat_trace(chain, ANCHOR, RANK_TWO, [2.0], 6) == 0.0
    sliced = single_variable(closed)
    assert sliced.parts == ()
    assert poles_and_laurent(sliced) == []


def test_oracle_input_validation():
    with pytest.raises(ValueError, match="threshold"):
        brute_force_heat_trace([Monomial((), ())], ANCHOR, RANK_TWO, [1.0], 16)
    with pytest.raises(ValueError):
        brute_force_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO, [2.0, 2.0], 16)
    with pytest.raises(ValueError):
        brute_force_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO, [-2.0], 16)
    with pytest.raises(ValueError):
        closed_form_heat_trace([], ANCHOR, RANK_TWO)
    with pytest.raises(ValueError, match="outside alphabet"):
        closed_form_heat_trace(FIRST_SQUARE, RANK_TWO.size, RANK_TWO)


@pytest.mark.parametrize(
    "chain",
    [
        [Monomial((9,), (9,))],
        [Monomial((0,), (RANK_TWO.size,))],
        [Monomial((0,), (0,)), Monomial((-1,), ())],
    ],
)
def test_letters_outside_the_alphabet_are_refused_by_every_trace(chain):
    """Every letter of every stage is checked, not only the anchor: a
    letter whose pair relabelling would bring into range is refused too."""
    for closed in (closed_form_heat_trace, closed_form_toeplitz_trace):
        with pytest.raises(ValueError, match="outside alphabet"):
            closed(chain, ANCHOR, RANK_TWO)
    for oracle in (brute_force_heat_trace, brute_force_toeplitz_trace):
        with pytest.raises(ValueError, match="outside alphabet"):
            oracle(chain, ANCHOR, RANK_TWO, [2.0] * len(chain), 6)


MIXED_CHAINS = [
    [Monomial((2,), (0,)), Monomial((0,), (2,))],
    [Monomial((1,), (1,)), Monomial((3,), (3,))],
    [Monomial((), ()), Monomial((0,), (0,))],
    [Monomial((), (0,)), Monomial((0,), ())],
]


def test_two_stage_chains_match_oracles():
    s = (1.3, 1.5)
    for chain in MIXED_CHAINS:
        closed = closed_form_heat_trace(chain, ANCHOR, RANK_TWO)
        direct = literal_heat_trace(chain, ANCHOR, RANK_TWO, s, 8)
        small = brute_force_heat_trace(chain, ANCHOR, RANK_TWO, s, 8)
        assert small.value == pytest.approx(direct, rel=1e-12, abs=1e-12)
        window = brute_force_heat_trace(chain, ANCHOR, RANK_TWO, s, 16)
        value = closed.evaluate(s).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12


def test_rank_three_worst_acceptance_point():
    chain = [Monomial((2,), (2,))]
    closed = closed_form_heat_trace(chain, ANCHOR, RANK_THREE)
    window = brute_force_heat_trace(chain, ANCHOR, RANK_THREE, [2.5], 16)
    value = closed.evaluate([2.5]).real
    assert abs(value - window.value) <= window.tail_bound
    assert window.tail_bound / abs(value) < 2e-3
    direct = literal_heat_trace(chain, ANCHOR, RANK_THREE, [2.5], 5)
    small = brute_force_heat_trace(chain, ANCHOR, RANK_THREE, [2.5], 5)
    assert small.value == pytest.approx(direct, rel=1e-12)


def test_toeplitz_exact_rational_identity():
    closed = closed_form_toeplitz_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    parts = {denom: dict(numerator.terms) for denom, numerator in closed.parts}
    assert parts == {
        ENTIRE_DENOM: {
            (1,): Fraction(1),
            (2,): Fraction(3),
            (3,): Fraction(7),
            (4,): Fraction(21),
        },
        Denom(3, 1): {(5,): Fraction(243, 4)},
        Denom(1, 1): {(5,): Fraction(1, 2)},
        Denom(-1, 1): {(5,): Fraction(-1, 4)},
    }


def test_toeplitz_diagonal_counts_by_length():
    expected = {0: 0, 1: 1, 2: 3, 3: 7, 4: 21, 5: 61}
    for length, target in expected.items():
        count = 0
        for word in enumerate_admissible(RANK_TWO, length):
            if word and word[-1] == 1:
                continue
            survived = word
            for pair in reversed(FIRST_SQUARE):
                survived = _toeplitz_step(survived, pair, RANK_TWO)
                if survived is None:
                    break
            if survived == word:
                count += 1
        assert count == target


def test_toeplitz_closed_form_matches_oracles():
    s = (1.3, 1.5)
    for chain in MIXED_CHAINS:
        closed = closed_form_toeplitz_trace(chain, ANCHOR, RANK_TWO)
        # a window of 2 ends below the refinement length of every chain here
        # (4 or 6), a window of 4 below some of them
        for truncation in (2, 4, 9):
            direct = literal_toeplitz_trace(chain, ANCHOR, RANK_TWO, s, truncation)
            small = brute_force_toeplitz_trace(chain, ANCHOR, RANK_TWO, s, truncation)
            assert small.value == pytest.approx(direct, rel=1e-12, abs=1e-12)
        window = brute_force_toeplitz_trace(chain, ANCHOR, RANK_TWO, s, 16)
        value = closed.evaluate(s).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12


def test_toeplitz_zero_diagonal_certificate():
    chain = [Monomial((0,), (2,))]
    closed = closed_form_toeplitz_trace(chain, ANCHOR, RANK_TWO)
    assert closed.parts == ()
    assert literal_toeplitz_trace(chain, ANCHOR, RANK_TWO, [2.0], 8) == 0.0


def test_single_variable_returns_a_one_variable_trace_unchanged():
    closed = closed_form_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    assert single_variable(closed) is closed


def test_single_variable_two_stage_slice_matches_direct():
    chain = [Monomial((0,), (2,)), Monomial((2,), (0,))]
    closed = closed_form_heat_trace(chain, ANCHOR, RANK_TWO)
    flat = single_variable(closed)
    for s in (2.5, 3.1):
        direct = closed.evaluate((0.0, s))
        assert flat.evaluate((s,)).real == pytest.approx(direct.real, rel=1e-12)


def test_single_variable_keeps_the_last_coordinate():
    """The trace-audit chains, criterion 03's chains and three chains whose
    stages shift words, at d = 2 and 3, both closed forms: the slice at
    complex s off the poles (real parts above log(2d - 1), imaginary parts
    not multiples of pi) is the trace at (0, ..., 0, s).  The first two
    sets are diagonal, so their traces read s only through s_1 + ... + s_m;
    only the shifting chains see which coordinate the slice keeps."""
    shifting = ("a1.a2*:a2.a1*", "a1.*:a1*", "a2.a1*:a1.a2*:a1")
    for d in (2, 3):
        model = FreeGroup(d)
        first = model.letter_index("a1")
        texts = AUDIT_CHAINS + shifting
        chains = [parse_chain(text, model) for text in texts] + _sample_chains(model)
        for chain in chains:
            for closed in (closed_form_heat_trace, closed_form_toeplitz_trace):
                trace = closed(chain, first, model)
                flat = single_variable(trace)
                for s in (2.5 + 0.7j, 3.1 - 1.3j):
                    direct = trace.evaluate((0,) * (trace.nvars - 1) + (s,))
                    assert flat.evaluate((s,)) == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_evaluate_divides_each_part_by_its_own_denominator():
    """Each part of amplitude alpha and power p is divided by
    (1 - alpha e^{-s})^p, at complex s off the poles, for alpha = 1, -1 and
    2d-1 at d = 2 and 3; the entire part is not divided at all."""
    numerator = ExpSum.from_terms(1, {(1,): Fraction(2, 3), (4,): Fraction(-5, 2)})
    for d in (2, 3):
        for amplitude, power in ((0, 0), (1, 1), (-1, 2), (2 * d - 1, 1), (2 * d - 1, 3)):
            trace = MeromorphicTrace.from_parts(d, 1, {Denom(amplitude, power): numerator})
            for s in (2.5 + 0.7j, 3.1 - 1.3j):
                expected = numerator.evaluate((s,)) / (1 - amplitude * cmath.exp(-s)) ** power
                assert trace.evaluate((s,)) == pytest.approx(expected, rel=1e-14)


def test_simple_pole_residue_is_one():
    trace = MeromorphicTrace.from_parts(
        2, 1, {Denom(1, 1): ExpSum.from_terms(1, {(0,): Fraction(1)})}
    )
    (pole,) = poles_and_laurent(trace)
    assert pole.base_label == "0"
    assert pole.base_value == 0.0
    assert pole.parity == "even"
    assert pole.order == 1
    assert pole.principal == (Fraction(1),)


def test_branch_double_pole_principal_part():
    trace = MeromorphicTrace.from_parts(
        2, 1, {Denom(3, 2): ExpSum.from_terms(1, {(0,): Fraction(1)})}
    )
    (pole,) = poles_and_laurent(trace)
    assert pole.base_label == "log(2d-1)"
    assert pole.base_value == pytest.approx(math.log(3))
    assert pole.order == 2
    assert pole.principal == (Fraction(1), Fraction(1))
    t = 1e-5
    nearby = trace.evaluate([math.log(3) + t])
    principal = 1 / t**2 + 1 / t
    assert abs(nearby.real - principal) < 1.0


def test_pole_cancellation_is_detected_exactly():
    numerator = ExpSum.from_terms(
        1, {(0,): Fraction(1), (1,): Fraction(-1)}
    )
    trace = MeromorphicTrace.from_parts(2, 1, {Denom(1, 2): numerator})
    (pole,) = poles_and_laurent(trace)
    assert pole.order == 1
    assert pole.principal == (Fraction(1),)


def test_entire_traces_have_no_poles():
    flat = MeromorphicTrace.from_parts(
        2, 1, {ENTIRE_DENOM: ExpSum.from_terms(1, {(3,): Fraction(5)})}
    )
    assert poles_and_laurent(flat) == []
    with pytest.raises(ValueError):
        poles_and_laurent(
            closed_form_heat_trace(
                [Monomial((0,), (2,)), Monomial((2,), (0,))], ANCHOR, RANK_TWO
            )
        )


def test_heat_trace_pole_classes_and_periodicity():
    closed = closed_form_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    sliced = single_variable(closed)
    classes = {
        (p.base_label, p.parity, p.order) for p in poles_and_laurent(sliced)
    }
    assert classes == {
        ("0", "even", 1),
        ("0", "odd", 2),
        ("log(2d-1)", "even", 2),
    }
    left = sliced.evaluate([2.2])
    right = sliced.evaluate([2.2 + 2j * math.pi])
    assert abs(left - right) < 1e-12


def test_denominator_powers_stay_within_the_atomic_family():
    for chain in MIXED_CHAINS + [FIRST_SQUARE, [Monomial((), ())]]:
        closed = closed_form_heat_trace(chain, ANCHOR, RANK_TWO)
        for denom, _ in closed.parts:
            assert denom.amplitude in (0, 1, -1, 3)
            assert denom.power <= (1 if denom.amplitude == 1 else 2)


@st.composite
def window_cases(draw):
    """A chain of one to three stages with words of at most one letter,
    at d in {2, 3}, with one heat parameter per stage.  Half of the chains
    are closed, stage j reading (x_j, x_{j+1}) with x_stages = x_0, so that
    their diagonal survives."""
    model = draw(st.sampled_from((RANK_TWO, RANK_THREE)))
    word = st.lists(st.integers(0, model.size - 1), max_size=1).map(tuple)
    stages = draw(st.lists(st.tuples(word, word), min_size=1, max_size=3))
    if draw(st.booleans()):
        words = [out_word for out_word, _ in stages]
        stages = list(zip(words, words[1:] + words[:1]))
    chain = tuple(monomial(out_word, in_word, model) for out_word, in_word in stages)
    s = draw(st.lists(st.floats(0.0, 4.0), min_size=len(chain), max_size=len(chain)))
    return chain, model, s


@settings(max_examples=80, deadline=None)
@given(case=window_cases(), truncation=st.integers(1, 200))
def test_closed_window_sums_match_the_literal_loop(case, truncation):
    chain, model, s = case
    summary = _chain_summary(chain, model)
    closed = _windowed_heat_value(summary, model, s, truncation)
    literal = literal_window_sum(summary, model, s, truncation)
    assert math.isclose(closed, literal, rel_tol=1e-12)


def test_settled_windows_beyond_the_truncation_are_empty():
    # Terminal depths 3 and 4 put 2 * depth - L above L = 2: those windows
    # hold no offset, and no escape depth fits below the refined length.
    summary = _chain_summary(tuple(FIRST_SQUARE), RANK_TWO)
    assert [depths[-1] for depths, _ in summary.settled_buckets] == [0, 2, 3, 4]
    assert summary.refined_length > 2
    value = _windowed_heat_value(summary, RANK_TWO, [1.1], 2)
    assert value == pytest.approx(literal_window_sum(summary, RANK_TWO, [1.1], 2), rel=1e-12)
    # Depth 0 over offsets -2..2 has eigenvalues 4, 2, 0, 1, 2; depth 2,
    # weight 2, keeps offset 2 alone, with eigenvalue 2.
    expected = 1 + math.exp(-1.1) + 4 * math.exp(-2.2) + math.exp(-4.4)
    assert value == pytest.approx(expected, rel=1e-12)


def test_zero_escape_counts_add_nothing():
    # On one generator every escape word ends in the anchor or its
    # inverse, so no escape depth settles and only the settled bucket counts.
    rank_one = FreeGroup(1)
    unit = (Monomial((), ()),)
    summary = _chain_summary(unit, rank_one)
    assert summary.ending_buckets
    assert oracle_escape_counts(rank_one, 0, 10, settling=True) == [0] * 10
    assert _escape_log_counts(rank_one, 0, 10, True).tolist() == [-math.inf] * 10
    value = _windowed_heat_value(summary, rank_one, [0.5], 12)
    assert value == pytest.approx(literal_window_sum(summary, rank_one, [0.5], 12), rel=1e-12)
    settled = sum(math.exp(-0.5 * settled_eigenvalue(0, o)) for o in range(-12, 13))
    assert value == pytest.approx(settled, rel=1e-12)


@pytest.mark.parametrize("model", [FreeGroup(1), RANK_TWO, RANK_THREE])
def test_cached_log_counts_are_the_read_only_logs_of_the_escape_counts(model):
    for after in range(min(model.size, 3)):
        for settling in (True, False):
            logs = _escape_log_counts(model, after, 40, settling)
            expected = [
                math.log(n) if n else -math.inf
                for n in oracle_escape_counts(model, after, 40, settling)
            ]
            assert logs.tolist() == expected
            assert not logs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                logs[0] = 0.0
            assert _escape_log_counts(model, after, 40, settling) is logs


def test_heat_oracle_streams_each_ending_bucket_once(monkeypatch):
    """Three exponents of one heat-oracle run read one stream of transfer
    rows per ending bucket, counted by wrapping the oracle's
    transfer_counts; the census reads its own rows through ckalg."""
    rows: Counter[int] = Counter()

    def counted(model, after, top):
        for row in transfer_counts(model, after, top):
            rows[after] += 1
            yield row

    monkeypatch.setattr(traces, "transfer_counts", counted)
    _escape_log_counts.cache_clear()
    flags = {"L": "256", "s": "1.2,1.5,1.8"}
    report = run(build_config("heat-oracle", flag_values=flags))
    assert report.passed and len(report.checks) == 3
    summary = _chain_summary(tuple(FIRST_SQUARE), RANK_TWO)
    top = 256 - summary.refined_length
    assert rows == {last: top for last, _ in summary.ending_buckets}
    _escape_log_counts.cache_clear()


def test_tail_bounds_as_computed_per_bucket():
    """Tail bounds of the heat oracle, as the termwise sum over the ending
    buckets of each bucket's escape envelope gave them: the envelope summed
    once and scaled by the buckets' total strength differs by rounding."""
    cases = [
        (RANK_TWO, "a1", [2.5], 16, 3.948315210204818e-06),
        (RANK_TWO, "a1:a1", [1.3, 1.4], 40, 2.620711111786876e-15),
        (RANK_THREE, "a1.b2:a1", [1.0, 1.0], 24, 0.004780922638869181),
        (RANK_TWO, "a1.b2.a2.b1", [2.5], 16, 0.0166407850172444),
        (RANK_TWO, "e", [1.2], 256, 0.0006023119614791163),
        (RANK_THREE, "b1", [2.0], 30, 0.0074207136651707525),
    ]
    for model, text, s, truncation, bound in cases:
        oracle = brute_force_heat_trace(parse_chain(text, model), ANCHOR, model, s, truncation)
        assert oracle.tail_bound == pytest.approx(bound, rel=1e-12)


def termwise_toeplitz_value(chain, model: FreeGroup, s: Sequence[float], truncation: int):
    """The word-basis oracle's value with every escape term formed as
    count * heavy * ratio^length in floats, usable only while the counts fit."""
    summary = _chain_summary(_canonical_chain(chain, ANCHOR, model), model)
    heavy = math.exp(-sum(sj * sl for sj, sl in zip(s, summary.sigma_lengths)))
    ratio = math.exp(-sum(s))
    value = sum(
        count * math.exp(-sum(sj * x for sj, x in zip(s, vector)))
        for vector, count in summary.short_vectors
        if vector[-1] <= truncation
    )
    top = max(truncation - summary.refined_length, 0)
    for last, weight in summary.ending_buckets:
        partial = heavy if truncation >= summary.refined_length and last != 1 else 0.0
        counts = oracle_escape_counts(model, last, top, settling=False)
        for length, count in enumerate(counts, start=1):
            partial += count * heavy * ratio**length
        value += float(weight) * partial
    return value


def test_word_basis_oracle_runs_past_float_range_counts():
    cases = [
        (RANK_TWO, "a1", [1.2]),
        (RANK_TWO, "a1:a1", [0.7, 0.7]),
        (RANK_THREE, "a1.b2:a1", [1.0, 1.0]),
        (RANK_TWO, "e", [1.2]),
    ]
    for model, text, s in cases:
        chain = parse_chain(text, model)
        for truncation in (5, 64, 400):
            value = brute_force_toeplitz_trace(chain, ANCHOR, model, s, truncation).value
            expected = termwise_toeplitz_value(chain, model, s, truncation)
            assert value == pytest.approx(expected, rel=1e-12)
    # 3^700 words overflow a float; the terms join in log space instead.
    chain = parse_chain("a1", RANK_TWO)
    closed = closed_form_toeplitz_trace(chain, ANCHOR, RANK_TWO).evaluate([1.2]).real
    for truncation in (700, 1000):
        oracle = brute_force_toeplitz_trace(chain, ANCHOR, RANK_TWO, [1.2], truncation)
        assert abs(oracle.value - closed) <= oracle.tail_bound + 1e-12 * closed


def test_window_sums_stay_finite_past_float_range_counts():
    unit = [Monomial((), ())]
    # 3^700 escape words overflow a float; e^{-1.2 * 700} underflows one.
    (value,) = _heat_partial_sum(unit, ANCHOR, RANK_TWO, [1.2], [700])
    closed = closed_form_heat_trace(unit, ANCHOR, RANK_TWO).evaluate([1.2]).real
    assert value == pytest.approx(closed, rel=1e-12)
    with pytest.raises(ValueError, match="float range"):
        _heat_partial_sum(unit, ANCHOR, RANK_THREE, [0.5], [1200])


def test_rank_two_pole_data_as_computed():
    """Pole classes at d=2, anchor a1, pinned exactly.  Criterion 03 asks for
    double heat poles only at log 3 and word-basis poles only there; as
    computed, the unit chain has a simple odd pole at 0, the double pole at
    0 appears from the chain a1 on, and the word trace of a1 has two simple
    poles at 0."""
    first = RANK_TWO.letter_index("a1")
    unit = [Monomial((), ())]
    square = [Monomial((first,), (first,))]
    branch = math.log(3)
    q = Fraction
    assert poles_and_laurent(closed_form_heat_trace(unit, first, RANK_TWO)) == [
        PoleDatum("0", 0.0, "odd", 1, (q(1, 4),)),
        PoleDatum("log(2d-1)", branch, "even", 2, (q(2, 3), q(13, 12))),
    ]
    assert poles_and_laurent(closed_form_heat_trace(square, first, RANK_TWO)) == [
        PoleDatum("0", 0.0, "even", 1, (q(3, 4),)),
        PoleDatum("0", 0.0, "odd", 2, (q(3, 4), q(5, 16))),
        PoleDatum("log(2d-1)", branch, "even", 2, (q(1, 6), q(13, 48))),
    ]
    assert poles_and_laurent(closed_form_toeplitz_trace(square, first, RANK_TWO)) == [
        PoleDatum("0", 0.0, "even", 1, (q(1, 2),)),
        PoleDatum("0", 0.0, "odd", 1, (q(1, 4),)),
        PoleDatum("log(2d-1)", branch, "even", 1, (q(1, 4),)),
    ]


def test_pole_extraction_matches_the_taylor_oracle_on_criterion_03():
    """Criterion 03's cases, 21 chains at d = 2 and 3, on both closed forms."""
    cases = 0
    for d in (2, 3):
        model = FreeGroup(d)
        first = model.letter_index("a1")
        for chain in _sample_chains(model):
            for closed in (closed_form_heat_trace, closed_form_toeplitz_trace):
                trace = single_variable(closed(chain, first, model))
                assert repr(poles_and_laurent(trace)) == repr(taylor_pole_oracle(trace))
            cases += 1
    assert cases == 42


def test_pole_extraction_reads_negative_exponents_as_the_oracle_does():
    numerator = ExpSum.from_terms(
        1, {(-3,): Fraction(2, 5), (-1,): Fraction(-1), (2,): Fraction(1, 3)}
    )
    for d in (2, 3):
        for amplitude in (1, -1, 2 * d - 1):
            for power in (1, 2, 3):
                trace = MeromorphicTrace.from_parts(d, 1, {Denom(amplitude, power): numerator})
                poles = poles_and_laurent(trace)
                assert poles and repr(poles) == repr(taylor_pole_oracle(trace))


def test_closed_forms_are_built_once_per_canonical_chain_and_model():
    """A chain and its relabelling under another anchor share one cached
    trace object, built once; the same chain at d = 2 and d = 3 does not."""
    chain = [Monomial((0,), (0,)), Monomial((2,), (2,))]
    relabelled = [Monomial((2,), (2,)), Monomial((0,), (0,))]
    assert _canonical_chain(relabelled, 2, RANK_TWO) == tuple(chain)
    for builder, cached in (
        (closed_form_heat_trace, _canonical_heat_trace),
        (closed_form_toeplitz_trace, _canonical_toeplitz_trace),
    ):
        cached.cache_clear()
        first = builder(chain, ANCHOR, RANK_TWO)
        assert builder(relabelled, 2, RANK_TWO) is first
        info = cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        wider = builder(chain, ANCHOR, RANK_THREE)
        assert wider is not first and (wider.d, first.d) == (3, 2)
        assert cached.cache_info().misses == 2


@st.composite
def short_chains(draw):
    """A chain of one to three stages whose refinement length is at most 10
    at d = 2 and at most 7 at d = 3, where the enumerating oracles list up
    to 6 * 5^6 words."""
    model = draw(st.sampled_from((RANK_TWO, RANK_THREE)))
    stages = []
    budget = 8 if model is RANK_TWO else 5
    for _ in range(draw(st.integers(1, 3))):
        words = []
        for _ in range(2):
            grow = draw(st.integers(0, min(2, budget)))
            budget -= grow
            words.append(draw_word(draw, model, (), grow))
        try:
            stages.append(monomial(words[0], words[1], model))
        except ValueError:
            assume(False)
    return tuple(stages), model


@settings(max_examples=60, deadline=None)
@given(case=short_chains(), data=st.data())
def test_counted_summary_matches_the_enumerated_cylinders(case, data):
    # the summary's last field, the short vectors, is checked against the
    # literal loop by the tests below
    chain, model = case
    counted = _chain_summary(chain, model)
    expected = enumerated_summary(chain, model, product_diagonal(chain, model))
    assert tuple(counted)[:-1] == expected
    refined = counted.refined_length
    signed = data.draw(signed_diagonals(model, refined))
    counted = _summarize(chain, netted_cylinder_census(signed, model, refined), ())
    assert tuple(counted)[:-1] == enumerated_summary(chain, model, signed)


@settings(max_examples=120, deadline=None)
@given(case=short_chains(), data=st.data())
def test_counted_short_vectors_match_the_literal_loop(case, data):
    # the chain summary keeps them at the refinement length; the word-basis
    # oracle keeps those whose last entry, the word's length, is below its L
    chain, model = case
    summary = _chain_summary(chain, model)
    below = data.draw(st.integers(1, min(summary.refined_length, 9 if model is RANK_TWO else 7)))
    counted = Counter()
    for vector, count in summary.short_vectors:
        assert count > 0
        if vector[-1] < below:
            counted[vector] += count
    assert counted == Counter(literal_short_vectors(chain, model, below))


def test_one_prefix_walk_serves_both_closed_forms_and_the_word_oracle(monkeypatch):
    walks = []
    walk = ckalg._prefix_walk

    def counted(chain, model):
        walks.append(chain)
        return walk(chain, model)

    monkeypatch.setattr(ckalg, "_prefix_walk", counted)
    for cached in (_chain_summary, _canonical_heat_trace, _canonical_toeplitz_trace):
        cached.cache_clear()
    chain = FIRST_SQUARE * 2
    assert closed_form_heat_trace(chain, ANCHOR, RANK_TWO).parts
    assert closed_form_toeplitz_trace(chain, ANCHOR, RANK_TWO).parts
    brute_force_toeplitz_trace(chain, ANCHOR, RANK_TWO, [1.5, 1.5], 16)
    assert len(walks) == 1


def test_counted_short_vectors_check_junctions_past_the_prefix():
    # a2.a1* then a1.a2*: the prefix a1 is read whole, yet both junctions
    # still test the first letter after it
    for chain in MIXED_CHAINS + [FIRST_SQUARE]:
        chain = tuple(chain)
        _, short_vectors = cylinder_census(chain, RANK_TWO, 9)
        counted = Counter(dict(short_vectors))
        assert counted == Counter(literal_short_vectors(chain, RANK_TWO, 9))


AMPLITUDE_POWERS = st.integers(0, 3)


@st.composite
def accumulator_terms(draw):
    """Terms over random signatures of the amplitudes 1, -1 and 2d-1, each
    to a power of at most 3, at d in {2, 3, 5}.  Some terms come back
    negated, with their factors listed in another order, or split in two
    parts, so that numerators cancel exactly."""
    d = draw(st.sampled_from((2, 3, 5)))
    nvars = draw(st.integers(1, 3))
    amplitudes = (1, -1, 2 * d - 1)
    vectors = st.lists(st.integers(0, 6), min_size=nvars, max_size=nvars).map(tuple)
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    terms = []
    for _ in range(draw(st.integers(0, 14))):
        powers = [draw(AMPLITUDE_POWERS) for _ in amplitudes]
        factors = {a: p for a, p in zip(amplitudes, powers) if p}
        vector, coeff = draw(vectors), draw(coefficients)
        terms.append((factors, vector, coeff))
        echo = draw(st.sampled_from(("none", "negated", "halves")))
        reordered = dict(reversed(list(factors.items())))
        if echo == "negated":
            terms.append((reordered, vector, -coeff))
        elif echo == "halves":
            terms[-1] = (factors, vector, coeff / 2)
            terms.append((reordered, vector, coeff / 2))
    order = draw(st.permutations(range(len(terms))))
    return d, nvars, [terms[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(case=accumulator_terms())
def test_signature_assembly_matches_the_termwise_oracle(case):
    d, nvars, terms = case
    oracle, grouped = TermwiseAccumulator(d, nvars), _Accumulator(d, nvars)
    for factors, vector, coeff in terms:
        oracle.add_term(factors, vector, coeff)
        grouped.add_term(factors, vector, coeff)
    assert repr(grouped.build()) == repr(oracle.build())


@settings(max_examples=150, deadline=None)
@given(case=accumulator_terms())
def test_pole_extraction_matches_the_taylor_oracle(case):
    d, nvars, terms = case
    grouped = _Accumulator(d, nvars)
    for factors, vector, coeff in terms:
        grouped.add_term(factors, vector, coeff)
    sliced = single_variable(grouped.build())
    assert repr(poles_and_laurent(sliced)) == repr(taylor_pole_oracle(sliced))


AUDIT_CHAINS = ("a1", "a1:a1", "a1:a1:a1", "a1:a1:a1:a1", "a1:a1:a1:a1:a1", "a1.b2.a2.b1", "a1.b2:a1")


@pytest.mark.parametrize("d", (2, 3, 5))
def test_closed_forms_match_the_termwise_assembly(d):
    """The benchmark's trace-audit chains and criterion 03's chains."""
    model = FreeGroup(d)
    first = model.letter_index("a1")
    chains = [parse_chain(text, model) for text in AUDIT_CHAINS] + _sample_chains(model)
    for chain in chains:
        for closed, termwise in (
            (closed_form_heat_trace, termwise_heat_trace),
            (closed_form_toeplitz_trace, termwise_toeplitz_trace),
        ):
            assert repr(closed(chain, first, model)) == repr(termwise(chain, first, model))
