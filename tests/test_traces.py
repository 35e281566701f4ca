"""Tests for the exact trace engine: partial fractions, closed forms,
oracles, shift slices, and pole extraction."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_ckalg import (
    CylinderSum,
    act_on_vertex,
    draw_word,
    monomial,
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

from twistzeta.ckalg import (
    CKElement,
    Monomial,
    _toeplitz_step,
    chain_product,
    short_diagonal_vectors,
)
from twistzeta.traces import (
    ALTERNATING_ATOM,
    BRANCH_ATOM,
    ENTIRE_ATOM,
    ENTIRE_DENOM,
    PLAIN_ATOM,
    ZERO_DIAGONAL_CERTIFICATE,
    Denom,
    ExpSum,
    MeromorphicTrace,
    PoleDatum,
    _canonical_chain,
    _chain_summary,
    _escape_counts,
    _heat_partial_sum,
    _partial_fractions,
    _summarize,
    _validate_oracle_inputs,
    _windowed_heat_value,
    brute_force_heat_trace,
    brute_force_toeplitz_trace,
    closed_form_heat_trace,
    closed_form_toeplitz_trace,
    poles_and_laurent,
    specialize_shifts,
)
from twistzeta.words import (
    FreeGroup,
    Word,
    extension_species,
    settled_eigenvalue,
    settling_species,
)

RANK_TWO = FreeGroup(2)
RANK_THREE = FreeGroup(3)
ANCHOR = 0

FIRST_SQUARE = [Monomial((0,), (0,))]


# Independent oracles of the engine in twistzeta.traces: literal simulation
# of the closed forms, the term-by-term form of the window sums, and the
# word-by-word forms of the chain summary and of the short basis words.

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


def literal_window_sum(
    summary, model: FreeGroup, s: Sequence[float], truncation: int
) -> float:
    """Windowed heat sum term by term: every offset of every window, O(L^2).

    Independent oracle of the closed-form window sums in
    ``_windowed_heat_value``, with escape counts from the predecessor-list
    transfer matrix; the counts are converted to float, so it is only
    usable where they fit.
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
                    sj * settled_eigenvalue(t, offset + w)
                    for sj, t, w in zip(s, depths, omegas)
                )
            )
        value += float(weight) * partial

    top = max(limit - refined, 0)
    for last, weight in summary.ending_buckets:
        if top >= 1:
            rows = predecessor_transfer_counts(model, last, top)
            counts = [0] + [sum(row) - row[0] - row[1] for row in rows]
            partial = 0.0
            for depth in range(1, top + 1):
                settle = refined + depth
                inner = 0.0
                for offset in range(2 * settle - limit, limit + 1):
                    inner += math.exp(
                        -sum(
                            sj * settled_eigenvalue(sl + depth, offset + w)
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
    a = ExpSum.from_terms(2, {(0, (1, 0)): Fraction(1, 3)})
    b = ExpSum.from_terms(2, {(1, (0, 2)): Fraction(2)})
    total = a.plus(b).scaled(3)
    assert total.as_dict() == {
        (0, (1, 0)): Fraction(1),
        (1, (0, 2)): Fraction(6),
    }
    value = total.evaluate((0.5, 0.25))
    assert value.real == pytest.approx(
        math.exp(-0.5) + 6 * math.exp(-1 - 2 * 0.25), rel=1e-14
    )


def test_expsum_rejects_ragged_vectors():
    with pytest.raises(ValueError):
        ExpSum(2, ((0, (1,), Fraction(1)),))


def test_denom_validation():
    with pytest.raises(ValueError):
        Denom("1-E", 0)
    with pytest.raises(ValueError):
        Denom("1", 1)
    with pytest.raises(ValueError):
        Denom("1-4E", 1)


def test_partial_fraction_splits_are_exact():
    one = Fraction(1)
    assert _partial_fractions({one: 1, -one: 1}) == {
        (one, 1): Fraction(1, 2),
        (-one, 1): Fraction(1, 2),
    }
    three = Fraction(3)
    assert _partial_fractions({one: 1, three: 1}) == {
        (three, 1): Fraction(3, 2),
        (one, 1): Fraction(-1, 2),
    }
    assert _partial_fractions({one: 1, -one: 2}) == {
        (one, 1): Fraction(1, 4),
        (-one, 1): Fraction(1, 4),
        (-one, 2): Fraction(1, 2),
    }


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
            assert list(_escape_counts(model, letter, 12, settling)) == list(
                _escape_counts(model, 2, 12, settling)
            )


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
    assert closed.certificate == ZERO_DIAGONAL_CERTIFICATE
    assert closed.parts == ()
    oracle = brute_force_heat_trace(chain, ANCHOR, RANK_TWO, [2.0], 10)
    assert oracle == (0.0, 0.0)
    assert literal_heat_trace(chain, ANCHOR, RANK_TWO, [2.0], 6) == 0.0
    sliced = specialize_shifts(closed, (0,))
    assert sliced.certificate == ZERO_DIAGONAL_CERTIFICATE
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
    parts = {denom: numerator.as_dict() for denom, numerator in closed.parts}
    assert parts == {
        ENTIRE_DENOM: {
            (0, (1,)): Fraction(1),
            (0, (2,)): Fraction(3),
            (0, (3,)): Fraction(7),
            (0, (4,)): Fraction(21),
        },
        Denom(BRANCH_ATOM, 1): {(0, (5,)): Fraction(243, 4)},
        Denom(PLAIN_ATOM, 1): {(0, (5,)): Fraction(1, 2)},
        Denom(ALTERNATING_ATOM, 1): {(0, (5,)): Fraction(-1, 4)},
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
        direct = literal_toeplitz_trace(chain, ANCHOR, RANK_TWO, s, 9)
        small = brute_force_toeplitz_trace(chain, ANCHOR, RANK_TWO, s, 9)
        assert small.value == pytest.approx(direct, rel=1e-12, abs=1e-12)
        window = brute_force_toeplitz_trace(chain, ANCHOR, RANK_TWO, s, 16)
        value = closed.evaluate(s).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12


def test_toeplitz_zero_diagonal_certificate():
    chain = [Monomial((0,), (2,))]
    closed = closed_form_toeplitz_trace(chain, ANCHOR, RANK_TWO)
    assert closed.certificate == ZERO_DIAGONAL_CERTIFICATE
    assert literal_toeplitz_trace(chain, ANCHOR, RANK_TWO, [2.0], 8) == 0.0


def test_specialize_shifts_single_stage_is_identity():
    closed = closed_form_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    sliced = specialize_shifts(closed, (5,))
    assert sliced.parts == closed.parts


def test_specialize_shifts_two_stage_slice_matches_direct():
    chain = [Monomial((0,), (2,)), Monomial((2,), (0,))]
    closed = closed_form_heat_trace(chain, ANCHOR, RANK_TWO)
    sliced = specialize_shifts(closed, (1, 0))
    for s in (2.5, 3.1):
        direct = closed.evaluate((1.0, s - 1.0))
        assert sliced.evaluate((s,)).real == pytest.approx(
            direct.real, rel=1e-12
        )
    flat = specialize_shifts(closed, (0, 0))
    for s in (2.5, 3.1):
        direct = closed.evaluate((0.0, s))
        assert flat.evaluate((s,)).real == pytest.approx(direct.real, rel=1e-12)


def test_specialize_shifts_validates_length():
    closed = closed_form_heat_trace(FIRST_SQUARE, ANCHOR, RANK_TWO)
    with pytest.raises(ValueError):
        specialize_shifts(closed, (1, 2))


def test_simple_pole_residue_is_one():
    trace = MeromorphicTrace.from_parts(
        2, 1, {Denom(PLAIN_ATOM, 1): ExpSum.from_terms(1, {(0, (0,)): Fraction(1)})}
    )
    (pole,) = poles_and_laurent(trace)
    assert pole.base_label == "0"
    assert pole.base_value == 0.0
    assert pole.parity == "even"
    assert pole.order == 1
    assert pole.principal[-1].terms == ((0, (), Fraction(1)),)
    assert pole.principal[-1].evaluate(()).real == pytest.approx(1.0)


def test_branch_double_pole_principal_part():
    trace = MeromorphicTrace.from_parts(
        2, 1, {Denom(BRANCH_ATOM, 2): ExpSum.from_terms(1, {(0, (0,)): Fraction(1)})}
    )
    (pole,) = poles_and_laurent(trace)
    assert pole.base_label == "log(2d-1)"
    assert pole.base_value == pytest.approx(math.log(3))
    assert pole.order == 2
    assert [p.evaluate(()).real for p in pole.principal] == pytest.approx([1.0, 1.0])
    t = 1e-5
    nearby = trace.evaluate([math.log(3) + t])
    principal = 1 / t**2 + 1 / t
    assert abs(nearby.real - principal) < 1.0


def test_pole_cancellation_is_detected_exactly():
    numerator = ExpSum.from_terms(
        1, {(0, (0,)): Fraction(1), (0, (1,)): Fraction(-1)}
    )
    trace = MeromorphicTrace.from_parts(2, 1, {Denom(PLAIN_ATOM, 2): numerator})
    (pole,) = poles_and_laurent(trace)
    assert pole.order == 1
    assert pole.principal[-1].terms == ((0, (), Fraction(1)),)


def test_entire_traces_have_no_poles():
    flat = MeromorphicTrace.from_parts(
        2, 1, {ENTIRE_DENOM: ExpSum.from_terms(1, {(0, (3,)): Fraction(5)})}
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
    sliced = specialize_shifts(closed, (0,))
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
            assert denom.atom in (
                ENTIRE_ATOM,
                PLAIN_ATOM,
                ALTERNATING_ATOM,
                BRANCH_ATOM,
            )
            if denom.atom == PLAIN_ATOM:
                assert denom.power <= 1
            else:
                assert denom.power <= 2


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
    assert list(_escape_counts(rank_one, 0, 10, settling=True)) == [0] * 10
    value = _windowed_heat_value(summary, rank_one, [0.5], 12)
    assert value == pytest.approx(literal_window_sum(summary, rank_one, [0.5], 12), rel=1e-12)
    settled = sum(math.exp(-0.5 * settled_eigenvalue(0, o)) for o in range(-12, 13))
    assert value == pytest.approx(settled, rel=1e-12)


def test_window_sums_stay_finite_past_float_range_counts():
    unit = [Monomial((), ())]
    # 3^700 escape words overflow a float; e^{-1.2 * 700} underflows one.
    value = _heat_partial_sum(unit, ANCHOR, RANK_TWO, [1.2], 700)
    closed = closed_form_heat_trace(unit, ANCHOR, RANK_TWO).evaluate([1.2]).real
    assert value == pytest.approx(closed, rel=1e-12)
    with pytest.raises(ValueError, match="float range"):
        _heat_partial_sum(unit, ANCHOR, RANK_THREE, [0.5], 1200)


def _exact(*coefficients: Fraction) -> tuple[ExpSum, ...]:
    return tuple(ExpSum(0, ((0, (), q),)) for q in coefficients)


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
        PoleDatum("0", 0.0, "odd", 1, _exact(q(1, 4))),
        PoleDatum("log(2d-1)", branch, "even", 2, _exact(q(2, 3), q(13, 12))),
    ]
    assert poles_and_laurent(closed_form_heat_trace(square, first, RANK_TWO)) == [
        PoleDatum("0", 0.0, "even", 1, _exact(q(3, 4))),
        PoleDatum("0", 0.0, "odd", 2, _exact(q(3, 4), q(5, 16))),
        PoleDatum("log(2d-1)", branch, "even", 2, _exact(q(1, 6), q(13, 48))),
    ]
    assert poles_and_laurent(closed_form_toeplitz_trace(square, first, RANK_TWO)) == [
        PoleDatum("0", 0.0, "even", 1, _exact(q(1, 2))),
        PoleDatum("0", 0.0, "odd", 1, _exact(q(1, 4))),
        PoleDatum("log(2d-1)", branch, "even", 1, _exact(q(1, 4))),
    ]


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
    chain, model = case
    product = chain_product(chain, model)
    diagonal = [(m.out_word, c) for m, c in product.terms if m.out_word == m.in_word]
    counted = _chain_summary(chain, model)
    assert tuple(counted) == enumerated_summary(chain, model, diagonal)
    signed = data.draw(signed_diagonals(model, counted.refined_length))
    counted = _summarize(chain, model, signed)
    assert tuple(counted) == enumerated_summary(chain, model, signed)


@settings(max_examples=120, deadline=None)
@given(case=short_chains(), data=st.data())
def test_counted_short_vectors_match_the_literal_loop(case, data):
    chain, model = case
    refined = sum(len(m.out_word) + len(m.in_word) for m in chain) + 2
    below = data.draw(st.integers(1, min(refined, 9 if model is RANK_TWO else 7)))
    counted = Counter()
    for vector, count in short_diagonal_vectors(chain, model, below):
        assert count > 0
        counted[vector] += count
    assert counted == Counter(literal_short_vectors(chain, model, below))


def test_counted_short_vectors_check_junctions_past_the_prefix():
    # a2.a1* then a1.a2*: the prefix a1 is read whole, yet both junctions
    # still test the first letter after it
    for chain in MIXED_CHAINS + [FIRST_SQUARE]:
        chain = tuple(chain)
        counted = Counter(dict(short_diagonal_vectors(chain, RANK_TWO, 9)))
        assert counted == Counter(literal_short_vectors(chain, RANK_TWO, 9))
