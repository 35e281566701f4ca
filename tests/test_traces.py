"""Tests for the exact trace engine: partial fractions, closed forms,
oracles, shift slices, and pole extraction."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from twistzeta.ckalg import CKElement, Monomial, act_on_vertex
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
    _chain_summary,
    _partial_fractions,
    _toeplitz_step,
    brute_force_heat_trace,
    brute_force_toeplitz_trace,
    closed_form_heat_trace,
    closed_form_toeplitz_trace,
    literal_heat_trace,
    literal_toeplitz_trace,
    poles_and_laurent,
    specialize_shifts,
)
from twistzeta.words import (
    BoundaryPoint,
    enumerate_admissible,
    fixed_point,
    free_group,
    vertex_from_group_word,
)

RANK_TWO = free_group(2)
RANK_THREE = free_group(3)
TAIL = fixed_point(0)

FIRST_SQUARE = [Monomial((0,), (0,))]


def test_expsum_arithmetic_is_exact():
    a = ExpSum.single(2, (1, 0), Fraction(1, 3))
    b = ExpSum.single(2, (0, 2), 2, const_exp=1)
    total = a.plus(b).scaled(3)
    assert total.as_dict() == {
        (0, (1, 0)): Fraction(1),
        (1, (0, 2)): Fraction(6),
    }
    product = a.times(b)
    assert product.as_dict() == {(1, (1, 2)): Fraction(2, 3)}
    value = product.evaluate((0.5, 0.25))
    assert value.real == pytest.approx(
        (2 / 3) * math.exp(-1 - 0.5 - 2 * 0.25), rel=1e-14
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
        (2, Fraction(7)),
        (3, Fraction(7)),
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


def test_first_generator_square_closed_form_against_oracles():
    closed = closed_form_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO)
    for s in (2.5, 3.0, 3.5):
        small = brute_force_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO, [s], 8)
        direct = literal_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO, [s], 8)
        assert small.value == pytest.approx(direct, rel=1e-12)
        window = brute_force_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO, [s], 16)
        value = closed.evaluate([s]).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12
        assert window.tail_bound < 1e-5


def test_first_generator_square_series_coefficient():
    element = CKElement.of(FIRST_SQUARE[0])
    count = Fraction(0)
    for length in range(9):
        for word in enumerate_admissible(RANK_TWO, length):
            vertex = vertex_from_group_word(word, TAIL, RANK_TWO)
            if abs(vertex.eigenvalue) != 3:
                continue
            count += act_on_vertex(element, vertex, TAIL, RANK_TWO).get(
                vertex, Fraction(0)
            )
    assert count == 19


def test_closed_form_is_tail_letter_invariant():
    reference = closed_form_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO)
    renamed = closed_form_heat_trace(
        [Monomial((3,), (3,))], fixed_point(3), RANK_TWO
    )
    assert renamed.parts == reference.parts


def test_zero_diagonal_chain_is_certified_entire():
    chain = [Monomial((0,), (2,))]
    closed = closed_form_heat_trace(chain, TAIL, RANK_TWO)
    assert closed.certificate == ZERO_DIAGONAL_CERTIFICATE
    assert closed.parts == ()
    assert closed.is_entire
    oracle = brute_force_heat_trace(chain, TAIL, RANK_TWO, [2.0], 10)
    assert oracle == (0.0, 0.0)
    assert literal_heat_trace(chain, TAIL, RANK_TWO, [2.0], 6) == 0.0
    sliced = specialize_shifts(closed, (0,))
    assert sliced.certificate == ZERO_DIAGONAL_CERTIFICATE
    assert poles_and_laurent(sliced) == []


def test_oracle_input_validation():
    with pytest.raises(ValueError, match="threshold"):
        brute_force_heat_trace([Monomial((), ())], TAIL, RANK_TWO, [1.0], 16)
    with pytest.raises(ValueError):
        brute_force_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO, [2.0, 2.0], 16)
    with pytest.raises(ValueError):
        brute_force_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO, [-2.0], 16)
    with pytest.raises(ValueError):
        closed_form_heat_trace([], TAIL, RANK_TWO)
    drifting = BoundaryPoint((2,), (0,))
    with pytest.raises(ValueError, match="fixed-point"):
        closed_form_heat_trace(FIRST_SQUARE, drifting, RANK_TWO)


MIXED_CHAINS = [
    [Monomial((2,), (0,)), Monomial((0,), (2,))],
    [Monomial((1,), (1,)), Monomial((3,), (3,))],
    [Monomial((), ()), Monomial((0,), (0,))],
    [Monomial((), (0,)), Monomial((0,), ())],
]


def test_two_stage_chains_match_oracles():
    s = (1.3, 1.5)
    for chain in MIXED_CHAINS:
        closed = closed_form_heat_trace(chain, TAIL, RANK_TWO)
        direct = literal_heat_trace(chain, TAIL, RANK_TWO, s, 8)
        small = brute_force_heat_trace(chain, TAIL, RANK_TWO, s, 8)
        assert small.value == pytest.approx(direct, rel=1e-12, abs=1e-12)
        window = brute_force_heat_trace(chain, TAIL, RANK_TWO, s, 16)
        value = closed.evaluate(s).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12


def test_rank_three_worst_acceptance_point():
    chain = [Monomial((2,), (2,))]
    closed = closed_form_heat_trace(chain, TAIL, RANK_THREE)
    window = brute_force_heat_trace(chain, TAIL, RANK_THREE, [2.5], 16)
    value = closed.evaluate([2.5]).real
    assert abs(value - window.value) <= window.tail_bound
    assert window.tail_bound / abs(value) < 2e-3
    direct = literal_heat_trace(chain, TAIL, RANK_THREE, [2.5], 5)
    small = brute_force_heat_trace(chain, TAIL, RANK_THREE, [2.5], 5)
    assert small.value == pytest.approx(direct, rel=1e-12)


def test_toeplitz_exact_rational_identity():
    closed = closed_form_toeplitz_trace(FIRST_SQUARE, TAIL, RANK_TWO)
    assert closed.part(ENTIRE_ATOM).as_dict() == {
        (0, (1,)): Fraction(1),
        (0, (2,)): Fraction(3),
        (0, (3,)): Fraction(7),
        (0, (4,)): Fraction(21),
    }
    assert closed.part(BRANCH_ATOM, 1).as_dict() == {(0, (5,)): Fraction(243, 4)}
    assert closed.part(PLAIN_ATOM, 1).as_dict() == {(0, (5,)): Fraction(1, 2)}
    assert closed.part(ALTERNATING_ATOM, 1).as_dict() == {(0, (5,)): Fraction(-1, 4)}


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
        closed = closed_form_toeplitz_trace(chain, TAIL, RANK_TWO)
        direct = literal_toeplitz_trace(chain, TAIL, RANK_TWO, s, 9)
        small = brute_force_toeplitz_trace(chain, TAIL, RANK_TWO, s, 9)
        assert small.value == pytest.approx(direct, rel=1e-12, abs=1e-12)
        window = brute_force_toeplitz_trace(chain, TAIL, RANK_TWO, s, 16)
        value = closed.evaluate(s).real
        assert abs(value - window.value) <= window.tail_bound + 1e-12


def test_toeplitz_zero_diagonal_certificate():
    chain = [Monomial((0,), (2,))]
    closed = closed_form_toeplitz_trace(chain, TAIL, RANK_TWO)
    assert closed.certificate == ZERO_DIAGONAL_CERTIFICATE
    assert literal_toeplitz_trace(chain, TAIL, RANK_TWO, [2.0], 8) == 0.0


def test_specialize_shifts_single_stage_is_identity():
    closed = closed_form_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO)
    sliced = specialize_shifts(closed, (5,))
    assert sliced.parts == closed.parts


def test_specialize_shifts_two_stage_slice_matches_direct():
    chain = [Monomial((0,), (2,)), Monomial((2,), (0,))]
    closed = closed_form_heat_trace(chain, TAIL, RANK_TWO)
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
    closed = closed_form_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO)
    with pytest.raises(ValueError):
        specialize_shifts(closed, (1, 2))


def test_simple_pole_residue_is_one():
    trace = MeromorphicTrace.from_parts(
        2, 1, {Denom(PLAIN_ATOM, 1): ExpSum.single(1, (0,))}
    )
    (pole,) = poles_and_laurent(trace)
    assert pole.base_label == "0"
    assert pole.base_value == 0.0
    assert pole.parity == "even"
    assert pole.order == 1
    assert pole.residue.terms == ((0, Fraction(1)),)
    assert pole.residue.value() == pytest.approx(1.0)


def test_branch_double_pole_principal_part():
    trace = MeromorphicTrace.from_parts(
        2, 1, {Denom(BRANCH_ATOM, 2): ExpSum.single(1, (0,))}
    )
    (pole,) = poles_and_laurent(trace)
    assert pole.base_label == "log(2d-1)"
    assert pole.base_value == pytest.approx(math.log(3))
    assert pole.order == 2
    assert [p.value() for p in pole.principal] == pytest.approx([1.0, 1.0])
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
    assert pole.residue.terms == ((0, Fraction(1)),)


def test_entire_traces_have_no_poles():
    flat = MeromorphicTrace.from_parts(
        2, 1, {ENTIRE_DENOM: ExpSum.single(1, (3,), 5)}
    )
    assert poles_and_laurent(flat) == []
    with pytest.raises(ValueError):
        poles_and_laurent(
            closed_form_heat_trace(
                [Monomial((0,), (2,)), Monomial((2,), (0,))], TAIL, RANK_TWO
            ).scaled(1)
        )


def test_heat_trace_pole_classes_and_periodicity():
    closed = closed_form_heat_trace(FIRST_SQUARE, TAIL, RANK_TWO)
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
        closed = closed_form_heat_trace(chain, TAIL, RANK_TWO)
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
