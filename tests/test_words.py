"""Tests for the admissible-word layer."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistzeta.words import (
    EMPTY_WORD,
    AdjacencyModel,
    BoundaryPoint,
    Vertex,
    basis_extension_count,
    cancellations,
    concatenate,
    dirac_eigenvalue,
    enumerate_admissible,
    fixed_point,
    free_group,
    is_admissible,
    reduced_concatenate,
    settle_depth,
    settled_eigenvalue,
    settling_tail_count,
    vertex_boundary,
    vertex_from_group_word,
)

F2 = free_group(2)
F3 = free_group(3)
T = fixed_point(0)

A1, B1, A2, B2 = 0, 1, 2, 3


def sync_depth(x: BoundaryPoint, offset: int, y: BoundaryPoint) -> int | None:
    """Synchronization depth of two boundary points under a shift offset.

    Returns the minimal ``k`` at least ``max(0, -offset)`` such that
    shifting ``x`` by ``offset + k`` equals shifting ``y`` by ``k``, or
    None when the tails never meet.  Eventual periodicity makes the search
    window finite.  Letter-by-letter comparison, independent of the
    library's vertex parametrization.
    """
    lower = max(0, -offset)
    lcm = math.lcm(len(x.period), len(y.period))
    settle = max(len(x.preperiod) - offset, len(y.preperiod), 0)
    for k in range(lower, settle + lcm + 1):
        if _tails_equal(x, offset + k, y, k, lcm):
            return k
    return None


def _tails_equal(x: BoundaryPoint, a: int, y: BoundaryPoint, b: int, lcm: int) -> bool:
    horizon = max(len(x.preperiod) - a, len(y.preperiod) - b, 0) + lcm
    return all(
        x.letter_at(a + i) == y.letter_at(b + i) for i in range(1, horizon + 1)
    )


def brute_words(model: AdjacencyModel, length: int) -> list[tuple[int, ...]]:
    """Filtered product enumeration, independent of the library walker."""
    out = []
    for word in itertools.product(range(model.size), repeat=length):
        if all(model.allows(a, b) for a, b in zip(word, word[1:])):
            out.append(word)
    return out


def test_free_group_matrix_blocks():
    assert F2.size == 4
    for i in range(4):
        for j in range(4):
            expected = 0 if j == i ^ 1 else 1
            assert F2.entries[i][j] == expected


def test_model_rejects_zero_rows_and_columns():
    with pytest.raises(ValueError):
        AdjacencyModel(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        AdjacencyModel(((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        AdjacencyModel(((2, 0), (0, 1)))


def test_letter_names_round_trip():
    names = [F2.letter_name(i) for i in range(4)]
    assert names == ["a1", "b1", "a2", "b2"]
    for i in range(6):
        assert F3.letter_index(F3.letter_name(i)) == i


def test_is_admissible_examples():
    assert is_admissible((A1, A1, A2), F2)
    assert not is_admissible((A1, B1), F2)
    assert is_admissible(EMPTY_WORD, F2)
    with pytest.raises(ValueError):
        is_admissible((0, 7), F2)


def test_enumerate_length_zero_and_one():
    assert enumerate_admissible(F2, 0) == [EMPTY_WORD]
    assert enumerate_admissible(F2, 0, first=lambda l: True) == []
    ones = enumerate_admissible(F2, 1)
    assert ones == [(A1,), (B1,), (A2,), (B2,)]


def test_enumerate_is_sorted_and_matches_brute_force():
    for model in (F2, F3):
        for length in range(5):
            got = enumerate_admissible(model, length)
            assert got == sorted(got)
            assert got == brute_words(model, length)


def test_enumerate_with_constraints_matches_filtered_brute_force():
    first = lambda l: F2.allows(A1, l)
    loose_last = lambda l: F2.allows(l, A1)
    strict_last = lambda l: F2.allows(l, A1) and l != A1
    loose = enumerate_admissible(F2, 2, first=first, last=loose_last)
    strict = enumerate_admissible(F2, 2, first=first, last=strict_last)
    assert len(loose) == 7
    assert len(strict) == 4
    brute = [w for w in brute_words(F2, 2) if first(w[0]) and loose_last(w[-1])]
    assert loose == brute


def test_cancellations_examples():
    assert cancellations((A1,), T, F2) == 0
    assert cancellations((B1,), T, F2) == 1
    assert cancellations(EMPTY_WORD, T, F2) == 0
    assert cancellations((B1, B1, B1), T, F2) == 3
    assert cancellations((A2, B1), T, F2) == 1
    lopsided = AdjacencyModel(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        cancellations((0,), fixed_point(0), lopsided)


def test_boundary_point_canonical_form():
    assert BoundaryPoint((A1,), (A1,)) == T
    assert BoundaryPoint((), (A1, A2, A1, A2)) == BoundaryPoint((), (A1, A2))
    assert BoundaryPoint((B1, A1), (A1,)).preperiod == (B1,)
    rotated = BoundaryPoint((A2,), (A1, A2))
    assert rotated == BoundaryPoint((), (A2, A1))
    with pytest.raises(ValueError):
        BoundaryPoint((), ())


def test_boundary_point_letters_and_shift():
    x = BoundaryPoint((B2, A2), (A1,))
    assert x.prefix(5) == (B2, A2, A1, A1, A1)
    assert x.shift(2) == T
    assert x.shift(0) == x
    assert T.shift(17) == T
    y = BoundaryPoint((), (A1, A2))
    assert y.shift(1) == BoundaryPoint((), (A2, A1))


def test_boundary_admissibility_check():
    assert T.admissible_for(F2)
    assert BoundaryPoint((A2,), (A1,)).admissible_for(F2)
    assert not BoundaryPoint((), (A1, B1)).admissible_for(F2)
    assert not BoundaryPoint((A1, B1), (A2,)).admissible_for(F2)


def test_sync_depth_examples():
    assert sync_depth(T, 0, T) == 0
    x = reduced_concatenate((B1,), T, F2)
    assert x == T
    assert sync_depth(T, -1, T) == 1
    assert sync_depth(fixed_point(A2), 0, T) is None
    assert sync_depth(BoundaryPoint((), (A1, A2)), 0, T) is None


def test_sync_depth_with_preperiods():
    x = BoundaryPoint((A2, B2), (A1,))
    assert sync_depth(x, 0, T) == 2
    assert sync_depth(x, -3, T) == 5
    assert sync_depth(T, 2, x) == 2
    assert sync_depth(T, -2, x) == 2
    assert sync_depth(x, 0, x) == 0
    assert sync_depth(x, 1, x) == 2
    assert sync_depth(x, 3, x) == 2


def test_settle_depth():
    assert settle_depth(T, T) == 0
    assert settle_depth(BoundaryPoint((A2, A2, B1), (A1,)), T) == 3
    assert settle_depth(fixed_point(A2), T) is None
    with pytest.raises(ValueError):
        settle_depth(T, BoundaryPoint((A2,), (A1,)))


def test_dirac_eigenvalue_branches():
    assert dirac_eigenvalue(0, 0) == 0
    assert dirac_eigenvalue(3, 0) == 3
    assert dirac_eigenvalue(2, 5) == -7
    assert dirac_eigenvalue(-2, 2) == -4
    with pytest.raises(ValueError):
        dirac_eigenvalue(-1, 0)


def test_settled_eigenvalue_matches_sync_composition():
    for depth in range(0, 6):
        x = concatenate(tuple([A2] * max(depth - 1, 0) + [B2] * min(depth, 1)), T)
        assert settle_depth(x, T) == depth
    for depth in range(0, 5):
        for offset in range(-5, 7):
            k = max(max(0, -offset), depth - offset)
            folded = abs(dirac_eigenvalue(offset, k)) if k > 0 else abs(offset)
            assert settled_eigenvalue(depth, offset) == folded


def test_vertex_from_group_word():
    v = vertex_from_group_word((B1,), T, F2)
    assert (v.offset, v.depth) == (-1, 1)
    assert v.eigenvalue == -2
    w = vertex_from_group_word((A1, A1), T, F2)
    assert (w.offset, w.depth) == (2, 0)
    assert w.eigenvalue == 2
    with pytest.raises(ValueError):
        vertex_from_group_word((A1, B1), T, F2)
    with pytest.raises(ValueError):
        Vertex((A1,), -1, 0)


def all_reduced_words(model: AdjacencyModel, max_length: int):
    for length in range(max_length + 1):
        yield from enumerate_admissible(model, length)


def test_vertex_map_consistency_up_to_length_eight():
    for mu in all_reduced_words(F2, 8):
        v = vertex_from_group_word(mu, T, F2)
        ell = cancellations(mu, T, F2)
        assert v.depth == ell
        assert v.offset == len(mu) - 2 * ell
        x = vertex_boundary(v, T, F2)
        assert sync_depth(x, v.offset, T) == v.depth


def test_vertex_map_injective_up_to_length_eight():
    seen = set()
    for mu in all_reduced_words(F2, 8):
        v = vertex_from_group_word(mu, T, F2)
        key = (vertex_boundary(v, T, F2), v.offset)
        assert key not in seen
        seen.add(key)


def trailing_tail_run(word: tuple[int, ...]) -> int:
    run = 0
    for letter in reversed(word):
        if letter != A1:
            break
        run += 1
    return run


@settings(max_examples=200, deadline=None)
@given(
    mu=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    pre=st.lists(st.integers(0, 3), max_size=4),
    offset=st.integers(-6, 6),
)
def test_sync_depth_recursion_under_prefixing(mu, pre, offset):
    """Prepending a word shifts the synchronization data predictably.

    When the depth strictly exceeds -offset it is unchanged; when it equals
    -offset the point is the tail itself and the trailing tail-run of the
    prefix is absorbed, clamped at zero.
    """
    mu = tuple(mu)
    if not is_admissible(mu, F2):
        return
    x = concatenate(tuple(pre), T)
    if not x.admissible_for(F2) or not F2.allows(mu[-1], x.letter_at(1)):
        return
    before = sync_depth(x, offset, T)
    assert before is not None
    after = sync_depth(concatenate(mu, x), offset + len(mu), T)
    if before > -offset:
        assert after == before
    else:
        assert x == T
        assert after == max(0, before - trailing_tail_run(mu))


def test_settling_tail_count_small_table():
    assert [settling_tail_count(F2, p, A1) for p in (1, 2, 3, 4)] == [2, 4, 14, 40]
    assert [settling_tail_count(F2, p, A2) for p in (1, 2, 3)] == [1, 5, 13]


def test_settling_tail_count_matches_enumeration():
    for model in (F2, F3):
        for depth in range(1, 8):
            pool = enumerate_admissible(
                model, depth, last=lambda l: l not in (0, 1)
            )
            for after in range(model.size):
                expected = sum(1 for w in pool if model.allows(after, w[0]))
                assert settling_tail_count(model, depth, after) == expected


def test_basis_extension_count_small_table():
    assert [basis_extension_count(F2, q, A1) for q in (1, 2, 3, 4)] == [3, 7, 21, 61]
    assert [basis_extension_count(F2, 1, l) for l in range(4)] == [3, 2, 2, 2]


def test_basis_extension_count_matches_enumeration():
    for model in (F2, F3):
        for length in range(1, 8):
            pool = enumerate_admissible(model, length, last=lambda l: l != 1)
            for after in range(model.size):
                expected = sum(1 for w in pool if model.allows(after, w[0]))
                assert basis_extension_count(model, length, after) == expected
