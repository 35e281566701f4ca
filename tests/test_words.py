"""Tests for the admissible-word layer."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistzeta.words import (
    FreeGroup,
    Species,
    Word,
    extension_species,
    settled_eigenvalue,
    settling_species,
    transfer_counts,
)

F2 = FreeGroup(2)
F3 = FreeGroup(3)

A1, B1, A2, B2 = 0, 1, 2, 3


# Independent oracles of the word layer: the recursive word walker,
# eventually periodic boundary points with their letters and shifts, which
# the library replaces by the anchor letter of a fixed point, the vertex
# tree parametrized by group words and boundary points, which the integer
# vertex keys below and the vertex arrays of twistzeta.cochain replace,
# and the transfer step over predecessor lists, which the free group's
# O(d) step in twistzeta.words.transfer_counts replaces.  The admissibility
# test, the level walker and the vertex keys with their eigenvalues are
# what the symbolic oracles of test_ckalg and test_cochain build on.

def is_admissible(word: Word, model: FreeGroup) -> bool:
    """Whether every consecutive letter pair is an allowed transition.

    The empty word is admissible by convention.
    """
    for letter in word:
        model.check_letter(letter)
    return all(model.allows(a, b) for a, b in zip(word, word[1:]))


def admissible_levels(model: FreeGroup, top: int) -> Iterator[list[Word]]:
    """All admissible words of each length 0..top, one list per length.

    Each level is grown from the one before by the allowed transitions, so the
    words come in lexicographic order and no word is built twice.
    """
    if top < 0:
        raise ValueError("length must be nonnegative")
    successors = [
        tuple(b for b in range(model.size) if model.allows(a, b)) for a in range(model.size)
    ]
    level = [()]
    yield level
    if top:
        level = [(letter,) for letter in range(model.size)]
        yield level
    for _ in range(top - 1):
        level = [word + (b,) for word in level for b in successors[word[-1]]]
        yield level


def dirac_eigenvalue(offset: int, depth: int) -> int:
    """Integer eigenvalue attached to an (offset, depth) vertex class.

    Zero depth keeps the raw offset; positive depth lands on the negative
    branch below it.
    """
    if depth < max(0, -offset):
        raise ValueError("depth must be at least max(0, -offset)")
    if depth == 0:
        return offset
    return -abs(offset) - depth


# A vertex over the fixed-point tail anchor^inf: the settled head of its
# boundary word, which does not end in the anchor letter, and its offset.
# The reduced group word carrying it is the head padded with anchor letters
# up to the offset, or with their inverses when the offset is below the
# head length.
VertexKey = tuple[Word, int]


def vertex_eigenvalue(vertex: VertexKey) -> int:
    """Dirac eigenvalue of a vertex: nonnegative exactly when the offset
    reaches the head length."""
    head, offset = vertex
    return dirac_eigenvalue(offset, max(max(0, -offset), len(head) - offset))


def enumerate_admissible(
    model: FreeGroup,
    length: int,
    *,
    first: Callable[[int], bool] | None = None,
    last: Callable[[int], bool] | None = None,
) -> list[Word]:
    """All admissible words of one length, in lexicographic order.

    ``first`` and ``last`` restrict the initial and final letter.  At length
    zero the empty word is returned only when no predicate is given, since
    it has no letters to test.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return [()] if first is None and last is None else []

    found: list[Word] = []
    partial: list[int] = []

    def extend() -> None:
        depth = len(partial)
        if depth == length:
            if last is None or last(partial[-1]):
                found.append(tuple(partial))
            return
        for letter in range(model.size):
            if depth == 0:
                if first is not None and not first(letter):
                    continue
            elif not model.allows(partial[-1], letter):
                continue
            partial.append(letter)
            extend()
            partial.pop()

    extend()
    return found


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic infinite word.

    Instances are canonicalized on construction: the period is primitive
    and the preperiod is as short as possible, so structural equality
    coincides with equality of the represented infinite words.
    Admissibility depends on a model and is not checked here.  The
    library names only the fixed point of an anchor letter, by the letter.
    """

    preperiod: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        pre, per = _canonical_tail(tuple(self.preperiod), tuple(self.period))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @property
    def is_fixed_point(self) -> bool:
        return not self.preperiod and len(self.period) == 1


def _primitive_period(period: Word) -> Word:
    size = len(period)
    for divisor in range(1, size):
        if size % divisor == 0 and period == period[:divisor] * (size // divisor):
            return period[:divisor]
    return period


def _canonical_tail(preperiod: Word, period: Word) -> tuple[Word, Word]:
    period = _primitive_period(period)
    while preperiod and preperiod[-1] == period[-1]:
        period = (period[-1],) + period[:-1]
        preperiod = preperiod[:-1]
    return preperiod, period


T = BoundaryPoint((), (A1,))


def letter_at(point: BoundaryPoint, position: int) -> int:
    """Letter at a 1-based position of the infinite word."""
    if position < 1:
        raise ValueError("positions are 1-based")
    index = position - 1
    if index < len(point.preperiod):
        return point.preperiod[index]
    return point.period[(index - len(point.preperiod)) % len(point.period)]


def prefix(point: BoundaryPoint, length: int) -> Word:
    return tuple(letter_at(point, i) for i in range(1, length + 1))


def shift(point: BoundaryPoint, steps: int = 1) -> BoundaryPoint:
    """Boundary point with the first ``steps`` letters removed."""
    if steps < 0:
        raise ValueError("cannot shift backwards")
    drop = min(steps, len(point.preperiod))
    remaining = steps - drop
    period = point.period
    if remaining:
        cut = remaining % len(period)
        period = period[cut:] + period[:cut]
    return BoundaryPoint(point.preperiod[drop:], period)


def admissible_for(point: BoundaryPoint, model: FreeGroup) -> bool:
    """Whether all junctions of the infinite word are allowed.

    The wrap-around junction of the period is included, which covers
    every consecutive pair of the infinite word.
    """
    probe = point.preperiod + point.period + (point.period[0],)
    return is_admissible(probe, model)


def concatenate(word: Word, point: BoundaryPoint) -> BoundaryPoint:
    """Infinite word obtained by writing ``word`` before ``point``.

    No cancellation is performed; the caller is responsible for the
    junction being admissible when that matters.
    """
    return BoundaryPoint(word + point.preperiod, point.period)


def cancellations(word: Word, tail: BoundaryPoint, model: FreeGroup) -> int:
    """Number of letters cancelled when the word is prepended to the tail.

    This is the length of the longest suffix of the word that is the
    letterwise inverse of the matching prefix of the tail.
    """
    count = 0
    for back in range(len(word)):
        if word[len(word) - 1 - back] != model.inverse(letter_at(tail, back + 1)):
            break
        count += 1
    return count


def reduced_concatenate(
    word: Word, tail: BoundaryPoint, model: FreeGroup
) -> BoundaryPoint:
    """Free-group product of a reduced word with a boundary point."""
    cancelled = cancellations(word, tail, model)
    shifted = shift(tail, cancelled)
    return concatenate(word[: len(word) - cancelled], shifted)


def settle_depth(x: BoundaryPoint, tail: BoundaryPoint) -> int | None:
    """Number of shifts after which ``x`` coincides with a fixed-point tail.

    None when ``x`` never falls onto the tail.
    """
    if not tail.is_fixed_point:
        raise ValueError("settle depth requires a fixed-point tail")
    if x.period != tail.period:
        return None
    return len(x.preperiod)


@dataclass(frozen=True)
class Vertex:
    """Vertex attached to a boundary tail, carried by a reduced group word.

    ``offset`` is the word length minus twice the cancellation count and
    ``depth`` the cancellation count itself.
    """

    group_word: Word
    offset: int
    depth: int

    def __post_init__(self) -> None:
        if self.depth < max(0, -self.offset):
            raise ValueError("depth must be at least max(0, -offset)")

    @property
    def eigenvalue(self) -> int:
        return dirac_eigenvalue(self.offset, self.depth)


def vertex_from_group_word(
    word: Word, tail: BoundaryPoint, model: FreeGroup
) -> Vertex:
    """Vertex carried by a reduced group word relative to the tail."""
    if not is_admissible(word, model):
        raise ValueError("the group word must be reduced")
    cancelled = cancellations(word, tail, model)
    return Vertex(word, len(word) - 2 * cancelled, cancelled)


def vertex_boundary(
    vertex: Vertex, tail: BoundaryPoint, model: FreeGroup
) -> BoundaryPoint:
    """Boundary word reached by prepending the vertex word to the tail."""
    return reduced_concatenate(vertex.group_word, tail, model)


def vertex_from_boundary(
    x: BoundaryPoint, offset: int, tail: BoundaryPoint, model: FreeGroup
) -> Vertex:
    """Vertex carried by a boundary word and an offset; inverse of the
    group-word parametrization.

    The group word is the settled prefix of ``x`` padded with tail letters
    when the offset exceeds the settle depth and with their inverses
    otherwise.
    """
    depth = settle_depth(x, tail)
    if depth is None:
        raise ValueError("the boundary word never settles on the tail")
    head = x.preperiod
    letter = tail.period[0]
    if offset >= depth:
        word = head + (letter,) * (offset - depth)
    else:
        word = head + (model.inverse(letter),) * (depth - offset)
    return Vertex(word, offset, max(max(0, -offset), depth - offset))


def vertex_key(vertex: Vertex, tail: BoundaryPoint, model: FreeGroup) -> VertexKey:
    """Integer key (settled head, offset) of an oracle vertex."""
    return vertex_boundary(vertex, tail, model).preperiod, vertex.offset


def word_key(word: Word, tail: BoundaryPoint, model: FreeGroup) -> VertexKey:
    """Integer key of the vertex carried by a reduced group word."""
    return vertex_key(vertex_from_group_word(word, tail, model), tail, model)



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
        letter_at(x, a + i) == letter_at(y, b + i) for i in range(1, horizon + 1)
    )


def brute_words(model: FreeGroup, length: int) -> list[tuple[int, ...]]:
    """Filtered product enumeration, independent of the library walker."""
    out = []
    for word in itertools.product(range(model.size), repeat=length):
        if all(model.allows(a, b) for a, b in zip(word, word[1:])):
            out.append(word)
    return out


def predecessor_transfer_counts(
    model: FreeGroup, after: int | None, top: int
) -> Iterator[list[int]]:
    """Admissible words that may follow ``after`` (any first letter when
    None), counted by last letter, for lengths 1..top: the transfer matrix
    of ``allows``, stepped over predecessor lists."""
    size = model.size
    feeders = [[a for a in range(size) if model.allows(a, b)] for b in range(size)]
    row = [1 if after is None or model.allows(after, b) else 0 for b in range(size)]
    for length in range(1, top + 1):
        if length > 1:
            row = [sum([row[a] for a in into]) for into in feeders]
        yield row


def letter_name(letter: int) -> str:
    """Name of a letter: a1, b1, a2, b2, ... for generators and inverses."""
    return f"{'ab'[letter % 2]}{letter // 2 + 1}"


def test_free_group_matrix_blocks():
    assert (F2.size, F3.size) == (4, 6)
    for model in (F2, F3):
        for i in range(model.size):
            for j in range(model.size):
                assert model.allows(i, j) == (j != i ^ 1)


def test_free_group_rejects_no_generators_and_unknown_names():
    with pytest.raises(ValueError, match="at least one generator"):
        FreeGroup(0)
    for model in (F2, F3):
        for name in ("a0", "c1", str(model.size), f"a{model.generators + 1}"):
            with pytest.raises(ValueError, match="unknown letter name"):
                model.letter_index(name)


def test_letter_names_round_trip():
    names = [letter_name(i) for i in range(4)]
    assert names == ["a1", "b1", "a2", "b2"]
    for i in range(6):
        assert F3.letter_index(letter_name(i)) == i
        assert F3.letter_index(str(i)) == i


def test_is_admissible_examples():
    assert is_admissible((A1, A1, A2), F2)
    assert not is_admissible((A1, B1), F2)
    assert is_admissible((), F2)
    with pytest.raises(ValueError):
        is_admissible((0, 7), F2)


def test_enumerate_length_zero_and_one():
    assert enumerate_admissible(F2, 0) == [()]
    assert enumerate_admissible(F2, 0, first=lambda l: True) == []
    ones = enumerate_admissible(F2, 1)
    assert ones == [(A1,), (B1,), (A2,), (B2,)]


def test_enumerate_is_sorted_and_matches_brute_force():
    for model in (F2, F3):
        levels = list(admissible_levels(model, 4))
        assert len(levels) == 5
        for length in range(5):
            got = enumerate_admissible(model, length)
            assert got == sorted(got)
            assert got == brute_words(model, length)
            assert levels[length] == got
    with pytest.raises(ValueError):
        next(admissible_levels(F2, -1))


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
    assert cancellations((), T, F2) == 0
    assert cancellations((B1, B1, B1), T, F2) == 3
    assert cancellations((A2, B1), T, F2) == 1


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
    assert prefix(x, 5) == (B2, A2, A1, A1, A1)
    assert shift(x, 2) == T
    assert shift(x, 0) == x
    assert shift(T, 17) == T
    y = BoundaryPoint((), (A1, A2))
    assert shift(y, 1) == BoundaryPoint((), (A2, A1))


def test_boundary_admissibility_check():
    assert admissible_for(T, F2)
    assert admissible_for(BoundaryPoint((A2,), (A1,)), F2)
    assert not admissible_for(BoundaryPoint((), (A1, B1)), F2)
    assert not admissible_for(BoundaryPoint((A1, B1), (A2,)), F2)


def test_sync_depth_examples():
    assert sync_depth(T, 0, T) == 0
    x = reduced_concatenate((B1,), T, F2)
    assert x == T
    assert sync_depth(T, -1, T) == 1
    assert sync_depth(BoundaryPoint((), (A2,)), 0, T) is None
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
    assert settle_depth(BoundaryPoint((), (A2,)), T) is None
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


def test_settled_eigenvalue_is_elementwise():
    """One array call agrees with the case split per vertex at depths 0-11
    and offsets -15..19, and a negative depth anywhere is refused."""
    depths, offsets = np.meshgrid(np.arange(12), np.arange(-15, 20), indexing="ij")
    expected = [
        [o if o >= t else t if o >= 0 else t - 2 * o for o in range(-15, 20)] for t in range(12)
    ]
    assert settled_eigenvalue(depths, offsets).tolist() == expected
    assert settled_eigenvalue(11, -15) == 41
    with pytest.raises(ValueError, match="settle depth"):
        settled_eigenvalue(np.array([0, -1]), np.array([3, 3]))


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


def all_reduced_words(model: FreeGroup, max_length: int):
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
        key = vertex_key(v, T, F2)
        assert vertex_eigenvalue(key) == v.eigenvalue
        assert len(key[0]) + abs(key[1] - len(key[0])) == len(mu)


def test_vertex_map_injective_up_to_length_eight():
    seen = set()
    for mu in all_reduced_words(F2, 8):
        v = vertex_from_group_word(mu, T, F2)
        key = (vertex_boundary(v, T, F2), v.offset)
        assert key not in seen
        seen.add(key)
        assert vertex_from_boundary(*key, T, F2) == v


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
    if not admissible_for(x, F2) or not F2.allows(mu[-1], letter_at(x, 1)):
        return
    before = sync_depth(x, offset, T)
    assert before is not None
    after = sync_depth(concatenate(mu, x), offset + len(mu), T)
    if before > -offset:
        assert after == before
    else:
        assert x == T
        assert after == max(0, before - trailing_tail_run(mu))


# The species evaluated at one length, which the tests below compare with
# enumeration; the closed-form traces resum the species instead.
def _species_count(species: Species, n: int) -> int:
    if n < 1:
        raise ValueError("word length must be positive")
    total = sum(c * a**n for c, a in species)
    if total.denominator != 1:
        raise ArithmeticError("species decomposition produced a non-integer count")
    return int(total)


def settling_tail_count(model: FreeGroup, depth: int, after: int) -> int:
    """Number of admissible words of length ``depth`` that may follow the
    letter ``after`` and end in neither the first generator nor its inverse,
    from :func:`settling_species`."""
    return _species_count(settling_species(model, after), depth)


def basis_extension_count(model: FreeGroup, length: int, after: int) -> int:
    """Number of admissible words of the given length that may follow the
    letter ``after`` and do not end in the inverse of the first generator,
    from :func:`extension_species`."""
    return _species_count(extension_species(model, after), length)


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


def test_free_group_step_matches_the_predecessor_lists():
    """The class triples are the predecessor rows summed by class of the
    last letter: 0, 1 and the rest.  Ranks 1 and 2 have no letter outside
    the anchor pair and the pair of ``after``; from rank 3 on one entry
    stands for the 2d - 4 others."""
    for generators in range(1, 7):
        model = FreeGroup(generators)
        for after in (None, *range(model.size)):
            assert list(transfer_counts(model, after, 9)) == [
                (row[0], row[1], sum(row[2:]))
                for row in predecessor_transfer_counts(model, after, 9)
            ]
