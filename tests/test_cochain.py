"""Tests for the residue cochains and the paired counterexample verdicts."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ckalg import (
    CKElement,
    act_on_vertex,
    adjoint,
    element_sum,
    elements_equal,
    generator,
    multiply,
)
from test_circle import build_phase, mult_op
from test_words import (
    T,
    BoundaryPoint,
    Vertex,
    VertexKey,
    enumerate_admissible,
    letter_at,
    prefix,
    shift,
    vertex_boundary,
    vertex_from_boundary,
    vertex_from_group_word,
    vertex_key,
    word_key,
)

from twistzeta import cochain
from twistzeta.ckalg import Monomial
from twistzeta.circle import TrigPoly, build_dirac
from twistzeta.cochain import (
    CounterexampleReport,
    _assemble,
    _head_count,
    _translate,
    boundary_translation_index,
    circle_cochain,
    circle_word_trace,
    cochain_summands,
    cochain_word_trace,
    compressed_kernel_dimension,
    compressed_translation_index,
    counterexample_verdict,
    free_group_cochain,
    multiindex_cutoff,
    multiindex_weight,
    rising_half_coeffs,
)
from twistzeta.words import FreeGroup, Word, settled_eigenvalue


# Independent oracle of the vertex arrays: the boundary-word action they
# replaced, on vertices carried by group words, with the window of
# nonnegative basis words reduced by exact elimination alone, and the
# translation as an algebra element.

def group_unitary(letter: int, model: FreeGroup) -> CKElement:
    """Boundary translation by one group letter as an algebra element.

    The generator isometry plus the adjoint of the inverse-letter isometry
    acts on every boundary word by reduced left concatenation, and the two
    ranges are complementary, so the sum is a unitary.
    """
    forward = generator(letter, model)
    backward = adjoint(generator(model.inverse(letter), model))
    return element_sum(forward, backward)


def word_code(word: Word, base: int) -> int:
    """The code of ``twistzeta.cochain``'s vertex arrays: the sum of
    (w_i + 1) * base**i, the first letter in the lowest digit."""
    return sum((letter + 1) * base**place for place, letter in enumerate(word))


def word_of_code(code: int, base: int) -> Word:
    letters = []
    while code:
        code, digit = divmod(code, base)
        letters.append(digit - 1)
    return tuple(letters)


def to_anchor_zero(letter: int, anchor: int) -> int:
    """The letter after swapping the anchor's generator pair with the
    first, which sends the anchor to 0 and keeps every pair: an involution
    of the alphabet."""
    return letter ^ anchor if letter >> 1 in (0, anchor >> 1) else letter


def enumerated_head_codes(
    model: FreeGroup, anchor: int, top: int, base: int
) -> Iterator[np.ndarray]:
    """Codes of every vertex head of each length 0..top, shortest first,
    letter by letter: the reduced words ending in neither the anchor nor
    its inverse."""
    letters = np.arange(model.size, dtype=np.int64)
    settled = (letters == anchor) | (letters == anchor ^ 1)
    words = np.zeros(1, dtype=np.int64)
    last = np.full(1, -1, dtype=np.int64)  # no letter before the first
    yield words
    for length in range(1, top + 1):
        grown = words[:, None] + (letters + 1) * base ** (length - 1)
        reduced = letters != (last ^ 1)[:, None]
        yield grown[reduced & ~settled]
        words = grown[reduced]
        last = np.broadcast_to(letters, grown.shape)[reduced]


def per_letter_word_trace(
    letters: Sequence[int], anchor: int, model: FreeGroup
) -> dict[tuple[int, int], Fraction]:
    """The word trace of ``cochain.cochain_word_trace`` by the walk it
    replaced: every head of at most three letters over the whole alphabet,
    relabelled so that the anchor is 0, at each of its 7 - 2n
    offsets, one head length at a time, each vertex counted once."""
    word = [to_anchor_zero(letter, anchor) for letter in letters]
    arity, base = len(word) - 1, model.size + 1
    trace: dict[tuple[int, int], Fraction] = {}
    for length, heads in enumerate(enumerated_head_codes(model, 0, 3, base)):
        offsets = np.arange(2 * length - 3, 4)
        code, offset = np.repeat(heads, offsets.size), np.tile(offsets, heads.size)
        modulus = settled_eigenvalue(length, offset)
        sign = np.where(offset >= length, 1, -1)
        exponent = arity * modulus
        coeff = np.ones_like(modulus)
        vertex, now = (code, length, offset), sign
        for letter in reversed(word[1:]):
            exponent -= settled_eigenvalue(*vertex[1:])
            vertex = _translate(letter, base, *vertex)
            moved = np.where(vertex[2] >= vertex[1], 1, -1)
            coeff *= moved - now
            now = moved
        inside = length + np.abs(offset - length) <= 1
        assert not np.any(coeff[~inside]), "a column escaped the support bound"
        landed, _, shifted = _translate(word[0], base, *vertex)
        back = (coeff != 0) & (landed == code) & (shifted == offset)
        for power, weight, value in zip(
            exponent[back].tolist(), modulus[back].tolist(), (sign * coeff)[back].tolist()
        ):
            trace[power, weight] = trace.get((power, weight), 0) + Fraction(value)
    return {key: value for key, value in trace.items() if value}


def eliminated_nullity(
    columns: Iterable[dict[VertexKey, Fraction]],
    pivots: dict[VertexKey, dict[VertexKey, Fraction]],
) -> int:
    """Number of columns minus the pivots they add by exact elimination,
    each column reduced on its smallest row against the pivots so far."""
    start = len(pivots)
    read = 0
    for read, column in enumerate(columns, 1):
        work = {vertex: coeff for vertex, coeff in column.items() if coeff}
        while work:
            row = min(work)
            pivot = pivots.get(row)
            if pivot is None:
                pivots[row] = work
                break
            scale = work[row] / pivot[row]
            for vertex, coeff in pivot.items():
                updated = work.get(vertex, Fraction(0)) - scale * coeff
                if updated:
                    work[vertex] = updated
                else:
                    work.pop(vertex, None)
    return read - (len(pivots) - start)


def boundary_act_on_vertex(
    x: CKElement, v: Vertex, tail: BoundaryPoint, model: FreeGroup
) -> dict[Vertex, Fraction]:
    """Image of a vertex basis vector under an element.

    A monomial strips its in-word from the boundary word of the vertex and
    writes its out-word in front, when the junctions allow it; the offset
    moves by the length difference.
    """
    boundary = vertex_boundary(v, tail, model)
    image: dict[Vertex, Fraction] = {}
    for mono, coeff in x.terms:
        stripped = len(mono.in_word)
        if prefix(boundary, stripped) != mono.in_word:
            continue
        shifted = shift(boundary, stripped)
        if mono.out_word and not model.allows(mono.out_word[-1], letter_at(shifted, 1)):
            continue
        landed = BoundaryPoint(mono.out_word + shifted.preperiod, shifted.period)
        offset = v.offset + len(mono.out_word) - stripped
        target = vertex_from_boundary(landed, offset, tail, model)
        updated = image.get(target, Fraction(0)) + coeff
        if updated:
            image[target] = updated
        else:
            image.pop(target, None)
    return image


def boundary_window_columns(
    element: CKElement, tail: BoundaryPoint, model: FreeGroup, source_length: int
) -> list[dict[VertexKey, Fraction]]:
    """Columns of the windowed compression over the reduced words not
    ending in the inverse tail letter, each keeping the targets of
    nonnegative eigenvalue."""
    blocked = model.inverse(tail.period[0])
    growth = max((len(mono.out_word) for mono, _ in element.terms), default=0)
    columns = []
    for length in range(source_length + 1):
        for word in enumerate_admissible(model, length):
            if word and word[-1] == blocked:
                continue
            vertex = vertex_from_group_word(word, tail, model)
            column = {}
            for target, coeff in boundary_act_on_vertex(element, vertex, tail, model).items():
                if target.eigenvalue < 0:
                    continue
                if len(target.group_word) > source_length + growth:
                    raise ValueError("the image escaped the certified window")
                column[vertex_key(target, tail, model)] = coeff
            columns.append(column)
    return columns


def test_multiindex_weight_matches_the_stated_small_cases():
    assert multiindex_weight((0,)) == 1
    assert multiindex_weight((1,)) == Fraction(1, 2)
    assert multiindex_weight((0, 0)) == Fraction(1, 2)
    assert multiindex_weight((2,)) == Fraction(1, 6)
    assert multiindex_weight((1, 1)) == Fraction(1, 8)
    assert multiindex_weight((0, 0, 0)) == Fraction(1, 6)


def test_multiindex_weight_agrees_with_the_factorial_product_rule():
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

    for length in (1, 2, 3):
        for powers in indices(length, 4):
            assert multiindex_weight(powers) == by_running_products(powers)


@settings(max_examples=80, deadline=None)
@given(
    head=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    last=st.integers(min_value=0, max_value=5),
)
def test_multiindex_weight_peels_off_its_last_entry(head, last):
    powers = tuple(head) + (last,)
    peeled = multiindex_weight(tuple(head))
    step = Fraction(1, math.factorial(last) * (sum(powers) + len(powers)))
    assert multiindex_weight(powers) == peeled * step


def test_rising_half_coeffs_start_as_stated():
    assert rising_half_coeffs(0) == (Fraction(1),)
    assert rising_half_coeffs(1) == (Fraction(1, 2), Fraction(1))
    assert rising_half_coeffs(2) == (Fraction(3, 4), Fraction(2), Fraction(1))


def test_rising_half_coeffs_sum_against_halves_gives_factorials():
    for count in range(9):
        coefficients = rising_half_coeffs(count)
        total = sum(
            coeff * Fraction(1, 2) ** power
            for power, coeff in enumerate(coefficients)
        )
        assert total == math.factorial(count)


@settings(max_examples=80, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=8),
    numerator=st.integers(min_value=-20, max_value=20),
    denominator=st.integers(min_value=1, max_value=9),
)
def test_rising_half_coeffs_evaluate_like_the_defining_product(
    count, numerator, denominator
):
    point = Fraction(numerator, denominator)
    coefficients = rising_half_coeffs(count)
    evaluated = sum(
        coeff * point**power for power, coeff in enumerate(coefficients)
    )
    product = Fraction(1)
    for j in range(count):
        product *= point + j + Fraction(1, 2)
    assert evaluated == product


def test_cochain_summands_count_what_the_assembly_builds():
    """The closed count of summands equals the summands both cochains
    assemble, for every dimension proxy up to 14 (cutoffs up to 14)."""
    for dimension in range(1, 15):
        built = sum(
            len(_assemble(arity, multiindex_cutoff(dimension, arity), "finite-rank").summands)
            for arity in (1, 3)
        )
        assert cochain_summands(dimension) == built


def test_combinatorial_weight_validation():
    with pytest.raises(ValueError, match="at least one"):
        multiindex_weight(())
    with pytest.raises(ValueError, match="nonnegative"):
        multiindex_weight((1, -1))
    with pytest.raises(ValueError, match="nonnegative"):
        rising_half_coeffs(-1)
    with pytest.raises(ValueError, match="positive"):
        multiindex_cutoff(0, 1)
    with pytest.raises(ValueError, match="positive"):
        multiindex_cutoff(2, 0)
    assert multiindex_cutoff(2, 1) == 2
    assert multiindex_cutoff(2, 3) == 0
    assert multiindex_cutoff(1, 1) == 0
    assert multiindex_cutoff(1, 3) == 0


# Dense oracle of the collapsed square iterate that the cochain assembly
# records for every positive multi-index.

def square_modulus_iterate(matrix: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """One bracket of the squared modulus twisted by its own conjugation.

    Written out entrywise the bracket is d_i^2 t_ij - (d_i^2 t_ij / d_j^2)
    d_j^2, so it vanishes identically up to floating-point cancellation;
    the matrix returned is that defect.
    """
    side = matrix.shape[0]
    if matrix.shape != (side, side):
        raise ValueError("a square window matrix is required")
    if modulus.shape != (side,):
        raise ValueError("the modulus diagonal must match the window")
    if np.any(modulus <= 0.0):
        raise ValueError("the operator modulus is positive")
    square = modulus * modulus
    plain = square[:, None] * matrix
    conjugated = plain / square[None, :]
    return plain - conjugated * square[None, :]


def test_square_modulus_iterate_vanishes_identically_on_windows():
    rng = np.random.default_rng(7)
    matrix = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
    for modulus in (
        np.exp(np.abs(np.arange(-10, 11, dtype=float))),
        np.abs(build_dirac(10)),
    ):
        defect = square_modulus_iterate(matrix, modulus)
        scale = np.max(np.abs(modulus[:, None] ** 2 * matrix))
        assert np.max(np.abs(defect)) <= 1e-12 * scale


def test_square_modulus_iterate_validation():
    matrix = np.eye(4)
    with pytest.raises(ValueError, match="square"):
        square_modulus_iterate(np.ones((4, 3)), np.ones(4))
    with pytest.raises(ValueError, match="match"):
        square_modulus_iterate(matrix, np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        square_modulus_iterate(matrix, np.array([1.0, 2.0, 0.0, 1.0]))


def test_group_unitary_is_unitary_and_translates_the_boundary():
    model = FreeGroup(2)
    unitary = group_unitary(0, model)
    assert elements_equal(
        multiply(unitary, adjoint(unitary), model), CKElement.unit(), model
    )
    assert elements_equal(
        multiply(adjoint(unitary), unitary, model), CKElement.unit(), model
    )
    assert elements_equal(adjoint(unitary), group_unitary(1, model), model)

    start = word_key((), T, model)
    forward = act_on_vertex(unitary, start, 0, model)
    assert forward == {word_key((0,), T, model): Fraction(1)}
    undone = word_key((1,), T, model)
    back = act_on_vertex(unitary, undone, 0, model)
    assert back == {start: Fraction(1)}


def test_cochain_word_trace_is_the_rank_one_projection_value():
    model = FreeGroup(2)
    assert cochain_word_trace((1, 0), 0, model) == {(0, 2): Fraction(-2)}


def test_cochain_word_trace_validation():
    model = FreeGroup(2)
    with pytest.raises(ValueError, match="leading element"):
        cochain_word_trace((0,), 0, model)
    with pytest.raises(ValueError, match="outside alphabet"):
        cochain_word_trace((1, 0), 4, model)
    with pytest.raises(ValueError, match="outside alphabet"):
        cochain_word_trace((1, 4), 0, model)


def test_free_group_cochain_vanishes_with_certificates():
    model = FreeGroup(2)
    single = free_group_cochain((1, 0), 0, model, cutoff=2)
    assert single.exact_zero
    assert single.value == 0.0
    assert len(single.summands) == 6
    assert {summand.powers for summand in single.summands} == {(0,), (1,), (2,)}
    assert single.certificates == ("finite-rank", "collapsed-square-iterate")
    by_key = {(s.powers, s.order): s.weight for s in single.summands}
    assert by_key[((0,), 0)] == 1
    assert by_key[((1,), 0)] == Fraction(-1, 4)
    assert by_key[((1,), 1)] == Fraction(-1, 2)
    assert by_key[((2,), 0)] == Fraction(1, 8)
    assert by_key[((2,), 1)] == Fraction(1, 3)
    assert by_key[((2,), 2)] == Fraction(1, 6)

    triple = free_group_cochain((1, 0, 1, 0), 0, model, cutoff=0)
    assert triple.exact_zero
    assert len(triple.summands) == 2
    assert triple.certificates == ("finite-rank",)
    weights = {s.order: s.weight for s in triple.summands}
    assert weights == {0: Fraction(1, 12), 1: Fraction(1, 6)}


# Float oracle of the exact circle word traces: the dense word matrix on
# mode windows, its diagonal summed over each modulus |D_n|, settled when
# the two largest windows agree termwise.

def window_word(symbols: tuple[TrigPoly, ...], window: int) -> np.ndarray:
    """P M_{s0} [P, M_{s1}] |D| ... [P, M_{sa}] |D| |D|^-a on the window."""
    phase = build_phase(window)
    modulus = np.abs(build_dirac(window))
    total = phase[:, None] * mult_op(symbols[0], window)
    for symbol in symbols[1:]:
        block = mult_op(symbol, window)
        bracket = phase[:, None] * block - block * phase[None, :]
        total = total @ (bracket * modulus[None, :])
    return total * modulus[None, :] ** float(1 - len(symbols))


def stabilized_diagonal(
    symbols: tuple[TrigPoly, ...], windows: tuple[int, int] = (36, 48)
) -> dict[int, complex]:
    """Diagonal of the window word summed over each modulus, once the two
    windows agree on every modulus to 1e-10."""
    sums = []
    for window in windows:
        merged: dict[int, complex] = {}
        moduli = np.abs(build_dirac(window)).astype(int).tolist()
        for base, value in zip(moduli, np.diag(window_word(symbols, window)).tolist()):
            merged[base] = merged.get(base, 0.0) + value
        sums.append(merged)
    smaller, larger = sums
    for base in set(smaller) | set(larger):
        drift = abs(smaller.get(base, 0.0) - larger.get(base, 0.0))
        assert drift <= 1e-10, f"diagonal at |D| = {base} moved by {drift}"
    return {base: value for base, value in larger.items() if value != 0.0}


def test_circle_word_trace_matches_the_stated_values():
    assert circle_word_trace((-1, 1)) == {1: Fraction(-2)}
    assert circle_word_trace((-2, 2)) == {1: Fraction(-2), 2: Fraction(-2)}
    assert circle_word_trace((1, 1)) == {}
    with pytest.raises(ValueError, match="leading symbol"):
        circle_word_trace((1,))


@pytest.mark.parametrize("power", [1, -1, 2])
@pytest.mark.parametrize("arity", [1, 3])
def test_circle_word_trace_matches_the_stabilized_window_diagonal(power, arity):
    powers = [-power if position % 2 == 0 else power for position in range(arity + 1)]
    exact = circle_word_trace(powers)
    oracle = stabilized_diagonal(tuple(TrigPoly.coordinate(k) for k in powers))
    assert exact
    for base in set(exact) | set(oracle):
        assert abs(complex(exact.get(base, 0)) - oracle.get(base, 0.0)) <= 1e-12


def test_circle_word_trace_matches_the_window_diagonal_on_every_small_tuple():
    """Every tuple (k0, ..., ka) with |k_i| <= 2 at arities 1 and 3, 650 in
    all, against the dense window diagonal."""
    coordinates = {power: TrigPoly.coordinate(power) for power in range(-2, 3)}
    for arity in (1, 3):
        for powers in itertools.product(coordinates, repeat=arity + 1):
            exact = circle_word_trace(powers)
            oracle = stabilized_diagonal(tuple(coordinates[power] for power in powers))
            for base in set(exact) | set(oracle):
                drift = abs(complex(exact.get(base, 0)) - oracle.get(base, 0.0))
                assert drift <= 1e-12, (powers, base)


def test_circle_support_check_refuses_a_factor_without_its_bracket(monkeypatch):
    """D in place of its phase P as the sign the circle hands the orbit
    walker: the factor [D, M_z] |D| = M_z |D| weighs every mode of the
    arity-1 word, not only the one crossing the phase jump, and the support
    check refuses it.  At arity 3 the remaining brackets would still bound
    the support."""
    walk = cochain._orbit_trace

    def unbracketed(step, sign, sources, word, support, fold):
        return walk(step, lambda mode: mode, sources, word, support, fold)

    monkeypatch.setattr(cochain, "_orbit_trace", unbracketed)
    coordinate = TrigPoly.coordinate()
    with pytest.raises(ValueError, match="certified support bound"):
        circle_cochain((coordinate.conjugate(), coordinate), cutoff=0)


def test_circle_cochain_vanishes_on_the_coordinate_pair():
    coordinate = TrigPoly.coordinate()
    conjugate = coordinate.conjugate()
    single = circle_cochain((conjugate, coordinate), cutoff=0)
    assert single.exact_zero
    assert single.value == 0.0
    assert single.certificates == ("stabilized-dirichlet",)
    assert len(single.summands) == 1

    triple = circle_cochain(
        (conjugate, coordinate, conjugate, coordinate), cutoff=0
    )
    assert triple.exact_zero
    assert len(triple.summands) == 2


def test_circle_cochain_validation():
    coordinate = TrigPoly.coordinate()
    with pytest.raises(ValueError, match="leading symbol"):
        circle_cochain((coordinate,), cutoff=0)
    with pytest.raises(ValueError, match="odd"):
        circle_cochain(
            (coordinate.conjugate(), coordinate, coordinate), cutoff=0
        )
    for symbol in (TrigPoly.from_dict({1: 2.0}), TrigPoly.from_dict({1: 1.0, 2: 1.0})):
        with pytest.raises(ValueError, match="monomial"):
            circle_cochain((symbol.conjugate(), symbol), cutoff=0)


def test_boundary_translation_index_matches_the_letter_table():
    model = FreeGroup(2)
    table = {
        name: boundary_translation_index(model.letter_index(name), 0, model)
        for name in ("a1", "b1", "a2", "b2")
    }
    assert table == {"a1": -1, "b1": 1, "a2": 0, "b2": 0}

    wider = FreeGroup(3)
    assert boundary_translation_index(wider.letter_index("a1"), 0, wider) == -1
    assert boundary_translation_index(wider.letter_index("b3"), 0, wider) == 0
    with pytest.raises(ValueError, match="outside alphabet"):
        boundary_translation_index(0, model.size, model)


def test_compressed_kernel_dimension_sees_the_missing_basis_vector():
    model = FreeGroup(2)
    assert compressed_kernel_dimension(1, 0, model, 4) == 1
    assert compressed_kernel_dimension(0, 0, model, 4) == 0
    with pytest.raises(ValueError, match="source window"):
        compressed_kernel_dimension(0, 0, model, 0)
    with pytest.raises(ValueError, match="outside alphabet"):
        compressed_kernel_dimension(4, 0, model, 4)
    with pytest.raises(ValueError, match="outside alphabet"):
        compressed_kernel_dimension(0, 4, model, 4)


def test_windows_past_the_old_key_range_give_the_kernel_indicator():
    """d=2 L=24 and d=3 L=19, the first windows whose int64 target keys
    could pass 2**63 and which were refused for it, and a window of a
    million letters: the kernel dimension is 1 exactly when the letter is
    the anchor's inverse, for every anchor and letter."""
    for generators, lengths in ((2, (24, 10**6)), (3, (19,))):
        model = FreeGroup(generators)
        for anchor in range(model.size):
            for letter in range(model.size):
                expected = int(model.inverse(letter) == anchor)
                for source_length in lengths:
                    assert compressed_kernel_dimension(
                        letter, anchor, model, source_length
                    ) == expected


def test_head_counts_by_first_letter_match_the_enumerated_heads():
    """The multiplicities a leaving cell of the kernel count would read:
    every head of each length, and those of each first letter, relabelled
    so that the anchor is 0, as the per-letter walk enumerates them, for
    every anchor of d=1 to 4."""
    for generators, top in ((1, 4), (2, 7), (3, 5), (4, 4)):
        model = FreeGroup(generators)
        base = model.size + 1
        for anchor in range(model.size):
            for length, heads in enumerate(enumerated_head_codes(model, anchor, top, base)):
                if length == 0:
                    continue
                assert _head_count(model, None, length) == heads.size
                firsts = np.bincount(heads % base - 1, minlength=model.size)
                for first in range(model.size):
                    relabelled = to_anchor_zero(first, anchor)
                    assert _head_count(model, relabelled, length) == firsts[first]


def _counterexample_words(model: FreeGroup) -> Iterator[tuple[int, ...]]:
    """The words of the counterexample's cochains, arity one and three, for
    every pairing letter."""
    for letter in range(model.size):
        for arity in (1, 3):
            yield tuple(letter ^ 1 if position % 2 == 0 else letter for position in range(arity + 1))


def test_word_trace_matches_the_per_letter_walk():
    """Every anchor of d=1 to 4, the words (1, 0) and (2, 0, 3, 1) and the
    counterexample's words: the walk by letter class returns the trace of
    the walk over every letter."""
    for generators in (1, 2, 3, 4):
        model = FreeGroup(generators)
        words = [(1, 0), *_counterexample_words(model)]
        if generators > 1:
            words.append((2, 0, 3, 1))
        for anchor in range(model.size):
            for letters in words:
                assert cochain_word_trace(letters, anchor, model) == per_letter_word_trace(
                    letters, anchor, model
                ), (generators, anchor, letters)


def test_word_trace_matches_the_per_letter_walk_on_every_short_word():
    """Every word of two to four letters over letters 0..3, 3360 cases with
    every anchor of d=2 and 3: the same trace as the walk over every
    letter, non-reduced words included.  The walk first sends the anchor
    to 0, so it runs once per word it sees after that relabelling."""
    for generators in (2, 3):
        model = FreeGroup(generators)
        walked: dict[tuple[int, ...], dict[tuple[int, int], Fraction]] = {}
        for anchor in range(model.size):
            for size in (2, 3, 4):
                for letters in itertools.product(range(4), repeat=size):
                    word = tuple(to_anchor_zero(letter, anchor) for letter in letters)
                    if word not in walked:
                        walked[word] = per_letter_word_trace(word, 0, model)
                    trace = cochain_word_trace(letters, anchor, model)
                    assert trace == walked[word], (generators, anchor, letters)


def test_word_traces_translate_as_many_vertices_at_every_rank(monkeypatch):
    """The counterexample's words at anchor a1 and pairing letters a1 and a2
    translate as many vertices at d=5, 40, 3000 and 10^9: 7 per letter
    when the word touches only the anchor's pair (the empty head at its 7
    offsets), 53 when it touches one more."""
    sizes = []
    translate = cochain._translate

    def counted(letter, base, code, length, offset):
        sizes.append(np.size(code))
        return translate(letter, base, code, length, offset)

    monkeypatch.setattr(cochain, "_translate", counted)
    for letters, per_letter in (((1, 0), 7), ((1, 0, 1, 0), 7), ((3, 2), 53), ((3, 2, 3, 2), 53)):
        for generators in (5, 40, 3000, 10**9):
            sizes.clear()
            cochain_word_trace(letters, 0, FreeGroup(generators))
            assert sum(sizes) == len(letters) * per_letter, (letters, generators)


def test_translation_keeps_offset_minus_length_on_a_non_empty_word():
    """On every reduced word of one to three letters over 1 to 3 generator
    pairs, a superset of the non-empty heads, at every letter and offsets
    -3..5, a translation keeps offset - length.  A vertex's sign thus
    changes only on the empty head, which a head holding a letter outside
    the word never reaches; on this ground the word traces walk only the
    heads over the word's own letters."""
    offsets = np.arange(-3, 6)
    for pairs in (1, 2, 3):
        model = FreeGroup(pairs)
        base = model.size + 1
        for length in (1, 2, 3):
            heads = np.array([word_code(word, base) for word in enumerate_admissible(model, length)])
            code, offset = np.repeat(heads, offsets.size), np.tile(offsets, heads.size)
            for letter in range(model.size):
                _, landed, shifted = _translate(letter, base, code, length, offset)
                assert np.array_equal(shifted - landed, offset - length), (pairs, length, letter)


def test_word_trace_support_check_refuses_a_narrower_bound(monkeypatch):
    """With the certified reach lowered to zero letters, the vertex at the
    empty head and offset -1 keeps its coefficient outside the bound, and
    the support check refuses the word."""
    monkeypatch.setattr(cochain, "_TRACE_REACH", 0)
    with pytest.raises(ValueError, match="certified support bound"):
        cochain_word_trace((1, 0), 0, FreeGroup(2))


def test_compressed_translation_index_confirms_the_formula():
    model = FreeGroup(2)
    for name in ("a1", "b1", "a2", "b2"):
        letter = model.letter_index(name)
        assert compressed_translation_index(
            letter, 0, model, source_length=5
        ) == boundary_translation_index(letter, 0, model)


def _coefficients():
    return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def generator_sums(draw, model: FreeGroup) -> CKElement:
    """Rational combinations of products of generators and their adjoints,
    and sometimes a one-letter refinement S_{mu k} S_{nu k}^* of one of
    their terms S_mu S_nu^*, which sends every vertex it keeps to where
    that term sends it, so that two terms merge on one target."""
    total = CKElement(())
    for _ in range(draw(st.integers(1, 3))):
        product = CKElement.unit()
        for _ in range(draw(st.integers(1, 3))):
            factor = generator(draw(st.integers(0, model.size - 1)), model)
            if draw(st.booleans()):
                factor = adjoint(factor)
            product = multiply(product, factor, model)
        coefficient = draw(_coefficients())
        total = element_sum(
            total, CKElement.from_terms({m: c * coefficient for m, c in product.terms})
        )
    if total.terms and draw(st.booleans()):
        mono, _ = draw(st.sampled_from(total.terms))
        ends = [word[-1] for word in (mono.out_word, mono.in_word) if word]
        letter = draw(
            st.sampled_from(
                [k for k in range(model.size) if all(model.allows(end, k) for end in ends)]
            )
        )
        refined = Monomial(mono.out_word + (letter,), mono.in_word + (letter,))
        total = element_sum(total, CKElement.of(refined, draw(_coefficients())))
    return total


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vertex_engine_matches_the_boundary_oracle(data):
    """The oracles agree: the integer-key action of a generator sum, which
    test_traces simulates with, is the boundary-word action it replaced."""
    generators = data.draw(st.sampled_from((2, 3)))
    model = FreeGroup(generators)
    anchor = data.draw(st.integers(0, model.size - 1))
    tail = BoundaryPoint((), (anchor,))
    window = data.draw(st.integers(1, 4))
    element = data.draw(generator_sums(model))
    for length in range(window + 1):
        for word in enumerate_admissible(model, length):
            vertex = vertex_from_group_word(word, tail, model)
            expected = {
                vertex_key(target, tail, model): coeff
                for target, coeff in boundary_act_on_vertex(element, vertex, tail, model).items()
            }
            assert act_on_vertex(element, vertex_key(vertex, tail, model), anchor, model) == expected


def test_translation_step_matches_both_oracles():
    """On every vertex carried by a group word of at most four letters, for
    every anchor and letter of d=2 and d=3, the array step, on letters
    relabelled so that the anchor is 0, lands where the
    translation element and the boundary-word action send the vertex."""
    for generators in (2, 3):
        model = FreeGroup(generators)
        base = model.size + 1
        for anchor in range(model.size):
            tail = BoundaryPoint((), (anchor,))
            vertices = [
                vertex_from_group_word(word, tail, model)
                for length in range(5)
                for word in enumerate_admissible(model, length)
            ]
            keys = [vertex_key(vertex, tail, model) for vertex in vertices]
            relabelled = [tuple(to_anchor_zero(k, anchor) for k in head) for head, _ in keys]
            code = np.array([word_code(head, base) for head in relabelled], dtype=np.int64)
            length = np.array([len(head) for head, _ in keys], dtype=np.int64)
            offset = np.array([offset for _, offset in keys], dtype=np.int64)
            for letter in range(model.size):
                unitary = group_unitary(letter, model)
                moved = _translate(to_anchor_zero(letter, anchor), base, code, length, offset)
                for vertex, key, (landed, size, shifted) in zip(
                    vertices, keys, zip(*(part.tolist() for part in moved))
                ):
                    head = tuple(to_anchor_zero(k, anchor) for k in word_of_code(landed, base))
                    assert size == len(head)
                    image = {(head, shifted): Fraction(1)}
                    assert act_on_vertex(unitary, key, anchor, model) == image
                    boundary = boundary_act_on_vertex(unitary, vertex, tail, model)
                    assert {vertex_key(t, tail, model): c for t, c in boundary.items()} == image


def test_compressed_kernel_dimension_matches_the_boundary_oracle():
    """The count equals the exact elimination of the oracle's window, whose
    kept columns never share a target: a translation permutes the
    vertices, which is the premise of counting leaving columns."""
    for generators, top in ((2, 5), (3, 4), (4, 3)):
        model = FreeGroup(generators)
        for anchor in range(model.size):
            tail = BoundaryPoint((), (anchor,))
            for letter in range(model.size):
                unitary = group_unitary(letter, model)
                for source_length in range(1, top + 1):
                    columns = boundary_window_columns(unitary, tail, model, source_length)
                    targets = [target for column in columns for target in column]
                    assert len(targets) == len(set(targets))
                    assert compressed_kernel_dimension(
                        letter, anchor, model, source_length
                    ) == eliminated_nullity(columns, {})


def test_sparse_nullity_counts_targets_and_eliminates_the_rest():
    first: VertexKey = ((), 1)
    second: VertexKey = ((2,), 1)
    third: VertexKey = ((2, 2), 2)

    def check(columns: list[dict[VertexKey, Fraction]], nullity: int) -> None:
        assert eliminated_nullity(columns, {}) == nullity

    check([{first: Fraction(2)}, {}, {second: Fraction(-1)}, {}], 2)
    # Two sources hitting one target: the nonempty columns overcount the
    # rank by one.
    merged = [{first: Fraction(1)}, {second: Fraction(1)}, {first: Fraction(3)}]
    check(merged, 3 - 2)
    check(merged + [{third: Fraction(1)}, {first: Fraction(-1)}], 5 - 3)
    # Columns with two entries: their entries overcount the rank.
    check(merged + [{second: Fraction(1), third: Fraction(1)}, {first: Fraction(-1)}], 5 - 3)
    for spread, rank in (
        ([{first: Fraction(1), second: Fraction(1)}], 1),
        ([{third: Fraction(1)}, {first: Fraction(1), second: Fraction(-1)}] * 2, 2),
        ([{first: Fraction(1), second: Fraction(1)}, {first: Fraction(1)}, {third: 1}], 3),
    ):
        check(spread, len(spread) - rank)
    # A zero coefficient is no entry.
    check([{first: Fraction(0)}, {first: Fraction(1)}], 1)


def test_counterexample_verdict_free_group():
    verdict = counterexample_verdict("free_group", source_length=6)
    assert isinstance(verdict, CounterexampleReport)
    assert verdict.family == "free_group"
    assert verdict.passed
    assert verdict.pairing == -1
    assert {record.value for record in verdict.checks} == {-1}
    assert tuple(report.arity for report in verdict.cochains) == (1, 3)
    assert all(report.exact_zero for report in verdict.cochains)
    words = {
        (report.arity, summand.powers)
        for report in verdict.cochains
        for summand in report.summands
    }
    assert len(words) == 4
    assert [record.exact for record in verdict.checks] == [True, False]

    reversed_letter = counterexample_verdict(
        "free_group", pairing_letter="b1", source_length=6
    )
    assert reversed_letter.passed
    assert reversed_letter.pairing == 1

    detached = counterexample_verdict(
        "free_group", pairing_letter="a2", source_length=6
    )
    assert not detached.passed
    assert detached.pairing == 0
    assert all(report.exact_zero for report in detached.cochains)


def test_counterexample_verdict_circle_and_moebius():
    circle = counterexample_verdict("circle", max_mode=64)
    assert circle.passed
    assert circle.pairing == -1
    assert len(circle.checks) == 2
    assert all(record.value == -1 for record in circle.checks)
    assert [record.exact for record in circle.checks] == [False, True]

    crossed = counterexample_verdict("moebius", max_mode=64)
    assert crossed.passed
    assert crossed.pairing == -1
    assert len(crossed.checks) == 3
    assert {record.method for record in crossed.checks} == {
        "toeplitz compression",
        "winding number",
        "covariant compression",
    }

    with pytest.raises(ValueError, match="family"):
        counterexample_verdict("torus")
