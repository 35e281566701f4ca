"""Admissible-word combinatorics on subshifts of finite type.

This module is the ground layer shared by the symbolic and operator
components: square 0/1 adjacency models with a distinguished free-group
constructor, finite admissible words, eventually periodic boundary points,
the integer vertex keys over a fixed-point tail with their eigenvalue
bookkeeping, and the species decompositions of the free-group escape
counts that the closed-form traces resum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


@dataclass(frozen=True)
class AdjacencyModel:
    """Finite alphabet with a square 0/1 transition matrix.

    ``generator_pairs`` is set by :func:`free_group`; it marks the model as
    a free group on that many generators, with letters ``2j`` and ``2j + 1``
    mutually inverse.
    """

    entries: tuple[tuple[int, ...], ...]
    generator_pairs: int | None = None

    def __post_init__(self) -> None:
        size = len(self.entries)
        if size == 0:
            raise ValueError("alphabet must be nonempty")
        for row in self.entries:
            if len(row) != size:
                raise ValueError("adjacency matrix must be square")
            if any(value not in (0, 1) for value in row):
                raise ValueError("adjacency entries must be 0 or 1")
        for index in range(size):
            if not any(self.entries[index]):
                raise ValueError(f"row {index} is identically zero")
            if not any(row[index] for row in self.entries):
                raise ValueError(f"column {index} is identically zero")
        if self.generator_pairs is not None and 2 * self.generator_pairs != size:
            raise ValueError("a free-group model needs twice as many letters as generators")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def is_free_group(self) -> bool:
        return self.generator_pairs is not None

    def require_free_group(self) -> None:
        if not self.is_free_group:
            raise ValueError("operation requires the free-group model")

    def allows(self, first: int, second: int) -> bool:
        """Whether the letter ``second`` may directly follow ``first``."""
        return self.entries[first][second] == 1

    def inverse(self, letter: int) -> int:
        """Inverse letter in the free-group pairing."""
        self.require_free_group()
        self._check_letter(letter)
        return letter ^ 1

    def letter_name(self, letter: int) -> str:
        """Readable name of a letter; generators are a1, b1, a2, b2, ..."""
        self._check_letter(letter)
        if not self.is_free_group:
            return str(letter)
        stem = "ab"[letter % 2]
        return f"{stem}{letter // 2 + 1}"

    def letter_index(self, name: str) -> int:
        """Inverse of :meth:`letter_name`."""
        if self.is_free_group and len(name) >= 2 and name[0] in "ab":
            tail = name[1:]
            if tail.isdigit() and int(tail) >= 1:
                index = 2 * (int(tail) - 1) + (0 if name[0] == "a" else 1)
                if index < self.size:
                    return index
        elif name.isdigit() and int(name) < self.size:
            return int(name)
        raise ValueError(f"unknown letter name {name!r}")

    def _check_letter(self, letter: int) -> None:
        if not 0 <= letter < self.size:
            raise ValueError(f"letter {letter} outside alphabet of size {self.size}")


def free_group(generators: int) -> AdjacencyModel:
    """Adjacency model of the free group on the given number of generators.

    A transition is allowed exactly when the second letter is not the
    inverse of the first, so admissible words are reduced words.
    """
    if generators < 1:
        raise ValueError("need at least one generator")
    size = 2 * generators
    rows = tuple(
        tuple(0 if second == first ^ 1 else 1 for second in range(size))
        for first in range(size)
    )
    return AdjacencyModel(rows, generator_pairs=generators)


def is_admissible(word: Word, model: AdjacencyModel) -> bool:
    """Whether every consecutive letter pair is an allowed transition.

    The empty word is admissible by convention.
    """
    for letter in word:
        model._check_letter(letter)
    return all(model.allows(a, b) for a, b in zip(word, word[1:]))


def admissible_levels(model: AdjacencyModel, top: int) -> Iterator[list[Word]]:
    """All admissible words of each length 0..top, one list per length.

    Each level is grown from the one before by the model's rows, so the
    words come in lexicographic order and no word is built twice.
    """
    if top < 0:
        raise ValueError("length must be nonnegative")
    successors = [
        tuple(b for b in range(model.size) if model.allows(a, b)) for a in range(model.size)
    ]
    level = [EMPTY_WORD]
    yield level
    if top:
        level = [(letter,) for letter in range(model.size)]
        yield level
    for _ in range(top - 1):
        level = [word + (b,) for word in level for b in successors[word[-1]]]
        yield level


def transfer_counts(
    model: AdjacencyModel, after: int | None, top: int
) -> Iterator[list[int]]:
    """Reduced words that may follow the letter ``after`` (any first
    letter when None), counted by last letter: one list per length 1..top.

    Each length is one O(d) step of the free group's transfer matrix: a
    word may end in ``b`` unless its previous letter is ``b ^ 1``, so
    ``row'[b] = sum(row) - row[b ^ 1]``.  Only the current row is kept.
    """
    model.require_free_group()
    row = [0 if after is not None and b == after ^ 1 else 1 for b in range(model.size)]
    for length in range(1, top + 1):
        if length > 1:
            total = sum(row)
            row = [total - row[b ^ 1] for b in range(model.size)]
        yield row


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic infinite word.

    Instances are canonicalized on construction: the period is primitive
    and the preperiod is as short as possible, so structural equality
    coincides with equality of the represented infinite words.
    Admissibility depends on a model and is not checked here.
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


def fixed_point(letter: int) -> BoundaryPoint:
    """Boundary point repeating a single letter."""
    return BoundaryPoint(EMPTY_WORD, (letter,))


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


def settled_eigenvalue(depth: int, offset: int) -> int:
    """Absolute Dirac eigenvalue of a vertex whose word settles at ``depth``.

    The synchronization depth of such a vertex is
    ``max(max(0, -offset), depth - offset)``; this folds that together with
    :func:`dirac_eigenvalue` and drops the sign.
    """
    if depth < 0:
        raise ValueError("settle depth is nonnegative")
    if offset >= depth:
        return offset
    if offset >= 0:
        return depth
    return depth - 2 * offset


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


Species = tuple[tuple[Fraction, int], ...]


def _escape_letter(model: AdjacencyModel, after: int) -> tuple[int, int, int]:
    """Generator count; 1 if ``after`` is the first generator or its inverse,
    else 0 (``marked``); +1, -1 or 0 for the generator, its inverse or any
    other letter (``signed``)."""
    model.require_free_group()
    model._check_letter(after)
    d = model.generator_pairs
    assert d is not None
    marked = 1 if after in (0, 1) else 0
    signed = (1 if after == 0 else 0) - (1 if after == 1 else 0)
    return d, marked, signed


def settling_species(model: AdjacencyModel, after: int) -> Species:
    """Pairs ``(c, a)`` whose sum of ``c * a**n`` is, at every depth
    ``n >= 1``, the number of admissible words of length ``n`` that may follow
    the letter ``after`` and end in neither the first generator nor its
    inverse: the prefixes gluing to the fixed-point tail with settle depth
    ``n``.

    The amplitudes are the eigenvalues 2d-1 and -1 of the free-group
    adjacency matrix; the closed-form traces resum these same pairs.
    """
    d, marked, _ = _escape_letter(model, after)
    return ((Fraction(d - 1, d), 2 * d - 1), (Fraction(1, d) - marked, -1))


def extension_species(model: AdjacencyModel, after: int) -> Species:
    """Pairs ``(c, a)`` whose sum of ``c * a**n`` is, at every length
    ``n >= 1``, the number of admissible words of length ``n`` that may follow
    the letter ``after`` and do not end in the inverse of the first
    generator."""
    d, marked, signed = _escape_letter(model, after)
    return (
        (Fraction(2 * d - 1, 2 * d), 2 * d - 1),
        (Fraction(1, 2 * d) - Fraction(marked, 2), -1),
        (Fraction(signed, 2), 1),
    )
