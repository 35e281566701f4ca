"""Admissible-word combinatorics on subshifts of finite type.

This module is the ground layer shared by the symbolic and operator
components: square 0/1 adjacency models with a distinguished free-group
constructor, finite admissible words, eventually periodic boundary points,
the cancellation, settling and eigenvalue bookkeeping attached to a fixed
boundary tail, and the species decompositions of the free-group escape
counts that the closed-form traces resum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

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


def enumerate_admissible(
    model: AdjacencyModel,
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
        return [EMPTY_WORD] if first is None and last is None else []

    found: list[Word] = []
    prefix: list[int] = []

    def extend() -> None:
        depth = len(prefix)
        if depth == length:
            if last is None or last(prefix[-1]):
                found.append(tuple(prefix))
            return
        for letter in range(model.size):
            if depth == 0:
                if first is not None and not first(letter):
                    continue
            elif not model.allows(prefix[-1], letter):
                continue
            prefix.append(letter)
            extend()
            prefix.pop()

    extend()
    return found


def transfer_counts(
    model: AdjacencyModel, after: int | None, top: int
) -> Iterator[list[int]]:
    """Admissible words that may follow the letter ``after`` (any first
    letter when None), counted by last letter: one list per length 1..top.

    Each length is one step of the integer transfer matrix over
    predecessor lists built once per call; only the current row is kept.
    """
    size = model.size
    feeders = [[a for a in range(size) if model.allows(a, b)] for b in range(size)]
    row = [1 if after is None or model.allows(after, b) else 0 for b in range(size)]
    for length in range(1, top + 1):
        if length > 1:
            row = [sum([row[a] for a in into]) for into in feeders]
        yield row


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic infinite word.

    Instances are canonicalized on construction: the period is primitive
    and the preperiod is as short as possible, so structural equality
    coincides with equality of the represented infinite words.
    Admissibility depends on a model and is checked separately via
    :meth:`admissible_for`.
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

    def letter_at(self, position: int) -> int:
        """Letter at a 1-based position of the infinite word."""
        if position < 1:
            raise ValueError("positions are 1-based")
        index = position - 1
        if index < len(self.preperiod):
            return self.preperiod[index]
        return self.period[(index - len(self.preperiod)) % len(self.period)]

    def prefix(self, length: int) -> Word:
        return tuple(self.letter_at(i) for i in range(1, length + 1))

    def shift(self, steps: int = 1) -> BoundaryPoint:
        """Boundary point with the first ``steps`` letters removed."""
        if steps < 0:
            raise ValueError("cannot shift backwards")
        drop = min(steps, len(self.preperiod))
        remaining = steps - drop
        period = self.period
        if remaining:
            cut = remaining % len(period)
            period = period[cut:] + period[:cut]
        return BoundaryPoint(self.preperiod[drop:], period)

    def admissible_for(self, model: AdjacencyModel) -> bool:
        """Whether all junctions of the infinite word are allowed.

        The wrap-around junction of the period is included, which covers
        every consecutive pair of the infinite word.
        """
        probe = self.preperiod + self.period + (self.period[0],)
        return is_admissible(probe, model)


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


def concatenate(word: Word, point: BoundaryPoint) -> BoundaryPoint:
    """Infinite word obtained by writing ``word`` before ``point``.

    No cancellation is performed; the caller is responsible for the
    junction being admissible when that matters.
    """
    return BoundaryPoint(word + point.preperiod, point.period)


def cancellations(word: Word, tail: BoundaryPoint, model: AdjacencyModel) -> int:
    """Number of letters cancelled when the word is prepended to the tail.

    This is the length of the longest suffix of the word that is the
    letterwise inverse of the matching prefix of the tail.
    """
    model.require_free_group()
    count = 0
    for back in range(len(word)):
        if word[len(word) - 1 - back] != model.inverse(tail.letter_at(back + 1)):
            break
        count += 1
    return count


def reduced_concatenate(
    word: Word, tail: BoundaryPoint, model: AdjacencyModel
) -> BoundaryPoint:
    """Free-group product of a reduced word with a boundary point."""
    cancelled = cancellations(word, tail, model)
    shifted = tail.shift(cancelled)
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
    word: Word, tail: BoundaryPoint, model: AdjacencyModel
) -> Vertex:
    """Vertex carried by a reduced group word relative to the tail."""
    if not is_admissible(word, model):
        raise ValueError("the group word must be reduced")
    cancelled = cancellations(word, tail, model)
    return Vertex(word, len(word) - 2 * cancelled, cancelled)


def vertex_boundary(
    vertex: Vertex, tail: BoundaryPoint, model: AdjacencyModel
) -> BoundaryPoint:
    """Boundary word reached by prepending the vertex word to the tail."""
    return reduced_concatenate(vertex.group_word, tail, model)


def vertex_from_boundary(
    x: BoundaryPoint, offset: int, tail: BoundaryPoint, model: AdjacencyModel
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
    """Pairs ``(c, a)`` with :func:`settling_tail_count` equal to the sum of
    ``c * a**n`` at every depth ``n >= 1``.

    The amplitudes are the eigenvalues 2d-1 and -1 of the free-group
    adjacency matrix; the closed-form traces resum these same pairs.
    """
    d, marked, _ = _escape_letter(model, after)
    return ((Fraction(d - 1, d), 2 * d - 1), (Fraction(1, d) - marked, -1))


def extension_species(model: AdjacencyModel, after: int) -> Species:
    """Pairs ``(c, a)`` with :func:`basis_extension_count` equal to the sum
    of ``c * a**n`` at every length ``n >= 1``."""
    d, marked, signed = _escape_letter(model, after)
    return (
        (Fraction(2 * d - 1, 2 * d), 2 * d - 1),
        (Fraction(1, 2 * d) - Fraction(marked, 2), -1),
        (Fraction(signed, 2), 1),
    )


def _species_count(species: Species, n: int) -> int:
    if n < 1:
        raise ValueError("word length must be positive")
    total = sum(c * a**n for c, a in species)
    if total.denominator != 1:
        raise ArithmeticError("species decomposition produced a non-integer count")
    return int(total)


def settling_tail_count(model: AdjacencyModel, depth: int, after: int) -> int:
    """Number of admissible words of length ``depth`` that may follow the
    letter ``after`` and end in neither the first generator nor its inverse.

    These are exactly the prefixes gluing to the distinguished fixed-point
    tail with settle depth equal to their length.  Evaluates
    :func:`settling_species`; tests compare it against exhaustive
    enumeration.
    """
    return _species_count(settling_species(model, after), depth)


def basis_extension_count(model: AdjacencyModel, length: int, after: int) -> int:
    """Number of admissible words of the given length that may follow the
    letter ``after`` and do not end in the inverse of the first generator.

    Companion of :func:`settling_tail_count` for the basis of words with no
    trailing inverse generator; evaluates :func:`extension_species`, again
    verified against enumeration.
    """
    return _species_count(extension_species(model, after), length)
