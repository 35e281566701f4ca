"""Reduced-word combinatorics on the boundary of the free group.

This module is the ground layer shared by the symbolic and operator
components: the free group on d generators as a 2d-letter alphabet whose
only forbidden transition is a letter followed by its inverse, finite
reduced words and their transfer counts by letter class, the eigenvalue
of a vertex, and the species decompositions of the free-group escape
counts that the closed-form traces resum.  Every vertex space hangs over
the fixed point a^inf of one anchor letter a, so a boundary point is
named by that letter alone; :func:`relabel` makes it the first
generator, letter 0, for the traces and the cochains alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

Word = tuple[int, ...]


@dataclass(frozen=True)
class FreeGroup:
    """The free group on ``generators`` generators, as an alphabet of 2d
    letters: ``2j`` and ``2j + 1`` are the (j+1)-th generator and its
    inverse.  A letter may follow any letter but its inverse, so the
    admissible words are the reduced words.
    """

    generators: int

    def __post_init__(self) -> None:
        if self.generators < 1:
            raise ValueError("need at least one generator")

    @property
    def size(self) -> int:
        return 2 * self.generators

    def allows(self, first: int, second: int) -> bool:
        """Whether the letter ``second`` may directly follow ``first``."""
        return second != first ^ 1

    def inverse(self, letter: int) -> int:
        """Inverse letter in the free-group pairing."""
        self.check_letter(letter)
        return letter ^ 1

    def letter_index(self, name: str) -> int:
        """Letter of a name: a1, b1, a2, b2, ... for the generators and their
        inverses, or the letter's digits."""
        if len(name) >= 2 and name[0] in "ab":
            tail = name[1:]
            if tail.isdigit() and int(tail) >= 1:
                index = 2 * (int(tail) - 1) + (0 if name[0] == "a" else 1)
                if index < self.size:
                    return index
        elif name.isdigit() and int(name) < self.size:
            return int(name)
        raise ValueError(f"unknown letter name {name!r}")

    def check_letter(self, letter: int) -> None:
        """Raise when ``letter`` is outside the alphabet."""
        if not 0 <= letter < self.size:
            raise ValueError(f"letter {letter} outside alphabet of size {self.size}")


def relabel(letters: Sequence[int], anchor: int) -> tuple[list[int], int]:
    """The letters on the generator pairs they touch, taken in first-seen
    order with the anchor's pair first and the anchor as letter 0, and the
    code base 2 * pairs + 1 of the heads over those pairs.  The map extends
    to an automorphism of the alphabet, which keeps every count."""
    pairs = list(dict.fromkeys([anchor >> 1, *(letter >> 1 for letter in letters)]))
    word = [2 * pairs.index(letter >> 1) | (letter ^ anchor) & 1 for letter in letters]
    return word, 2 * len(pairs) + 1


def transfer_counts(
    model: FreeGroup, after: int | None, top: int
) -> Iterator[tuple[int, int, int]]:
    """Reduced words that may follow the letter ``after`` (any first
    letter when None), counted by the class of their last letter (0, 1,
    any other): one triple per length 1..top.

    The transfer step is ``row'[b] = sum(row) - row[b ^ 1]``.  The
    automorphisms fixing the pairs of 0 and of ``after`` permute the other
    2d - 4 letters, so ``after`` is relabelled into 0..2, the row keeps
    letters 0..3 (0 and 1 at d = 1), and ``others`` sums the equal counts
    of the rest: each step is O(1) in d.
    """
    banned = None if after is None else min(after, 2) ^ 1
    n0, n1, n2, n3 = (int(b != banned and b < model.size) for b in range(4))
    rest = max(model.size - 4, 0)
    others = rest
    for length in range(1, top + 1):
        if length > 1:
            total = n0 + n1 + n2 + n3 + others
            n0, n1 = total - n1, total - n0
            if model.size > 2:
                n2, n3 = total - n3, total - n2
            others = rest * total - others
        yield n0, n1, n2 + n3 + others


def settled_eigenvalue(depth: np.ndarray | int, offset: np.ndarray | int) -> np.ndarray:
    """Absolute Dirac eigenvalue of a vertex whose word settles at ``depth``,
    elementwise over arrays.

    The synchronization depth of such a vertex is
    ``k = max(max(0, -offset), depth - offset)``; its eigenvalue is the
    offset when k is zero and ``-|offset| - k`` otherwise, and this drops
    the sign: max(offset, depth, depth - 2 offset).
    """
    if (np.asarray(depth) < 0).any():
        raise ValueError("settle depth is nonnegative")
    value = np.maximum(np.maximum(offset, depth), depth - 2 * offset)
    return value


Species = tuple[tuple[Fraction, int], ...]


def _escape_letter(model: FreeGroup, after: int) -> tuple[int, int, int]:
    """Generator count; 1 if ``after`` is the first generator or its inverse,
    else 0 (``marked``); +1, -1 or 0 for the generator, its inverse or any
    other letter (``signed``)."""
    model.check_letter(after)
    marked = 1 if after in (0, 1) else 0
    signed = (1 if after == 0 else 0) - (1 if after == 1 else 0)
    return model.generators, marked, signed


def settling_species(model: FreeGroup, after: int) -> Species:
    """Pairs ``(c, a)`` whose sum of ``c * a**n`` is, at every depth
    ``n >= 1``, the number of admissible words of length ``n`` that may follow
    the letter ``after`` and end in neither the first generator nor its
    inverse: the prefixes gluing to the anchor's fixed point with settle depth
    ``n``.

    The amplitudes are the eigenvalues 2d-1 and -1 of the free-group
    transfer matrix; the closed-form traces resum these same pairs.
    """
    d, marked, _ = _escape_letter(model, after)
    return ((Fraction(d - 1, d), 2 * d - 1), (Fraction(1, d) - marked, -1))


def extension_species(model: FreeGroup, after: int) -> Species:
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
