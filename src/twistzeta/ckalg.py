"""Cuntz-Krieger monomial chains and the words they fix.

A monomial S_mu S_nu^* strips the word nu and writes mu in front.  The
trace engine needs two facts about a chain of monomials: the words of one
length on which the chain acts as the identity, counted by class (the
census), and the short basis words the chain maps to themselves.  Both
come from one depth-first walk over the prefixes the chain reads, counted
by the integer transfer matrix rather than by listing words, and neither
grows with the rank d: one stand-in meets the letters the chain does not
name.  The boundary translations of the free-group counterexample are
not built as monomials: :mod:`twistzeta.cochain` moves vertices by them
directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .words import FreeGroup, Word, transfer_counts


@dataclass(frozen=True)
class Monomial:
    """Partial isometry S_mu S_nu^*: strip ``in_word``, write ``out_word``."""

    out_word: Word
    in_word: Word


CylinderClass = tuple[int, int]


def _letter_class(word: Word) -> int | None:
    """Class of the last letter: the anchor 0, its inverse 1, any other
    letter 2, or None for the empty word."""
    return min(word[-1], 2) if word else None


def _anchor_run(word: Word) -> int:
    run = 0
    while run < len(word) and word[-1 - run] == 0:
        run += 1
    return run


def _class_counts(
    last: int | None, run: int, grow: int, model: FreeGroup
) -> dict[CylinderClass, int]:
    """Reduced words of ``grow`` more letters extending a word whose last
    letter has class ``last`` (None for the empty word) and whose trailing
    run of letter 0 is ``run``, counted by class (class of the last
    letter, trailing run of letter 0; the run is 0 unless the last letter
    is 0).

    The automorphisms fixing 0 and 1 permute the other letters, so letter 2
    stands for its class.  A run of exactly t < grow ends a word u c with c
    neither 0 nor its inverse 1, so it is counted by the transfer row of
    length grow - t; the one extension made of 0 alone continues the
    word's own run.
    """
    if grow == 0:
        return {(last, run): 1}
    rows = list(transfer_counts(model, last, grow))
    counts = {(1, 0): rows[-1][1], (2, 0): rows[-1][2]}
    for t in range(1, grow):
        counts[(0, t)] = rows[grow - t - 1][2]
    if last != 1:
        counts[(0, grow + run)] = 1
    return {key: n for key, n in counts.items() if n}


def _toeplitz_step(word: Word, pair: Monomial, model: FreeGroup) -> Word | None:
    """One Toeplitz pair applied to a basis word, or None when it dies.

    Basis words are the admissible words not ending in letter 1, the
    inverse of the canonical anchor letter 0.
    """
    stripped = len(pair.in_word)
    if word[:stripped] != pair.in_word:
        return None
    rest = word[stripped:]
    if pair.out_word and rest and not model.allows(pair.out_word[-1], rest[0]):
        return None
    landed = pair.out_word + rest
    if landed and landed[-1] == 1:
        return None
    return landed


def _stage_lengths(
    word: Word, chain: tuple[Monomial, ...], model: FreeGroup
) -> tuple[int, ...] | None:
    """Word lengths met before each stage, last stage first applied, when
    the chain maps the basis word to itself; None otherwise."""
    current = word
    lengths = [0] * len(chain)
    for j in range(len(chain), 0, -1):
        lengths[j - 1] = len(current)
        landed = _toeplitz_step(current, chain[j - 1], model)
        if landed is None:
            return None
        current = landed
    return tuple(lengths) if current == word else None


_READS_FURTHER = "reads further"


def _open_stage_lengths(
    prefix: Word, chain: tuple[Monomial, ...], model: FreeGroup
) -> tuple[int, ...] | str | None:
    """The chain on every word prefix + u with u nonempty.

    Returns the lengths met before each stage less len(u), the same for all
    such words, when the chain maps them to themselves reading only the
    prefix; None when it maps none of them; ``_READS_FURTHER`` when a strip
    or a junction reads a letter of u.  The last letter is never at stake,
    since every landed word still ends in u.
    """
    known = prefix
    lengths = [0] * len(chain)
    for j in range(len(chain), 0, -1):
        pair = chain[j - 1]
        lengths[j - 1] = len(known)
        stripped = len(pair.in_word)
        if known[:stripped] != pair.in_word[: len(known)]:
            return None
        if stripped > len(known) or (stripped == len(known) and pair.out_word):
            return _READS_FURTHER
        rest = known[stripped:]
        if pair.out_word and rest and not model.allows(pair.out_word[-1], rest[0]):
            return None
        known = pair.out_word + rest
    return tuple(lengths) if known == prefix else None


def _prefix_walk(
    chain: tuple[Monomial, ...], model: FreeGroup
) -> Iterator[tuple[Word, tuple[int, ...] | str | None, int]]:
    """Every prefix the chain reads, depth first, with its
    :func:`_open_stage_lengths` and the number of prefixes it stands for.

    A prefix the chain reads further holds only letters of the strips.  It
    is extended by each letter of the generator pairs the chain and the
    anchor touch, and by one stand-in, always a leaf, for the other
    letters, which the automorphisms fixing those pairs permute.  There is
    no reducedness filter, so the walk reads a chain whose words are not
    reduced as the formal monomial product does.  A prefix on which the
    chain is the identity for every continuation is *decided*: its
    cylinder, disjoint from every other decided one, is not split further.
    The walk ends once every strip is read, after at most one letter more
    than the chain strips in all.
    """
    pairs = {0} | {k // 2 for m in chain for k in m.out_word + m.in_word}
    children = [(2 * j + flip, 1) for j in sorted(pairs) for flip in (0, 1)]
    if model.size > len(children):
        stand_in = 2 * min(set(range(len(pairs) + 1)) - pairs)
        children.append((stand_in, model.size - len(children)))
    stack: list[tuple[Word, int]] = [((), 1)]
    while stack:
        prefix, weight = stack.pop()
        reach = _open_stage_lengths(prefix, chain, model)
        yield prefix, reach, weight
        if reach == _READS_FURTHER:
            stack.extend((prefix + (k,), n) for k, n in children)


def cylinder_census(
    chain: tuple[Monomial, ...], model: FreeGroup, length: int
) -> tuple[dict[CylinderClass, int], tuple[tuple[tuple[int, ...], int], ...]]:
    """The chain's diagonal from one :func:`_prefix_walk`: the words of
    ``length`` letters on which the chain is the identity, counted by class
    (class of the last letter, trailing run of the anchor 0), and the
    stage-length vectors of the shorter basis words it maps to themselves,
    each with its number of words; a vector ends in the word's length.

    The long words extend the decided prefixes, whose cylinders are
    disjoint, so nothing is netted.  Decided prefixes are grouped by class,
    run, length and stage-length vector; each group counts its size times
    the :func:`_class_counts` of its class, run and length, the prefix
    itself as a basis word with the walk's stage lengths (the chain reads
    only the prefix) when shorter than ``length`` and not ending in 1, and
    its free rests by the transfer matrix.  The classes are empty exactly
    when the diagonal is zero.  A rejected prefix is not fixed; one the
    chain reads further is run through the chain.
    """
    decided: Counter[tuple[int | None, int, int, tuple[int, ...]]] = Counter()
    found: Counter[tuple[int, ...]] = Counter()
    for prefix, reach, weight in _prefix_walk(chain, model):
        if isinstance(reach, tuple):
            decided[_letter_class(prefix), _anchor_run(prefix), len(prefix), reach] += weight
        elif reach is not None and len(prefix) < length and _letter_class(prefix) != 1:
            exact = _stage_lengths(prefix, chain, model)
            if exact is not None:
                found[exact] += weight
    cylinders: Counter[tuple[int | None, int, int]] = Counter()
    rests: Counter[tuple[int | None, int, tuple[int, ...]]] = Counter()
    for (last, run, depth, reach), size in decided.items():
        cylinders[last, run, length - depth] += size
        if depth < length and last != 1:
            found[reach] += size
        if depth < length - 1:
            rests[last, length - 1 - depth, reach] += size
    census: dict[CylinderClass, int] = {}
    for (last, run, grow), size in cylinders.items():
        for key, n in _class_counts(last, run, grow, model).items():
            census[key] = census.get(key, 0) + size * n
    for (last, top, reach), size in rests.items():
        for grow, row in enumerate(transfer_counts(model, last, top), start=1):
            count = row[0] + row[2]
            if count:
                found[tuple(n + grow for n in reach)] += size * count
    return census, tuple(sorted(found.items()))
