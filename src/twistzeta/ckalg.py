"""Exact symbolic Cuntz-Krieger algebra of the trace engine.

Elements are rational combinations of monomials S_mu S_nu^* over the
reduced words of the free group.  Multiplication reduces every inner
S_nu^* S_mu' by prefix comparison, expanding S_nu^* S_nu through the
Cuntz-Krieger relation, so the product of a monomial chain stays exact.
The trace engine consumes two counts over a chain: the cylinder census of
its diagonal and the short basis words it fixes, both by integer
transfer-matrix counting rather than word enumeration.  The boundary
translations of the free-group counterexample are not built as elements:
:mod:`twistzeta.cochain` moves vertices by them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import FreeGroup, Word, transfer_counts


@dataclass(frozen=True)
class Monomial:
    """Partial isometry S_mu S_nu^*: strip ``in_word``, write ``out_word``."""

    out_word: Word
    in_word: Word


def _has_common_continuation(mono: Monomial, model: FreeGroup) -> bool:
    return any(
        _continues(mono.out_word, k, model) and _continues(mono.in_word, k, model)
        for k in range(model.size)
    )


def _continues(word: Word, letter: int, model: FreeGroup) -> bool:
    return not word or model.allows(word[-1], letter)


@dataclass(frozen=True)
class CKElement:
    """Finite rational combination of monomials, zero coefficients dropped."""

    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_terms(entries: dict[Monomial, Fraction]) -> CKElement:
        kept = {m: c for m, c in entries.items() if c != 0}
        ordered = sorted(kept.items(), key=lambda mc: (mc[0].out_word, mc[0].in_word))
        return CKElement(tuple(ordered))

    @staticmethod
    def unit() -> CKElement:
        return CKElement(((Monomial((), ()), Fraction(1)),))

    @staticmethod
    def of(mono: Monomial, coefficient: Fraction | int = 1) -> CKElement:
        return CKElement.from_terms({mono: Fraction(coefficient)})


def _mono_product(a: Monomial, b: Monomial, model: FreeGroup) -> list[Monomial]:
    """Normal form of S_{a.out}S_{a.in}^* S_{b.out}S_{b.in}^*.

    Returns the resulting monomials, each with coefficient one; an empty
    list is the zero product.
    """
    inner, outer = a.in_word, b.out_word
    if len(inner) < len(outer) and outer[: len(inner)] == inner:
        rest = outer[len(inner) :]
        if not _continues(a.out_word, rest[0], model):
            return []
        return _keep(Monomial(a.out_word + rest, b.in_word), model)
    if len(outer) < len(inner) and inner[: len(outer)] == outer:
        rest = inner[len(outer) :]
        if not _continues(b.in_word, rest[0], model):
            return []
        return _keep(Monomial(a.out_word, b.in_word + rest), model)
    if inner != outer:
        return []
    if not inner:
        return _keep(Monomial(a.out_word, b.in_word), model)
    joint = [
        Monomial(a.out_word + (k,), b.in_word + (k,))
        for k in range(model.size)
        if model.allows(inner[-1], k)
        and _continues(a.out_word, k, model)
        and _continues(b.in_word, k, model)
    ]
    return joint


def _keep(mono: Monomial, model: FreeGroup) -> list[Monomial]:
    return [mono] if _has_common_continuation(mono, model) else []


def multiply(x: CKElement, y: CKElement, model: FreeGroup) -> CKElement:
    """Exact product in expansion normal form."""
    total: dict[Monomial, Fraction] = {}
    for left, cl in x.terms:
        for right, cr in y.terms:
            coeff = cl * cr
            for mono in _mono_product(left, right, model):
                total[mono] = total.get(mono, Fraction(0)) + coeff
    return CKElement.from_terms(total)


def chain_product(
    chain: list[Monomial] | tuple[Monomial, ...], model: FreeGroup
) -> CKElement:
    """Product of the monomials of a chain, left to right."""
    if not chain:
        raise ValueError("chain must be nonempty")
    result = CKElement.unit()
    for mono in chain:
        result = multiply(result, CKElement.of(mono), model)
    return result


CylinderClass = tuple[int, int]


def _class_counts(word: Word, model: FreeGroup, length: int) -> dict[CylinderClass, int]:
    """Reduced words of ``length`` letters extending ``word``, counted by
    class (last letter, trailing run of letter 0; the run is 0 unless the
    last letter is 0).

    A run of exactly t < extension length ends a word u c with c neither 0
    nor its inverse 1, so it is counted by the transfer row of length
    extension - t; the one extension made of 0 alone continues the word's
    own run.
    """
    grow = length - len(word)
    run = 0
    while run < len(word) and word[-1 - run] == 0:
        run += 1
    if grow == 0:
        return {(word[-1], run): 1}
    after = word[-1] if word else None
    rows = list(transfer_counts(model, after, grow))
    counts = {(e, 0): n for e, n in enumerate(rows[-1]) if e and n}
    for t in range(1, grow):
        n = sum(rows[grow - t - 1][2:])
        if n:
            counts[(0, t)] = n
    if after != 1:
        counts[(0, grow + run)] = 1
    return counts


def cylinder_census(
    diagonal: list[tuple[Word, Fraction]], model: FreeGroup, length: int
) -> dict[CylinderClass, Fraction]:
    """Diagonal cylinders refined to one word length, weighed per class.

    A word x of ``length`` letters weighs the sum of the coefficients of the
    diagonal words that are prefixes of x.  Words are grouped by (last
    letter, trailing run of letter 0, the canonical anchor letter of the
    free-group model); the result holds the total weight of exactly the
    classes that contain a word of nonzero weight, so a class whose weights
    cancel stays, with weight zero.

    Nothing is enumerated: the words below a diagonal word whose deepest
    diagonal prefix it is all carry one net coefficient, and their count per
    class is the word's own count minus those of its nearest diagonal
    descendants, each a transfer-matrix count.
    """
    words = [word for word, _ in diagonal]
    if any(len(word) > length for word in words):
        raise ValueError("a diagonal word is longer than the refinement length")

    def below(upper: Word, lower: Word) -> bool:
        return len(upper) < len(lower) and lower[: len(upper)] == upper

    census: dict[CylinderClass, Fraction] = {}
    for word in words:
        net = sum(c for w, c in diagonal if w == word or below(w, word))
        if not net:
            continue
        counts = _class_counts(word, model, length)
        for child in words:
            if below(word, child) and not any(
                below(word, w) and below(w, child) for w in words
            ):
                for key, n in _class_counts(child, model, length).items():
                    counts[key] -= n
        for key, n in counts.items():
            if n:
                census[key] = census.get(key, Fraction(0)) + net * n
    return census


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
    """The chain on every basis word prefix + u with u nonempty.

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


def short_diagonal_vectors(
    chain: tuple[Monomial, ...], model: FreeGroup, below: int
) -> list[tuple[tuple[int, ...], int]]:
    """Stage-length vectors of the basis words shorter than ``below`` that
    the chain maps to themselves, each with its number of words.

    Prefixes are explored depth first: a prefix is dropped once a stage
    rejects it and stops growing once no stage reads further, and the free
    rest of such a prefix is counted by length and last letter with the
    integer transfer matrix.
    """
    found: dict[tuple[int, ...], int] = {}
    stack: list[Word] = [()]
    while stack:
        prefix = stack.pop()
        if not prefix or prefix[-1] != 1:
            exact = _stage_lengths(prefix, chain, model)
            if exact is not None:
                found[exact] = found.get(exact, 0) + 1
        top = below - 1 - len(prefix)
        if top < 1:
            continue
        reach = _open_stage_lengths(prefix, chain, model)
        if reach == _READS_FURTHER:
            stack.extend(
                prefix + (k,)
                for k in range(model.size)
                if not prefix or model.allows(prefix[-1], k)
            )
        elif isinstance(reach, tuple):
            after = prefix[-1] if prefix else None
            for grow, row in enumerate(transfer_counts(model, after, top), start=1):
                count = sum(row) - row[1]
                if count:
                    vector = tuple(n + grow for n in reach)
                    found[vector] = found.get(vector, 0) + count
    return sorted(found.items())
