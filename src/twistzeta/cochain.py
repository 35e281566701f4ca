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
from typing import Callable, Iterator, Sequence

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
from .traces import (
    ENTIRE_DENOM,
    FINITE_RANK_CERTIFICATE,
    ExpSum,
    MeromorphicTrace,
    TermKey,
    poles_and_laurent,
)
from .words import FreeGroup

ITERATE_CERTIFICATE = "collapsed-square-iterate"
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


def zeta_residue(trace: MeromorphicTrace, order: int) -> ExpSum:
    """Residue of the order-th power of the half-parameter against a trace.

    The trace is a function of the heat parameter; halving the variable
    moves each principal coefficient down by a power of two.  Only the
    even pole class at the origin contributes, the other pole classes sit
    away from the origin after halving.  Pole orders above two fall
    outside the admissible class and raise.
    """
    if order < 0:
        raise ValueError("the residue order is nonnegative")
    if trace.nvars != 1:
        raise ValueError("residues are extracted from single-parameter traces")
    for pole in poles_and_laurent(trace):
        if pole.base_label != "0" or pole.parity != "even":
            continue
        if pole.order > 2:
            raise ValueError(
                f"origin pole of order {pole.order} exceeds the admissible double pole"
            )
        position = pole.order - order - 1
        if position < 0:
            return ExpSum.zero(0)
        return pole.principal[position].scaled(Fraction(1, 2 ** (order + 1)))
    return ExpSum.zero(0)


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


def _head_codes(
    model: FreeGroup, anchor: int, top: int, base: int
) -> Iterator[np.ndarray]:
    """Codes of the vertex heads of each length 0..top, shortest first: the
    reduced words ending in neither the anchor nor its inverse.

    A word's code is the sum (w_i + 1) * base**i: the first letter is the
    lowest digit and no digit is zero, so the empty word is the code 0.
    """
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


def _translate(
    letter: int, anchor: int, base: int, code: np.ndarray, length, offset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices moved by the boundary translation U_letter, elementwise.

    A vertex is its head code, its head length and its offset; the arrays
    broadcast.  Its boundary word head + anchor^inf starts with the head's
    first letter, or with the anchor when the head is empty.  U_letter =
    S_letter + S_{letter^-1}^* strips a leading inverse letter and writes
    the letter in front otherwise, where on the empty head the anchor is
    absorbed into anchor^inf.  The offset moves by one either way.
    """
    empty = code == 0
    strip = np.where(empty, anchor, code % base - 1) == letter ^ 1
    grow = ~strip & ~(empty & (letter == anchor))
    return (
        np.where(strip, code // base, np.where(grow, code * base + letter + 1, code)),
        length + grow - (strip & ~empty),
        offset + np.where(strip, -1, 1),
    )


def _modulus(length, offset) -> np.ndarray:
    """Absolute Dirac eigenvalue of vertices, elementwise: the offset once
    it reaches the head length, which makes the eigenvalue nonnegative,
    and otherwise the head length plus twice the offset's negative part."""
    return np.where(offset >= length, offset, length + 2 * np.maximum(-offset, 0))


def _largest_window_key(base: int, source_length: int) -> int:
    """Bound on the target keys of a window: a landed code has at most
    ``source_length + 1`` digits, times the span of target offsets
    0..source_length + 1, with one digit to spare."""
    span = source_length + 2
    return base**span * span


def _window_entries(
    letter: int, anchor: int, model: FreeGroup, source_length: int
) -> tuple[int, np.ndarray]:
    """Columns of the compressed translation over the vertices of
    nonnegative eigenvalue whose group words have at most ``source_length``
    letters: their number, and the key ``code * (source_length + 2) +
    offset`` of every target that keeps a nonnegative eigenvalue.

    Such a word is a head followed by anchor letters, so the window is each
    head with every offset from its length up to ``source_length``.
    """
    base, span = model.size + 1, source_length + 2
    columns = 0
    keys = []
    for length, heads in enumerate(_head_codes(model, anchor, source_length, base)):
        offsets = np.arange(length, source_length + 1)
        code, landed, offset = _translate(letter, anchor, base, heads[:, None], length, offsets)
        keys.append((code * span + offset)[offset >= landed])
        columns += heads.size * offsets.size
    return columns, np.concatenate(keys)


def _window_nullity(columns: int, key: np.ndarray) -> int:
    """Kernel dimension of ``columns`` columns with one entry each on the
    targets ``key`` and none elsewhere: columns that share a target are
    parallel, so the rank is the number of distinct targets."""
    # Distinct targets by sorting: numpy's hashing unique is far slower here.
    ordered = np.sort(key)
    return columns - ordered.size + int(np.count_nonzero(ordered[1:] == ordered[:-1]))


def compressed_kernel_dimension(
    letter: int,
    anchor: int,
    model: FreeGroup,
    source_length: int,
) -> int:
    """Kernel dimension of the compressed translation on a word-length window.

    Columns over source words are complete because a translation moves a
    word by one letter, so the kernel of the windowed rectangle equals the
    kernel of the full compression intersected with the window.  The
    window's keys are int64, and a window whose keys could pass 2**63 is
    refused before anything is built.
    """
    model.check_letter(letter)
    model.check_letter(anchor)
    if source_length < 1:
        raise ValueError("the source window must contain at least length one")
    if _largest_window_key(model.size + 1, source_length) >= 2**63:
        raise ValueError("the window's vertex keys would overflow 64-bit integers")
    columns, key = _window_entries(letter, anchor, model, source_length)
    return _window_nullity(columns, key)


def compressed_translation_index(
    letter: int,
    anchor: int,
    model: FreeGroup,
    *,
    source_length: int,
) -> int:
    """Windowed kernel-minus-cokernel count of the compressed translation."""
    kernel = compressed_kernel_dimension(letter, anchor, model, source_length)
    cokernel = compressed_kernel_dimension(model.inverse(letter), anchor, model, source_length)
    return kernel - cokernel


def cochain_word_trace(
    letters: Sequence[int],
    anchor: int,
    model: FreeGroup,
) -> MeromorphicTrace:
    """Entire trace function of the zero-index cochain word of translations,
    exactly.

    The word is the spectral phase, the leading translation, and one
    phase-commutator factor per remaining letter with interleaved modulus
    weights that cancel against the closing inverse power.  A translation
    sends a vertex to one vertex, so each source vertex follows one orbit:
    its coefficient is a product of sign flips and its exponent a sum of
    moduli.  A sign flip forces the column word into the anchor region, so
    columns vanish beyond the one letter a translation reads or writes;
    the window extends two letters past that bound and verifies the
    predicted vanishing before certifying.
    """
    if len(letters) < 2:
        raise ValueError("the word needs a leading element and at least one factor")
    for letter in letters:
        model.check_letter(letter)
    model.check_letter(anchor)
    arity = len(letters) - 1
    reach = 1
    base = model.size + 1
    entries: dict[TermKey, Fraction] = {}
    for length, heads in enumerate(_head_codes(model, anchor, reach + 2, base)):
        # The group words of at most reach + 2 letters over these heads:
        # each head padded with anchor letters, or with their inverses.
        offsets = np.arange(2 * length - reach - 2, reach + 3)
        code, offset = np.repeat(heads, offsets.size), np.tile(offsets, heads.size)
        modulus = _modulus(length, offset)
        sign = np.where(offset >= length, 1, -1)
        exponent = arity * modulus
        coeff = np.ones_like(modulus)
        vertex, now = (code, length, offset), sign
        for letter in reversed(letters[1:]):
            exponent -= _modulus(*vertex[1:])
            vertex = _translate(letter, anchor, base, *vertex)
            moved = np.where(vertex[2] >= vertex[1], 1, -1)
            coeff *= moved - now
            now = moved
        inside = length + np.abs(offset - length) <= reach
        if np.any(coeff[~inside]):
            raise ValueError("a column escaped the certified support bound")
        landed, _, shifted = _translate(letters[0], anchor, base, *vertex)
        back = inside & (coeff != 0) & (landed == code) & (shifted == offset)
        for power, weight, value in zip(
            exponent[back].tolist(), modulus[back].tolist(), (sign * coeff)[back].tolist()
        ):
            key = (power, (weight,))
            entries[key] = entries.get(key, Fraction(0)) + value
    numerator = ExpSum.from_terms(1, entries)
    return MeromorphicTrace.from_parts(
        model.generators,
        1,
        {ENTIRE_DENOM: numerator},
        certificate=FINITE_RANK_CERTIFICATE,
    )


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
    weights_immaterial: bool

    @property
    def certificates(self) -> tuple[str, ...]:
        seen: list[str] = []
        for summand in self.summands:
            if summand.certificate not in seen:
                seen.append(summand.certificate)
        return tuple(seen)


def _assemble(
    arity: int,
    cutoff: int,
    zero_word_residue: Callable[[int], tuple[float, str]],
) -> CochainReport:
    if arity < 1 or arity % 2 == 0:
        raise ValueError("the cochain arity must be a positive odd integer")
    if cutoff < 0:
        raise ValueError("the multi-index cutoff is nonnegative")
    summands: list[CochainSummand] = []
    total = 0.0
    exact = True
    for powers in _multi_indices(arity, cutoff):
        size = sum(powers)
        top = size + (arity - 1) // 2
        ascending = rising_half_coeffs(top)
        alpha = multiindex_weight(powers)
        for order in range(top + 1):
            weight = alpha * ascending[order]
            if size % 2:
                weight = -weight
            if size:
                residue, certificate = 0.0, ITERATE_CERTIFICATE
            else:
                residue, certificate = zero_word_residue(order)
            vanished = residue == 0.0
            summands.append(
                CochainSummand(powers, order, weight, residue, vanished, certificate)
            )
            total += float(weight) * residue
            exact = exact and vanished
    return CochainReport(
        arity=arity,
        cutoff=cutoff,
        summands=tuple(summands),
        value=total,
        exact_zero=exact and total == 0.0,
        weights_immaterial=exact,
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
    the zero index evaluates the finitely supported word trace, whose
    entirety makes every residue vanish exactly.
    """
    arity = len(letters) - 1
    trace = cochain_word_trace(letters, anchor, model)
    certificate = trace.certificate or "pole-data"

    def zero_word(order: int) -> tuple[float, str]:
        return zeta_residue(trace, order).evaluate(()).real, certificate

    return _assemble(arity, cutoff, zero_word)


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

    def zero_word(order: int) -> tuple[float, str]:
        return 0.0, STABILIZED_CERTIFICATE

    return _assemble(len(powers) - 1, cutoff, zero_word)


@dataclass(frozen=True)
class PairingRecord:
    """One route to the index pairing and the value it produced."""

    method: str
    value: int


@dataclass(frozen=True)
class CounterexampleReport:
    """Index pairing and cochain audit of one counterexample family."""

    family: str
    pairing: int
    checks: tuple[PairingRecord, ...]
    cochains: tuple[CochainReport, ...]
    passed: bool

    @property
    def word_certificates(self) -> int:
        """Distinct operator words that consumed an entirety certificate."""
        return len(
            {
                (report.arity, summand.powers)
                for report in self.cochains
                for summand in report.summands
            }
        )


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
        windowed = compressed_translation_index(
            letter, anchor, model, source_length=source_length
        )
        checks = (
            PairingRecord("reduced-word formula", pairing),
            PairingRecord("windowed kernel dimensions", windowed),
        )
        dimension = math.ceil(math.log(2 * generators - 1))
        for arity in (1, 3):
            letters = tuple(
                model.inverse(letter) if position % 2 == 0 else letter
                for position in range(arity + 1)
            )
            cochains.append(
                free_group_cochain(
                    letters,
                    anchor,
                    model,
                    cutoff=multiindex_cutoff(dimension, arity),
                )
            )
    else:
        coordinate = TrigPoly.coordinate()
        pairing = toeplitz_index(coordinate, max_mode)
        records = [
            PairingRecord("toeplitz compression", pairing),
            PairingRecord("winding number", -winding_number(coordinate)),
        ]
        if family == "moebius":
            records.append(
                PairingRecord(
                    "covariant compression",
                    _covariant_compression_index(
                        coordinate, MoebiusMap.hyperbolic(1.0), max_mode
                    ),
                )
            )
        checks = tuple(records)
        conjugate = coordinate.conjugate()
        for arity in (1, 3):
            symbols = tuple(
                conjugate if position % 2 == 0 else coordinate
                for position in range(arity + 1)
            )
            cochains.append(
                circle_cochain(symbols, cutoff=multiindex_cutoff(1, arity))
            )

    agreed = all(record.value == pairing for record in checks)
    vanished = all(report.exact_zero for report in cochains)
    return CounterexampleReport(
        family=family,
        pairing=pairing,
        checks=checks,
        cochains=tuple(cochains),
        passed=pairing != 0 and vanished and agreed,
    )
