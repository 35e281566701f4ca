"""Residue cochains of twisted commutator words and the paired index checks.

The candidate local formulas pair a unitary with an alternating sum of
residue functionals applied to operator words built from twisted
commutators.  With the conformal twist implemented by conjugation with the
operator modulus, two structural facts decide every word: iterated
squared-modulus brackets collapse to zero, and the surviving words carry a
twisted-commutator factor whose trace function is entire, so each residue
vanishes exactly.  The index pairings themselves are nonzero, which the
verdict records side by side with the vanishing cochains.

Free-group words are evaluated exactly on the vertex basis with rational
coefficients and integer exponent bookkeeping; circle words are certified
through window-stabilized Dirichlet data.  Both routes feed the same
assembly of combinatorial weights, so the reports show per-word residues,
the certificates they consumed, and the assembled value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .ckalg import CKElement, act_on_vertex, adjoint, generator
from .circle import (
    CrossedElement,
    MoebiusMap,
    TrigPoly,
    build_dirac,
    build_phase,
    circle_zeta,
    mult_op,
    numerical_rank,
    represent,
    stabilized_dirichlet,
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
from .words import (
    BoundaryPoint,
    FreeGroup,
    VertexKey,
    Word,
    admissible_levels,
    fixed_point,
    vertex_eigenvalue,
)

ITERATE_CERTIFICATE = "collapsed-square-iterate"
STABILIZED_CERTIFICATE = "stabilized-dirichlet"

COUNTEREXAMPLE_FAMILIES = ("free_group", "circle", "moebius")

# Largest mode window of the circle cochains; the word bandwidth may be at
# most a quarter of it.
CIRCLE_COCHAIN_MODES = 48


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


def group_unitary(letter: int, model: FreeGroup) -> CKElement:
    """Boundary translation by one group letter as an algebra element.

    The generator isometry plus the adjoint of the inverse-letter isometry
    acts on every boundary word by reduced left concatenation, and the two
    ranges are complementary, so the sum is a unitary.
    """
    forward = generator(letter, model)
    backward = adjoint(generator(model.inverse(letter), model))
    return forward.plus(backward)


def boundary_translation_index(
    letter: int, tail: BoundaryPoint, model: FreeGroup
) -> int:
    """Index of the translation compressed to the nonnegative spectral part.

    Translating against the tail letter frees one basis vector of the
    compression domain, translating by the tail letter itself misses one
    in the range, and every other letter gives a bijection; the index is
    the difference of those two indicators.
    """
    model.check_letter(letter)
    if not tail.is_fixed_point:
        raise ValueError("the compression is anchored at a fixed-point tail")
    anchor = tail.period[0]
    kernel = 1 if model.inverse(letter) == anchor else 0
    cokernel = 1 if letter == anchor else 0
    return kernel - cokernel


def _eliminated_nullity(
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


def _vertex_heads(model: FreeGroup, anchor: int, top: int) -> Iterator[Word]:
    """Heads of the vertices over anchor^inf up to length ``top``, shortest
    first: the reduced words ending in neither the anchor nor its inverse."""
    settled = (anchor, model.inverse(anchor))
    for level in admissible_levels(model, top):
        yield from (word for word in level if not word or word[-1] not in settled)


def _word_code(word: Word, base: int) -> int:
    """Integer code of a word, sum (w_i + 1) * base**i: the first letter is
    the lowest digit and no digit is zero, so a code of n digits is a word
    of n letters and the code of a prefix of ``cut`` letters is the
    remainder modulo base**cut."""
    return sum((letter + 1) * base**place for place, letter in enumerate(word))


def _word_of_code(code: int, base: int) -> Word:
    letters = []
    while code:
        code, digit = divmod(code, base)
        letters.append(digit - 1)
    return tuple(letters)


def _head_codes(
    model: FreeGroup, anchor: int, top: int, base: int
) -> Iterator[np.ndarray]:
    """Codes of the vertex heads of each length 0..top, shortest first: the
    reduced words ending in neither the anchor nor its inverse."""
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


def _largest_window_key(base: int, source_length: int, growth: int) -> int:
    """Bound on the target keys of a window: a landed code has at most
    ``source_length + growth`` digits, times the span of target offsets
    0..source_length + growth, with one digit to spare."""
    span = source_length + growth + 1
    return base**span * span


def _window_entries(
    element: CKElement, anchor: int, model: FreeGroup, source_length: int, span: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Entries of the compression over the vertices of nonnegative
    eigenvalue whose group words have at most ``source_length`` letters:
    the number of columns, and per entry its column, its target key
    ``landed_code * span + offset`` and the index of its monomial.

    Such a word is a head followed by anchor letters, so the window is each
    head with every offset from its length up to ``source_length``.  Each
    monomial acts on a whole level of heads at once, as
    :func:`ckalg.act_on_vertex` does on one vertex: the in-word test is a
    remainder of the head code, stripping a quotient, the junction a test
    of the first remaining digit, and prepending adds the out-word's code.
    When nothing of the head remains, at most one head matches and the
    target head is the out-word without its trailing anchor letters.  A
    monomial moves every offset by the same amount, so the offsets whose
    target keeps a nonnegative eigenvalue are one range per level.
    """
    base = model.size + 1
    columns = 0
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for length, heads in enumerate(_head_codes(model, anchor, source_length, base)):
        width = source_length - length + 1
        for term, (mono, _) in enumerate(element.terms):
            out, strip = mono.out_word, mono.in_word
            cut = len(strip)
            if cut < length:
                rest = heads // base**cut
                hit = heads % base**cut == _word_code(strip, base)
                if out:
                    hit &= rest % base != (out[-1] ^ 1) + 1
                sources = np.flatnonzero(hit)
                landed = _word_code(out, base) + base ** len(out) * rest[sources]
                landed_length = len(out) + length - cut
            else:
                if any(k != anchor for k in strip[length:]) or (out and out[-1] == anchor ^ 1):
                    continue
                sources = np.flatnonzero(heads == _word_code(strip[:length], base))
                trimmed = out
                while trimmed and trimmed[-1] == anchor:
                    trimmed = trimmed[:-1]
                landed = np.full(sources.size, _word_code(trimmed, base), dtype=np.int64)
                landed_length = len(trimmed)
            shift = len(out) - cut
            offsets = np.arange(max(length, landed_length - shift), source_length + 1)
            column = columns + sources[:, None] * width + (offsets - length)
            key = landed[:, None] * span + (offsets + shift)
            parts.append((column.ravel(), key.ravel(), np.full(column.size, term)))
        columns += heads.size * width
    column, key, term = (
        np.concatenate([part[field] for part in parts] or [np.zeros(0, dtype=np.int64)])
        for field in range(3)
    )
    return columns, column, key, term


def _window_nullity(
    columns: int,
    column: np.ndarray,
    key: np.ndarray,
    term: np.ndarray,
    coefficients: Sequence[Fraction],
    base: int,
    span: int,
) -> int:
    """Kernel dimension of ``columns`` sparse rational columns, given as
    entries: a column index, a target key and the index of the coefficient
    the entry carries.

    Entries of one column on one target are summed exactly and zero sums
    dropped.  While every column then has at most one entry, the rank is
    the number of distinct targets, since columns that share a target are
    parallel.  Otherwise every nonzero column, its keys decoded into
    vertices, goes to exact elimination.
    """
    live = np.array([bool(coeff) for coeff in coefficients], dtype=bool)[term]
    column, key, term = column[live], key[live], term[live]
    if np.bincount(column, minlength=1).max() > 1:
        sums: dict[int, dict[int, Fraction]] = {}
        for index, target, which in zip(column.tolist(), key.tolist(), term.tolist()):
            entries = sums.setdefault(index, {})
            entries[target] = entries.get(target, 0) + coefficients[which]
        support = [
            {target: coeff for target, coeff in entries.items() if coeff}
            for entries in sums.values()
        ]
        if any(len(entries) > 1 for entries in support):
            vertices = (
                {
                    (_word_of_code(target // span, base), target % span): coeff
                    for target, coeff in entries.items()
                }
                for entries in support
            )
            return columns - len(support) + _eliminated_nullity(vertices, {})
        key = np.array([target for entries in support for target in entries], dtype=np.int64)
    # Distinct targets by sorting: numpy's hashing unique is far slower here.
    ordered = np.sort(key)
    return columns - ordered.size + int(np.count_nonzero(ordered[1:] == ordered[:-1]))


def compressed_kernel_dimension(
    element: CKElement,
    tail: BoundaryPoint,
    model: FreeGroup,
    source_length: int,
) -> int:
    """Kernel dimension of the compression on a word-length window.

    Columns over source words are complete because images grow by at most
    the longest out-word, so the kernel of the windowed rectangle equals
    the kernel of the full compression intersected with the window.  The
    window's keys are int64, and a window whose keys could pass 2**63 is
    refused before anything is built.
    """
    if not tail.is_fixed_point:
        raise ValueError("the compression is anchored at a fixed-point tail")
    if source_length < 1:
        raise ValueError("the source window must contain at least length one")
    base = model.size + 1
    growth = max((len(mono.out_word) for mono, _ in element.terms), default=0)
    if _largest_window_key(base, source_length, growth) >= 2**63:
        raise ValueError("the window's vertex keys would overflow 64-bit integers")
    span = source_length + growth + 1
    columns, column, key, term = _window_entries(
        element, tail.period[0], model, source_length, span
    )
    coefficients = [coeff for _, coeff in element.terms]
    return _window_nullity(columns, column, key, term, coefficients, base, span)


def compressed_translation_index(
    letter: int,
    tail: BoundaryPoint,
    model: FreeGroup,
    *,
    source_length: int,
) -> int:
    """Windowed kernel-minus-cokernel count of the compressed translation."""
    kernel = compressed_kernel_dimension(
        group_unitary(letter, model), tail, model, source_length
    )
    cokernel = compressed_kernel_dimension(
        group_unitary(model.inverse(letter), model), tail, model, source_length
    )
    return kernel - cokernel


def _spectral_sign(vertex: VertexKey) -> int:
    return 1 if vertex_eigenvalue(vertex) >= 0 else -1


ExactVector = dict[VertexKey, dict[int, Fraction]]


def _merge_entry(
    vector: ExactVector, vertex: VertexKey, exponent: int, coeff: Fraction
) -> None:
    bucket = vector.setdefault(vertex, {})
    updated = bucket.get(exponent, Fraction(0)) + coeff
    if updated:
        bucket[exponent] = updated
    else:
        bucket.pop(exponent, None)
        if not bucket:
            vector.pop(vertex, None)


def _modulus_step(vector: ExactVector, power: int) -> ExactVector:
    """Multiply by the operator modulus raised to an integer power."""
    moved: ExactVector = {}
    for vertex, bucket in vector.items():
        shift = -power * abs(vertex_eigenvalue(vertex))
        moved[vertex] = {exponent + shift: coeff for exponent, coeff in bucket.items()}
    return moved


def _element_step(
    vector: ExactVector,
    element: CKElement,
    anchor: int,
    model: FreeGroup,
) -> ExactVector:
    moved: ExactVector = {}
    for vertex, bucket in vector.items():
        for target, scale in act_on_vertex(element, vertex, anchor, model).items():
            for exponent, coeff in bucket.items():
                _merge_entry(moved, target, exponent, coeff * scale)
    return moved


def _phase_commutator_step(
    vector: ExactVector,
    element: CKElement,
    anchor: int,
    model: FreeGroup,
) -> ExactVector:
    """Apply the commutator of the spectral phase with an algebra element."""
    moved: ExactVector = {}
    for vertex, bucket in vector.items():
        source_sign = _spectral_sign(vertex)
        for target, scale in act_on_vertex(element, vertex, anchor, model).items():
            flip = _spectral_sign(target) - source_sign
            if not flip:
                continue
            for exponent, coeff in bucket.items():
                _merge_entry(moved, target, exponent, coeff * scale * flip)
    return moved


def cochain_word_trace(
    elements: Sequence[CKElement],
    tail: BoundaryPoint,
    model: FreeGroup,
) -> MeromorphicTrace:
    """Entire trace function of the zero-index cochain word, exactly.

    The word is the spectral phase, the leading element, and one
    phase-commutator factor per remaining element with interleaved modulus
    weights that cancel against the closing inverse power.  A sign flip
    forces the column word into the tail region, so columns vanish beyond
    the longest monomial of the final factor; the window extends past that
    bound and verifies the predicted vanishing before certifying.
    """
    if not tail.is_fixed_point:
        raise ValueError("the vertex space is anchored at a fixed-point tail")
    if len(elements) < 2:
        raise ValueError("the word needs a leading element and at least one factor")
    arity = len(elements) - 1
    reach = max(
        (len(mono.out_word) + len(mono.in_word) for mono, _ in elements[-1].terms),
        default=0,
    )
    anchor = tail.period[0]
    heads = list(_vertex_heads(model, anchor, reach + 2))
    entries: dict[TermKey, Fraction] = {}
    for length in range(reach + 3):
        # The group words of this length: each head padded with anchor
        # letters, or with their inverses, up to the length.
        vertices = [
            (head, offset)
            for head in heads
            if len(head) <= length
            for offset in {length, 2 * len(head) - length}
        ]
        for vertex in vertices:
            base = abs(vertex_eigenvalue(vertex))
            vector: ExactVector = {vertex: {arity * base: Fraction(1)}}
            for element in reversed(elements[1:]):
                vector = _modulus_step(vector, 1)
                vector = _phase_commutator_step(vector, element, anchor, model)
            if length > reach:
                if vector:
                    raise ValueError("a column escaped the certified support bound")
                continue
            vector = _element_step(vector, elements[0], anchor, model)
            bucket = vector.get(vertex)
            if bucket is None:
                continue
            sign = _spectral_sign(vertex)
            for exponent, coeff in bucket.items():
                key = (exponent, (base,))
                entries[key] = entries.get(key, Fraction(0)) + sign * coeff
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
    elements: Sequence[CKElement],
    tail: BoundaryPoint,
    model: FreeGroup,
    *,
    cutoff: int,
) -> CochainReport:
    """Cochain of boundary-algebra elements through the exact vertex engine.

    Positive multi-indices collapse through the squared-modulus bracket;
    the zero index evaluates the finitely supported word trace, whose
    entirety makes every residue vanish exactly.
    """
    arity = len(elements) - 1
    trace = cochain_word_trace(elements, tail, model)
    certificate = trace.certificate or "pole-data"

    def zero_word(order: int) -> tuple[float, str]:
        return zeta_residue(trace, order).evaluate(()).real, certificate

    return _assemble(arity, cutoff, zero_word)


def circle_cochain(symbols: Sequence[TrigPoly], *, cutoff: int) -> CochainReport:
    """Cochain of Fourier polynomials through window-stabilized diagonals.

    The word matrix is assembled on increasing mode windows; the surviving
    diagonal data must agree termwise across windows before the entire
    certificate is issued, and the residues of an entire trace vanish.
    """
    if len(symbols) < 2:
        raise ValueError("the word needs a leading symbol and at least one factor")
    arity = len(symbols) - 1
    span = sum(symbol.bandwidth for symbol in symbols)
    if CIRCLE_COCHAIN_MODES < 4 * max(span, 1):
        raise ValueError("the mode window is too small for the word bandwidth")

    def builder(window: int) -> np.ndarray:
        phase = build_phase(window)
        modulus = np.abs(build_dirac(window))
        total = phase[:, None] * mult_op(symbols[0], window)
        for symbol in symbols[1:]:
            block = mult_op(symbol, window)
            bracket = phase[:, None] * block - block * phase[None, :]
            total = total @ (bracket * modulus[None, :])
        return total * modulus[None, :] ** float(-arity)

    stabilized = stabilized_dirichlet(
        builder,
        (CIRCLE_COCHAIN_MODES // 2, (3 * CIRCLE_COCHAIN_MODES) // 4, CIRCLE_COCHAIN_MODES),
    )

    def zero_word(order: int) -> tuple[float, str]:
        return circle_zeta(stabilized, order), STABILIZED_CERTIFICATE

    return _assemble(arity, cutoff, zero_word)


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
    matrix = represent(
        CrossedElement.multiplication(symbol), gamma, max_mode, 8 * max_mode
    )
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
        tail = fixed_point(anchor)
        pairing = boundary_translation_index(letter, tail, model)
        windowed = compressed_translation_index(
            letter, tail, model, source_length=source_length
        )
        checks = (
            PairingRecord("reduced-word formula", pairing),
            PairingRecord("windowed kernel dimensions", windowed),
        )
        unitary = group_unitary(letter, model)
        dual = adjoint(unitary)
        dimension = math.ceil(math.log(2 * generators - 1))
        for arity in (1, 3):
            elements = tuple(
                dual if position % 2 == 0 else unitary
                for position in range(arity + 1)
            )
            cochains.append(
                free_group_cochain(
                    elements,
                    tail,
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
