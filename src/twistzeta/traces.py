"""Exact interleaved heat traces for monomial chains on the vertex space.

Closed forms are meromorphic functions of the heat parameters, kept as
rational data: numerators are finite sums of exponentials with rational
coefficients, denominators are powers of 1 - alpha E in
E = e^{-(s_1+...+s_m)}, keyed by the integer amplitude alpha: 1, -1 or the
branching number 2d-1, the eigenvalues of the free-group transfer matrix.
A product of such powers is split into single powers once per denominator
signature.  Truncated oracles compute the same traces by
summation over the vertex window (each window geometric in the offset,
summed in closed form) and report certified geometric tail bounds, so
closed form and oracle can be compared honestly.

The vertex space hangs over the fixed point of an anchor letter, which
every entry point takes as an int; chains are relabelled so that the
anchor is the first generator, and the escaping cylinders are grouped by
the class of their last letter: the anchor, its inverse, or any other.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ckalg import CylinderClass, Monomial, cylinder_census
from .words import (
    FreeGroup,
    Species,
    Word,
    extension_species,
    relabel,
    settled_eigenvalue,
    settling_species,
    transfer_counts,
)

TermKey = tuple[int, ...]


def _as_float(value: Fraction | int, what: str) -> float:
    """float(value), or the ValueError refusal naming the float range, for
    exact weights and coefficients, which grow like powers of the rank d."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} exceeds the float range") from None


@dataclass(frozen=True)
class ExpSum:
    """Finite sum of terms coeff * e^{-<exp_vector, s>}.

    Entire in all variables; coefficients are exact rationals.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        for vector, coeff in self.terms:
            if len(vector) != self.nvars:
                raise ValueError("exponent vector length must match nvars")
            if not coeff:
                raise ValueError("zero terms must be dropped before construction")

    @staticmethod
    def from_terms(nvars: int, entries: dict[TermKey, Fraction]) -> ExpSum:
        return ExpSum(nvars, tuple(sorted((v, q) for v, q in entries.items() if q)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, s: Sequence[complex]) -> complex:
        """Sum of the terms at s; a coefficient or exponential past the float
        range joins its term in log space, as in :func:`_count_times_exp`."""
        if len(s) != self.nvars:
            raise ValueError("need one value per variable")
        total = 0j
        for vector, coeff in self.terms:
            exponent = -sum(v * sj for v, sj in zip(vector, s))
            try:
                total += float(coeff) * cmath.exp(exponent)
            except OverflowError:
                size = math.log(abs(coeff.numerator)) - math.log(coeff.denominator)
                try:
                    total += (1 if coeff > 0 else -1) * cmath.exp(size + exponent)
                except OverflowError:
                    raise ValueError("closed-form term exceeds the float range") from None
        return total


class Denom(NamedTuple):
    """The denominator (1 - amplitude * E)^power; (0, 0) marks the entire part."""

    amplitude: int
    power: int


ENTIRE_DENOM = Denom(0, 0)


@dataclass(frozen=True)
class MeromorphicTrace:
    """Sum of exponential numerators over powers of 1 - alpha E, alpha one of
    the amplitudes 1, -1 and 2d-1."""

    d: int
    nvars: int
    parts: tuple[tuple[Denom, ExpSum], ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("the model needs at least two generator pairs")
        seen = set()
        for denom, numerator in self.parts:
            if denom in seen:
                raise ValueError("each denominator may appear only once")
            seen.add(denom)
            if denom != ENTIRE_DENOM and (
                denom.power < 1 or denom.amplitude not in (1, -1, 2 * self.d - 1)
            ):
                raise ValueError(f"denominator {tuple(denom)} is outside the representable family")
            if numerator.nvars != self.nvars:
                raise ValueError("numerator variable count mismatch")

    @staticmethod
    def from_parts(d: int, nvars: int, parts: dict[Denom, ExpSum]) -> MeromorphicTrace:
        kept = sorted(
            ((denom, num) for denom, num in parts.items() if not num.is_zero),
            key=lambda item: item[0],
        )
        return MeromorphicTrace(d, nvars, tuple(kept))

    def evaluate(self, s: Sequence[complex]) -> complex:
        branch = cmath.exp(-sum(s))
        total = 0j
        for (amplitude, power), numerator in self.parts:
            scale = _as_float(amplitude, "branching number 2d-1")
            total += numerator.evaluate(s) / (1 - scale * branch) ** power
        return total


def _pair_split(beta: int, power: int, alpha: int) -> dict[Denom, Fraction]:
    """Partial fractions of 1/((1-beta E)^power (1-alpha E)) for beta != alpha."""
    if power == 0:
        return {Denom(alpha, 1): Fraction(1)}
    swap = Fraction(alpha, alpha - beta)
    out = {Denom(beta, power): Fraction(beta, beta - alpha)}
    for key, coeff in _pair_split(beta, power - 1, alpha).items():
        out[key] = out.get(key, Fraction(0)) + swap * coeff
    return out


Signature = tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=64)
def _signature_split(signature: Signature) -> tuple[tuple[Denom, Fraction], ...]:
    """Exact partial fractions of 1/prod (1-alpha E)^p over the sorted
    (alpha, p) pairs: single powers with their coefficients.  The closed
    forms meet a handful per d: 1, -1 and 2d-1 to powers <= 3."""
    current = {ENTIRE_DENOM: Fraction(1)}
    for alpha, power in signature:
        for _ in range(power):
            updated: dict[Denom, Fraction] = {}
            for (beta, held), coeff in current.items():
                if beta == alpha:
                    splits = {Denom(alpha, held + 1): Fraction(1)}
                else:
                    splits = _pair_split(beta, held, alpha)
                for split, split_coeff in splits.items():
                    updated[split] = updated.get(split, Fraction(0)) + coeff * split_coeff
            current = updated
    return tuple((denom, coeff) for denom, coeff in current.items() if coeff)


class _Accumulator:
    """Mutable builder adding up one numerator per denominator signature,
    the sorted (alpha, p) pairs of prod (1-alpha E)^p; :meth:`build` splits
    each signature once and distributes its numerator over single powers."""

    def __init__(self, d: int, nvars: int) -> None:
        self.d = d
        self.nvars = nvars
        self.numerators: dict[Signature, dict[TermKey, Fraction]] = {}

    def add_term(
        self,
        factors: dict[int, int],
        vector: Sequence[int],
        coeff: Fraction,
    ) -> None:
        if not coeff:
            return
        numerator = self.numerators.setdefault(tuple(sorted(factors.items())), {})
        key = tuple(vector)
        numerator[key] = numerator.get(key, Fraction(0)) + coeff

    def build(self) -> MeromorphicTrace:
        buckets: dict[Denom, dict[TermKey, Fraction]] = {}
        for signature, numerator in self.numerators.items():
            for denom, split_coeff in _signature_split(signature):
                bucket = buckets.setdefault(denom, {})
                for key, coeff in numerator.items():
                    bucket[key] = bucket.get(key, Fraction(0)) + coeff * split_coeff
        parts = {
            denom: ExpSum.from_terms(self.nvars, entries)
            for denom, entries in buckets.items()
        }
        return MeromorphicTrace.from_parts(self.d, self.nvars, parts)


def _canonical_chain(
    chain: Sequence[Monomial], anchor: int, model: FreeGroup
) -> tuple[Monomial, ...]:
    """Relabel the chain's letters by :func:`relabel`, so the anchor
    becomes letter 0.

    Letter permutations that respect the inverse pairing preserve
    admissibility, so traces are unchanged; the closed-form species counts
    assume the anchor is the first generator.  The anchor and every letter
    of every stage must lie in the model's alphabet.
    """
    letters = [x for m in chain for x in m.out_word + m.in_word]
    for letter in (anchor, *letters):
        model.check_letter(letter)
    mapping = dict(zip(letters, relabel(letters, anchor)[0]))

    def remap(word: Word) -> Word:
        return tuple(mapping[x] for x in word)

    return tuple(Monomial(remap(m.out_word), remap(m.in_word)) for m in chain)


class _ChainSummary(NamedTuple):
    refined_length: int
    omegas: tuple[int, ...]
    sigma_lengths: tuple[int, ...]
    settled_buckets: tuple[tuple[tuple[int, ...], Fraction], ...]
    ending_buckets: tuple[tuple[int, Fraction], ...]
    zero_diagonal: bool
    short_vectors: tuple[tuple[tuple[int, ...], int], ...]


def _refined_length(chain: tuple[Monomial, ...]) -> int:
    return sum(len(m.out_word) + len(m.in_word) for m in chain) + 2


@functools.lru_cache(maxsize=256)
def _chain_summary(chain: tuple[Monomial, ...], model: FreeGroup) -> _ChainSummary:
    """Cylinder decomposition of a chain diagonal, grouped for assembly."""
    return _summarize(chain, *cylinder_census(chain, model, _refined_length(chain)))


def _summarize(
    chain: tuple[Monomial, ...],
    census: dict[CylinderClass, Fraction | int],
    short_vectors: tuple[tuple[tuple[int, ...], int], ...],
) -> _ChainSummary:
    """Summary of the chain whose diagonal, refined to the refinement
    length, has the given census: weight per (class of the last letter,
    trailing run of the anchor), and short diagonal vectors, as
    :func:`cylinder_census` gives them.

    Cylinders sharing the vector of partially-applied settle depths are
    interchangeable for the settled family, and cylinders whose final
    letters share a class are interchangeable for the escaping family; only
    the grouped weights are kept.  The classes are the anchor 0, its
    inverse 1, and every other letter, keyed by 2: the automorphisms fixing
    0 and 1 permute the other letters, so the escape species and counts see
    a letter only through its class.  Stage j sees a cylinder word x as a
    fixed head followed by x with a fixed number of letters cut, so its
    settle depth depends on x only through the trailing run of the anchor.
    An empty census is the zero diagonal.
    """
    refined = _refined_length(chain)
    omegas = [0] * (len(chain) + 1)
    for j in range(len(chain) - 1, 0, -1):
        omegas[j] = omegas[j + 1] + len(chain[j].out_word) - len(chain[j].in_word)
    omega_tuple = tuple(omegas[1:])
    sigma_lengths = tuple(refined + w for w in omega_tuple)
    if not census:
        return _ChainSummary(refined, omega_tuple, sigma_lengths, (), (), True, ())

    heads = []
    head, cut = (), 0
    for pair in reversed(chain):
        untailed = len(head)
        while untailed and head[untailed - 1] == 0:
            untailed -= 1
        heads.append((len(head), refined - cut, untailed))
        stripped = len(pair.in_word)
        if stripped <= len(head):
            head = pair.out_word + head[stripped:]
        else:
            head, cut = pair.out_word, cut + stripped - len(head)
    heads.reverse()

    settled: dict[tuple[int, ...], Fraction] = {}
    ending: dict[int, Fraction] = {}
    for (last, run), weight in census.items():
        ending[last] = ending.get(last, Fraction(0)) + weight
        if last != 1:
            key = tuple(
                size + span - run if run < span else untailed
                for size, span, untailed in heads
            )
            settled[key] = settled.get(key, Fraction(0)) + weight
    return _ChainSummary(
        refined,
        omega_tuple,
        sigma_lengths,
        tuple(sorted(settled.items())),
        tuple(sorted(ending.items())),
        False,
        short_vectors,
    )


def _species_scales(
    summary: _ChainSummary, species: Callable[[FreeGroup, int], Species], model: FreeGroup
) -> dict[int, Fraction]:
    """weight * coeff * amplitude summed per amplitude over the ending
    buckets' species, the only way the escaping terms see a bucket."""
    scales: dict[int, Fraction] = {}
    for last, weight in summary.ending_buckets:
        for coeff, amplitude in species(model, last):
            scales[amplitude] = scales.get(amplitude, Fraction(0)) + weight * coeff * amplitude
    return scales


def closed_form_heat_trace(
    chain: Sequence[Monomial], anchor: int, model: FreeGroup
) -> MeromorphicTrace:
    """Exact trace of the chain interleaved with heat factors on the vertex
    space over the fixed point of the anchor letter.

    The diagonal decomposes into cylinders; vertices over each cylinder
    split into the family settling straight onto the anchor's fixed point
    and the families settling after an escape of each positive depth,
    whose counts are the species of :func:`settling_species`.  Both resum
    to powers of 1 - alpha E over the species amplitudes alpha.
    """
    return _canonical_heat_trace(_canonical_chain(chain, anchor, model), model)


@functools.lru_cache(maxsize=256)
def _canonical_heat_trace(canonical: tuple[Monomial, ...], model: FreeGroup) -> MeromorphicTrace:
    """The heat closed form of a relabelled chain, built once per process:
    the trace is frozen, and a relabelling under another anchor shares it."""
    d = model.generators
    stages = len(canonical)
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return MeromorphicTrace.from_parts(d, stages, {})

    out = _Accumulator(d, stages)
    omegas = summary.omegas
    sigma_lengths = summary.sigma_lengths

    lower = -max(omegas)
    uppers = [max(t - w for t, w in zip(depths, omegas)) for depths, _ in summary.settled_buckets]
    # The vectors at the offsets lower, lower + 1, ... of every bucket in one call.
    offsets = np.arange(lower, max(uppers, default=lower))[:, None] + omegas
    depth_rows = np.reshape([depths for depths, _ in summary.settled_buckets], (-1, 1, stages))
    grid = settled_eigenvalue(depth_rows, offsets).tolist()
    for (depths, weight), upper, vectors in zip(summary.settled_buckets, uppers, grid):
        out.add_term({1: 1}, tuple(w + upper for w in omegas), weight)
        for vector in vectors[: upper - lower]:
            out.add_term({}, tuple(vector), weight)
        out.add_term(
            {1: 1, -1: 1},
            tuple(t - 2 * w + 2 - 2 * lower for t, w in zip(depths, omegas)),
            weight,
        )

    shallow = min(sigma_lengths)
    deep = max(sigma_lengths)
    plateau_vectors = [
        tuple(max(sl, 2 * c - sl) for sl in sigma_lengths)
        for c in range(shallow + 1, deep + 1)
    ]
    escape_pieces: list[tuple[dict[int, int], list[tuple[tuple[int, ...], Fraction]]]] = [
        ({1: 1}, [(sigma_lengths, Fraction(1))]),
        (
            {},
            [(sigma_lengths, Fraction(shallow))]
            + [(v, Fraction(1)) for v in plateau_vectors],
        ),
        (
            {1: 1, -1: 1},
            [(tuple(2 * deep + 2 - sl for sl in sigma_lengths), Fraction(1))],
        ),
    ]
    for alpha, scale in _species_scales(summary, settling_species, model).items():
        out.add_term({alpha: 2}, tuple(sl + 1 for sl in sigma_lengths), scale)
        for extra_factors, pieces in escape_pieces:
            factors = dict(extra_factors)
            factors[alpha] = factors.get(alpha, 0) + 1
            for vector, piece_coeff in pieces:
                out.add_term(factors, tuple(x + 1 for x in vector), scale * piece_coeff)
    return out.build()


def closed_form_toeplitz_trace(
    chain: Sequence[Monomial], anchor: int, model: FreeGroup
) -> MeromorphicTrace:
    """Exact trace of the chain compressed to the word basis, interleaved
    with heat factors of the length operator.

    Words shorter than the refinement length are counted per stage-length
    vector into the entire part; longer words group by their defining cylinder and
    each species of :func:`extension_species` resums geometrically.
    """
    return _canonical_toeplitz_trace(_canonical_chain(chain, anchor, model), model)


@functools.lru_cache(maxsize=256)
def _canonical_toeplitz_trace(
    canonical: tuple[Monomial, ...], model: FreeGroup
) -> MeromorphicTrace:
    """The word-basis closed form of a relabelled chain, cached as
    :func:`_canonical_heat_trace` is."""
    d = model.generators
    stages = len(canonical)
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return MeromorphicTrace.from_parts(d, stages, {})

    out = _Accumulator(d, stages)
    for vector, count in summary.short_vectors:
        out.add_term({}, vector, Fraction(count))

    sigma_lengths = summary.sigma_lengths
    for last, weight in summary.ending_buckets:
        if last != 1:
            out.add_term({}, sigma_lengths, weight)
    bumped = tuple(sl + 1 for sl in sigma_lengths)
    for amplitude, scale in _species_scales(summary, extension_species, model).items():
        out.add_term({amplitude: 1}, bumped, scale)
    return out.build()


class OracleResult(NamedTuple):
    value: float
    tail_bound: float


def _validate_heat_inputs(
    chain: Sequence[Monomial], s: Sequence[float], truncation: int
) -> None:
    if not chain:
        raise ValueError("chain must be nonempty")
    if len(s) != len(chain):
        raise ValueError("need one heat parameter per chain stage")
    if any(value < 0 for value in s):
        raise ValueError("heat parameters must be nonnegative")
    if truncation < 1:
        raise ValueError("truncation must be positive")


def _validate_oracle_inputs(
    chain: Sequence[Monomial],
    model: FreeGroup,
    s: Sequence[float],
    truncation: int,
) -> float:
    _validate_heat_inputs(chain, s, truncation)
    d = model.generators
    total = float(sum(s))
    threshold = math.log(2 * d - 1)
    if total <= threshold:
        raise ValueError(
            f"sum of heat parameters {total:.6g} is not above the convergence "
            f"threshold log(2d-1) = {threshold:.6g}"
        )
    return total


@functools.lru_cache(maxsize=64)
def _escape_log_counts(model: FreeGroup, after: int, top: int, settling: bool) -> np.ndarray:
    """Read-only log n, -inf where n = 0, of the exact counts of admissible
    words following a letter, lengths 1..top, whose last letter avoids the
    anchor's inverse, and for settling the anchor as well: transfer-matrix
    rows, independent of the closed-form species formulas.  Streamed once
    per key, so every exponent and every shallower truncation of one
    experiment reads a prefix of the same array."""
    rows = transfer_counts(model, after, top)
    counts = (other if settling else anchor + other for anchor, _, other in rows)
    logs = np.fromiter((math.log(n) if n else -math.inf for n in counts), float, top)
    logs.flags.writeable = False
    return logs


def _count_times_exp(count: int, log_factor: float) -> float:
    """count * e^log_factor, formed in log space so that neither a count
    beyond float range nor a factor below it is ever converted alone."""
    if not count:
        return 0.0
    try:
        return math.exp(math.log(count) + log_factor)
    except OverflowError:
        raise ValueError("heat sum exceeds the float range") from None


def _window_log_sums(
    s: Sequence[float], depths: np.ndarray, omegas: Sequence[int], low: np.ndarray, high: int
) -> np.ndarray:
    """Log of the heat sum over the offsets low[i]..high of each window i.

    The term at offset o is e^{-sum_j s_j settled_eigenvalue(D_j, o + w_j)}
    with D = depths[i], and that eigenvalue, max(x, D_j, D_j - 2x) at
    x = o + w_j, is linear in o between the cut points -w_j and D_j - w_j.
    Clipped to the window and sorted, the cuts split it into 2*stages + 1
    runs, some empty; each run is a geometric series, summed in closed
    form from its largest term, and the runs join by log-sum-exp.  An
    empty window (low > high) has every boundary clipped to high + 1, so
    all its runs are empty; empty windows and runs give -inf.
    """
    rates, omegas = np.asarray(s, dtype=float), np.asarray(omegas)
    ends = np.column_stack(
        (low, np.full_like(low, high + 1), depths - omegas, np.zeros_like(depths) - omegas)
    )
    bounds = np.sort(np.clip(ends, low[:, None], high + 1), axis=1)
    starts, count = bounds[:, :-1, None], np.diff(bounds, axis=1)
    depths = depths[:, None, :]

    first = settled_eigenvalue(depths, starts + omegas)
    step = settled_eigenvalue(depths, starts + 1 + omegas) - first
    slope = (step * rates).sum(axis=2)
    largest = first + np.where(slope < 0, count - 1, 0)[:, :, None] * step
    rate = np.abs(slope)
    runs = np.log(np.where(rate > 0, np.expm1(-count * rate) / np.expm1(-rate), count))
    runs -= (largest * rates).sum(axis=2)
    peak = runs.max(axis=1)
    peak[peak == -np.inf] = 0.0
    return peak + np.log(np.exp(runs - peak[:, None]).sum(axis=1))


def _windowed_heat_value(
    summary: _ChainSummary,
    model: FreeGroup,
    s: Sequence[float],
    limit: int,
    deepest: int | None = None,
) -> float:
    """Heat sum over the vertices inside the truncation window.

    A window is one settled bucket, or one escape depth of the ending
    buckets; :func:`_window_log_sums` sums all settled windows in one call
    and all escape depths in another, shared by every ending bucket.  The
    exact integer count of escape words joins its window as a logarithm
    before anything is exponentiated, so neither the count nor a window
    far below float range is lost; the counts are a prefix of those streamed
    to the truncation ``deepest`` (default ``limit``).  Only finitely many
    vertices contribute, so the value is meaningful for any nonnegative
    heat parameters, including below the convergence abscissa where no
    tail bound exists; a sum beyond float range raises ValueError.
    """
    top = limit - summary.refined_length
    value = 0.0
    with np.errstate(all="ignore"):
        if summary.settled_buckets:
            depths = np.array([depths for depths, _ in summary.settled_buckets])
            weights = np.array([_as_float(w, "census weight") for _, w in summary.settled_buckets])
            logs = _window_log_sums(s, depths, summary.omegas, 2 * depths[:, -1] - limit, limit)
            value += float((weights * np.exp(logs)).sum())
        if top >= 1 and summary.ending_buckets:
            escape = np.arange(1, top + 1)
            windows = _window_log_sums(
                s,
                escape[:, None] + summary.sigma_lengths,
                summary.omegas,
                2 * (summary.refined_length + escape) - limit,
                limit,
            )
            stream = (deepest or limit) - summary.refined_length
            for last, weight in summary.ending_buckets:
                logs = _escape_log_counts(model, last, stream, True)[:top]
                value += _as_float(weight, "census weight") * float(np.exp(logs + windows).sum())
    if not math.isfinite(value):
        raise ValueError("heat sum exceeds the float range")
    return value


def _heat_partial_sum(
    chain: Sequence[Monomial],
    anchor: int,
    model: FreeGroup,
    s: Sequence[float],
    sweep: Sequence[int],
) -> tuple[float, ...]:
    """Windowed heat sums alone at every truncation of the sweep, with no
    convergence threshold demanded; the escape counts are streamed once,
    to the deepest truncation.

    Summability sweeps need partial sums on both sides of the abscissa,
    where a certified remainder cannot exist.
    """
    _validate_heat_inputs(chain, s, min(sweep))
    canonical = _canonical_chain(chain, anchor, model)
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return (0.0,) * len(sweep)
    deepest = max(sweep)
    return tuple(_windowed_heat_value(summary, model, s, limit, deepest) for limit in sweep)


def brute_force_heat_trace(
    chain: Sequence[Monomial],
    anchor: int,
    model: FreeGroup,
    s: Sequence[float],
    truncation: int,
) -> OracleResult:
    """Trace over vertices carried by group words up to the truncation
    length, with a certified bound on everything omitted.

    Vertices are aggregated per cylinder family and summed termwise; the
    tail bound combines geometric remainders of the three regimes with the
    crude count of escape words by the branching number.  A truncation
    below the chain's refinement length stops inside the cylinders the
    chain resolves, where the bound dwarfs the value (about 1e26 against
    2e-3 for a1:a1 at L=1), so it is refused.
    """
    canonical = _canonical_chain(chain, anchor, model)
    total = _validate_oracle_inputs(canonical, model, s, truncation)
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return OracleResult(0.0, 0.0)
    if truncation < summary.refined_length:
        raise ValueError(
            f"truncation L={truncation} is below the chain's refinement length "
            f"{summary.refined_length}"
        )

    branching = 2 * model.generators - 1
    limit = truncation
    omegas = summary.omegas
    sigma_lengths = summary.sigma_lengths
    refined = summary.refined_length
    ratio = math.exp(-total)
    value = _windowed_heat_value(summary, model, s, truncation)
    top = limit - refined

    # Tail bound pieces; eigenvalues dominate both the linear regime
    # (eigenvalue >= offset) and the reflected one (eigenvalue >= depth
    # minus twice the offset), so each omitted zone is under a geometric
    # envelope with an explicit first term.  Word counts go through
    # _count_times_exp: (2d-1)^L leaves float range near L = 646 at d = 2.
    log_drift = -sum(sj * w for sj, w in zip(s, omegas))
    log_reflect_base = -sum(sj * (refined - w) for sj, w in zip(s, omegas))
    log_heavy = -sum(sj * sl for sj, sl in zip(s, sigma_lengths))
    drift = math.exp(log_drift)
    reflect_base = math.exp(log_reflect_base)
    heavy = math.exp(log_heavy)
    bound = 0.0
    for depths, weight in summary.settled_buckets:
        strength = abs(float(weight))
        terminal = depths[-1]
        bound += strength * drift * ratio ** (limit + 1) / (1 - ratio)
        reflected = _count_times_exp(
            1,
            -sum(sj * (t - 2 * w) for sj, t, w in zip(s, depths, omegas))
            - total * (2 * limit + 2 - 4 * terminal),
        )
        bound += strength * reflected / (1 - ratio**2)
    branch_ratio = _as_float(branching, "branching number 2d-1") * ratio
    if branch_ratio >= 1:
        raise AssertionError("convergence validation should have caught this")
    # One escape envelope for every ending bucket, scaled by their total strength.
    escape = 0.0
    if top >= 1:
        prefix_counts = (branching ** (top + 1) - branching) // (branching - 1)
        escape += _count_times_exp(prefix_counts, log_drift - total * (limit + 1)) / (1 - ratio)
        for depth in range(1, top + 1):
            cut = 2 * (refined + depth) - limit
            low = min(cut, 0)
            reach = depth * math.log(branching)
            reflected = _count_times_exp(
                1, reach + log_reflect_base - total * (depth + 2 - 2 * low)
            ) / (1 - ratio**2)
            plateau = _count_times_exp(max(cut, 0), reach + log_heavy - total * depth)
            escape += reflected + plateau
    start = top + 1
    alpha = (
        drift * ratio**refined / (1 - ratio)
        + (refined + max(omegas)) * heavy
        + reflect_base * ratio ** (2 + 2 * max(omegas)) / (1 - ratio**2)
    )
    power = branch_ratio**start
    escape += alpha * power / (1 - branch_ratio) + heavy * power * (
        start / (1 - branch_ratio) + branch_ratio / (1 - branch_ratio) ** 2
    )
    strength = sum(abs(float(weight)) for _, weight in summary.ending_buckets)
    return OracleResult(value, bound + strength * escape)


def brute_force_toeplitz_trace(
    chain: Sequence[Monomial],
    anchor: int,
    model: FreeGroup,
    s: Sequence[float],
    truncation: int,
) -> OracleResult:
    """Word-basis companion of :func:`brute_force_heat_trace`."""
    canonical = _canonical_chain(chain, anchor, model)
    total = _validate_oracle_inputs(canonical, model, s, truncation)
    d = model.generators
    summary = _chain_summary(canonical, model)
    if summary.zero_diagonal:
        return OracleResult(0.0, 0.0)

    branching = 2 * d - 1
    limit = truncation
    refined = summary.refined_length
    sigma_lengths = summary.sigma_lengths
    ratio = math.exp(-total)
    log_heavy = -sum(sj * sl for sj, sl in zip(s, sigma_lengths))
    heavy = math.exp(log_heavy)

    value = 0.0
    for vector, count in summary.short_vectors:
        if vector[-1] <= limit:
            value += count * math.exp(-sum(sj * x for sj, x in zip(s, vector)))

    top = max(limit - refined, 0)
    # Escape terms count * heavy * ratio^length join in log space, as in the heat oracle.
    log_terms = log_heavy - total * np.arange(1, top + 1)
    for last, weight in summary.ending_buckets:
        partial = heavy if limit >= refined and last != 1 else 0.0
        if top >= 1:
            logs = _escape_log_counts(model, last, top, False)
            partial += float(np.exp(logs + log_terms).sum())
        value += float(weight) * partial

    bound = 0.0
    for length in range(limit + 1, refined):
        cap = math.exp(
            -sum(sj * max(0, length + w) for sj, w in zip(s, summary.omegas))
        )
        bound += 2 * d * branching ** (length - 1) * cap
    branch_ratio = branching * ratio
    start = max(limit - refined + 1, 0)
    spill = sum(abs(float(w)) for _, w in summary.ending_buckets)
    bound += spill * heavy * branch_ratio**start / (1 - branch_ratio)
    return OracleResult(value, bound)


def single_variable(trace: MeromorphicTrace) -> MeromorphicTrace:
    """Single-variable slice s_1 = ... = s_{m-1} = 0, s_m = s.

    Each term keeps the last coordinate of its exponent vector; the sum
    s_1 + ... + s_m becomes s, so the denominators pass through
    unchanged.  A one-variable trace is returned as it is.
    """
    if trace.nvars == 1:
        return trace
    parts: dict[Denom, ExpSum] = {}
    for denom, numerator in trace.parts:
        entries: dict[TermKey, Fraction] = {}
        for vector, coeff in numerator.terms:
            key = vector[-1:]
            entries[key] = entries.get(key, Fraction(0)) + coeff
        parts[denom] = ExpSum.from_terms(1, entries)
    return MeromorphicTrace.from_parts(trace.d, 1, parts)


@dataclass(frozen=True)
class PoleDatum:
    """Principal part of one pole class of a single-variable trace.

    The location is base + i*pi for odd parity, base for even parity, both
    modulo 2*pi*i; ``principal`` lists the exact Laurent coefficients of
    (s - location)^{-order} through (s - location)^{-1}, each a rational.
    """

    base_label: str
    base_value: float
    parity: str
    order: int
    principal: tuple[Fraction, ...]


def _phi_series(order: int) -> list[Fraction]:
    """Taylor coefficients of t/(1 - e^{-t}) up to the requested order."""
    drops = [
        Fraction((-1) ** i, math.factorial(i + 1)) for i in range(order + 1)
    ]
    coeffs: list[Fraction] = []
    for i in range(order + 1):
        acc = Fraction(1 if i == 0 else 0)
        for j in range(i):
            acc -= coeffs[j] * drops[i - j]
        coeffs.append(acc)
    return coeffs


def _series_power(base: list[Fraction], power: int, order: int) -> list[Fraction]:
    result = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(power):
        merged = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                merged[i + j] += result[i] * base[j]
        result = merged
    return result


@functools.lru_cache(maxsize=8)
def _reciprocal_moments(order: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Row k < order: integers w_0..w_k over a denominator D with
    sum_i w_i x^i / D = sum_i x^i / i! * r_{k-i}, r the Taylor coefficients
    of (t/(1 - e^{-t}))^order, the reciprocal of a pole of that order; at
    x = -v it is the t^k coefficient of e^{-vt} t^order / (1 - e^{-t})^order."""
    reciprocal = _series_power(_phi_series(order), order, order - 1)
    rows = []
    for k in range(order):
        terms = [reciprocal[k - i] / math.factorial(i) for i in range(k + 1)]
        scale = math.lcm(*(q.denominator for q in terms))
        rows.append((tuple(int(q * scale) for q in terms), scale))
    return tuple(rows)


def poles_and_laurent(trace: MeromorphicTrace) -> list[PoleDatum]:
    """Exact pole classes of a single-variable trace.

    Writes w = e^{-s}; near the root w_0 = 1/alpha of 1 - alpha w, the
    denominator of amplitude alpha equals 1 - e^{-t} in the local variable
    t, whose reciprocal expands through Bernoulli-type coefficients, while
    a numerator term e^{-vs} contributes w_0^v e^{-vt} = alpha^{-v} e^{-vt}.
    The pole sits at s = log(alpha): at 0 for alpha = 1, at i*pi (odd
    parity) for alpha = -1 and at log(2d-1) for the branching number.  The
    Laurent coefficients are summed exactly, so reported orders are true
    orders.
    """
    if trace.nvars != 1:
        raise ValueError("pole extraction expects a single-variable trace")
    found = []
    for alpha in (1, -1, 2 * trace.d - 1):
        powers = {power: num for (amplitude, power), num in trace.parts if amplitude == alpha}
        if not powers:
            continue
        principal: dict[int, Fraction] = {}
        for power, numerator in powers.items():
            rows = _reciprocal_moments(power)
            for (v,), coeff in numerator.terms:
                lift = alpha ** abs(v)
                num, den = coeff.numerator, coeff.denominator
                num, den = (num, den * lift) if v >= 0 else (num * lift, den)
                for k, (weights, scale) in enumerate(rows):
                    moment = sum(w * (-v) ** i for i, w in enumerate(weights))
                    if moment:
                        share = Fraction(num * moment, den * scale)
                        principal[k - power] = principal.get(k - power, 0) + share
        true_order = max((-exponent for exponent, q in principal.items() if q), default=0)
        if true_order == 0:
            continue
        coefficients = tuple(principal.get(e, Fraction(0)) for e in range(-true_order, 0))
        label, base_value = ("log(2d-1)", math.log(alpha)) if alpha > 1 else ("0", 0.0)
        parity = "odd" if alpha < 0 else "even"
        found.append(PoleDatum(label, base_value, parity, true_order, coefficients))
    return found
