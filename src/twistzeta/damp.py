"""Sign-preserving logarithmic dampening of spectra and summability scans.

The dampening acts on diagonal operators given as 1-d eigenvalue arrays:
the signed logarithm x -> sgn(x)log(1+|x|).  Summability scans turn
truncated heat or power sums into convergence verdicts by a ratio test on
the tail increments, both for materialized mode windows and for the
free-group vertex space, where the partial sums come from the exact
counting engine instead of an eigenvalue list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ckalg import Monomial
from .traces import _heat_partial_sum
from .words import FreeGroup

DIVERGENCE_MARGIN = 1e-3


def sgnlog_transform(diagonal: np.ndarray) -> np.ndarray:
    """Signed logarithm of a diagonal operator, eigenvalue by eigenvalue.

    Maps x to sgn(x)log(1+|x|); zero eigenvalues stay zero and the map is
    odd and strictly monotone.
    """
    values = np.asarray(diagonal, dtype=float)
    return np.sign(values) * np.log1p(np.abs(values))


@dataclass(frozen=True)
class SummabilityReport:
    """Partial-sum curves over a truncation sweep with verdicts per exponent.

    ``curves[i][j]`` is the partial sum for ``exponents[i]`` at the j-th
    truncation of the sweep.  ``bracket`` is the largest diverging and the
    smallest converged exponent, or None when the verdicts do not bracket
    the abscissa between them; ``crossing`` is its midpoint estimate.
    """

    exponents: tuple[float, ...]
    curves: tuple[tuple[float, ...], ...]
    verdicts: tuple[str, ...]
    bracket: tuple[float, float] | None

    def __post_init__(self) -> None:
        if len(self.curves) != len(self.exponents):
            raise ValueError("need one partial-sum curve per exponent")
        if len(self.verdicts) != len(self.exponents):
            raise ValueError("need one verdict per exponent")
        for curve in self.curves:
            drops = np.diff(np.asarray(curve))
            if drops.size and float(drops.min()) < -1e-9 * max(map(abs, curve)):
                raise ValueError("positive-term partial sums must be monotone")

    @property
    def crossing(self) -> float | None:
        return None if self.bracket is None else sum(self.bracket) / 2.0


def _tail_verdict(curve: Sequence[float]) -> str:
    """Ratio test on the last three increment pairs of a partial-sum curve."""
    gaps = np.diff(np.asarray(curve, dtype=float))
    ratios = []
    for previous, current in zip(gaps[-4:-1], gaps[-3:]):
        if previous == 0.0:
            ratios.append(0.0 if current == 0.0 else math.inf)
        else:
            ratios.append(float(current / previous))
    diverging = all(ratio > 1.0 - DIVERGENCE_MARGIN for ratio in ratios)
    return "diverging" if diverging else "converged"


def _bracket(
    exponents: Sequence[float], verdicts: Sequence[str]
) -> tuple[float, float] | None:
    diverging = [s for s, verdict in zip(exponents, verdicts) if verdict == "diverging"]
    converged = [s for s, verdict in zip(exponents, verdicts) if verdict == "converged"]
    if not diverging or not converged:
        return None
    below, above = max(diverging), min(converged)
    if below >= above:
        return None
    return below, above


def _assemble_report(
    exponents: Sequence[float], curves: Sequence[tuple[float, ...]]
) -> SummabilityReport:
    verdicts = tuple(_tail_verdict(curve) for curve in curves)
    return SummabilityReport(
        exponents=tuple(float(s) for s in exponents),
        curves=tuple(curves),
        verdicts=verdicts,
        bracket=_bracket(exponents, verdicts),
    )


def _validate_grid(exponents: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(s) for s in exponents)
    if not grid:
        raise ValueError("exponent grid must be nonempty")
    if any(s <= 0 for s in grid):
        raise ValueError("exponents must be positive")
    return grid


def truncation_sweep(depth: int) -> list[int]:
    """The five-stage sweep L/16, L/8, L/4, L/2, L of the command line."""
    return [depth // 16, depth // 8, depth // 4, depth // 2, depth]


def _validate_sweep(sweep: Sequence[int]) -> tuple[int, ...]:
    stages = tuple(int(size) for size in sweep)
    if len(stages) < 5:
        raise ValueError(
            "the truncation sweep needs at least five stages so the verdict "
            "can inspect three tail ratios"
        )
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise ValueError("truncation sweep must be strictly increasing")
    if stages[0] < 1:
        raise ValueError("truncations must be positive")
    return stages


def summability_scan(
    diagonal: np.ndarray,
    exponents: Sequence[float],
    sweep: Sequence[int],
) -> SummabilityReport:
    """Convergence verdicts for heat sums over a mode window.

    The diagonal must cover a symmetric window (odd length); the partial
    sum at truncation L runs over the central 2L+1 eigenvalues x of
    e^(-s|x|); an exponent is declared diverging when the tail increment
    ratios stay above 1 - 1e-3 across the final three sweep stages.
    """
    grid = _validate_grid(exponents)
    stages = _validate_sweep(sweep)
    values = np.asarray(diagonal, dtype=float)
    if values.ndim != 1 or values.size % 2 == 0:
        raise ValueError("diagonal must be a 1-d array over a symmetric window")
    center = values.size // 2
    if stages[-1] > center:
        raise ValueError(
            f"truncation {stages[-1]} exceeds the window radius {center}"
        )
    magnitudes = np.abs(values)
    curves = []
    for s in grid:
        weights = np.exp(-s * magnitudes)
        curve = tuple(
            float(np.sum(weights[center - stage : center + stage + 1]))
            for stage in stages
        )
        curves.append(curve)
    return _assemble_report(grid, curves)


UNIT_CHAIN = (Monomial((), ()),)


def free_group_summability(
    model: FreeGroup,
    anchor: int,
    exponents: Sequence[float],
    sweep: Sequence[int],
) -> SummabilityReport:
    """Heat-sum verdicts over the free-group vertex space over the fixed
    point of the anchor letter.

    The eigenvalue list cannot be materialized (level sizes grow like
    (2d-1)^L), so each partial sum comes from the windowed counting engine
    for the identity chain: the sum of e^(-s |eigenvalue|) over all
    vertices carried by group words up to the truncation length, in
    floating point from exact integer word counts, streamed once to the
    deepest truncation for every exponent, and closed-form window sums.
    A partial sum beyond float range raises ValueError.  Verdicts follow
    the same tail-ratio rule as :func:`summability_scan`; the crossing
    estimate brackets log(2d-1).
    """
    grid = _validate_grid(exponents)
    stages = _validate_sweep(sweep)
    curves = [_heat_partial_sum(UNIT_CHAIN, anchor, model, [s], stages) for s in grid]
    return _assemble_report(grid, curves)
