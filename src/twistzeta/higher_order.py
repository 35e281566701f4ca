"""Fractional-weight commutator diagnostics of the lattice crossed product.

A commutator T of an unbounded operator with an algebra element can fail
to be bounded yet become bounded after multiplying by a fractional power
of the resolvent; the exponent budget epsilon in (0, 1] measures how much
of the weight can be given up.  This module computes such weighted norms
on truncated windows for the crossed product by a circle diffeomorphism on
a lattice-times-mode grid, and sweeps truncation sizes to classify each
epsilon as plateau or growing.

The translation commutator has an exact one-band closed form, so its
sweep is evaluated directly.  The symbol commutator at lattice site n
involves the symbol composed with the n-th power of the diffeomorphism,
whose bandwidth grows like e^(|n| stretch); materializing it faithfully
is impossible beyond small |n|, so the sweep evaluates the per-site bound
2 C |n| sup|f| + ||[D_log, f]|| with both constants measured on the mode
window.  The growth exponents that drive the verdicts depend only on the
linear site factor and the weight, not on the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circle import (
    CrossedElement,
    MoebiusMap,
    TrigPoly,
    log_dirac_commutator,
    singular_values,
)

PLATEAU_MARGIN = 0.15

GROWTH_FACTOR = 2.0

# The symbol lane's diffeomorphism, the hyperbolic Moebius map of this
# stretch, and the symbol whose commutator it bounds.
SYMBOL_STRETCH = 1.0
SWEEP_SYMBOL = TrigPoly.coordinate()


@dataclass(frozen=True)
class EpsBoundReport:
    """Weighted commutator norms across a truncation sweep for one epsilon.

    ``plateau_ratio`` is the max/min ratio of the final three norms; the
    verdict is growing when the norms more than double over the whole
    sweep, plateau when the final three stay within the 15% margin, and
    undecided otherwise.
    """

    epsilon: float
    sweep: tuple[tuple[int, float], ...]
    verdict: str
    plateau_ratio: float

    def __post_init__(self) -> None:
        if not self.sweep:
            raise ValueError("sweep must be nonempty")
        radii = [stage for stage, _ in self.sweep]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("sweep sizes must be strictly increasing")


def _classified_report(
    epsilon: float, stages: Sequence[int], norms: Sequence[float]
) -> EpsBoundReport:
    tail = norms[-3:]
    low = min(tail)
    ratio = math.inf if low == 0.0 and max(tail) > 0.0 else (
        1.0 if max(tail) == 0.0 else max(tail) / low
    )
    if norms[0] == 0.0:
        total = math.inf if norms[-1] > 0.0 else 1.0
    else:
        total = norms[-1] / norms[0]
    if total > GROWTH_FACTOR:
        verdict = "growing"
    elif ratio < 1.0 + PLATEAU_MARGIN:
        verdict = "plateau"
    else:
        verdict = "undecided"
    return EpsBoundReport(
        epsilon=epsilon,
        sweep=tuple(zip(stages, norms)),
        verdict=verdict,
        plateau_ratio=ratio,
    )


def _site_weight(sites: np.ndarray, power: float, epsilon: float) -> np.ndarray:
    magnitude = np.abs(sites) ** (2.0 + 2.0 * power)
    return np.exp(-0.5 * (1.0 - epsilon) * np.log1p(magnitude))


def _translation_band(sites: np.ndarray, power: float) -> np.ndarray:
    forward = (sites + 1) * np.abs(sites + 1) ** power
    return np.abs(forward - sites * np.abs(sites) ** power)


def order_sweep(
    power: float,
    commutator: str,
    epsilons: Sequence[float],
    lattice_sweep: Sequence[int],
    *,
    max_mode: int = 64,
) -> list[EpsBoundReport]:
    """Weighted commutator norms over lattice truncations, one report per epsilon.

    The translation commutator is a single band with the exact closed
    form ((n+1)|n+1|^s - n|n|^s), evaluated against the resolvent weight
    at the source site.  The symbol commutator uses the per-site bound
    2 C |n| sup|f| + ||[D_log, mult(f)]|| for f = ``SWEEP_SYMBOL``, with the
    constant C measured as the commutator norm of the damped mode operator
    with the unitary of the diffeomorphism, the hyperbolic Moebius map of
    stretch ``SYMBOL_STRETCH``; materializing the composed symbols themselves
    needs mode windows of size e^(|n| stretch), which no fixed window can
    provide across the sweep.  Norms are taken over the inner half of
    each lattice window.
    """
    if commutator not in ("translation", "symbol"):
        raise ValueError(
            f"commutator must be 'translation' or 'symbol', not {commutator!r}"
        )
    if not 0.0 < power <= 1.0:
        raise ValueError("the position weight exponent must lie in (0, 1]")
    grid = tuple(float(eps) for eps in epsilons)
    if not grid:
        raise ValueError("epsilon grid must be nonempty")
    if any(not 0.0 < eps <= 1.0 for eps in grid):
        raise ValueError("every epsilon must lie in (0, 1]")
    stages = tuple(int(stage) for stage in lattice_sweep)
    if len(stages) < 3:
        raise ValueError("the lattice sweep needs at least three stages")
    if any(b <= a for a, b in zip(stages, stages[1:])) or stages[0] < 2:
        raise ValueError("lattice sweep must be strictly increasing from at least two")

    if commutator == "symbol":
        gamma = MoebiusMap.hyperbolic(SYMBOL_STRETCH)
        step_norm, inner_norm = (
            float(singular_values(log_dirac_commutator(element, gamma, max_mode))[0])
            for element in (
                CrossedElement.generator(),
                CrossedElement.multiplication(SWEEP_SYMBOL),
            )
        )
        symbol_sup = float(np.max(np.abs(SWEEP_SYMBOL.values_on_grid(256))))

        def site_value(sites: np.ndarray, eps: float) -> np.ndarray:
            bound = 2.0 * step_norm * np.abs(sites) * symbol_sup + inner_norm
            return bound * _site_weight(sites, power, eps)

    else:

        def site_value(sites: np.ndarray, eps: float) -> np.ndarray:
            return _translation_band(sites, power) * _site_weight(sites, power, eps)

    # Stage L covers the sites |n| <= L // 2: fold n with -n, then a running
    # maximum over |n| gives every stage's norm at once.
    reach = stages[-1] // 2
    sites = np.arange(-reach, reach + 1, dtype=float)
    reports = []
    for eps in grid:
        values = site_value(sites, eps)
        folded = np.maximum(values[reach:], values[reach::-1])
        running = np.maximum.accumulate(folded)
        norms = [float(running[stage // 2]) for stage in stages]
        reports.append(_classified_report(eps, stages, norms))
    return reports
