"""Quadrature check of the fractional-power integral on a diagonal spectrum.

This is the only module that imports ``scipy.integrate``; the command line
never imports it, so the quadrature import stays off its start-up path.
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy import integrate

# Subinterval limit of the adaptive quadrature on each integral.
QUAD_POINTS = 200


def frac_power_integral_check(eigenvalues: Sequence[float], r: float) -> float:
    """Largest deviation of the fractional-power integral from the direct power.

    For each eigenvalue ``d`` the integral
    (sin(r pi)/pi) * int_0^inf  lambda^{-r} (1 + d^2 + lambda)^{-1} dlambda
    is evaluated on a logarithmic scale (lambda = e^x turns both endpoint
    singularities into smooth exponential tails) and compared against
    (1 + d^2)^{-r}.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("the exponent must lie strictly between 0 and 1")
    worst = 0.0
    prefactor = math.sin(r * math.pi) / math.pi
    for eigenvalue in eigenvalues:
        shift = 1.0 + float(eigenvalue) ** 2

        def integrand(x: float, shift: float = shift) -> float:
            if x > 0.0:
                return math.exp(-r * x) / (shift * math.exp(-x) + 1.0)
            return math.exp((1.0 - r) * x) / (shift + math.exp(x))

        value, _ = integrate.quad(
            integrand,
            -math.inf,
            math.inf,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=QUAD_POINTS,
        )
        deviation = abs(prefactor * value - shift ** (-r))
        worst = max(worst, deviation)
    return worst
