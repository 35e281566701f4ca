"""Spectral-triple combinatorics for Cuntz-Krieger boundaries.

The package is organized in layers.  ``words`` holds admissible-word
combinatorics, the free-group boundary and the species decompositions of
the escape counts, ``ckalg`` the Cuntz-Krieger monomial chains and the
words they fix,
``operators`` the quadrature check of the fractional-power integral,
``traces`` the closed-form and brute-force heat and Toeplitz traces with
their pole data, ``circle`` and ``higher_order`` the circle-based models,
``damp`` the logarithmic dampening toolkit, and ``cochain`` the residue
cochains used by the counterexample verdict.  ``cli`` exposes the command
line entry point.
"""

from __future__ import annotations

__all__ = ["__version__"]

__version__ = "0.1.0"
