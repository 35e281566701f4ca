"""Tests for the window-operator identities and the fractional-power check.

The window operators themselves live in ``twistzeta.circle`` (diagonals of
D, |D| and the phase F, commutators, numerical rank); these tests pin the
operator-level facts the paper's twisted commutators rest on.
"""

from __future__ import annotations

import numpy as np
import pytest

from twistzeta.circle import (
    CrossedElement,
    MoebiusMap,
    TrigPoly,
    build_dirac,
    build_phase,
    dirac_commutator,
    inner_block,
    numerical_rank,
    twisted_dirac_commutator,
)
from twistzeta.operators import frac_power_integral_check

STRETCH = MoebiusMap.hyperbolic(1.0)


def generic_element() -> CrossedElement:
    return CrossedElement(
        (
            (0, TrigPoly.from_dict({-1: 0.5, 0: 1.0, 2: -0.25j})),
            (1, TrigPoly.from_dict({0: 2.0, 1: 0.75})),
        )
    )


def test_operator_shape_must_match_basis():
    with pytest.raises(ValueError):
        inner_block(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        inner_block(np.zeros((5, 3)))
    assert inner_block(np.eye(9)).shape == (5, 5)


def test_numerical_rank_examples():
    assert numerical_rank(np.zeros((7, 7))) == 0
    assert numerical_rank(np.eye(7)) == 7
    assert numerical_rank(np.ones((7, 7))) == 1


def test_commutator_with_identity_vanishes():
    unit = CrossedElement.multiplication(TrigPoly.one())
    bracket = dirac_commutator(unit, STRETCH, 8)
    assert bracket.shape == (17, 17)
    assert np.all(bracket == 0)


def test_twisted_commutator_with_identity_twist_is_plain():
    identity = MoebiusMap.identity()
    twisted = twisted_dirac_commutator(generic_element(), identity, 8)
    plain = dirac_commutator(generic_element(), identity, 8)
    assert np.array_equal(twisted, plain)


def test_twisted_commutator_of_unit_vanishes():
    unit = CrossedElement.multiplication(TrigPoly.one())
    assert np.all(twisted_dirac_commutator(unit, STRETCH, 8) == 0)


def test_conjugation_twist_matches_sign_commutator_generic():
    # D a - s(a) D = |D| [F, a] for s(a) = |D| a |D|^-1, with D = F |D|.
    max_mode = 6
    dirac = build_dirac(max_mode)
    phase = build_phase(max_mode)
    absolute = np.abs(dirac)
    assert np.array_equal(phase * absolute, dirac)
    rng = np.random.default_rng(17)
    size = 2 * max_mode + 1
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    sigma_a = absolute[:, None] * a / absolute[None, :]
    twisted = dirac[:, None] * a - sigma_a * dirac[None, :]
    sign_bracket = phase[:, None] * a - a * phase[None, :]
    assert np.allclose(twisted, absolute[:, None] * sign_bracket, atol=1e-12)


def test_absolute_value_perturbation_profile_decays():
    # Compact difference |D| - |D + R| for a rank-one R: the spectrum of the
    # difference collapses fast, far below 1e-3 by index 40 at width 256.
    d = build_dirac(256)
    bump = np.ones(d.size)
    bump /= np.linalg.norm(bump)
    perturbation = np.outer(bump, bump)
    eigen, frame = np.linalg.eigh(np.diag(d) + perturbation)
    abs_perturbed = frame @ np.diag(np.abs(eigen)) @ frame.T
    profile = np.linalg.svd(np.diag(np.abs(d)) - abs_perturbed, compute_uv=False)
    assert all(a >= b for a, b in zip(profile, profile[1:]))
    assert profile[40] < 1e-3

    log_perturbed = frame @ np.diag(np.log1p(np.abs(eigen))) @ frame.T
    log_difference = np.diag(np.log1p(np.abs(d))) - log_perturbed
    log_profile = np.linalg.svd(log_difference, compute_uv=False)
    assert log_profile[40] < 1e-3


def test_frac_power_integral_rejects_bad_exponent():
    with pytest.raises(ValueError):
        frac_power_integral_check([1.0], 1.0)
    with pytest.raises(ValueError):
        frac_power_integral_check([1.0], 0.0)


def test_frac_power_integral_accuracy():
    eigenvalues = [float(n) for n in range(-32, 33)]
    for r in (0.25, 0.5, 0.75):
        assert frac_power_integral_check(eigenvalues, r) < 1e-6
