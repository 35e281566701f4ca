"""Tests for spectral dampening: signed logarithms, exponentiation,
invertible amplification, and summability verdicts."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistzeta.circle import build_dirac, build_dlog
from twistzeta.cli import main
from twistzeta.damp import (
    UNIT_CHAIN,
    SummabilityReport,
    free_group_summability,
    sgnlog_transform,
    summability_scan,
    truncation_sweep,
)
from twistzeta.traces import _escape_log_counts, _heat_partial_sum, brute_force_heat_trace
from twistzeta.words import FreeGroup

MODEL = FreeGroup(2)
ANCHOR = 0


def test_sgnlog_pointwise_values() -> None:
    out = sgnlog_transform(np.array([3.0, 0.0, -3.0]))
    assert out[0] == pytest.approx(math.log(4.0), abs=1e-15)
    assert out[1] == 0.0
    assert out[2] == -out[0]


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
def test_sgnlog_is_odd_and_strictly_monotone(point: float, step: float) -> None:
    lower, upper = sgnlog_transform(np.array([point, point + step]))
    assert lower < upper
    flipped = sgnlog_transform(np.array([-point]))[0]
    assert flipped == -sgnlog_transform(np.array([point]))[0]


def test_sgnlog_stays_near_circle_log_derivative() -> None:
    for max_mode in (2, 8, 64, 513):
        gap = np.abs(build_dlog(max_mode) - sgnlog_transform(build_dirac(max_mode)))
        top = float(gap.max())
        assert top <= math.log(2.0) + 1.0
        # the gap peaks at the modes where the log derivative vanishes
        assert top == pytest.approx(math.log(2.0), abs=1e-15)


# The regularized dampening, the exponential amplification with its twist and
# the doubled-basis amplification: spectral transforms of the paper that no
# command runs, kept next to the tests that check them.

def beta_log_transform(diagonal: np.ndarray, dampening: float) -> np.ndarray:
    """Regularized logarithmic dampening with exponent deficit ``dampening``.

    Each eigenvalue x becomes x(1+x^2)^(-1/2) log(1+(1+x^2)^(1/2-b)) for
    b = ``dampening``.  The result differs from (1-2b) times the signed
    logarithm by a correction that vanishes at infinity.
    """
    if not 0.0 < dampening < 0.5:
        raise ValueError("dampening exponent must lie strictly between 0 and 1/2")
    values = np.asarray(diagonal, dtype=float)
    squares = 1.0 + values * values
    return values / np.sqrt(squares) * np.log1p(squares ** (0.5 - dampening))


def test_beta_log_rejects_out_of_range_exponents() -> None:
    eigenvalues = np.array([1.0, 2.0])
    for dampening in (0.0, 0.5, -0.2, 0.7):
        with pytest.raises(ValueError, match="between 0 and 1/2"):
            beta_log_transform(eigenvalues, dampening)


def test_beta_log_pointwise_values() -> None:
    out = beta_log_transform(np.array([0.0, 1.0]), 0.25)
    assert out[0] == 0.0
    expected = math.log(1.0 + 2.0**0.25) / math.sqrt(2.0)
    assert out[1] == pytest.approx(expected, abs=1e-15)


def test_beta_log_tracks_scaled_sgnlog_with_flat_defect() -> None:
    tops = []
    for max_mode in (50, 100, 200, 400):
        eigenvalues = build_dirac(max_mode)
        gap = beta_log_transform(eigenvalues, 0.25) - 0.5 * sgnlog_transform(
            eigenvalues
        )
        tops.append(float(np.abs(gap).max()))
    assert all(top < 0.5 for top in tops)
    # the defect vanishes at infinity, so widening the window changes nothing
    assert max(tops) - min(tops) < 1e-12


OVERFLOW_GUARD = 300.0


class ExponentiatedDirac(NamedTuple):
    amplified: np.ndarray
    twist: Callable[[np.ndarray], np.ndarray]


def exponentiate(diagonal: np.ndarray) -> ExponentiatedDirac:
    """Exponential amplification of a diagonal operator with its twist.

    Returns the diagonal of F e^|D| (the phase convention sends kernel
    eigenvalues to +1) together with a map materializing the conjugation
    a -> e^|D| a e^(-|D|) on the window.  The twist combines row and
    column exponents additively before a single exponential, so the gap
    exponents stay within twice the guard and clear of float overflow
    even where e^|D| times e^|D| would not be representable.
    """
    values = np.asarray(diagonal, dtype=float)
    magnitudes = np.abs(values)
    peak = float(magnitudes.max()) if magnitudes.size else 0.0
    if peak > OVERFLOW_GUARD:
        raise ValueError(
            f"largest eigenvalue magnitude {peak:.6g} exceeds the exponentiation "
            f"guard {OVERFLOW_GUARD:.6g}"
        )
    phases = np.where(values >= 0, 1.0, -1.0)
    amplified = phases * np.exp(magnitudes)
    gaps = np.exp(magnitudes[:, None] - magnitudes[None, :])

    def twist(matrix: np.ndarray) -> np.ndarray:
        operator = np.asarray(matrix)
        if operator.shape != gaps.shape:
            raise ValueError(
                f"operator shape {operator.shape} does not match the window "
                f"{gaps.shape}"
            )
        return gaps * operator

    return ExponentiatedDirac(amplified, twist)


def test_exponentiate_circle_modes() -> None:
    amplified, _ = exponentiate(build_dirac(8))
    assert amplified[8] == pytest.approx(math.e, abs=1e-15)
    assert amplified[8 + 3] == pytest.approx(math.exp(3.0), rel=1e-15)
    assert amplified[8 - 3] == pytest.approx(-math.exp(3.0), rel=1e-15)


def test_exponentiate_overflow_guard() -> None:
    with pytest.raises(ValueError, match="guard"):
        exponentiate(np.array([0.0, -301.0]))
    # the boundary value is still accepted
    amplified, _ = exponentiate(np.array([300.0]))
    assert np.isfinite(amplified).all()


def test_twist_of_identity_is_identity() -> None:
    _, twist = exponentiate(build_dirac(6))
    eye = np.eye(13)
    assert np.array_equal(twist(eye), eye)


def test_twist_of_shift_is_bounded_by_e() -> None:
    eigenvalues = build_dirac(6)
    _, twist = exponentiate(eigenvalues)
    shift = np.diag(np.ones(12), k=-1)
    twisted = twist(shift)
    magnitudes = np.abs(eigenvalues)
    for row in range(1, 13):
        expected = math.exp(magnitudes[row] - magnitudes[row - 1])
        assert twisted[row, row - 1] == pytest.approx(expected, rel=1e-15)
    assert float(np.abs(twisted).max()) <= math.e + 1e-12


def test_twist_rejects_mismatched_window() -> None:
    _, twist = exponentiate(build_dirac(4))
    with pytest.raises(ValueError, match="window"):
        twist(np.eye(5))


def test_dampening_inverts_exponentiation_up_to_log_two() -> None:
    eigenvalues = np.linspace(-20.0, 20.0, 401)
    amplified, _ = exponentiate(eigenvalues)
    recovered = sgnlog_transform(np.abs(amplified))
    gap = np.abs(recovered - np.abs(eigenvalues))
    assert float(gap.max()) <= math.log(2.0) + 1e-12


def invertible_amplification(diagonal: np.ndarray) -> np.ndarray:
    """Doubled-basis amplification with spectrum bounded away from zero.

    Builds the block operator with D and -D on the diagonal and the
    resolvent-type block (1+D^2)^(-1) on the antidiagonal.  Its square is
    diagonal with entries f(x) = x^2 + (1+x^2)^(-2), so every singular
    value is at least min_x f(x)^(1/2), which stays above 1/2.
    """
    values = np.asarray(diagonal, dtype=float)
    size = values.size
    resolvent = 1.0 / (1.0 + values * values)
    amplified = np.zeros((2 * size, 2 * size))
    indices = np.arange(size)
    amplified[indices, indices] = values
    amplified[size + indices, size + indices] = -values
    amplified[indices, size + indices] = resolvent
    amplified[size + indices, indices] = resolvent
    return amplified


def test_amplification_square_is_diagonal_with_unit_floor() -> None:
    eigenvalues = np.array([0.0, 0.5, -1.0, 3.0, -40.0])
    amplified = invertible_amplification(eigenvalues)
    square = amplified @ amplified
    off_diagonal = square - np.diag(np.diag(square))
    assert float(np.abs(off_diagonal).max()) < 1e-15
    expected = eigenvalues**2 + (1.0 + eigenvalues**2) ** -2
    assert np.allclose(np.diag(square), np.concatenate([expected, expected]))
    # a kernel eigenvalue lands exactly on f(0) = 1
    assert square[0, 0] == 1.0


def test_amplification_smallest_singular_value() -> None:
    minimizer = math.sqrt(2.0 ** (1.0 / 3.0) - 1.0)
    eigenvalues = np.array([0.0, minimizer, -minimizer, 2.0, 150.0])
    singular = np.linalg.svd(invertible_amplification(eigenvalues), compute_uv=False)
    floor = math.sqrt(2.0 ** (1.0 / 3.0) - 1.0 + 2.0 ** (-2.0 / 3.0))
    assert float(singular.min()) == pytest.approx(floor, rel=1e-12)
    assert float(singular.min()) > 0.5


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
def test_amplification_is_always_invertible(values: list[float]) -> None:
    amplified = invertible_amplification(np.array(values))
    singular = np.linalg.svd(amplified, compute_uv=False)
    assert float(singular.min()) > 0.5


def test_report_validation_rejects_shape_mismatch() -> None:
    with pytest.raises(ValueError, match="per exponent"):
        SummabilityReport((1.0, 2.0), ((0.0, 1.0),), ("converged",), None)
    with pytest.raises(ValueError, match="monotone"):
        SummabilityReport((1.0,), ((2.0, 1.0),), ("converged",), None)


def test_scan_input_guards() -> None:
    diagonal = build_dirac(64)
    sweep = (4, 8, 16, 32, 64)
    with pytest.raises(ValueError, match="nonempty"):
        summability_scan(diagonal, [], sweep)
    with pytest.raises(ValueError, match="positive"):
        summability_scan(diagonal, [-1.0], sweep)
    with pytest.raises(ValueError, match="five"):
        summability_scan(diagonal, [1.0], (4, 8, 16))
    with pytest.raises(ValueError, match="increasing"):
        summability_scan(diagonal, [1.0], (4, 8, 8, 16, 32))
    with pytest.raises(ValueError, match="symmetric"):
        summability_scan(np.ones(10), [1.0], sweep)
    with pytest.raises(ValueError, match="radius"):
        summability_scan(diagonal, [1.0], (8, 16, 32, 64, 128))


def test_truncation_sweep_halves_down_from_the_depth() -> None:
    """The command line's sweep, valid from its smallest depth 16 on."""
    assert truncation_sweep(64) == [4, 8, 16, 32, 64]
    assert truncation_sweep(16) == [1, 2, 4, 8, 16]
    assert summability_scan(build_dirac(16), [1.0], truncation_sweep(16)).verdicts


def test_circle_power_scan_brackets_the_abscissa() -> None:
    """On the dampened spectrum the heat weight e^(-s log(1+|n|)) is the
    power weight (1+|n|)^-s, whose abscissa is 1."""
    report = summability_scan(
        sgnlog_transform(build_dirac(1024)), [0.9, 1.5], (64, 128, 256, 512, 1024)
    )
    assert report.verdicts == ("diverging", "converged")
    assert report.crossing == pytest.approx(1.2)
    for curve in report.curves:
        assert all(b > a for a, b in zip(curve, curve[1:]))


def test_exp_scan_of_damped_spectrum_is_a_power_law() -> None:
    diagonal = build_dirac(1024)
    damped = sgnlog_transform(diagonal)
    sweep = (64, 128, 256, 512, 1024)
    report = summability_scan(damped, [1.5], sweep)
    weights = np.power(1.0 + np.abs(diagonal), -1.5)
    center = diagonal.size // 2
    for stage, partial in zip(sweep, report.curves[0]):
        reference = float(np.sum(weights[center - stage : center + stage + 1]))
        assert partial == pytest.approx(reference, rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
    st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
)
def test_damped_heat_weight_is_exactly_a_power_weight(
    point: float, exponent: float
) -> None:
    damped = abs(sgnlog_transform(np.array([point]))[0])
    lhs = math.exp(-exponent * damped)
    rhs = (1.0 + abs(point)) ** -exponent
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_free_group_scan_brackets_log_three() -> None:
    report = free_group_summability(MODEL, ANCHOR, [1.0, 1.2], (8, 16, 32, 64, 128))
    assert report.verdicts == ("diverging", "converged")
    assert report.crossing is not None
    assert abs(report.crossing - math.log(3.0)) < 0.11
    for curve in report.curves:
        assert all(b > a for a, b in zip(curve, curve[1:]))


def test_free_group_scan_brackets_log_five_for_three_generators() -> None:
    report = free_group_summability(
        FreeGroup(3), ANCHOR, [1.55, 1.7], (4, 8, 16, 32, 64)
    )
    assert report.verdicts == ("diverging", "converged")
    assert report.bracket == (1.55, 1.7)
    assert report.crossing == pytest.approx(1.625)
    assert abs(report.crossing - math.log(5.0)) < 0.08


def test_free_group_partial_sums_match_certified_oracle() -> None:
    report = free_group_summability(MODEL, ANCHOR, [2.5], (2, 4, 8, 12, 16))
    for stage, partial in zip((2, 4, 8, 12, 16), report.curves[0]):
        from twistzeta.ckalg import Monomial

        certified = brute_force_heat_trace(
            [Monomial((), ())], ANCHOR, MODEL, [2.5], stage
        )
        assert partial == certified.value


@pytest.mark.parametrize(
    "generators, exponents", [(2, (1.0, 1.2)), (3, (1.5, 1.8))]
)
def test_one_stream_gives_the_curves_of_a_fresh_stream_per_truncation(
    generators: int, exponents: tuple[float, ...]
) -> None:
    """The sweep reads prefixes of one stream to the deepest truncation;
    the route it replaced streamed the counts afresh for every exponent
    and truncation, and gives the same floats."""
    model = FreeGroup(generators)
    sweep = truncation_sweep(512)
    _escape_log_counts.cache_clear()
    report = free_group_summability(model, ANCHOR, exponents, sweep)
    for s, curve in zip(exponents, report.curves):
        fresh = []
        for stage in sweep:
            _escape_log_counts.cache_clear()
            fresh += _heat_partial_sum(UNIT_CHAIN, ANCHOR, model, [s], [stage])
        assert curve == tuple(fresh)


def test_damp_sweep_past_float_range_still_refuses(capsys) -> None:
    assert main(["damp-sweep", "--d", "3", "--L", "2048"]) == 2
    assert "heat sum exceeds the float range" in capsys.readouterr().err


def test_free_group_scan_guards() -> None:
    with pytest.raises(ValueError, match="nonempty"):
        free_group_summability(MODEL, ANCHOR, [], (8, 16, 32, 64, 128))
    with pytest.raises(ValueError, match="five"):
        free_group_summability(MODEL, ANCHOR, [1.0], (8, 16))
