"""Tests for weighted commutator norms and the lattice boundary triple."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_circle import trig_value

from twistzeta.circle import (
    MoebiusMap,
    TrigPoly,
    build_dlog,
    moebius_unitary,
    mult_op,
    singular_values,
)
from twistzeta.damp import sgnlog_transform
from twistzeta.higher_order import (
    SWEEP_SYMBOL,
    SYMBOL_STRETCH,
    EpsBoundReport,
    order_sweep,
)

# The boundary operator of the lattice crossed product, materialized on the
# whole lattice-times-mode grid: the dense model behind the per-site bounds
# that order_sweep evaluates.

HOSTING_TOLERANCE = 1e-6


def _symbol_blocks(
    symbol_matrix: np.ndarray, unitary: np.ndarray, lattice_radius: int
) -> list[np.ndarray]:
    """Mode-window blocks of the site-wise composed symbol, sites -L..L.

    Site n carries the symbol composed with the inverse n-th power of the
    diffeomorphism, obtained by conjugating with powers of its unitary.
    """
    blocks: dict[int, np.ndarray] = {0: symbol_matrix}
    adjoint = unitary.conj().T
    for site in range(1, lattice_radius + 1):
        blocks[site] = adjoint @ blocks[site - 1] @ unitary
        blocks[-site] = unitary @ blocks[-(site - 1)] @ adjoint
    return [blocks[site] for site in range(-lattice_radius, lattice_radius + 1)]


@dataclass(frozen=True)
class BoundaryTriple:
    """Boundary operator of a crossed product on a lattice-times-mode grid.

    The Hilbert space is the doubled tensor product of a lattice window
    of radius ``lattice_radius`` with a mode window of radius
    ``max_mode``; ``operator`` holds the off-diagonal block matrix whose
    upper block is the graded sum of the weighted lattice position and
    the logarithmically damped mode operator.
    """

    operator: np.ndarray
    damped_modes: np.ndarray
    unitary: np.ndarray
    power: float
    lattice_radius: int
    max_mode: int

    def site_count(self) -> int:
        return 2 * self.lattice_radius + 1

    def mode_count(self) -> int:
        return 2 * self.max_mode + 1

    def absolute_diagonal(self) -> np.ndarray:
        """Singular values of the boundary operator, one per basis vector."""
        sites = np.arange(-self.lattice_radius, self.lattice_radius + 1)
        weighted = sites * np.abs(sites) ** self.power
        squares = np.add.outer(weighted**2, self.damped_modes**2).ravel()
        return np.tile(np.sqrt(squares), 2)

    def translation(self) -> np.ndarray:
        """The doubled lattice shift, cut off hard at the window edge."""
        sites = self.site_count()
        shift = np.diag(np.ones(sites - 1), k=-1)
        single = np.kron(shift, np.eye(self.mode_count()))
        return _doubled(single)

    def symbol_representation(self, symbol: TrigPoly) -> np.ndarray:
        """The doubled crossed-product action of a Fourier polynomial.

        Each lattice site multiplies by the symbol composed with the
        matching inverse power of the diffeomorphism.
        """
        blocks = _symbol_blocks(
            mult_op(symbol, self.max_mode), self.unitary, self.lattice_radius
        )
        modes = self.mode_count()
        dim = self.site_count() * modes
        single = np.zeros((dim, dim), dtype=complex)
        for index, block in enumerate(blocks):
            cell = slice(index * modes, (index + 1) * modes)
            single[cell, cell] = block
        return _doubled(single)


def _doubled(matrix: np.ndarray) -> np.ndarray:
    dim = matrix.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=matrix.dtype)
    out[:dim, :dim] = matrix
    out[dim:, dim:] = matrix
    return out


def _check_hosting(unitary: np.ndarray, lattice_radius: int, max_mode: int) -> None:
    """Verify that powers of the automorphism stay on the mode window.

    Each power must keep the mass of the central-half columns inside the
    window; otherwise the composed symbols the representation needs are
    not resolvable at this window size.
    """
    half = max_mode // 2
    central = slice(max_mode - half, max_mode + half + 1)
    power = np.eye(unitary.shape[0], dtype=complex)
    for exponent in range(1, lattice_radius + 1):
        power = power @ unitary
        masses = np.sum(np.abs(power[:, central]) ** 2, axis=0)
        defect = float(np.max(np.abs(masses - 1.0)))
        if defect > HOSTING_TOLERANCE:
            raise ValueError(
                f"mode window of radius {max_mode} cannot host automorphism "
                f"power {exponent}: column mass defect {defect:.3e}"
            )


def pv_boundary_operator(
    damped_modes: np.ndarray,
    unitary: np.ndarray,
    power: float,
    lattice_radius: int,
    max_mode: int,
) -> BoundaryTriple:
    """Materialize the boundary operator of the lattice crossed product.

    The off-diagonal blocks combine the lattice position operator raised
    through ``power`` with the damped mode diagonal; the returned bundle
    also builds the covariant representation and the lattice translation
    on the same grid.  The unitary must implement the diffeomorphism on
    the mode window and its powers up to the lattice radius must keep
    central columns on the window.
    """
    if not 0.0 < power <= 1.0:
        raise ValueError("the position weight exponent must lie in (0, 1]")
    if lattice_radius < 1:
        raise ValueError("lattice radius must be positive")
    if max_mode < 2:
        raise ValueError("mode window must have radius at least two")
    modes = np.asarray(damped_modes, dtype=float)
    if modes.shape != (2 * max_mode + 1,):
        raise ValueError("damped mode diagonal must cover the mode window")
    matrix = np.asarray(unitary)
    if matrix.shape != (2 * max_mode + 1, 2 * max_mode + 1):
        raise ValueError("unitary must act on the mode window")
    _check_hosting(matrix, lattice_radius, max_mode)

    sites = np.arange(-lattice_radius, lattice_radius + 1)
    weighted = sites * np.abs(sites) ** power
    upper = np.add.outer(weighted, 1j * modes).ravel()
    dim = upper.size
    operator = np.zeros((2 * dim, 2 * dim), dtype=complex)
    indices = np.arange(dim)
    operator[indices, dim + indices] = upper
    operator[dim + indices, indices] = np.conj(upper)
    return BoundaryTriple(
        operator=operator,
        damped_modes=modes,
        unitary=matrix,
        power=power,
        lattice_radius=lattice_radius,
        max_mode=max_mode,
    )



def _gentle_triple(lattice_radius: int, max_mode: int = 8) -> BoundaryTriple:
    gamma = MoebiusMap.hyperbolic(0.01)
    window = moebius_unitary(gamma, max_mode).matrix
    return pv_boundary_operator(
        build_dlog(max_mode), window, 1.0, lattice_radius, max_mode
    )


def _doubled_lattice_diagonal(values: np.ndarray, mode_count: int) -> np.ndarray:
    single = np.kron(np.diag(values), np.eye(mode_count))
    return np.kron(np.eye(2), single)


def test_translation_commutes_with_position_to_itself():
    triple = _gentle_triple(4)
    sites = np.arange(-4, 5, dtype=float)
    position = _doubled_lattice_diagonal(sites, triple.mode_count())
    alpha = triple.translation()
    assert np.array_equal(position @ alpha - alpha @ position, alpha)


def test_weighted_position_commutes_with_symbol_action():
    triple = _gentle_triple(4)
    sites = np.arange(-4, 5, dtype=float)
    weighted = sites * np.abs(sites) ** 0.7
    diagonal = _doubled_lattice_diagonal(weighted, triple.mode_count())
    symbol = TrigPoly.from_dict({-2: 0.25, 0: 0.5, 1: 1.0})
    action = triple.symbol_representation(symbol)
    assert np.array_equal(diagonal @ action, action @ diagonal)


def test_boundary_square_is_diagonal():
    triple = _gentle_triple(4)
    square = triple.operator @ triple.operator
    off_diagonal = square.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    assert np.max(np.abs(off_diagonal)) == 0.0
    diagonal = np.diagonal(square)
    assert np.max(np.abs(diagonal.imag)) < 1e-12
    expected = triple.absolute_diagonal() ** 2
    assert np.allclose(diagonal.real, expected, rtol=1e-12, atol=0.0)


def test_boundary_rejects_window_that_cannot_host_the_twist():
    gamma = MoebiusMap.hyperbolic(1.0)
    window = moebius_unitary(gamma, 8).matrix
    with pytest.raises(ValueError, match="host"):
        pv_boundary_operator(build_dlog(8), window, 1.0, 6, 8)


def test_boundary_rejects_bad_shapes_and_powers():
    gamma = MoebiusMap.hyperbolic(0.01)
    window = moebius_unitary(gamma, 8).matrix
    modes = build_dlog(8)
    with pytest.raises(ValueError, match="exponent"):
        pv_boundary_operator(modes, window, 0.0, 4, 8)
    with pytest.raises(ValueError, match="exponent"):
        pv_boundary_operator(modes, window, 1.5, 4, 8)
    with pytest.raises(ValueError, match="mode"):
        pv_boundary_operator(modes[:-1], window, 1.0, 4, 8)
    with pytest.raises(ValueError, match="radius"):
        pv_boundary_operator(modes, window, 1.0, 0, 8)


def test_damping_tames_the_translation_commutator():
    damped_norms = []
    raw_norms = []
    for lattice_radius in (3, 6, 12):
        triple = _gentle_triple(lattice_radius)
        dim = triple.operator.shape[0] // 2
        indices = np.arange(dim)
        upper = triple.operator[indices, dim + indices]
        magnitudes = np.abs(upper)
        phases = np.where(magnitudes > 0.0, upper / np.where(magnitudes > 0, magnitudes, 1.0), 0.0)
        tamed_upper = np.log1p(magnitudes) * phases
        tamed = np.zeros_like(triple.operator)
        tamed[indices, dim + indices] = tamed_upper
        tamed[dim + indices, indices] = np.conj(tamed_upper)
        alpha = triple.translation()
        damped_norms.append(np.linalg.norm(tamed @ alpha - alpha @ tamed, 2))
        raw_norms.append(np.linalg.norm(triple.operator @ alpha - alpha @ triple.operator, 2))
    assert np.allclose(raw_norms, [5.0, 11.0, 23.0], rtol=1e-12)
    assert raw_norms[-1] / raw_norms[0] > 2.0
    assert damped_norms == pytest.approx([damped_norms[0]] * 3, rel=1e-10)
    assert damped_norms[0] < raw_norms[0]


def test_kernel_projection_shift_costs_log_two():
    raw = np.arange(-8, 9, dtype=float)
    projection = (raw == 0.0).astype(float)
    shifted = sgnlog_transform(raw + projection)
    gap = np.max(np.abs(shifted - sgnlog_transform(raw)))
    assert gap == pytest.approx(math.log(2.0), rel=1e-15)
    bound = np.max(projection * np.log1p(np.abs(raw) + projection)) + math.log(2.0)
    assert gap <= bound


# The weighted norm that order_sweep evaluates per site in closed form, on a
# materialized window.

def _resolvent_weight(diagonal: np.ndarray, epsilon: float) -> np.ndarray:
    """Eigenvalues of (1+D^2)^(-(1-eps)/2) for a diagonal |D| profile."""
    return np.exp(-0.5 * (1.0 - epsilon) * np.log1p(diagonal * diagonal))


def eps_bounded_norm(
    operator: np.ndarray,
    diagonal: np.ndarray,
    epsilon: float,
    truncation: int,
) -> float:
    """Norm of the operator against a fractional resolvent weight.

    Computes the spectral norm of T (1+D^2)^(-(1-eps)/2) compressed to the
    central window of radius ``truncation``, where D is diagonal with the
    given eigenvalue profile.  At epsilon 1 the weight disappears and the
    result is the plain windowed norm of T.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    matrix = np.asarray(operator)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("operator must be a square matrix")
    side = matrix.shape[0]
    if side % 2 == 0:
        raise ValueError("operator must cover a symmetric window (odd size)")
    profile = np.asarray(diagonal, dtype=float)
    if profile.shape != (side,):
        raise ValueError("diagonal profile must match the operator size")
    if truncation < 0 or 2 * truncation + 1 > side:
        raise ValueError(
            f"truncation {truncation} does not fit inside the window of size {side}"
        )
    weighted = matrix * _resolvent_weight(profile, epsilon)[None, :]
    center = side // 2
    window = slice(center - truncation, center + truncation + 1)
    return float(singular_values(weighted[window, window])[0])


def _unit_band(max_mode: int, exponent: float) -> np.ndarray:
    modes = np.arange(-max_mode, max_mode + 1, dtype=float)
    steps = np.abs(modes[1:]) ** exponent - np.abs(modes[:-1]) ** exponent
    return np.diag(steps, k=-1)


def test_weighted_norm_without_budget_is_plain_norm():
    band = _unit_band(8, 1.0)
    profile = np.abs(np.arange(-8, 9, dtype=float))
    for truncation in (2, 5, 8):
        value = eps_bounded_norm(band, profile, 1.0, truncation)
        assert value == pytest.approx(1.0, rel=1e-12)


def test_unit_band_stays_bounded_for_every_budget():
    band = _unit_band(8, 1.0)
    profile = np.abs(np.arange(-8, 9, dtype=float))
    for epsilon in (0.3, 0.6, 0.9):
        value = eps_bounded_norm(band, profile, epsilon, 8)
        assert value == pytest.approx(1.0, rel=1e-12)


def test_fractional_diagonal_outgrows_a_half_budget():
    max_mode = 512
    modes = np.arange(-max_mode, max_mode + 1, dtype=float)
    operator = np.diag(np.abs(modes) ** 0.6)
    profile = np.abs(modes)
    values = [eps_bounded_norm(operator, profile, 0.5, trunc) for trunc in (8, 32, 128)]
    assert values[0] < values[1] < values[2]
    assert values[2] / values[0] > 1.3
    assert values[2] == pytest.approx(128.0**0.6 * (1.0 + 128.0**2) ** -0.25, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=13,
    ),
    epsilon=st.floats(0.05, 1.0),
    cut=st.floats(0.0, 1.0),
)
def test_identity_weighted_norm_is_the_largest_weight(values, epsilon, cut):
    if len(values) % 2 == 0:
        values = values + [0.0]
    profile = np.array(values)
    side = profile.size
    truncation = int(cut * (side // 2))
    value = eps_bounded_norm(np.eye(side), profile, epsilon, truncation)
    center = side // 2
    window = profile[center - truncation : center + truncation + 1]
    expected = np.max(np.exp(-0.5 * (1.0 - epsilon) * np.log1p(window * window)))
    assert value == pytest.approx(expected, rel=1e-12)


def test_weighted_norm_validation():
    band = _unit_band(4, 1.0)
    profile = np.abs(np.arange(-4, 5, dtype=float))
    with pytest.raises(ValueError, match="epsilon"):
        eps_bounded_norm(band, profile, 0.0, 2)
    with pytest.raises(ValueError, match="epsilon"):
        eps_bounded_norm(band, profile, 1.2, 2)
    with pytest.raises(ValueError, match="odd"):
        eps_bounded_norm(band[:-1, :-1], profile[:-1], 1.0, 2)
    with pytest.raises(ValueError, match="profile"):
        eps_bounded_norm(band, profile[:-1], 1.0, 2)
    with pytest.raises(ValueError, match="truncation"):
        eps_bounded_norm(band, profile, 1.0, 5)


def test_report_rejects_malformed_sweeps():
    with pytest.raises(ValueError, match="nonempty"):
        EpsBoundReport(epsilon=0.5, sweep=(), verdict="plateau", plateau_ratio=1.0)
    with pytest.raises(ValueError, match="increasing"):
        EpsBoundReport(
            epsilon=0.5,
            sweep=((8, 1.0), (8, 1.1)),
            verdict="plateau",
            plateau_ratio=1.0,
        )


def test_symbol_sweep_separates_budgets_at_unit_power():
    stages = (8, 16, 32, 64, 128, 256, 512)
    reports = order_sweep(1.0, "symbol", (0.3, 0.45, 0.6, 0.7, 0.8), stages)
    verdicts = {report.epsilon: report.verdict for report in reports}
    assert verdicts[0.3] == "plateau"
    assert verdicts[0.45] == "plateau"
    assert verdicts[0.6] == "growing"
    assert verdicts[0.7] == "growing"
    assert verdicts[0.8] == "growing"
    for report in reports:
        if report.verdict == "plateau":
            assert report.plateau_ratio < 1.15
        assert [stage for stage, _ in report.sweep] == list(stages)


def test_symbol_sweep_separates_budgets_at_half_power():
    stages = (8, 16, 32, 64, 128, 256, 512)
    reports = order_sweep(0.5, "symbol", (0.25, 0.5), stages)
    assert reports[0].verdict == "plateau"
    assert reports[1].verdict == "growing"


def test_translation_sweep_has_a_higher_threshold():
    stages = (8, 16, 32, 64, 128)
    reports = order_sweep(1.0, "translation", (0.4, 0.5, 0.7), stages)
    assert reports[0].verdict == "plateau"
    assert reports[1].verdict == "plateau"
    assert reports[2].verdict == "growing"


def test_budget_between_thresholds_stays_unresolved():
    reports = order_sweep(0.5, "symbol", (0.55,), (8, 16, 32))
    assert reports[0].verdict == "undecided"
    assert len(reports[0].sweep) == 3


def test_translation_sweep_matches_the_materialized_commutator():
    epsilon = 0.9
    stage = 8
    triple = _gentle_triple(stage, max_mode=4)
    alpha = triple.translation()
    commutator = triple.operator @ alpha - alpha @ triple.operator
    weight = np.exp(-0.5 * (1.0 - epsilon) * np.log1p(triple.absolute_diagonal() ** 2))
    weighted = commutator * weight[None, :]
    sites = np.repeat(np.arange(-stage, stage + 1), triple.mode_count())
    keep = np.concatenate([np.abs(sites) <= stage // 2] * 2)
    faithful = np.linalg.norm(weighted[:, keep], 2)
    report = order_sweep(1.0, "translation", (epsilon,), (stage, 2 * stage, 4 * stage))[0]
    assert report.sweep[0][1] == pytest.approx(faithful, rel=1e-10)


def test_order_sweep_validation():
    stages = (8, 16, 32)
    with pytest.raises(ValueError, match="translation"):
        order_sweep(1.0, "twist", (0.5,), stages)
    with pytest.raises(ValueError, match="epsilon"):
        order_sweep(1.0, "translation", (0.0,), stages)
    with pytest.raises(ValueError, match="epsilon"):
        order_sweep(1.0, "translation", (), stages)
    with pytest.raises(ValueError, match="stages"):
        order_sweep(1.0, "translation", (0.5,), (8, 16))
    with pytest.raises(ValueError, match="increasing"):
        order_sweep(1.0, "translation", (0.5,), (8, 8, 16))
    with pytest.raises(ValueError, match="exponent"):
        order_sweep(0.0, "translation", (0.5,), stages)


def looped_sweep_norms(
    power: float, commutator: str, epsilon: float, stages: tuple[int, ...], max_mode: int
) -> list[float]:
    """order_sweep's norms one site at a time: the reference for its arrays."""

    def weight(site: int) -> float:
        magnitude = abs(site) ** (2.0 + 2.0 * power) if site else 0.0
        return math.exp(-0.5 * (1.0 - epsilon) * math.log1p(magnitude))

    if commutator == "symbol":
        window = moebius_unitary(MoebiusMap.hyperbolic(SYMBOL_STRETCH), max_mode).matrix
        damped = build_dlog(max_mode)
        step = float(singular_values(damped[:, None] * window - window * damped[None, :])[0])
        symbol = mult_op(SWEEP_SYMBOL, max_mode)
        inner = float(singular_values(damped[:, None] * symbol - symbol * damped[None, :])[0])
        points = np.exp(2j * np.pi * np.arange(256) / 256)
        sup = float(max(abs(trig_value(SWEEP_SYMBOL, point)) for point in points))

        def value(site: int) -> float:
            return (2.0 * step * abs(site) * sup + inner) * weight(site)

    else:

        def value(site: int) -> float:
            forward = (site + 1) * abs(site + 1) ** power
            return abs(forward - site * abs(site) ** power) * weight(site)

    return [
        max(value(site) for site in range(-(stage // 2), stage // 2 + 1)) for stage in stages
    ]


@settings(max_examples=30, deadline=None)
@given(
    power=st.floats(0.05, 1.0),
    commutator=st.sampled_from(("translation", "symbol")),
    epsilons=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
    first=st.integers(2, 40),
    growth=st.lists(st.integers(1, 60), min_size=2, max_size=5),
)
def test_swept_arrays_match_the_site_loop(power, commutator, epsilons, first, growth):
    """The folded running maximum gives the per-site loop's norms; numpy's
    power, exp and log1p may differ from math's in the last digit."""
    stages = tuple(first + sum(growth[:count]) for count in range(len(growth) + 1))
    reports = order_sweep(power, commutator, epsilons, stages, max_mode=16)
    for report in reports:
        expected = looped_sweep_norms(power, commutator, report.epsilon, stages, 16)
        assert [stage for stage, _ in report.sweep] == list(stages)
        assert [norm for _, norm in report.sweep] == pytest.approx(expected, rel=1e-12)
