"""Tests for the Fourier-mode circle model."""

from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistzeta import circle
from twistzeta.circle import (
    RECURRENCE_LEAD_LIMIT,
    TWIST_TAIL_TOL,
    CrossedElement,
    MoebiusMap,
    TrigPoly,
    _banded,
    _unitary_cached,
    build_dirac,
    build_dlog,
    conformal_twist,
    derivative_abs_poly,
    dirac_commutator,
    inner_block,
    log_dirac_commutator,
    moebius_unitary,
    numerical_rank,
    represent,
    singular_values,
    toeplitz_index,
    twisted_dirac_commutator,
    winding_number,
)

STRETCH = MoebiusMap.hyperbolic(1.0)


def build_phase(max_mode: int) -> np.ndarray:
    """Diagonal of the phase of the shifted derivative operator."""
    modes = np.arange(-max_mode, max_mode + 1)
    return np.where(modes >= 0, 1.0, -1.0)


def mult_op(symbol: TrigPoly, max_mode: int) -> np.ndarray:
    """Convolution matrix of a Fourier polynomial on the whole mode window."""
    return _banded(symbol, 2 * max_mode + 1, 2 * max_mode + 1)


def trig_value(poly: TrigPoly, point: complex) -> complex:
    """The Fourier polynomial at one point, mode by mode."""
    return sum(value * point**mode for mode, value in poly.terms)


def moebius_apply(gamma: MoebiusMap, z):
    """The map z -> (a z + b) / (conj(b) z + conj(a)) itself."""
    a, b = complex(gamma.a), complex(gamma.b)
    return (a * z + b) / (b.conjugate() * z + a.conjugate())


# Oracles of the Moebius unitary by the trapezoid rule.  The quadrature oracle
# samples one column of |gamma'|^(1/2) gamma^n at a time and transforms it;
# its defect bounds the quadrature error by the Toeplitz moments of the column
# Gram matrix.  The dense oracle transforms every sample column at once, and
# its defect is the exact deviation of the full column Gram matrix from the
# identity.


def quadrature_unitary(
    gamma: MoebiusMap, max_mode: int, quad_points: int
) -> tuple[np.ndarray, float]:
    """Window matrix by the trapezoid rule at quad_points, with a defect bound.

    Matrix elements are Fourier integrals of smooth periodic functions, so the
    trapezoid rule converges spectrally.  Because the map preserves the
    circle, the Gram matrix of the sampled columns (every alias row included)
    is the Hermitian Toeplitz matrix of the moments g_m = mean(|gamma'|
    gamma^m), m = -2M..2M.  The defect is the l1 norm of the symbol of
    Gram - I, |g_0 - 1| + 2 sum_{m >= 1} |g_m|: an upper bound on its spectral
    norm, which measures pure quadrature error.  Above 1e-8 it is refused.
    """
    if quad_points < 8 * max_mode:
        raise ValueError("at least eight quadrature points per mode are required")
    size = 2 * max_mode + 1
    points = np.exp(2j * np.pi * np.arange(quad_points) / quad_points)
    images = moebius_apply(gamma, points)
    column = gamma.derivative_abs(points) ** 0.5 * np.conj(images) ** max_mode
    anchor = np.conj(column)
    rows = np.arange(-max_mode, max_mode + 1) % quad_points
    matrix = np.empty((size, size), dtype=complex)
    moments = np.empty(size, dtype=complex)
    for index in range(size):
        moments[index] = column @ anchor / quad_points
        matrix[:, index] = np.fft.fft(column)[rows] / quad_points
        column = column * images
    defect = abs(moments[0] - 1.0) + 2.0 * float(np.sum(np.abs(moments[1:])))
    if defect > 1e-8:
        raise ValueError(
            "quadrature defect {:.3e} exceeds 1e-08; increase quad_points".format(defect)
        )
    return matrix, defect


def dense_columns(gamma: MoebiusMap, col_modes: int, quad_points: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(quad_points) / quad_points
    points = np.exp(1j * angles)
    weights = gamma.derivative_abs(points) ** 0.5
    images = moebius_apply(gamma, points)
    columns = np.empty((quad_points, 2 * col_modes + 1), dtype=complex)
    current = weights * np.conj(images) ** col_modes
    for offset in range(2 * col_modes + 1):
        columns[:, offset] = current
        current = current * images
    return np.fft.fft(columns, axis=0) / quad_points


def dense_defect(gamma: MoebiusMap, max_mode: int, quad_points: int) -> float:
    """The eigenvalue defect of the Gram matrix of the dense spectrum."""
    spectrum = dense_columns(gamma, max_mode, quad_points)
    gram = spectrum.conj().T @ spectrum - np.eye(2 * max_mode + 1)
    gram = (gram + gram.conj().T) / 2.0
    return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def moebius_rectangle(
    gamma: MoebiusMap, row_modes: int, col_modes: int, quad_points: int
) -> np.ndarray:
    """Rectangular block of the composition unitary between two mode windows."""
    assert quad_points >= 2 * (row_modes + col_modes) + 16
    spectrum = dense_columns(gamma, col_modes, quad_points)
    rows = np.arange(-row_modes, row_modes + 1) % quad_points
    return spectrum[rows, :]


def rotated(stretch: float, turn: float) -> MoebiusMap:
    """The hyperbolic stretch followed by the rotation by the angle turn."""
    return MoebiusMap(cmath.exp(0.5j * turn), 0.0).compose(MoebiusMap.hyperbolic(stretch))


MAPS = st.builds(rotated, st.floats(0.0, 1.2), st.floats(0.0, 2.0 * math.pi))


def phase_commutator(symbol: TrigPoly, max_mode: int) -> np.ndarray:
    signs = build_phase(max_mode)
    matrix = mult_op(symbol, max_mode)
    return signs[:, None] * matrix - matrix * signs[None, :]


def test_dirac_diagonal_matches_the_stated_modes():
    eigenvalues = build_dirac(8)
    assert eigenvalues[8] == 1.0
    assert eigenvalues[8 + 5] == 5.0
    assert eigenvalues[8 - 3] == -3.0
    assert np.all(eigenvalues != 0.0)


def test_dlog_vanishes_on_the_low_modes():
    eigenvalues = build_dlog(9)
    for mode in (-1, 0, 1):
        assert eigenvalues[9 + mode] == 0.0
    assert eigenvalues[9 - 4] == pytest.approx(-math.log(4.0))
    assert eigenvalues[9 + 9] == pytest.approx(math.log(9.0))


def test_mult_op_identity_and_coordinate_shift():
    assert np.array_equal(mult_op(TrigPoly.one(), 5), np.eye(11))
    shift = mult_op(TrigPoly.coordinate(), 5)
    assert np.array_equal(shift, np.diag(np.ones(10), k=-1))


def test_phase_commutator_with_coordinate_is_rank_one_norm_two():
    max_mode = 64
    jump = phase_commutator(TrigPoly.coordinate(), max_mode)
    assert numerical_rank(jump) == 1
    assert abs(np.linalg.norm(jump, 2) - 2.0) < 1e-10
    expected = np.zeros_like(jump)
    expected[max_mode, max_mode - 1] = 2.0
    assert np.array_equal(jump, expected)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.dictionaries(
        st.integers(min_value=-5, max_value=5),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    )
)
def test_finite_rank_commutator_bound(raw):
    coefficients = {
        mode: complex(re, im) / 4.0 for mode, (re, im) in raw.items() if (re, im) != (0, 0)
    }
    symbol = TrigPoly.from_dict(coefficients)
    analytic = max((mode for mode, _ in symbol.terms if mode > 0), default=0)
    coanalytic = max((-mode for mode, _ in symbol.terms if mode < 0), default=0)
    singular = singular_values(phase_commutator(symbol, 32))
    rank = int(np.count_nonzero(singular > 1e-10 * singular[0]))
    assert rank <= analytic + coanalytic


def test_one_sided_symbols_meet_the_tight_rank_bound():
    for degree in (1, 2, 3):
        forward = phase_commutator(TrigPoly.coordinate(degree), 32)
        backward = phase_commutator(TrigPoly.coordinate(-degree), 32)
        assert numerical_rank(forward) == degree
        assert numerical_rank(backward) == degree


def assert_matches_the_svd(matrix: np.ndarray) -> None:
    expected = np.linalg.svd(matrix, compute_uv=False)
    result = singular_values(matrix)
    assert result.shape == expected.shape
    scale = expected[0] if expected.size else 0.0
    assert np.all(np.abs(result - expected) <= 1e-12 * scale)


def scaled_entry(data) -> complex:
    """A complex number of modulus 10^-300 to 10^3 and any phase."""
    exponent = data.draw(st.floats(-300.0, 3.0))
    return 10.0**exponent * cmath.exp(1j * data.draw(st.floats(0.0, 2.0 * math.pi)))


SHAPES = st.tuples(st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=100, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_singular_values_of_sparse_and_dense_shapes_match_the_svd(shape, data):
    """Random entries on a random pattern, so rows and columns may be empty
    or hold several entries; only some patterns are partial permutations."""
    rows, cols = shape
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)),
        dtype=bool,
    ).reshape(rows, cols)
    matrix = np.zeros((rows, cols), dtype=complex)
    for row, col in zip(*np.nonzero(mask)):
        matrix[row, col] = complex(data.draw(COEFFICIENTS))
    assert_matches_the_svd(matrix)


@settings(max_examples=100, deadline=None)
@given(shape=SHAPES.filter(lambda shape: min(shape) >= 1), data=st.data())
def test_singular_values_read_partial_permutations_and_refuse_shared_lines(shape, data):
    """A scaled partial permutation, then the same matrix with one more entry
    of equal modulus in a row or a column that already holds one: its two
    entries then merge into one singular value, which only the SVD finds."""
    rows, cols = shape
    count = data.draw(st.integers(1, min(shape)))
    sources = data.draw(st.permutations(range(rows)))[:count]
    targets = data.draw(st.permutations(range(cols)))[:count]
    matrix = np.zeros(shape, dtype=complex)
    for row, col in zip(sources, targets):
        matrix[row, col] = scaled_entry(data)
    assert_matches_the_svd(matrix)
    row, col = sources[0], targets[0]
    if data.draw(st.booleans()) and cols > 1:
        line = data.draw(st.sampled_from([other for other in range(cols) if other != col]))
        matrix[row, line] = abs(matrix[row, col])
    elif rows > 1:
        line = data.draw(st.sampled_from([other for other in range(rows) if other != row]))
        matrix[line, col] = abs(matrix[row, col])
    else:
        return
    assert_matches_the_svd(matrix)


def test_moebius_map_validation_and_inverse():
    with pytest.raises(ValueError):
        MoebiusMap(1.0, 1.0)
    assert abs(abs(STRETCH.a) ** 2 - abs(STRETCH.b) ** 2 - 1.0) < 1e-12
    points = np.exp(1j * np.linspace(0.3, 5.9, 7))
    roundtrip = moebius_apply(STRETCH.inverse(), moebius_apply(STRETCH, points))
    assert np.max(np.abs(roundtrip - points)) < 1e-12
    assert np.max(np.abs(np.abs(moebius_apply(STRETCH, points)) - 1.0)) < 1e-12


def test_moebius_powers_compose_exactly():
    cubed = STRETCH.power(3)
    chained = STRETCH.compose(STRETCH).compose(STRETCH)
    assert cubed.a == pytest.approx(chained.a)
    assert cubed.b == pytest.approx(chained.b)
    inverse_square = STRETCH.power(-2)
    direct = STRETCH.inverse().compose(STRETCH.inverse())
    assert inverse_square.a == pytest.approx(direct.a)
    assert inverse_square.b == pytest.approx(direct.b)
    assert STRETCH.power(0).a == 1.0


def test_moebius_power_one_is_the_map_and_shares_its_unitary():
    """power(1) returns the map itself, so the generator's window in
    represent is the cache entry of the map's own unitary."""
    assert STRETCH.power(1) is STRETCH
    _unitary_cached.cache_clear()
    represent(CrossedElement.generator(), STRETCH, 8)
    moebius_unitary(STRETCH, 8)
    info = _unitary_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def looped_from_samples(values: np.ndarray, drop_tol: float) -> dict[int, complex]:
    """TrigPoly.from_samples one mode at a time: the reference for its arrays."""
    count = values.size
    spectrum = np.fft.fft(np.asarray(values, dtype=complex)) / count
    coefficients = {}
    for index in range(count):
        mode = index if index <= count // 2 else index - count
        value = spectrum[index]
        if abs(mode) >= count // 3 and abs(value) > drop_tol:
            raise ValueError("sample resolution is too low for the requested tail tolerance")
        if abs(value) > drop_tol:
            coefficients[mode] = complex(value)
    return coefficients


@settings(max_examples=60, deadline=None)
@given(
    stretch=st.floats(0.0, 3.0),
    power=st.integers(-3, 3),
    count=st.integers(4, 600),
    drop_tol=st.sampled_from((1e-14, 1e-10, 1e-6, 1e-2)),
)
def test_sampled_coefficients_match_the_mode_loop(stretch, power, count, drop_tol):
    """The same coefficients, bit for bit, or the same refusal; small grids and
    steep weights reach the refusal, large ones the kept tail."""
    points = np.exp(2j * np.pi * np.arange(count) / count)
    values = MoebiusMap.hyperbolic(stretch).derivative_abs(points) ** power
    try:
        expected = looped_from_samples(values, drop_tol)
    except ValueError:
        with pytest.raises(ValueError, match="tail tolerance"):
            TrigPoly.from_samples(values, drop_tol)
        return
    assert TrigPoly.from_samples(values, drop_tol) == TrigPoly.from_dict(expected)


def test_moebius_unitary_identity_window():
    """The identity and z -> (-z) / (-1), the two real rotations, are the
    float64 identity."""
    for gamma in (MoebiusMap.identity(), MoebiusMap(-1.0, 0.0)):
        result = moebius_unitary(gamma, 16)
        assert result.truncation == np.finfo(float).eps
        assert result.matrix.dtype == np.float64
        assert np.array_equal(result.matrix, np.eye(33))


def test_rotation_is_the_diagonal_of_its_phases():
    """b = 0 is its own case: the weight is one and mode n takes the phase
    (a / conj a)^n, as the quadrature oracle finds."""
    gamma = rotated(0.0, 2.1)
    result = moebius_unitary(gamma, 8)
    expected, _ = quadrature_unitary(gamma, 8, 128)
    assert np.count_nonzero(result.matrix - np.diag(np.diagonal(result.matrix))) == 0
    assert np.max(np.abs(result.matrix - expected)) <= 1e-14


def test_moebius_unitary_defect_is_quadrature_small():
    matrix, defect = quadrature_unitary(STRETCH, 64, 512)
    assert defect < 1e-8
    assert defect < 1e-12
    column_norms = np.linalg.norm(matrix, axis=0)
    assert np.all(column_norms <= 1.0 + 1e-10)
    # At the rounding floor both defects are noise of about (2M + 1) eps.
    assert defect >= dense_defect(STRETCH, 64, 512) - 4 * 129 * np.finfo(float).eps


def test_moebius_unitary_requires_enough_quadrature():
    with pytest.raises(ValueError):
        quadrature_unitary(STRETCH, 64, 511)
    with pytest.raises(ValueError, match="quadrature defect"):
        quadrature_unitary(MoebiusMap.hyperbolic(4.0), 64, 512)


def assert_within_the_truncation_bound(gamma: MoebiusMap, max_mode: int, quad: int) -> None:
    """The recurrence agrees with the quadrature oracle to 1e-13 in every
    entry, and its truncation bound covers the l2 deviation of every column,
    less the oracle's own rounding: eps (2M + 1 + log2 N) for its 2M + 1
    repeated products and its FFT."""
    result = moebius_unitary(gamma, max_mode)
    expected, _ = quadrature_unitary(gamma, max_mode, quad)
    deviation = result.matrix - expected
    assert np.max(np.abs(deviation)) <= 1e-13
    floor = np.finfo(float).eps * (2 * max_mode + 1 + math.log2(quad))
    assert result.truncation + floor >= float(np.max(np.linalg.norm(deviation, axis=0)))


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.builds(rotated, st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)),
    max_mode=st.integers(1, 128),
)
def test_recurrence_matches_the_quadrature_oracle(gamma, max_mode):
    """At stretch 2 the oracle needs about e^2 M points; 16 M + 512 leave it
    a defect near 1e-12."""
    assert_within_the_truncation_bound(gamma, max_mode, 16 * max_mode + 512)


def test_recurrence_matches_the_quadrature_oracle_at_the_benchmark_window():
    assert_within_the_truncation_bound(STRETCH, 512, 4096)


@pytest.mark.parametrize("stretch, quad", [(3.0, 4096), (5.0, 32768)])
def test_recurrence_reaches_stretches_the_eight_point_rule_refused(stretch, quad):
    """8M = 512 points refuse both maps (defects 8.7 and 43 at 1536 points);
    the oracle meets its bound at 4096 and 32768 points."""
    gamma = MoebiusMap.hyperbolic(stretch)
    with pytest.raises(ValueError, match="quadrature defect"):
        quadrature_unitary(gamma, 64, 512)
    assert_within_the_truncation_bound(gamma, 64, quad)


@pytest.mark.parametrize("stretch, quad", [(0.5, 1536), (1.0, 1536), (3.0, 4096)])
def test_real_maps_give_float64_windows_within_the_truncation(stretch, quad):
    """Real a and b make the window real: float64, and still within its
    truncation bound of the complex quadrature oracle."""
    gamma = MoebiusMap.hyperbolic(stretch)
    assert gamma.is_real
    assert moebius_unitary(gamma, 64).matrix.dtype == np.float64
    assert_within_the_truncation_bound(gamma, 64, quad)


def test_a_non_real_map_keeps_a_complex_window():
    gamma = MoebiusMap.hyperbolic(1.0).compose(MoebiusMap(cmath.exp(0.3j), 0))
    assert not gamma.is_real
    assert moebius_unitary(gamma, 64).matrix.dtype == np.complex128
    assert_within_the_truncation_bound(gamma, 64, 1536)


def test_real_maps_give_real_weights_and_commutators():
    """The twist weights of a real map are real, and so are the plain, the
    twisted and the log commutators of a real element; a complex symbol
    makes them complex."""
    for power in (-2, -1, 1, 2):
        assert derivative_abs_poly(STRETCH, power).is_real
    real_element = CrossedElement(
        ((0, TrigPoly.from_dict({1: 0.5, -1: 2.0})), (1, TrigPoly.one()))
    )
    complex_element = CrossedElement(((1, TrigPoly.from_dict({0: 1.0, 1: 1j})),))
    for commutator in (dirac_commutator, twisted_dirac_commutator, log_dirac_commutator):
        assert commutator(real_element, STRETCH, 16).dtype == np.float64
        assert commutator(complex_element, STRETCH, 16).dtype == np.complex128


def test_represent_sums_a_complex_shift_onto_a_real_term():
    """1j z at power 1 shifts the real unitary into a complex term, which
    then joins the real power-0 term: nothing of the imaginary part is
    dropped."""
    max_mode = 16
    size = 2 * max_mode + 1
    element = CrossedElement(
        ((0, TrigPoly.from_dict({0: 0.5, -2: 1.5})), (1, TrigPoly.from_dict({1: 1j})))
    )
    unitary = moebius_unitary(STRETCH, max_mode).matrix
    expected = mult_op(element.terms[0][1], max_mode) + 1j * np.eye(size, k=-1) @ unitary
    matrix = represent(element, STRETCH, max_mode)
    assert matrix.dtype == np.complex128
    assert np.max(np.abs(matrix - expected)) <= 1e-15


def test_represent_refuses_a_window_without_mode_zero():
    assert np.array_equal(represent(CrossedElement.generator(0), STRETCH, 0), np.eye(1))
    with pytest.raises(ValueError, match="mode zero"):
        represent(CrossedElement.generator(0), STRETCH, -1)


def test_recurrence_refuses_a_lead_past_the_buffer_limit():
    """Stretch 8 needs about 53,000 modes below the window; the refusal
    comes before anything is allocated."""
    with pytest.raises(ValueError, match=f"above the limit of {RECURRENCE_LEAD_LIMIT}"):
        moebius_unitary(MoebiusMap.hyperbolic(8.0), 16)


@pytest.mark.parametrize(
    "stretch, max_mode, quad", [(4.0, 4, 32), (4.0, 8, 64), (2.0, 4, 32), (1.0, 4, 32)]
)
def test_refused_defect_is_the_toeplitz_bound_of_the_dense_gram(stretch, max_mode, quad):
    """The defect is |g_0 - 1| + 2 sum_{m >= 1} |g_m| over the first Gram row.
    On these coarse grids the moments stand far above rounding, and at
    stretch 4 the |g_0 - 1| term alone is 3% (M=4) and 0.8% (M=8) of the
    bound, more than the four digits the refusal prints can hide."""
    gamma = MoebiusMap.hyperbolic(stretch)
    spectrum = dense_columns(gamma, max_mode, quad)
    row = spectrum[:, 0].conj() @ spectrum
    bound = abs(row[0] - 1.0) + 2.0 * float(np.sum(np.abs(row[1:])))
    with pytest.raises(ValueError, match="quadrature defect") as refused:
        quadrature_unitary(gamma, max_mode, quad)
    reported = float(str(refused.value).split()[2])
    assert reported == pytest.approx(bound, rel=1e-3)
    assert reported >= dense_defect(gamma, max_mode, quad)


COEFFICIENTS = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    max_mode=st.integers(1, 64),
    stretch=st.floats(0.0, 0.6),
    turn=st.floats(0.0, 2.0 * math.pi),
    powers=st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
    data=st.data(),
)
def test_represent_matches_the_dense_product(max_mode, stretch, turn, powers, data):
    """Each symbol reaches the clipping edge: a term at distance 2M, 2M + 1
    or 2M + 2 from mode zero, of which only the first stays in the window.
    About one symbol in three is a single term, applied as a row shift: inside
    the window, at distance 2M, beyond the window, or the bare one."""
    size = 2 * max_mode + 1
    gamma = rotated(stretch, turn)
    sign = st.sampled_from((-1, 1))
    single = st.one_of(
        st.integers(-size + 2, size - 2),
        sign.map(lambda side: side * (size - 1)),
        st.builds(lambda side, mode: side * mode, sign, st.integers(size, size + 3)),
    )
    terms = []
    for power in sorted(powers):
        kind = data.draw(st.sampled_from(("edge", "edge", "single")))
        if kind == "single":
            mode = data.draw(st.one_of(single, st.none()))
            if mode is None:
                terms.append((power, TrigPoly.one()))
            else:
                value = data.draw(COEFFICIENTS.filter(lambda value: abs(value) > 0.1))
                terms.append((power, TrigPoly.from_dict({mode: value})))
            continue
        raw = data.draw(
            st.dictionaries(st.integers(-size - 1, size + 1), COEFFICIENTS, max_size=4)
        )
        edge = data.draw(sign) * data.draw(st.integers(size - 1, size + 1))
        raw[edge] = data.draw(COEFFICIENTS.filter(lambda value: abs(value) > 0.1))
        terms.append((power, TrigPoly.from_dict(raw)))
    element = CrossedElement(tuple(terms))
    matrix = represent(element, gamma, max_mode)
    assert np.max(np.abs(matrix - dense_represent(element, gamma, max_mode))) <= 1e-12


def dense_represent(element: CrossedElement, gamma: MoebiusMap, max_mode: int) -> np.ndarray:
    """The sum of mult_op(symbol) @ U(gamma^power) over the terms, by dense
    products on the whole window: the reference for the column blocks."""
    size = 2 * max_mode + 1
    expected = np.zeros((size, size), dtype=complex)
    for power, symbol in element.terms:
        shifted = (
            np.eye(size)
            if power == 0
            else moebius_unitary(gamma.power(power), max_mode).matrix
        )
        expected += mult_op(symbol, max_mode) @ shifted
    return expected


SYMBOLS = st.dictionaries(
    st.integers(-4, 4),
    st.one_of(
        st.floats(-1.0, 1.0, allow_nan=False).filter(lambda value: value != 0),
        COEFFICIENTS.filter(lambda value: abs(value) > 0.01),
    ),
    min_size=1,
    max_size=4,
).map(TrigPoly.from_dict)


@st.composite
def windows_and_widths(draw) -> tuple[int, int]:
    """A window M and a block width that 2M+1 is smaller than, equal to,
    a multiple of, or neither."""
    max_mode = draw(st.integers(1, 40))
    size = 2 * max_mode + 1
    relation = draw(st.sampled_from(("smaller", "equal", "multiple", "ragged")))
    if relation == "smaller":
        return max_mode, draw(st.integers(size + 1, size + 70))
    if relation == "equal":
        return max_mode, size
    if relation == "multiple":
        return max_mode, draw(st.sampled_from([w for w in range(1, size) if size % w == 0]))
    return max_mode, draw(st.sampled_from([w for w in range(2, size) if size % w]))


@settings(max_examples=60, deadline=None)
@given(
    window=windows_and_widths(),
    stretch=st.floats(0.1, 0.8),
    turn=st.one_of(st.just(0.0), st.floats(0.1, 2.0 * math.pi - 0.1)),
    powers=st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
    data=st.data(),
)
def test_commutators_match_the_dense_products(window, stretch, turn, powers, data):
    """Built block by block, each commutator is D P - W D of the dense
    windows, W the twist of P or P itself, to 1e-12 relative; it is float64
    exactly when every symbol is real and the map is real or every power 0,
    the rule of test_real_maps_give_real_weights_and_commutators."""
    max_mode, width = window
    gamma = rotated(stretch, turn)
    element = CrossedElement(tuple((power, data.draw(SYMBOLS)) for power in sorted(powers)))
    real = all(symbol.is_real for _, symbol in element.terms) and (
        gamma.is_real or powers == [0]
    )
    weighted = conformal_twist(element, gamma)
    cases = (
        (dirac_commutator, build_dirac(max_mode), element),
        (twisted_dirac_commutator, build_dirac(max_mode), weighted),
        (log_dirac_commutator, build_dlog(max_mode), element),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circle, "BLOCK_COLUMNS", width)
        for commutator, diagonal, twin in cases:
            dirac = np.diag(diagonal)
            expected = dirac @ dense_represent(element, gamma, max_mode) - (
                dense_represent(twin, gamma, max_mode) @ dirac
            )
            matrix = commutator(element, gamma, max_mode)
            assert matrix.dtype == (np.float64 if real else np.complex128)
            scale = max(float(np.max(np.abs(expected))), 1.0)
            assert np.max(np.abs(matrix - expected)) <= 1e-12 * scale


def test_commutators_allocate_at_most_one_and_a_half_windows():
    """With the unitary cached, each commutator of the generator at M=512
    allocates its window and slabs of BLOCK_COLUMNS columns: 1.14, 1.28
    and 1.14 windows of (2M+1)^2 float64.  One block as wide as the
    window allocates 3.0, 4.1 and 3.0."""
    max_mode = 512
    window = (2 * max_mode + 1) ** 2 * np.dtype(np.float64).itemsize
    moebius_unitary(STRETCH, max_mode)
    for commutator in (dirac_commutator, twisted_dirac_commutator, log_dirac_commutator):
        tracemalloc.start()
        try:
            commutator(CrossedElement.generator(), STRETCH, max_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * window, (commutator.__name__, peak / window)


def test_moebius_group_law_on_padded_rectangles():
    max_mode = 32
    pad = 3 * max_mode + 16
    quad = 8 * pad
    forward = moebius_rectangle(STRETCH, max_mode, pad, quad)
    backward = moebius_rectangle(STRETCH.inverse(), pad, max_mode, quad)
    deviation = forward @ backward - np.eye(2 * max_mode + 1)
    assert np.linalg.norm(deviation, 2) < 1e-8


def test_moebius_unitary_intertwines_multiplication():
    max_mode = 32
    pad = 3 * max_mode + 16
    quad = 8 * pad
    symbol = TrigPoly.from_dict({0: 0.25, 1: 1.0, -2: 0.5, 4: 0.05})
    angles = 2.0 * np.pi * np.arange(4096) / 4096
    points = np.exp(1j * angles)
    composed_values = np.array([trig_value(symbol, moebius_apply(STRETCH, p)) for p in points])
    composed = TrigPoly.from_samples(composed_values, 1e-10)
    forward = moebius_rectangle(STRETCH, max_mode, pad, quad)
    backward = moebius_rectangle(STRETCH.inverse(), pad, max_mode, quad)
    conjugated = forward @ mult_op(symbol, pad) @ backward
    assert np.linalg.norm(conjugated - mult_op(composed, max_mode), 2) < 1e-7


def test_conformal_twist_keeps_untwisted_terms():
    element = CrossedElement.multiplication(TrigPoly.from_dict({2: 1.5, -1: 0.5}))
    assert conformal_twist(element, STRETCH) == element


def test_conformal_twist_multiplies_by_derivative_powers():
    base = TrigPoly.from_dict({1: 1.0, 0: 0.5})
    element = CrossedElement(((2, base),))
    twisted = conformal_twist(element, STRETCH)
    (power, weighted), = twisted.terms
    assert power == 2
    points = np.exp(1j * np.linspace(0.1, 6.2, 9))
    for point in points:
        expect = trig_value(base, point) * STRETCH.derivative_abs(point) ** 2
        assert trig_value(weighted, point) == pytest.approx(expect, abs=1e-8)


def test_conformal_twist_reports_unresolved_tails():
    # The twist of the generator expands |gamma'| from samples; 32 of them
    # cannot resolve its tail.
    points = np.exp(2j * np.pi * np.arange(32) / 32)
    with pytest.raises(ValueError, match="tail tolerance"):
        TrigPoly.from_samples(STRETCH.derivative_abs(points), TWIST_TAIL_TOL)


def test_negative_twist_powers_have_exact_small_bandwidth():
    inverse_weight = derivative_abs_poly(STRETCH, -1)
    assert inverse_weight.bandwidth == 1
    assert inverse_weight.as_dict()[0] == pytest.approx(math.cosh(1.0))
    assert derivative_abs_poly(STRETCH, -3).bandwidth == 3


def test_twisted_commutator_identity_on_the_window():
    max_mode = 24
    matrix = mult_op(TrigPoly.from_dict({1: 1.0, -2: 0.5, 0: -0.25}), max_mode)
    eigenvalues = build_dirac(max_mode)
    magnitudes = np.abs(eigenvalues)
    twisted = eigenvalues[:, None] * matrix - (
        magnitudes[:, None] * matrix / magnitudes[None, :]
    ) * eigenvalues[None, :]
    signs = build_phase(max_mode)
    reference = magnitudes[:, None] * (signs[:, None] * matrix - matrix * signs[None, :])
    assert np.max(np.abs(twisted - reference)) < 1e-13


def test_twisted_commutator_plateau_and_plain_growth_smoke():
    element = CrossedElement.generator()
    twisted_norms = []
    plain_norms = []
    logged_norms = []
    for max_mode in (32, 64, 128):
        twisted_norms.append(
            np.linalg.norm(inner_block(twisted_dirac_commutator(element, STRETCH, max_mode)), 2)
        )
        plain_norms.append(
            np.linalg.norm(inner_block(dirac_commutator(element, STRETCH, max_mode)), 2)
        )
        logged_norms.append(
            np.linalg.norm(inner_block(log_dirac_commutator(element, STRETCH, max_mode)), 2)
        )
    assert max(twisted_norms) / min(twisted_norms) < 1.01
    assert abs(twisted_norms[-1] - 1.421187) < 1e-3
    assert max(logged_norms) / min(logged_norms) < 1.05
    for earlier, later in zip(plain_norms, plain_norms[1:]):
        assert later / earlier > 1.9


def test_toeplitz_index_of_the_coordinate():
    assert toeplitz_index(TrigPoly.coordinate(), 128) == -1
    assert toeplitz_index(TrigPoly.one(), 64) == 0


def test_toeplitz_index_matches_the_winding_oracle():
    square = TrigPoly.coordinate(2)
    expected = -winding_number(square)
    assert expected == -2
    assert toeplitz_index(square, 128) == expected
    reversed_coordinate = TrigPoly.coordinate(-1)
    assert toeplitz_index(reversed_coordinate, 128) == -winding_number(reversed_coordinate) == 1
    shifted = TrigPoly.from_dict({0: 2.0, 1: 1.0})
    assert toeplitz_index(shifted, 64) == -winding_number(shifted) == 0


def test_toeplitz_index_input_guards():
    cosine = TrigPoly.from_dict({1: 1.0, -1: 1.0})
    with pytest.raises(ValueError, match="invertible"):
        toeplitz_index(cosine, 64)
    with pytest.raises(ValueError, match="window"):
        toeplitz_index(TrigPoly.coordinate(3), 7)
    with pytest.raises(ValueError):
        toeplitz_index(TrigPoly.from_dict({}), 64)


def test_winding_numbers_on_sample_symbols():
    assert winding_number(TrigPoly.coordinate()) == 1
    assert winding_number(TrigPoly.coordinate(-1)) == -1
    assert winding_number(TrigPoly.coordinate(3)) == 3
    assert winding_number(TrigPoly.from_dict({0: 2.0, 1: 1.0})) == 0
    with pytest.raises(ValueError, match="vanishes"):
        winding_number(TrigPoly.from_dict({1: 1.0, -1: 1.0}))


def test_exponentiated_phase_weights_stay_summable():
    for exponent in (0.5, 1.0, 2.0):
        partials = []
        for window in (20, 40, 80):
            eigenvalues = np.abs(build_dirac(window))
            partials.append(float(np.sum(np.exp(-exponent * eigenvalues))))
        first_gap = abs(partials[1] - partials[0])
        second_gap = abs(partials[2] - partials[1])
        assert second_gap <= first_gap
        assert second_gap < 1e-6


def test_trigpoly_arithmetic_and_grids():
    left = TrigPoly.from_dict({1: 2.0, -1: 1.0})
    right = TrigPoly.from_dict({0: 1.0, 2: -0.5})
    product = left * right
    grid = np.exp(1j * np.linspace(0.2, 6.0, 11))
    for point in grid:
        assert trig_value(product, point) == pytest.approx(
            trig_value(left, point) * trig_value(right, point)
        )
    assert left.conjugate().as_dict() == {1: 1.0, -1: 2.0}
    sampled = TrigPoly.from_samples(left.values_on_grid(64), 1e-12)
    assert sampled.as_dict() == pytest.approx(left.as_dict())
    with pytest.raises(ValueError):
        left.values_on_grid(2)
