"""Fourier-mode model of the circle with Moebius twists and Toeplitz index data.

The Hilbert space is spanned by the exponential modes e_n for |n| <= M.  The
Dirac operator acts diagonally with eigenvalue n away from mode zero and
eigenvalue one at mode zero, so it is invertible and its phase splits the
window into Hardy and anti-Hardy halves.  Multiplication operators, the
unitaries induced by Moebius transformations, and conformally twisted
commutators are all materialised as dense matrices on that window; zeta
traces against powers of the Dirac operator come out either as multiples of
the Riemann zeta function or as finite Dirichlet sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

# Grid of the argument-principle and invertibility checks.
GRID_POINTS = 4096

# Singular values at or below this fraction of the largest count as zero.
RANK_TOL = 1e-8

# Samples of |gamma'|^k in the conformal twist, and the size below which its
# Fourier coefficients are dropped; from_samples refuses a grid whose top
# third of modes has not fallen below it.
TWIST_SAMPLES = 4096
TWIST_TAIL_TOL = 1e-10

# Largest termwise drift of the Dirichlet data between the two largest windows.
STABILIZATION_TOL = 1e-10

# Terms of the zeta series summed directly; the Euler-Maclaurin tail starts here.
ZETA_CUTOFF = 24


@dataclass(frozen=True)
class TrigPoly:
    """Finitely supported Fourier series stored as (mode, coefficient) pairs."""

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        modes = [mode for mode, _ in self.terms]
        if modes != sorted(set(modes)):
            raise ValueError("modes must be strictly increasing")
        if any(coeff == 0 for _, coeff in self.terms):
            raise ValueError("zero coefficients must be dropped before construction")

    @classmethod
    def from_dict(cls, coefficients: Mapping[int, complex]) -> TrigPoly:
        kept = {
            int(mode): complex(value)
            for mode, value in coefficients.items()
            if abs(value) > 0.0
        }
        return cls(tuple(sorted(kept.items())))

    @classmethod
    def one(cls) -> TrigPoly:
        return cls.from_dict({0: 1.0})

    @classmethod
    def coordinate(cls, power: int = 1) -> TrigPoly:
        return cls.from_dict({power: 1.0})

    @classmethod
    def from_samples(cls, values: np.ndarray, drop_tol: float) -> TrigPoly:
        """Recover coefficients from equispaced samples, guarding the alias tail.

        The top third of the available modes must already sit below the drop
        tolerance; otherwise the sample grid cannot certify the dropped tail
        and the conversion refuses.
        """

        samples = np.asarray(values, dtype=complex)
        count = samples.size
        if count < 4:
            raise ValueError("at least four samples are required")
        spectrum = np.fft.fft(samples) / count
        guard = count // 3
        coefficients: dict[int, complex] = {}
        for index in range(count):
            mode = index if index <= count // 2 else index - count
            value = spectrum[index]
            if abs(mode) >= guard and abs(value) > drop_tol:
                raise ValueError(
                    "sample resolution is too low for the requested tail tolerance"
                )
            if abs(value) > drop_tol:
                coefficients[mode] = complex(value)
        return cls.from_dict(coefficients)

    def as_dict(self) -> dict[int, complex]:
        return dict(self.terms)

    def coefficient(self, mode: int) -> complex:
        for term_mode, value in self.terms:
            if term_mode == mode:
                return value
        return 0.0

    @property
    def bandwidth(self) -> int:
        return max((abs(mode) for mode, _ in self.terms), default=0)

    def conjugate(self) -> TrigPoly:
        return TrigPoly.from_dict({-mode: value.conjugate() for mode, value in self.terms})

    def __add__(self, other: TrigPoly) -> TrigPoly:
        merged = self.as_dict()
        for mode, value in other.terms:
            merged[mode] = merged.get(mode, 0.0) + value
        return TrigPoly.from_dict(merged)

    def __mul__(self, other: TrigPoly) -> TrigPoly:
        merged: dict[int, complex] = {}
        for left_mode, left in self.terms:
            for right_mode, right in other.terms:
                mode = left_mode + right_mode
                merged[mode] = merged.get(mode, 0.0) + left * right
        return TrigPoly.from_dict(merged)

    def evaluate(self, point: complex) -> complex:
        return sum(value * point**mode for mode, value in self.terms)

    def values_on_grid(self, points: int) -> np.ndarray:
        """Evaluate on the equispaced grid exp(2 pi i k / points)."""

        if points <= 2 * self.bandwidth:
            raise ValueError("grid is too coarse for the bandwidth")
        buffer = np.zeros(points, dtype=complex)
        for mode, value in self.terms:
            buffer[mode % points] += value
        return np.fft.ifft(buffer) * points


@dataclass(frozen=True)
class MoebiusMap:
    """Disc automorphism z -> (a z + b) / (conj(b) z + conj(a)) on the circle."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        drift = abs(abs(self.a) ** 2 - abs(self.b) ** 2 - 1.0)
        if drift > 1e-9 * max(1.0, abs(self.a) ** 2):
            raise ValueError("coefficients must satisfy |a|^2 - |b|^2 = 1")

    @classmethod
    def identity(cls) -> MoebiusMap:
        return cls(1.0, 0.0)

    @classmethod
    def hyperbolic(cls, stretch: float) -> MoebiusMap:
        return cls(math.cosh(stretch / 2.0), math.sinh(stretch / 2.0))

    def apply(self, z):
        a, b = complex(self.a), complex(self.b)
        return (a * z + b) / (b.conjugate() * z + a.conjugate())

    def derivative_abs(self, z):
        a, b = complex(self.a), complex(self.b)
        return abs(b.conjugate() * z + a.conjugate()) ** -2.0

    def inverse(self) -> MoebiusMap:
        return MoebiusMap(complex(self.a).conjugate(), -complex(self.b))

    def compose(self, other: MoebiusMap) -> MoebiusMap:
        a1, b1 = complex(self.a), complex(self.b)
        a2, b2 = complex(other.a), complex(other.b)
        return MoebiusMap(a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())

    def power(self, exponent: int) -> MoebiusMap:
        base = self if exponent >= 0 else self.inverse()
        result = MoebiusMap.identity()
        for _ in range(abs(exponent)):
            result = result.compose(base)
        return result


def build_dirac(max_mode: int) -> np.ndarray:
    """Diagonal of the shifted derivative operator over the mode window."""

    if max_mode < 1:
        raise ValueError("the mode window must contain at least mode one")
    eigenvalues = np.arange(-max_mode, max_mode + 1, dtype=float)
    eigenvalues[max_mode] = 1.0
    return eigenvalues


def build_dlog(max_mode: int) -> np.ndarray:
    """Diagonal of the signed-logarithm derivative over the mode window."""

    if max_mode < 1:
        raise ValueError("the mode window must contain at least mode one")
    modes = np.arange(-max_mode, max_mode + 1, dtype=float)
    eigenvalues = np.zeros_like(modes)
    away = np.abs(modes) >= 2
    eigenvalues[away] = np.sign(modes[away]) * np.log(np.abs(modes[away]))
    return eigenvalues


def build_phase(max_mode: int) -> np.ndarray:
    """Diagonal of the phase of the shifted derivative operator."""

    modes = np.arange(-max_mode, max_mode + 1)
    return np.where(modes >= 0, 1.0, -1.0)


def _banded(symbol: TrigPoly, rows: int, cols: int) -> np.ndarray:
    """Convolution matrix with entry [i, j] the coefficient of mode i - j."""

    matrix = np.zeros((rows, cols), dtype=complex)
    for mode, value in symbol.terms:
        if -cols < mode < rows:
            np.fill_diagonal(matrix[max(mode, 0) :, max(-mode, 0) :], value)
    return matrix


def mult_op(symbol: TrigPoly, max_mode: int) -> np.ndarray:
    """Convolution matrix of a Fourier polynomial on the mode window."""

    return _banded(symbol, 2 * max_mode + 1, 2 * max_mode + 1)


class QuadratureUnitary(NamedTuple):
    matrix: np.ndarray
    defect: float


# Sample columns filled and transformed together, one per contiguous row; each
# column's transform ignores the others, so the block size leaves no trace.
_FFT_BLOCK = 64


@functools.lru_cache(maxsize=32)
def _unitary_cached(gamma: MoebiusMap, max_mode: int, quad_points: int) -> QuadratureUnitary:
    size = 2 * max_mode + 1
    angles = 2.0 * np.pi * np.arange(quad_points) / quad_points
    points = np.exp(1j * angles)
    images = gamma.apply(points)
    current = gamma.derivative_abs(points) ** 0.5 * np.conj(images) ** max_mode
    anchor = np.conj(current)
    rows = np.arange(-max_mode, max_mode + 1) % quad_points
    matrix = np.empty((size, size), dtype=complex)
    moments = np.empty(size, dtype=complex)
    block = np.empty((_FFT_BLOCK, quad_points), dtype=complex)
    for first in range(0, size, _FFT_BLOCK):
        width = min(_FFT_BLOCK, size - first)
        for offset in range(width):
            block[offset] = current
            current = current * images
        moments[first : first + width] = block[:width] @ anchor / quad_points
        spectrum = np.fft.fft(block[:width], axis=1) / quad_points
        matrix[:, first : first + width] = spectrum[:, rows].T
    defect = abs(moments[0] - 1.0) + 2.0 * float(np.sum(np.abs(moments[1:])))
    if defect > 1e-8:
        raise ValueError(
            "quadrature defect {:.3e} exceeds 1e-08; increase quad_points".format(defect)
        )
    matrix.setflags(write=False)
    return QuadratureUnitary(matrix, defect)


def moebius_unitary(gamma: MoebiusMap, max_mode: int, quad_points: int) -> QuadratureUnitary:
    """Window matrix of the weighted composition unitary, with a defect bound.

    Matrix elements are Fourier integrals of smooth periodic functions, so the
    trapezoid rule converges spectrally.  Because the map preserves the
    circle, the Gram matrix of the sampled columns (every alias row included)
    is the Hermitian Toeplitz matrix of the moments g_m = mean(|gamma'|
    gamma^m), m = -2M..2M.  The reported defect is the l1 norm of the symbol
    of Gram - I, |g_0 - 1| + 2 sum_{m >= 1} |g_m|: an upper bound on its
    spectral norm, which measures pure quadrature error, not that norm itself.
    """

    if max_mode < 1:
        raise ValueError("the mode window must contain at least mode one")
    if quad_points < 8 * max_mode:
        raise ValueError("at least eight quadrature points per mode are required")
    return _unitary_cached(gamma, max_mode, quad_points)


@dataclass(frozen=True)
class CrossedElement:
    """Finite sum of terms (group power, coefficient function)."""

    terms: tuple[tuple[int, TrigPoly], ...]

    def __post_init__(self) -> None:
        powers = [power for power, _ in self.terms]
        if powers != sorted(set(powers)):
            raise ValueError("group powers must be strictly increasing")
        if any(not symbol.terms for _, symbol in self.terms):
            raise ValueError("coefficient functions must be nonzero")

    @classmethod
    def generator(cls, power: int = 1) -> CrossedElement:
        return cls(((power, TrigPoly.one()),))

    @classmethod
    def multiplication(cls, symbol: TrigPoly) -> CrossedElement:
        return cls(((0, symbol),))


def derivative_abs_poly(gamma: MoebiusMap, power: int) -> TrigPoly:
    """Fourier expansion of the derivative modulus raised to an integer power."""

    if power == 0:
        return TrigPoly.one()
    angles = 2.0 * np.pi * np.arange(TWIST_SAMPLES) / TWIST_SAMPLES
    points = np.exp(1j * angles)
    values = gamma.derivative_abs(points) ** power
    return TrigPoly.from_samples(values, TWIST_TAIL_TOL)


def conformal_twist(element: CrossedElement, gamma: MoebiusMap) -> CrossedElement:
    """Multiply each coefficient function by the derivative-modulus power."""

    twisted: list[tuple[int, TrigPoly]] = []
    for power, symbol in element.terms:
        if power == 0:
            twisted.append((power, symbol))
            continue
        weight = derivative_abs_poly(gamma, power)
        twisted.append((power, symbol * weight))
    return CrossedElement(tuple(twisted))


# Every 5-smooth length below 2^64, the fastest for pocketfft, divides this.
_SMOOTH = 2**64 * 3**41 * 5**28


def _convolve_modes(symbol: TrigPoly, matrix: np.ndarray) -> np.ndarray:
    """mult_op(symbol) @ matrix, by a row shift or an FFT convolution.

    A one-term symbol shifts the rows; longer ones are convolved along
    contiguous mode rows.  Terms that move every mode out of the window are
    dropped, as in mult_op; the transform exceeds the window by the remaining
    bandwidth, so no kept row wraps around.
    """

    size = matrix.shape[0]
    if len(symbol.terms) == 1:
        # c z^k is a scaled partial permutation: row i takes c times row i - k.
        ((mode, value),) = symbol.terms
        shifted = np.zeros_like(matrix)
        if abs(mode) < size:
            shifted[max(mode, 0) : size + min(mode, 0)] = (
                value * matrix[max(-mode, 0) : size - max(mode, 0)]
            )
        return shifted
    terms = [(mode, value) for mode, value in symbol.terms if abs(mode) < size]
    length = size + max((abs(mode) for mode, _ in terms), default=0)
    while _SMOOTH % length:
        length += 1
    kernel = np.zeros(length, dtype=complex)
    for mode, value in terms:
        kernel[mode % length] = value
    rows = np.zeros((size, length), dtype=complex)
    rows[:, :size] = matrix.T
    # In place: one (size, length) buffer instead of three.
    np.fft.fft(rows, axis=1, out=rows)
    rows *= np.fft.fft(kernel)
    np.fft.ifft(rows, axis=1, out=rows)
    return rows[:, :size].T


def represent(
    element: CrossedElement, gamma: MoebiusMap, max_mode: int, quad_points: int
) -> np.ndarray:
    """Window matrix of a crossed-product element in the covariant picture."""

    total = None
    for power, symbol in element.terms:
        if power == 0:
            term = mult_op(symbol, max_mode)
        else:
            unitary = moebius_unitary(gamma.power(power), max_mode, quad_points).matrix
            term = _convolve_modes(symbol, unitary)
        if total is None:
            total = term
        else:
            total += term
    if total is None:
        size = 2 * max_mode + 1
        return np.zeros((size, size), dtype=complex)
    return total


def dirac_commutator(
    element: CrossedElement, gamma: MoebiusMap, max_mode: int, quad_points: int
) -> np.ndarray:
    matrix = represent(element, gamma, max_mode, quad_points)
    diagonal = build_dirac(max_mode)
    return diagonal[:, None] * matrix - matrix * diagonal[None, :]


def log_dirac_commutator(
    element: CrossedElement, gamma: MoebiusMap, max_mode: int, quad_points: int
) -> np.ndarray:
    matrix = represent(element, gamma, max_mode, quad_points)
    diagonal = build_dlog(max_mode)
    return diagonal[:, None] * matrix - matrix * diagonal[None, :]


def twisted_dirac_commutator(
    element: CrossedElement,
    gamma: MoebiusMap,
    max_mode: int,
    quad_points: int,
) -> np.ndarray:
    """Commutator with the twist acting on the left factor."""

    plain = represent(element, gamma, max_mode, quad_points)
    weighted = represent(conformal_twist(element, gamma), gamma, max_mode, quad_points)
    diagonal = build_dirac(max_mode)
    return diagonal[:, None] * plain - weighted * diagonal[None, :]


def inner_block(matrix: np.ndarray) -> np.ndarray:
    """Central half-window block, used to suppress compression artifacts."""

    size = matrix.shape[0]
    if matrix.shape != (size, size) or size % 2 == 0:
        raise ValueError("an odd square window matrix is required")
    max_mode = (size - 1) // 2
    half = max_mode // 2
    window = slice(max_mode - half, max_mode + half + 1)
    return matrix[window, window]


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order, as np.linalg.svd(compute_uv=False).

    A scaled partial permutation, with at most one nonzero entry in every row
    and every column, has the moduli of its entries as singular values, padded
    with zeros to min(rows, cols); those are read off without the SVD.
    """

    nonzero = matrix != 0
    if (
        np.count_nonzero(nonzero) <= min(matrix.shape)
        and np.all(np.count_nonzero(nonzero, axis=0) <= 1)
        and np.all(np.count_nonzero(nonzero, axis=1) <= 1)
    ):
        values = np.zeros(min(matrix.shape))
        moduli = np.sort(np.abs(matrix[nonzero]))[::-1]
        values[: moduli.size] = moduli
        return values
    return np.linalg.svd(matrix, compute_uv=False)


def numerical_rank(matrix: np.ndarray) -> int:
    """Count singular values above ``RANK_TOL`` relative to the largest one."""

    singular = singular_values(matrix)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.count_nonzero(singular > RANK_TOL * singular[0]))


def winding_number(symbol: TrigPoly) -> int:
    """Degree of the symbol around the origin by the argument principle."""

    values = symbol.values_on_grid(GRID_POINTS)
    if np.min(np.abs(values)) <= 1e-9:
        raise ValueError("the symbol vanishes on the sample grid")
    increments = np.angle(np.roll(values, -1) / values)
    total = float(np.sum(increments)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > 1e-6:
        raise ValueError("phase increments did not close up; refine the grid")
    return int(nearest)


def _corner_kernel_dim(symbol: TrigPoly, max_mode: int, offset: int) -> int:
    cols = max_mode + 1 - offset
    return cols - numerical_rank(_banded(symbol, max_mode + 1, cols))


def toeplitz_index(symbol: TrigPoly, max_mode: int) -> int:
    """Kernel-dimension difference of the compressed symbol and its adjoint.

    The compression keeps every nonnegative mode row but stops the column
    window one bandwidth early, so each retained column of the semi-infinite
    convolution matrix is complete and no artificial kernel appears at the
    window edge.  The adjoint is handled through the conjugate symbol.
    """

    if not symbol.terms:
        raise ValueError("the zero symbol is not invertible")
    values = symbol.values_on_grid(GRID_POINTS)
    if float(np.min(np.abs(values))) <= 0.1:
        raise ValueError("the symbol is not safely invertible on the circle")
    spread = symbol.bandwidth
    if max_mode < 2 * spread + 2:
        raise ValueError("the mode window is too small for the symbol bandwidth")
    forward = _corner_kernel_dim(symbol, max_mode, spread)
    backward = _corner_kernel_dim(symbol.conjugate(), max_mode, spread)
    return forward - backward


_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)


def riemann_zeta(argument: complex) -> complex:
    """Euler-Maclaurin continuation of the zeta series, valid away from one."""

    s = complex(argument)
    if abs(s - 1.0) < 1e-12:
        raise ValueError("the zeta function has its pole at argument one")
    total = sum(complex(k) ** (-s) for k in range(1, ZETA_CUTOFF))
    total += complex(ZETA_CUTOFF) ** (1.0 - s) / (s - 1.0)
    total += 0.5 * complex(ZETA_CUTOFF) ** (-s)
    rising = s
    for index, bernoulli in enumerate(_BERNOULLI, start=1):
        weight = float(bernoulli / math.factorial(2 * index))
        total += weight * rising * complex(ZETA_CUTOFF) ** (-s - 2 * index + 1)
        rising = rising * (s + 2 * index - 1) * (s + 2 * index)
    return total


@dataclass(frozen=True)
class DirichletSum:
    """Finite sum of terms coefficient * base^(-2z), an entire trace function."""

    terms: tuple[tuple[float, complex], ...]

    def __post_init__(self) -> None:
        bases = [base for base, _ in self.terms]
        if bases != sorted(set(bases)):
            raise ValueError("bases must be strictly increasing")
        if any(base <= 0.0 for base in bases):
            raise ValueError("bases must be positive")

    @classmethod
    def from_window_diagonal(cls, matrix: np.ndarray) -> DirichletSum:
        size = matrix.shape[0]
        if matrix.shape != (size, size) or size % 2 == 0:
            raise ValueError("an odd square window matrix is required")
        max_mode = (size - 1) // 2
        bases = np.abs(build_dirac(max_mode))
        merged: dict[float, complex] = {}
        for position in range(size):
            base = float(bases[position])
            merged[base] = merged.get(base, 0.0) + complex(matrix[position, position])
        kept = {base: value for base, value in merged.items() if abs(value) > 0.0}
        return cls(tuple(sorted(kept.items())))

    def evaluate(self, z: complex) -> complex:
        return sum(value * complex(base) ** (-2.0 * z) for base, value in self.terms)


def stabilized_dirichlet(
    builder: Callable[[int], np.ndarray], sizes: Sequence[int]
) -> DirichletSum:
    """Certify window independence of the diagonal trace data.

    The builder is evaluated on each mode window; the resulting Dirichlet
    sums for the two largest windows must agree termwise within
    ``STABILIZATION_TOL``, otherwise the diagonal has not settled and no
    entire certificate can be issued.
    """

    if len(sizes) < 2 or list(sizes) != sorted(set(sizes)):
        raise ValueError("at least two strictly increasing window sizes are required")
    sums = [DirichletSum.from_window_diagonal(builder(size)) for size in sizes]
    previous, final = dict(sums[-2].terms), dict(sums[-1].terms)
    for base in sorted(set(previous) | set(final)):
        drift = abs(previous.get(base, 0.0) - final.get(base, 0.0))
        if drift > STABILIZATION_TOL:
            raise ValueError(
                "diagonal trace data has not stabilized across the mode windows"
            )
    return sums[-1]


def circle_zeta(operand: TrigPoly | DirichletSum, power: int) -> float:
    """Residue at the origin of z^power times the zeta trace of the operand.

    A multiplication operand yields a trace proportional to the continued
    zeta series, whose only pole sits at one half, and a Dirichlet operand
    yields an entire trace; in both cases every residue at the origin
    vanishes identically.
    """

    if power < 0:
        raise ValueError("the polynomial degree must be nonnegative")
    if not isinstance(operand, (TrigPoly, DirichletSum)):
        raise TypeError("operand must be a Fourier polynomial or a Dirichlet sum")
    return 0.0


def circle_zeta_poles(operand: TrigPoly | DirichletSum) -> tuple[tuple[float, complex], ...]:
    """Pole locations and residues of the zeta trace of the operand."""

    if isinstance(operand, DirichletSum):
        return ()
    if isinstance(operand, TrigPoly):
        average = operand.coefficient(0)
        if average == 0:
            return ()
        return ((0.5, complex(average)),)
    raise TypeError("operand must be a Fourier polynomial or a Dirichlet sum")


def circle_zeta_value(operand: TrigPoly | DirichletSum, z: complex) -> complex:
    """Evaluate the zeta trace of the operand away from its poles."""

    if isinstance(operand, DirichletSum):
        return operand.evaluate(z)
    if isinstance(operand, TrigPoly):
        return operand.coefficient(0) * (2.0 * riemann_zeta(2.0 * complex(z)) + 1.0)
    raise TypeError("operand must be a Fourier polynomial or a Dirichlet sum")
