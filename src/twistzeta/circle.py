"""Fourier-mode model of the circle with Moebius twists and Toeplitz index data.

The Hilbert space is spanned by the exponential modes e_n for |n| <= M.  The
Dirac operator acts diagonally with eigenvalue n away from mode zero and
eigenvalue one at mode zero, so it is invertible and its phase splits the
window into Hardy and anti-Hardy halves.  Multiplication operators, the
unitaries induced by Moebius transformations, and conformally twisted
commutators are all materialised as dense matrices on that window, and the
Toeplitz compressions and winding numbers give the index data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
        index = np.arange(count)
        modes = np.where(index <= count // 2, index, index - count)
        kept = np.abs(spectrum) > drop_tol
        if np.any(kept & (np.abs(modes) >= count // 3)):
            raise ValueError("sample resolution is too low for the requested tail tolerance")
        return cls.from_dict(dict(zip(modes[kept].tolist(), spectrum[kept].tolist())))

    def as_dict(self) -> dict[int, complex]:
        return dict(self.terms)

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


# Every 5-smooth length below 2^64, the fastest for pocketfft, divides this.
_SMOOTH = 2**64 * 3**41 * 5**28


class WindowUnitary(NamedTuple):
    matrix: np.ndarray
    truncation: float


# Modes the recurrence may start below the window.  The lead it needs grows
# like 1 / (1 - |b/a|): at M=1 stretch 5 needs 2808, and every hyperbolic
# stretch above about 5.35 is refused.
RECURRENCE_LEAD_LIMIT = 4096


@functools.lru_cache(maxsize=32)
def _unitary_cached(gamma: MoebiusMap, max_mode: int) -> WindowUnitary:
    a, b = complex(gamma.a), complex(gamma.b)
    size = 2 * max_mode + 1
    spacing = float(np.finfo(float).eps)
    if b == 0:
        # A rotation z -> (a / conj a) z: weight one, mode n picks up its phase.
        angle = 2.0 * np.angle(a)
        matrix = np.diag(np.exp(1j * angle * np.arange(-max_mode, max_mode + 1)))
        matrix.setflags(write=False)
        return WindowUnitary(matrix, spacing * (abs(angle) * max_mode + 1.0))
    ratio = abs(b) / abs(a)
    deepest = max(max_mode, math.ceil(math.log(spacing / abs(a)) / math.log(ratio)) - 1)
    lead = deepest - max_mode
    if lead > RECURRENCE_LEAD_LIMIT:
        raise ValueError(
            f"the recurrence needs {lead} modes below the window, above the limit of "
            f"{RECURRENCE_LEAD_LIMIT}; |b/a| = {ratio:.6g} is too close to one"
        )
    points = 2 * deepest + 1
    while _SMOOTH % points:
        points += 1
    samples = np.exp(2j * np.pi * np.arange(points) / points)
    spectrum = np.fft.fft(gamma.derivative_abs(samples) ** 0.5) / points

    # buffer[t + 1, n] holds c_n[r - deepest] on the diagonal t = r + n; row 0
    # and every r < 0 stay zero, the coefficients below the start.
    rows = deepest + max_mode + 1
    buffer = np.zeros((rows + max_mode + 1, max_mode + 1), dtype=complex)
    buffer[1 : rows + 1, 0] = spectrum[np.arange(-deepest, max_mode + 1) % points]
    scale = a.conjugate()
    forward, level, back = a / scale, b / scale, b.conjugate() / scale
    for diagonal in range(1, rows + max_mode):
        low, high = max(1, diagonal - rows + 1), min(diagonal, max_mode) + 1
        entries = buffer[diagonal + 1, low:high]
        np.multiply(buffer[diagonal - 1, low - 1 : high - 1], forward, out=entries)
        entries += level * buffer[diagonal, low - 1 : high - 1]
        entries -= back * buffer[diagonal, low:high]
    start = buffer[lead + 1 :]
    step, item = start.strides
    window = np.lib.stride_tricks.as_strided(
        start, shape=(size, max_mode + 1), strides=(step, step + item), writeable=False
    )
    matrix = np.empty((size, size), dtype=complex)
    matrix[:, max_mode:] = window
    np.conjugate(window[::-1, :0:-1], out=matrix[:, :max_mode])

    gain = (abs(a) + abs(b)) ** 2
    tail = abs(a) * ratio ** (deepest + 1)
    alias = 2.0 * ratio ** (points - deepest) * gain / (1.0 - ratio**points)
    rounding = spacing * (
        gain * (8.0 * (1.0 + 2.0 * ratio) * max_mode + 4.0) + 5.0 * math.log2(points)
    )
    matrix.setflags(write=False)
    return WindowUnitary(matrix, tail + alias + rounding)


def moebius_unitary(gamma: MoebiusMap, max_mode: int) -> WindowUnitary:
    """Window matrix of the weighted composition unitary, with an error bound.

    (U f)(z) = |gamma'(z)|^(1/2) f(gamma(z)), and column n of the window holds
    the Fourier coefficients c_n[k], |k| <= M, of w gamma^n, where
    w = |gamma'|^(1/2) = 1 / |conj(b) z + conj(a)| on the circle.

    Column 0.  Put beta = conj(b) / conj(a) and q = |beta| = |b/a| < 1.  Then
    w = |a|^(-1) (1 + beta z)^(-1/2) (1 + conj(beta z))^(-1/2), and the binomial
    coefficients t_j of (1 + x)^(-1/2) have modulus at most 1, so
    |c_0[k]| <= |a|^(-1) q^|k| sum_j |t_j| q^(2j) = q^|k|, because that sum
    is (1 - q^2)^(-1/2) = |a|.  Column 0 is one FFT of w at N >= 2J + 1 points
    (J below); every alias of a kept mode lies at least N - J modes away.

    Columns n >= 1.  U M_z = M_gamma U, so c_{n+1} = gamma c_n, which is
    (conj(b) z + conj(a)) c_{n+1} = (a z + b) c_n in coefficients:

        c_{n+1}[k] = (a c_n[k-1] + b c_n[k] - conj(b) c_{n+1}[k-1]) / conj(a).

    It runs forward in k from the mode -J, with every coefficient below -J
    taken as zero, one vector step per anti-diagonal n + k over all columns.
    Columns of negative mode follow from c_{-n}[k] = conj(c_n[-k]), since w is
    real and gamma^(-n) = conj(gamma^n) on the circle.  q = 0 is a rotation,
    built as the diagonal of its phases e^(i phi n), phi = 2 arg(a); each is
    within eps (|phi| M + 1) of the exact phase, the bound returned for it.

    Error bound, in l2 over the rows of any column.  Multiplication by gamma
    is unitary on l2(Z), and lower-triangular because gamma is holomorphic
    on the disc, so started from a column 0 supported on k >= -J the
    recurrence computes gamma^n times that column exactly: every column
    inherits the error e_0 of column 0 and no more.  J is the least
    J >= M with |a| q^(J+1) <= eps, eps = 2^-52, so e_0 holds
    - the tail below -J, of norm at most (sum_{j>J} q^(2j))^(1/2)
      = |a| q^(J+1), since 1 - q^2 = |a|^(-2);
    - the aliasing, at most sum_{m != 0} q^|k + m N| on mode k, in total at
      most 2 q^(N-J) / ((1 - q)(1 - q^N)), where 1 / (1 - q) <= g with
      g = (|a| + |b|)^2;
    - rounding: N samples of w, each within 4 eps g relative, and the FFT,
      within 5 eps log2(N).
    Each recurrence step rounds its three products and two sums, within
    8 eps (1 + 2q) of its unit-norm inputs; as a residual it enters through
    1 / (1 + beta z), of supremum 1 / (1 - q) <= g, and is then carried by
    the unitary gamma.  Column n thus gains at most 8 eps (1 + 2q) g n.
    The returned ``truncation`` is the sum of these bounds at n = M.

    The lead J - M grows like log(eps) / log(q); a map that needs more than
    ``RECURRENCE_LEAD_LIMIT`` is refused with ``ValueError``.
    """

    if max_mode < 1:
        raise ValueError("the mode window must contain at least mode one")
    return _unitary_cached(gamma, max_mode)


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


def _convolve_modes(symbol: TrigPoly, matrix: np.ndarray) -> np.ndarray:
    """mult_op(symbol) @ matrix, by a row shift or an FFT convolution.

    A one-term symbol shifts the rows, or only scales them at mode zero;
    longer ones are convolved along contiguous mode rows.  Terms that move
    every mode out of the window are dropped, as in mult_op; the transform
    exceeds the window by the remaining bandwidth, so no kept row wraps
    around.
    """

    size = matrix.shape[0]
    if len(symbol.terms) == 1:
        # c z^k is a scaled partial permutation: row i takes c times row i - k.
        ((mode, value),) = symbol.terms
        if mode == 0:
            return value * matrix
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


def represent(element: CrossedElement, gamma: MoebiusMap, max_mode: int) -> np.ndarray:
    """Window matrix of a crossed-product element in the covariant picture."""

    total = None
    for power, symbol in element.terms:
        if power == 0:
            term = mult_op(symbol, max_mode)
        else:
            unitary = moebius_unitary(gamma.power(power), max_mode).matrix
            term = _convolve_modes(symbol, unitary)
        if total is None:
            total = term
        else:
            total += term
    if total is None:
        size = 2 * max_mode + 1
        return np.zeros((size, size), dtype=complex)
    return total


# The commutators' last parameter is unused.  perfbench/child.py still passes
# the former quadrature size 8M there, so it stays until that caller drops it.


def dirac_commutator(
    element: CrossedElement, gamma: MoebiusMap, max_mode: int, quad_points: int | None = None
) -> np.ndarray:
    matrix = represent(element, gamma, max_mode)
    diagonal = build_dirac(max_mode)
    matrix *= diagonal[:, None] - diagonal[None, :]
    return matrix


def log_dirac_commutator(
    element: CrossedElement, gamma: MoebiusMap, max_mode: int, quad_points: int | None = None
) -> np.ndarray:
    matrix = represent(element, gamma, max_mode)
    diagonal = build_dlog(max_mode)
    matrix *= diagonal[:, None] - diagonal[None, :]
    return matrix


def twisted_dirac_commutator(
    element: CrossedElement, gamma: MoebiusMap, max_mode: int, quad_points: int | None = None
) -> np.ndarray:
    """Commutator with the twist acting on the left factor."""

    plain = represent(element, gamma, max_mode)
    weighted = represent(conformal_twist(element, gamma), gamma, max_mode)
    diagonal = build_dirac(max_mode)
    # D P - W D = [D, P] - (W - P) D, which is [D, P] itself when W == P.
    weighted -= plain
    weighted *= diagonal[None, :]
    plain *= diagonal[:, None] - diagonal[None, :]
    plain -= weighted
    return plain


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
