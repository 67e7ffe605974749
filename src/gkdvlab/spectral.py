"""Periodic pseudospectral core on a uniform grid over [-L, L).

Transforms follow the unitary-in-(2 pi) convention, measured from the grid's
left edge x = -L: the discrete coefficient at wavenumber zeta_k = (pi/L) k
approximates (2 pi)^{-1/2} integral of u(x) e^{-i (x + L) zeta} dx, which is
(-1)^k times the transform taken from x = 0.  So each coefficient is a
scaled plain FFT: its modulus does not depend on the origin, and
sum |u_j|^2 dx == sum |C_k|^2 dzeta holds exactly over every mode
(dzeta = pi/L).  Steps, products and multipliers act mode by mode before an
inverse transform, so no result depends on the phase.

A real field keeps only its rfft half-spectrum, the modes 0 ... N/2: its
negative modes are the conjugates of the positive ones, so reality holds by
construction.  The last entry is the unpaired Nyquist mode +N/2.  A sum over
every mode becomes a sum over the half-spectrum weighted by
SpectralGrid.multiplicity, which counts the modes 1 ... N/2 - 1 twice.
Every 1-D field lives on this half-spectrum.  A full spectrum, every mode
in numpy's FFT order (mode m at index m mod N), is only the x axis of a
real space-time sample, which halves its time axis (spaces.xt_transform).
Only this module knows these layouts; callers select modes by their
wavenumbers.  Samples (..., N) and half-spectra (..., N/2 + 1) are plain
arrays beside their grid: each operation takes (array, grid) and checks the
array's last axis, and one transform of samples serves every reader of their
modes.  The grid owns the x-transform (span 2L) as SpectralGrid.dft/idft.

Every transform is one call of a pocketfft gufunc that np.fft itself calls
(numpy.fft._pocketfft_umath, which numpy 2.0, the floor in pyproject.toml,
introduced), with np.fft's check of out and result dtype, without the
wrapper's few microseconds of Python per call that the small transforms of
every time step would pay.  The forward scale is the gufunc's factor, the
argument through which np.fft applies its norm; the inverse takes np.fft's
factor 1 / num (its reciprocal(num) in double precision) and divides by the
scale after.  Both factors are read-only 0-d arrays in the input's
precision, built once per (span, num, dtype) by _transform_factors: a
Python float would be converted on every call (NEP 50, "Promotion rules
for Python scalars"), a fixed cost that the small transforms of a time step
feel, while the 0-d array runs the same loop on the same value, bit for
bit.  PaddedBand halves its Nyquist entry by a 0-d complex 0.5 for the same
reason.

Derivative and product rules follow standard Fourier pseudospectral
practice (see Trefethen, "Spectral Methods in MATLAB", ch. 3): the grid owns
the derivative symbol (i zeta)^k, zero on the Nyquist mode for odd k, and
products are dealiased by zero-padding wide enough to make the truncated
result an exact spectral convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Collection

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


class NonFiniteDataError(ValueError):
    """Samples or coefficients with non-finite values, which no real
    transform can take.  A numerical failure of the run, not a
    configuration error."""


def half_multiplicity(num: int) -> np.ndarray:
    """Modes each entry of the rfft half-spectrum of num points stands for:
    2 for the conjugate pairs 1 ... num/2 - 1, 1 for the zero and the
    Nyquist mode; read-only."""
    count = np.full(num // 2 + 1, 2.0)
    count[[0, -1]] = 1.0
    count.flags.writeable = False
    return count


@lru_cache(maxsize=128)
def _transform_factors(span: float, num: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The scale (span / num) / sqrt(2 pi) and np.fft's 1 / num of a
    transform of num points over span, as read-only 0-d arrays in the
    precision np.fft gives input of dtype (float64 for double and integer
    input), so the gufunc runs the loop that a Python float would select."""
    real = np.result_type(np.empty(0, dtype).real.dtype, 1.0)
    factors = np.array((span / num) / SQRT_2PI, real), np.array(1.0 / num, real)
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _new_out(values: np.ndarray, axis: int, num_out: int, real: bool = False) -> np.ndarray:
    """np.fft's result array for a transform of values to num_out points
    along axis: real with real, else complex."""
    shape = list(values.shape)
    shape[axis] = num_out
    dtype = np.result_type(values.real.dtype, 1.0) if real else np.result_type(values.dtype, 1j)
    return np.empty_like(values, shape=tuple(shape), dtype=dtype)


def dft_axis(values: np.ndarray, span: float, axis: int = -1,
             real: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized forward DFT along one axis of samples spaced span / num apart.

    The gufunc of np.fft.fft, or with real of np.fft.rfft, with the scale
    (span / num) / sqrt(2 pi) as its factor, which scales each real and
    imaginary part once, so an exact zero keeps its sign: with real, real
    samples on an even-sized axis map to the modes 0 ... num/2, on the same
    scale as the complex modes.  The scale is the cached 0-d array of
    :func:`_transform_factors`, not a Python float that the gufunc would
    convert on every call (NEP 50).  With out, a complex array of the
    result's shape, the coefficients are written there and out is returned;
    an out of another shape raises ValueError, as in np.fft."""
    values = np.asarray(values)
    num = values.shape[axis]
    scale, _ = _transform_factors(span, num, values.dtype)
    if real:
        if num % 2:
            raise ValueError(f"a real transform needs an even axis, got {num} points")
        gufunc, num_out = _pocketfft.rfft_n_even, num // 2 + 1
    else:
        gufunc, num_out = _pocketfft.fft, num
    if out is None:
        out = _new_out(values, axis, num_out)
    elif out.ndim != values.ndim or out.shape[axis] != num_out:
        raise ValueError("output array has wrong shape.")
    if axis == -1 or axis == values.ndim - 1:
        return gufunc(values, scale, out=(out,))
    return gufunc(values, scale, axes=[(axis,), (), (axis,)], out=(out,))


def idft_axis(coeffs: np.ndarray, span: float, axis: int = -1,
              real: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`dft_axis`: the gufunc of np.fft.ifft, complex
    samples, or with real of np.fft.irfft, real samples on 2 (n - 1) points
    from the modes 0 ... n - 1 of the axis; np.fft's factor 1 / num either
    way, then a division by the scale.  Both are the cached 0-d arrays of
    :func:`_transform_factors`, as in :func:`dft_axis`.  With out, an array
    of the result's shape and dtype, the samples are written there and out
    is returned; an out of another shape raises ValueError, as in np.fft."""
    coeffs = np.asarray(coeffs)
    num = 2 * (coeffs.shape[axis] - 1) if real else coeffs.shape[axis]
    scale, inv_num = _transform_factors(span, num, coeffs.dtype)
    gufunc = _pocketfft.irfft if real else _pocketfft.ifft
    if out is None:
        out = _new_out(coeffs, axis, num, real)
    elif out.ndim != coeffs.ndim or out.shape[axis] != num:
        raise ValueError("output array has wrong shape.")
    if axis == -1 or axis == coeffs.ndim - 1:
        samples = gufunc(coeffs, inv_num, out=(out,))
    else:
        samples = gufunc(coeffs, inv_num, axes=[(axis,), (), (axis,)], out=(out,))
    samples /= scale
    return samples


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid: num_points nodes on [-half_length, half_length)."""

    half_length: float
    num_points: int

    def __post_init__(self):
        if not (self.half_length > 0.0 and np.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        if self.num_points < 4 or self.num_points % 2 != 0:
            raise ValueError(f"num_points must be even and >= 4, got {self.num_points}")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.num_points

    @cached_property
    def dzeta(self) -> float:
        return np.pi / self.half_length

    @cached_property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.num_points)

    @cached_property
    def zeta(self) -> np.ndarray:
        """Full-spectrum wavenumbers (the space-time x axis); non-negative ones ascend."""
        return self.dzeta * np.fft.ifftshift(np.arange(self.num_points) - self.num_points // 2)

    @cached_property
    def rzeta(self) -> np.ndarray:
        """Wavenumber of each half-spectrum entry, modes 0 ... N/2."""
        return self.dzeta * np.arange(self.num_points // 2 + 1)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Modes each half-spectrum entry stands for (:func:`half_multiplicity`)."""
        return half_multiplicity(self.num_points)

    @property
    def nyquist_index(self) -> int:
        # the lone unpaired mode: +N/2, the last half-spectrum entry, and
        # -N/2 in the middle of a full spectrum
        return self.num_points // 2

    @property
    def zeta_max(self) -> float:
        return self.dzeta * (self.num_points // 2 - 1)

    def dft(self, values: np.ndarray, real: bool = False) -> np.ndarray:
        """x-transform along the last axis; any length, padded too, spans [-L, L)."""
        return dft_axis(values, 2.0 * self.half_length, real=real)

    def idft(self, coeffs: np.ndarray, real: bool = False) -> np.ndarray:
        """Inverse of :meth:`dft`; complex samples with no reality check, or
        with real, real samples from the modes 0 ... num/2."""
        return idft_axis(coeffs, 2.0 * self.half_length, real=real)

    def derivative_symbol(self, order: int) -> np.ndarray:
        """Multiplier (i zeta)^order of d^order/dx^order over the
        half-spectrum; zero on the unpaired Nyquist mode for odd order, which
        has no odd derivative."""
        mult = (1j * self.rzeta) ** order
        if order % 2 == 1:
            mult[self.nyquist_index] = 0.0
        return mult


def forward_transform(samples: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Real sample rows (..., N) on grid -> half-spectra (..., N/2 + 1), row
    by row; rejects a last axis other than N and non-finite input."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-1:] != (grid.num_points,):
        raise ValueError(
            f"samples shape {samples.shape} does not match grid (..., {grid.num_points})"
        )
    if not np.all(np.isfinite(samples)):
        raise NonFiniteDataError("forward_transform: non-finite samples")
    return grid.dft(samples, real=True)


def check_coeffs(coeffs: np.ndarray, grid: SpectralGrid, what: str) -> None:
    """Raise ValueError naming the grid unless coeffs are half-spectrum rows
    (..., N/2 + 1) of grid, and NonFiniteDataError if any is non-finite."""
    modes = grid.num_points // 2 + 1
    if np.shape(coeffs)[-1:] != (modes,):
        raise ValueError(f"{what} shape {np.shape(coeffs)} does not match grid (..., {modes})")
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteDataError(f"{what}: non-finite values")


def inverse_transform(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Half-spectrum rows (..., N/2 + 1) on grid -> real samples (..., N), row
    by row; rejects a last axis other than N/2 + 1 and non-finite input."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    check_coeffs(coeffs, grid, "inverse_transform: coeffs")
    return grid.idft(coeffs, real=True)


def padded_points(num: int, count: int) -> int:
    """Padded grid size that makes a count-fold product of num-point fields
    alias-free: ratio (count + 1) / 2, rounded up to an even size."""
    num_padded = int(np.ceil(0.5 * (count + 1) * num))
    return num_padded + (num_padded % 2)


# the Nyquist halving of PaddedBand.write: a 0-d complex operand, which the
# complex multiply takes as it is, where a Python 0.5 is converted per call
_HALF = np.array(0.5 + 0.0j)
_HALF.flags.writeable = False


class PaddedBand:
    """grid's band, the modes 0 ... N/2, of a complex padded half-spectrum
    spectrum (..., M/2 + 1) with M >= N, as views made once: a buffer that
    is padded and cut again and again keeps one of these."""

    def __init__(self, spectrum: np.ndarray, grid: SpectralGrid):
        half = grid.num_points // 2
        self.spectrum = spectrum
        self.band = spectrum[..., : half + 1]
        self._tail = spectrum[..., half + 1:]
        self._nyquist = spectrum[..., half]
        self._wider = spectrum.shape[-1] > half + 1

    def write(self, coeffs: np.ndarray) -> np.ndarray:
        """Write grid's half-spectrum rows coeffs (..., N/2 + 1) into the
        band and zero the rest of the spectrum; returns the spectrum.  Any
        stack of rows, the pair of the RHS too, goes in one call."""
        self.band[...] = coeffs
        self._tail.fill(0)
        if self._wider:
            # on a wider grid the Nyquist entry stands for the two modes
            # +-N/2, so +N/2 keeps half of it
            np.multiply(self._nyquist, _HALF, out=self._nyquist)
        return self.spectrum

    def cut(self) -> np.ndarray:
        """The band, with its Nyquist entry set to zero in place, since that
        one entry cannot hold both of the padded modes +-N/2."""
        self._nyquist.fill(0)
        return self.band


def padded_samples(coeffs: np.ndarray, grid: SpectralGrid, num_padded: int) -> np.ndarray:
    """Real samples of grid's half-spectrum rows on num_padded points over [-L, L)."""
    num = grid.num_points
    if num_padded < num or num_padded % 2 != 0:
        raise ValueError(f"num_padded must be even and >= {num}, got {num_padded}")
    spectrum = np.empty(coeffs.shape[:-1] + (num_padded // 2 + 1,), dtype=np.complex128)
    return grid.idft(PaddedBand(spectrum, grid).write(coeffs), real=True)


def truncated_coeffs(samples: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Half-spectrum, cut back to grid's band (:meth:`PaddedBand.cut`), of
    real sample rows on a padded grid."""
    return PaddedBand(grid.dft(samples, real=True), grid).cut()


def dealiased_product(factors: Collection[np.ndarray], grid: SpectralGrid) -> np.ndarray:
    """Real samples (..., N) of the pointwise product of the fields whose
    half-spectra (..., N/2 + 1) on grid are factors, dealiased by
    zero-padding; leading axes are independent rows.  Each factor is read
    once, in order, and dropped once padded, so factors made as they are
    read are alive one at a time.

    The result equals the exact truncated spectral convolution whenever the
    true product bandwidth stays below the Nyquist mode of the grid.
    """
    if len(factors) == 0:
        raise ValueError("dealiased_product: need at least one factor")
    num_padded = padded_points(grid.num_points, len(factors))

    def padded(coeffs: np.ndarray) -> np.ndarray:
        check_coeffs(coeffs, grid, "dealiased_product: factor")
        return padded_samples(coeffs, grid, num_padded)

    prod = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        for vals in map(padded, factors):  # map holds no factor past its padding
            prod = vals if prod is None else prod * vals
        coeffs = truncated_coeffs(prod, grid)
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteDataError("dealiased product: the product overflows")
    return grid.idft(coeffs, real=True)
