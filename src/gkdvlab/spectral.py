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
wavenumbers.  A half-spectrum is a plain array beside its grid: each
operation on one takes (array, grid) and checks the array's last axis.  The
grid owns the x-transform (span 2L) as SpectralGrid.dft/idft.

Every transform is one call of a pocketfft gufunc that np.fft itself calls
(numpy.fft._pocketfft_umath, which numpy 2.0, the floor in pyproject.toml,
introduced), with np.fft's normalization factor (1 forward; 1 / num inverse,
which is np.fft's reciprocal(num) in double precision), np.fft's check of
out and np.fft's result dtype: the same bits as np.fft, without the
wrapper's few microseconds of Python per call, which the small transforms
of every time step would otherwise pay.

Derivative and product rules follow standard Fourier pseudospectral
practice (see Trefethen, "Spectral Methods in MATLAB", ch. 3): the grid owns
the derivative symbol (i zeta)^k, zero on the Nyquist mode for odd k, and
products are dealiased by zero-padding wide enough to make the truncated
result an exact spectral convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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

    The gufunc of np.fft.fft, or with real of np.fft.rfft, with np.fft's
    factor 1: with real, real samples on an even-sized axis map to the modes
    0 ... num/2, on the same scale as the complex modes.  With out, a
    complex array of the result's shape, the coefficients are written there
    and out is returned; an out of another shape raises ValueError, as in
    np.fft.
    """
    values = np.asarray(values)
    num = values.shape[axis]
    scale = (span / num) / SQRT_2PI
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
        coeffs = gufunc(values, 1, out=(out,))
    else:
        coeffs = gufunc(values, 1, axes=[(axis,), (), (axis,)], out=(out,))
    return np.multiply(scale, coeffs, out=coeffs)


def idft_axis(coeffs: np.ndarray, span: float, axis: int = -1,
              real: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`dft_axis`: the gufunc of np.fft.ifft, complex
    samples, or with real of np.fft.irfft, real samples on 2 (n - 1) points
    from the modes 0 ... n - 1 of the axis; np.fft's factor 1 / num either
    way.  With out, an array of the result's shape and dtype, the samples
    are written there and out is returned; an out of another shape raises
    ValueError, as in np.fft."""
    coeffs = np.asarray(coeffs)
    num = 2 * (coeffs.shape[axis] - 1) if real else coeffs.shape[axis]
    scale = (span / num) / SQRT_2PI
    gufunc = _pocketfft.irfft if real else _pocketfft.ifft
    if out is None:
        out = _new_out(coeffs, axis, num, real)
    elif out.ndim != coeffs.ndim or out.shape[axis] != num:
        raise ValueError("output array has wrong shape.")
    if axis == -1 or axis == coeffs.ndim - 1:
        samples = gufunc(coeffs, 1.0 / num, out=(out,))
    else:
        samples = gufunc(coeffs, 1.0 / num, axes=[(axis,), (), (axis,)], out=(out,))
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

    def dft(self, values: np.ndarray, axis: int = -1, real: bool = False) -> np.ndarray:
        """x-transform along axis; any length, padded too, spans [-L, L)."""
        return dft_axis(values, 2.0 * self.half_length, axis, real)

    def idft(self, coeffs: np.ndarray, axis: int = -1, real: bool = False) -> np.ndarray:
        """Inverse of :meth:`dft`; complex samples with no reality check, or
        with real, real samples from the modes 0 ... num/2."""
        return idft_axis(coeffs, 2.0 * self.half_length, axis, real)

    def derivative_symbol(self, order: int) -> np.ndarray:
        """Multiplier (i zeta)^order of d^order/dx^order over the
        half-spectrum; zero on the unpaired Nyquist mode for odd order, which
        has no odd derivative."""
        mult = (1j * self.rzeta) ** order
        if order % 2 == 1:
            mult[self.nyquist_index] = 0.0
        return mult


@dataclass
class Field:
    """Real-valued samples on a SpectralGrid: one row (N,), or rows (..., N)
    on leading axes where a function says it takes them."""

    grid: SpectralGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape[-1:] != (self.grid.num_points,):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"(..., {self.grid.num_points})"
            )


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


def inverse_transform(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Half-spectrum rows (..., N/2 + 1) on grid -> real samples (..., N), row
    by row; rejects a last axis other than N/2 + 1 and non-finite input."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    modes = grid.num_points // 2 + 1
    if coeffs.shape[-1:] != (modes,):
        raise ValueError(f"coeffs shape {coeffs.shape} does not match grid (..., {modes})")
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteDataError("inverse_transform: non-finite coefficients")
    return grid.idft(coeffs, real=True)


def padded_points(num: int, count: int) -> int:
    """Padded grid size that makes a count-fold product of num-point fields
    alias-free: ratio (count + 1) / 2, rounded up to an even size."""
    num_padded = int(np.ceil(0.5 * (count + 1) * num))
    return num_padded + (num_padded % 2)


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
        self._tail[...] = 0.0
        if self._wider:
            # on a wider grid the Nyquist entry stands for the two modes
            # +-N/2, so +N/2 keeps half of it
            self._nyquist *= 0.5
        return self.spectrum

    def cut(self) -> np.ndarray:
        """The band, with its Nyquist entry set to zero in place, since that
        one entry cannot hold both of the padded modes +-N/2."""
        self._nyquist[...] = 0.0
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


def dealiased_product(factors: Sequence[np.ndarray], grid: SpectralGrid) -> np.ndarray:
    """Pointwise product of real sample arrays (..., N) on grid, dealiased by
    zero-padding; leading axes are independent rows.

    The result equals the exact truncated spectral convolution whenever the
    true product bandwidth stays below the Nyquist mode of the grid.
    """
    if len(factors) == 0:
        raise ValueError("dealiased_product: need at least one factor")
    num_padded = padded_points(grid.num_points, len(factors))
    prod = last = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        for samples in factors:
            if samples is not last:  # a factor repeated in a row is padded once
                last = samples
                vals = padded_samples(forward_transform(samples, grid), grid, num_padded)
            prod = vals if prod is None else prod * vals
        coeffs = truncated_coeffs(prod, grid)
    if not np.all(np.isfinite(coeffs)):
        raise NonFiniteDataError("dealiased product: the product overflows")
    return grid.idft(coeffs, real=True)
