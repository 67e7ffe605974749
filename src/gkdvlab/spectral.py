"""Periodic pseudospectral core on a uniform grid over [-L, L).

Transforms follow the unitary-in-(2 pi) convention: the discrete coefficient
at wavenumber zeta_k = (pi/L) k approximates (2 pi)^{-1/2} integral of
u(x) e^{-i x zeta} dx, so sum |u_j|^2 dx == sum |C_k|^2 dzeta holds exactly
(dzeta = pi/L).  Coefficient arrays are kept in fftshift-natural order,
zeta ascending, with the single unpaired Nyquist entry first.

Derivative and product rules follow standard Fourier pseudospectral
practice (see Trefethen, "Spectral Methods in MATLAB", ch. 3): odd-order
derivatives zero the Nyquist mode, and products are dealiased by
zero-padding wide enough to make the truncated result an exact spectral
convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

SYMMETRY_TOL = 1e-10  # relative conjugate-symmetry deviation a real inverse accepts


def axis_freqs(num: int, span: float) -> np.ndarray:
    """Natural-order frequency grid (2 pi / span) * [-num/2, ..., num/2 - 1]."""
    return (2.0 * np.pi / span) * (np.arange(num) - num // 2)


def _axis_phase(num: int, offset_ratio: float) -> np.ndarray:
    # e^{-i x0 f_m} with x0 = offset_ratio * span / 2; exact +-1 whenever the
    # left edge sits an integer number of half-spans from the origin.
    m = np.arange(num) - num // 2
    if offset_ratio == round(offset_ratio):
        g = int(round(offset_ratio))
        if g % 2 == 0:
            return np.ones(num, dtype=np.complex128)
        return np.where(m % 2 == 0, 1.0 + 0.0j, -1.0 + 0.0j)
    return np.exp(-1j * np.pi * offset_ratio * m)


def _reshape_for(axis: int, ndim: int, vec: np.ndarray) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def dft_axis(values: np.ndarray, span: float, offset: float, axis: int = -1) -> np.ndarray:
    """Normalized forward DFT along one axis of samples on [offset, offset+span)."""
    values = np.asarray(values)
    num = values.shape[axis]
    scale = (span / num) / SQRT_2PI
    raw = np.fft.fftshift(np.fft.fft(values, axis=axis), axes=axis)
    phase = _axis_phase(num, 2.0 * offset / span)
    return scale * _reshape_for(axis, values.ndim, phase) * raw


def idft_axis(coeffs: np.ndarray, span: float, offset: float, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`dft_axis`; returns complex samples."""
    coeffs = np.asarray(coeffs)
    num = coeffs.shape[axis]
    scale = (span / num) / SQRT_2PI
    phase = np.conj(_axis_phase(num, 2.0 * offset / span))
    shifted = np.fft.ifftshift(coeffs * _reshape_for(axis, coeffs.ndim, phase), axes=axis)
    return np.fft.ifft(shifted, axis=axis) / scale


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
        return axis_freqs(self.num_points, 2.0 * self.half_length)

    @property
    def nyquist_index(self) -> int:
        # natural order puts the lone unpaired mode first
        return 0

    @property
    def zeta_max(self) -> float:
        return self.dzeta * (self.num_points // 2 - 1)


@dataclass
class Field:
    """Real-valued samples on a SpectralGrid."""

    grid: SpectralGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (self.grid.num_points,):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"({self.grid.num_points},)"
            )


@dataclass
class SpectralField:
    """Natural-order complex coefficients on a SpectralGrid."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.grid.num_points,):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match grid "
                f"({self.grid.num_points},)"
            )


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project natural-order coefficient rows onto exact conjugate symmetry.

    Real input guarantees this symmetry analytically; the projection strips
    the fft roundoff floor so later odd-power multipliers (which amplify
    high-zeta junk) cannot break the reality check.
    """
    out = np.empty_like(coeffs)
    out[..., 0] = coeffs[..., 0].real
    out[..., 1:] = 0.5 * (coeffs[..., 1:] + np.conj(coeffs[..., :0:-1]))
    return out


def _forward_coeffs(samples: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Real sample rows (..., N) -> symmetrized natural-order coefficients."""
    samples = np.asarray(samples, dtype=np.float64)
    if not np.all(np.isfinite(samples)):
        raise ValueError("forward_transform: non-finite samples")
    return hermitian_symmetrize(dft_axis(samples, 2.0 * grid.half_length, -grid.half_length))


def forward_transform(field: Field) -> SpectralField:
    """Samples -> natural-order coefficients; rejects non-finite input."""
    return SpectralField(field.grid, _forward_coeffs(field.samples, field.grid))


def _asymmetry(coeffs: np.ndarray) -> np.ndarray:
    # per-row relative deviation from conjugate symmetry; a zero row gives 0 / 1
    scale = np.max(np.abs(coeffs), axis=-1)
    paired = np.max(np.abs(coeffs[..., 1:] - np.conj(coeffs[..., :0:-1])), axis=-1)
    worst = np.maximum(paired, np.abs(coeffs[..., 0].imag))  # the lone mode must be real
    return worst / np.where(scale == 0.0, 1.0, scale)


def hermitian_asymmetry(sf: SpectralField) -> float:
    """Relative deviation of coeffs from the conjugate symmetry of a real field."""
    return float(_asymmetry(sf.coeffs))


def _real_samples(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Coefficient rows (..., N) -> real samples; errors if any row breaks
    conjugate symmetry by more than SYMMETRY_TOL (the worst row is quoted)."""
    err = _asymmetry(coeffs)
    broken = err[err > SYMMETRY_TOL]
    if broken.size:
        raise ValueError(
            f"inverse_transform: coefficients break conjugate symmetry "
            f"(relative deviation {broken.max():.3e} > {SYMMETRY_TOL:.1e})"
        )
    return idft_axis(coeffs, 2.0 * grid.half_length, -grid.half_length).real


def inverse_transform(sf: SpectralField) -> Field:
    """Coefficients -> real samples; errors if conjugate symmetry is broken."""
    return Field(sf.grid, _real_samples(sf.coeffs, sf.grid))


def complex_samples(sf: SpectralField) -> np.ndarray:
    """Inverse transform without the reality check; returns complex samples."""
    g = sf.grid
    return idft_axis(sf.coeffs, 2.0 * g.half_length, -g.half_length)


def differentiate(sf: SpectralField, order: int = 1) -> SpectralField:
    """Spectral d^order/dx^order for order in {1, 2, 3}."""
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    mult = (1j * sf.grid.zeta) ** order
    out = sf.coeffs * mult
    if order % 2 == 1:
        out[sf.grid.nyquist_index] = 0.0  # unpaired mode has no odd derivative
    return SpectralField(sf.grid, out)


def mollifier_multiplier(grid: SpectralGrid, n: float) -> np.ndarray:
    """Smooth low-pass symbol: 1 on |zeta| <= n, 0 on |zeta| >= 2n,
    cosine half-wave ramp in between (monotone, C^1)."""
    if not n > 0.0:
        raise ValueError(f"n must be positive, got {n}")
    az = np.abs(grid.zeta)
    ramp = 0.5 * (1.0 + np.cos(np.pi * (az - n) / n))
    return np.where(az <= n, 1.0, np.where(az >= 2.0 * n, 0.0, ramp))


def project_lowpass(sf: SpectralField, n: float) -> SpectralField:
    """Smooth low-pass projection: multiply by :func:`mollifier_multiplier`.

    Not idempotent on the ramp band (the ramp squares), but composing with
    a cutoff-2n projection leaves a cutoff-n projection unchanged.
    """
    return SpectralField(sf.grid, sf.coeffs * mollifier_multiplier(sf.grid, n))


def pad_coeffs(coeffs: np.ndarray, num_padded: int) -> np.ndarray:
    """Embed natural-order coefficients in a wider natural-order band."""
    num = coeffs.shape[-1]
    if num_padded < num or num_padded % 2 != 0:
        raise ValueError(f"num_padded must be even and >= {num}, got {num_padded}")
    shape = coeffs.shape[:-1] + (num_padded,)
    out = np.zeros(shape, dtype=np.complex128)
    lo = (num_padded - num) // 2
    out[..., lo : lo + num] = coeffs
    return out


def truncate_coeffs(coeffs_padded: np.ndarray, num: int) -> np.ndarray:
    """Extract the central band; the band's own Nyquist entry is zeroed
    because its conjugate partner is discarded."""
    num_padded = coeffs_padded.shape[-1]
    lo = (num_padded - num) // 2
    out = np.array(coeffs_padded[..., lo : lo + num])
    out[..., 0] = 0.0
    return out


def padded_points(num: int, count: int) -> int:
    """Padded grid size that makes a count-fold product of num-point fields
    alias-free: ratio (count + 1) / 2, rounded up to an even size."""
    num_padded = int(np.ceil(0.5 * (count + 1) * num))
    return num_padded + (num_padded % 2)


def dealiased_product_rows(factors: Sequence[np.ndarray], grid: SpectralGrid) -> np.ndarray:
    """Pointwise product of real sample arrays (..., N) on grid, dealiased by
    zero-padding; leading axes are independent rows."""
    num = grid.num_points
    num_padded = padded_points(num, len(factors))
    span = 2.0 * grid.half_length
    prod = None
    for samples in factors:
        cpad = pad_coeffs(_forward_coeffs(samples, grid), num_padded)
        vals = idft_axis(cpad, span, -grid.half_length).real
        prod = vals if prod is None else prod * vals
    cprod = dft_axis(prod, span, -grid.half_length)
    return _real_samples(truncate_coeffs(cprod, num), grid)


def dealiased_product(fields: Sequence[Field]) -> Field:
    """Pointwise product of fields, dealiased by zero-padding.

    The result equals the exact truncated spectral convolution whenever the
    true product bandwidth stays below the Nyquist mode of the original grid.
    """
    if len(fields) == 0:
        raise ValueError("dealiased_product: need at least one field")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("dealiased_product: fields live on different grids")
    return Field(grid, dealiased_product_rows([f.samples for f in fields], grid))
