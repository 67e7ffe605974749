"""Weighted-norm machinery: exponential (Gevrey-type) norms in space,
dispersively weighted space-time norms, smooth time cutoffs, and the
Fourier-multiplier operators the estimate lab drives.

Space-time samples live on a rectangle [-L, L) x [t0, t1), uniformly
sampled in both directions, and are treated as biperiodic by the discrete
transforms.  Dual variables: zeta for x, eta for t.  The dispersive weight
is (1 + |eta - zeta^3|)^b, centered on the free-propagation curve
eta = zeta^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .spectral import (
    Field,
    SpectralGrid,
    axis_freqs,
    dft_axis,
    forward_transform,
    idft_axis,
)

SUPPORT_TOL = 1e-8  # edge rows / peak; see check_window_support


@dataclass(frozen=True)
class NormParams:
    """Exponential rate rho >= 0, regularity s, dispersive exponent b."""

    rho: float
    s: float
    b: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not (-1.0 <= self.b <= 1.0):
            raise ValueError(f"b must lie in [-1, 1], got {self.b}")


def bump(t: np.ndarray | float) -> np.ndarray | float:
    """Smooth cutoff: 1 on [-1, 1], 0 outside (-2, 2), C^infinity bridge
    exp(1 - 1/(1 - (|t| - 1)^2)) in between."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.zeros_like(a)
    out[a <= 1.0] = 1.0
    mid = (a > 1.0) & (a < 2.0)
    r = a[mid] - 1.0
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - r * r))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CutoffProfile:
    """Rescaled cutoff psi(t / scale): 1 on [-scale, scale], 0 beyond 2*scale."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        return bump(np.asarray(t, dtype=np.float64) / self.scale)


@dataclass
class SpaceTimeSample:
    """Uniform samples w(t_j, x_i) on [t0, t1) x [-L, L), row per time."""

    grid: SpectralGrid
    t0: float
    t1: float
    values: np.ndarray

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        self.values = np.asarray(self.values)
        if self.values.dtype.kind not in "fc":
            self.values = self.values.astype(np.float64)
        m, n = self.values.shape
        if n != self.grid.num_points:
            raise ValueError(f"values have {n} columns, grid has {self.grid.num_points}")
        if m < 8 or m % 2 != 0:
            raise ValueError(f"need an even number >= 8 of time samples, got {m}")

    @property
    def num_times(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.num_times

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_times)

    @cached_property
    def eta(self) -> np.ndarray:
        return axis_freqs(self.num_times, self.t1 - self.t0)


def xt_transform(sample: SpaceTimeSample) -> np.ndarray:
    """Two-dimensional coefficients, eta along axis 0, zeta along axis 1."""
    g = sample.grid
    cx = dft_axis(sample.values, 2.0 * g.half_length, -g.half_length, axis=1)
    return dft_axis(cx, sample.t1 - sample.t0, sample.t0, axis=0)


def xt_inverse(
    coeffs: np.ndarray, grid: SpectralGrid, t0: float, t1: float
) -> np.ndarray:
    """Inverse of :func:`xt_transform`; complex (num_times, num_points) values."""
    vx = idft_axis(coeffs, t1 - t0, t0, axis=0)
    return idft_axis(vx, 2.0 * grid.half_length, -grid.half_length, axis=1)


def gevrey_weights(zeta: np.ndarray, rho: float, s: float) -> np.ndarray:
    az = 1.0 + np.abs(zeta)
    with np.errstate(over="ignore"):
        return np.exp(rho * az) * az**s


def _safe_weighted_l2(weighted: np.ndarray, cell: float) -> float:
    # scale out the max so squaring cannot overflow
    peak = float(np.max(weighted)) if weighted.size else 0.0
    if peak == 0.0:
        return 0.0
    ratio = weighted / peak
    return peak * float(np.sqrt(np.sum(ratio * ratio) * cell))


def _apply_weights(
    coeffs_abs: np.ndarray, weights: np.ndarray, what: str, params: NormParams
) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.where(coeffs_abs > 0.0, weights * coeffs_abs, 0.0)
    if not np.all(np.isfinite(weighted)):
        raise OverflowError(
            f"{what}: norm weight overflows on the populated spectrum "
            f"(rho = {params.rho:g}, s = {params.s:g}); reduce rho, s or the "
            "grid bandwidth"
        )
    return weighted


def gevrey_norm(field: Field, params: NormParams) -> float:
    """L^2-based norm with weight e^{rho (1+|zeta|)} (1+|zeta|)^s."""
    g = field.grid
    c = np.abs(forward_transform(field).coeffs)
    w = gevrey_weights(g.zeta, params.rho, params.s)
    return _safe_weighted_l2(_apply_weights(c, w, "gevrey_norm", params), g.dzeta)


def sobolev_norm(field: Field, s: float) -> float:
    """H^s norm via the (1+|zeta|)^s weight (rho = 0 exponential norm)."""
    return gevrey_norm(field, NormParams(0.0, s, 0.0))


def gevrey_norm_slices(sample: SpaceTimeSample, params: NormParams) -> np.ndarray:
    """Per-time-slice exponential norms; used for embedding checks."""
    g = sample.grid
    cx = np.abs(dft_axis(sample.values, 2.0 * g.half_length, -g.half_length, axis=1))
    w = gevrey_weights(g.zeta, params.rho, params.s)[None, :]
    weighted = _apply_weights(cx, w, "gevrey_norm_slices", params)
    return np.array([_safe_weighted_l2(row, g.dzeta) for row in weighted])


def check_window_support(values: np.ndarray) -> None:
    """Error unless the first and last time rows stay within SUPPORT_TOL of
    the sample peak; discrete stand-in for 'supported strictly inside'."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return
    edge = max(float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))))
    if edge > SUPPORT_TOL * scale:
        raise ValueError(
            f"sample not supported inside the time window: edge/peak = "
            f"{edge / scale:.3e} > {SUPPORT_TOL:.1e}; widen the window or "
            "shrink the cutoff scale"
        )


def bourgain_norm(
    sample: SpaceTimeSample,
    params: NormParams,
    cutoff: CutoffProfile | None = None,
) -> float:
    """Space-time norm with weight e^{rho(1+|zeta|)} (1+|zeta|)^s
    (1+|eta - zeta^3|)^b, optionally after multiplying by a time cutoff.

    The (windowed) sample must vanish at both window edges; the biperiodic
    transform is meaningless otherwise.
    """
    vals = sample.values
    if cutoff is not None:
        vals = vals * np.asarray(cutoff(sample.times))[:, None]
    check_window_support(vals)
    windowed = SpaceTimeSample(sample.grid, sample.t0, sample.t1, vals)
    coeffs = np.abs(xt_transform(windowed))
    w = _kernels.bourgain_weight(
        sample.grid.zeta, windowed.eta, params.rho, params.s, params.b
    )
    cell = sample.grid.dzeta * (2.0 * np.pi / (sample.t1 - sample.t0))
    return _safe_weighted_l2(_apply_weights(coeffs, w, "bourgain_norm", params), cell)


def weighted_l2_2d(
    coeffs: np.ndarray,
    grid: SpectralGrid,
    eta: np.ndarray,
    span: float,
    params: NormParams,
) -> float:
    """Bourgain-weighted L^2 of raw 2D coefficients (lab-side fast path)."""
    w = _kernels.bourgain_weight(grid.zeta, eta, params.rho, params.s, params.b)
    cell = grid.dzeta * (2.0 * np.pi / span)
    return _safe_weighted_l2(_apply_weights(np.abs(coeffs), w, "weighted_l2_2d", params), cell)


_ALLOWED_EXPONENTS = (2.0, 4.0, np.inf)


def _axis_lp(values_abs: np.ndarray, exponent: float, cell: float, axis: int) -> np.ndarray:
    if exponent == np.inf:
        return np.max(values_abs, axis=axis)
    if exponent == 2.0:
        return np.sqrt(np.sum(values_abs**2, axis=axis) * cell)
    return (np.sum(values_abs**4, axis=axis) * cell) ** 0.25


def mixed_norm(sample: SpaceTimeSample, p_exp: float, q_exp: float) -> float:
    """L^p_x L^q_t norm: inner integral in t, outer in x; p, q in {2, 4, inf}."""
    p_exp, q_exp = float(p_exp), float(q_exp)
    if p_exp not in _ALLOWED_EXPONENTS or q_exp not in _ALLOWED_EXPONENTS:
        raise ValueError(f"exponents must be in {{2, 4, inf}}, got ({p_exp}, {q_exp})")
    inner = _axis_lp(np.abs(sample.values), q_exp, sample.dt, axis=0)
    outer = _axis_lp(inner, p_exp, sample.grid.dx, axis=0)
    return float(outer)


def _multiplier_apply(sample: SpaceTimeSample, mult: np.ndarray) -> SpaceTimeSample:
    out = xt_inverse(xt_transform(sample) * mult, sample.grid, sample.t0, sample.t1)
    if np.isrealobj(sample.values):
        out = out.real
    return SpaceTimeSample(sample.grid, sample.t0, sample.t1, out)


def apply_spatial_weight(sample: SpaceTimeSample, power: float) -> SpaceTimeSample:
    """Multiplier (1 + |zeta|)^power."""
    mult = (1.0 + np.abs(sample.grid.zeta))[None, :] ** power
    return _multiplier_apply(sample, mult)


def apply_temporal_weight(sample: SpaceTimeSample, power: float) -> SpaceTimeSample:
    """Multiplier (1 + |eta|)^power."""
    mult = (1.0 + np.abs(sample.eta))[:, None] ** power
    return _multiplier_apply(sample, mult)


def apply_dispersive_smoothing(sample: SpaceTimeSample, kappa: float) -> SpaceTimeSample:
    """Multiplier (1 + |eta - zeta^3|)^(-kappa)."""
    mult = dispersive_multiplier(sample.grid.zeta, sample.eta, kappa)
    return _multiplier_apply(sample, mult)


def dispersive_multiplier(zeta: np.ndarray, eta: np.ndarray, kappa: float) -> np.ndarray:
    return (1.0 + np.abs(eta[:, None] - zeta[None, :] ** 3)) ** (-kappa)
