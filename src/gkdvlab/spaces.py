"""Weighted-norm machinery: exponential (Gevrey-type) norms in space,
dispersively weighted space-time norms, smooth time cutoffs, and the one
space-time Fourier multiplier of the lab's Strichartz checks.

Real space-time samples live on a rectangle [-L, L) x [t0, t1), uniformly
sampled in both directions, and are treated as biperiodic by the discrete
transforms.  Dual variables: zeta for x, eta for t.  The dispersive weight
is (1 + |eta - zeta^3|)^b, centered on the free-propagation curve
eta = zeta^3, and even under (eta, zeta) -> (-eta, -zeta).  So a sample
keeps the rfft modes eta >= 0 in time, each row counted with its
multiplicity; halving time, not x, gives the unpaired eta-Nyquist row the
same weight as the full spectrum does.  A sample may stack a batch on a
leading member axis; every transform, norm and multiplier here then acts on
each member alone, and gives it the bits it would get on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .spectral import SpectralGrid, check_coeffs, dft_axis, half_multiplicity, idft_axis

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


def _float_or_batch(x) -> float | np.ndarray:
    """One sample's 0-d result as a float; a batch's results as they are."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass
class SpaceTimeSample:
    """Real uniform samples w(t_j, x_i) on [t0, t1) x [-L, L), row per time,
    (M, N); or a batch (members, M, N) of such samples on one window."""

    grid: SpectralGrid
    t0: float
    t1: float
    values: np.ndarray

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        values = np.asarray(self.values)
        if values.dtype.kind == "c" or values.ndim not in (2, 3):
            raise ValueError("values must be a real 2-D array (time rows, grid points), "
                             "or a stack of them on one leading member axis, "
                             f"got {values.dtype} of shape {values.shape}")
        self.values = values.astype(np.float64, copy=False)
        m, n = self.values.shape[-2:]
        if n != self.grid.num_points:
            raise ValueError(f"values have {n} columns, grid has {self.grid.num_points}")
        if m < 8 or m % 2 != 0:
            raise ValueError(f"need an even number >= 8 of time samples, got {m}")

    @property
    def num_times(self) -> int:
        return self.values.shape[-2]

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.num_times

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_times)

    @cached_property
    def eta(self) -> np.ndarray:
        """Frequency of each row of :func:`xt_transform`: the modes 0 ... M/2."""
        return (2.0 * np.pi / (self.t1 - self.t0)) * np.arange(self.num_times // 2 + 1)

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Time modes each eta row stands for (2, or 1 for eta = 0 and eta_N)."""
        return half_multiplicity(self.num_times)

    @property
    def cell(self) -> float:
        """Area dzeta * deta of one cell of the (eta, zeta) coefficient grid."""
        return self.grid.dzeta * (2.0 * np.pi / (self.t1 - self.t0))


def xt_transform(sample: SpaceTimeSample) -> np.ndarray:
    """Coefficients (..., M/2 + 1, N): the rfft half-spectrum in time (rows
    sample.eta), then the full x-transform (columns grid.zeta); like the
    x-transform, the time transform is taken from its window's left edge."""
    ct = dft_axis(sample.values, sample.t1 - sample.t0, axis=-2, real=True)
    return sample.grid.dft(ct)


def xt_inverse(coeffs: np.ndarray, grid: SpectralGrid, t0: float, t1: float) -> np.ndarray:
    """Inverse of :func:`xt_transform`: real (..., M, N) values from
    (..., M/2 + 1, N) coefficients."""
    return idft_axis(grid.idft(coeffs), t1 - t0, axis=-2, real=True)


def xt_modulus(sample: SpaceTimeSample, coeffs: np.ndarray) -> np.ndarray:
    """|coeffs|, the sample's :func:`xt_transform`, with each eta row scaled
    by the square root of its multiplicity, so a sum of squares over it runs
    over every mode."""
    return np.abs(coeffs) * np.sqrt(sample.multiplicity)[:, None]


def l2_rows(values: np.ndarray, cell: float) -> np.ndarray:
    """sqrt(sum values^2 * cell) along the last axis of nonnegative rows; each
    row is divided by its peak first, so squaring cannot overflow."""
    peak = np.max(values, axis=-1, keepdims=True)
    ratio = values / np.where(peak == 0.0, 1.0, peak)
    return peak[..., 0] * np.sqrt(np.sum(ratio * ratio, axis=-1) * cell)


def sample_l2(values: np.ndarray, cell: float) -> float | np.ndarray:
    """l2_rows of each nonnegative (M, N) sample of (..., M, N), flattened on
    its own, so a member's sum is the same in any batch."""
    return _float_or_batch(l2_rows(values.reshape(values.shape[:-2] + (-1,)), cell))


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


def gevrey_norm(coeffs: np.ndarray, grid: SpectralGrid, params: NormParams) -> float | np.ndarray:
    """L^2-based norm with weight e^{rho (1+|zeta|)} (1+|zeta|)^s of each row
    of half-spectra (..., N/2 + 1) on grid, in one pass: a float for one row."""
    check_coeffs(coeffs, grid, "gevrey_norm: coeffs")
    # the L^2 sum runs over every mode: each half-spectrum entry stands for
    # multiplicity modes of its size
    c = np.abs(coeffs) * np.sqrt(grid.multiplicity)
    w = _kernels.gevrey_weight(grid.rzeta, params.rho, params.s)
    return _float_or_batch(l2_rows(_apply_weights(c, w, "gevrey_norm", params), grid.dzeta))


def check_window_support(values: np.ndarray) -> None:
    """Error unless, in each sample (..., M, N), the first and last time rows
    stay within SUPPORT_TOL of the sample's peak; discrete stand-in for
    'supported strictly inside'.  The message names the first failing one."""
    scale = np.ravel(np.max(np.abs(values), axis=(-2, -1)))
    edge = np.ravel(np.max(np.abs(values[..., [0, -1], :]), axis=(-2, -1)))
    bad = edge > SUPPORT_TOL * scale  # false for an all-zero sample
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"sample not supported inside the time window: edge/peak = "
            f"{edge[i] / scale[i]:.3e} > {SUPPORT_TOL:.1e}; widen the window or "
            "shrink the cutoff scale"
        )


def bourgain_norm(
    sample: SpaceTimeSample,
    params: NormParams,
    cutoff: CutoffProfile | None = None,
) -> float | np.ndarray:
    """Space-time norm with weight e^{rho(1+|zeta|)} (1+|zeta|)^s
    (1+|eta - zeta^3|)^b, optionally after multiplying by a time cutoff.
    The unpaired x-Nyquist column takes the RMS of its weights at +-zeta_N,
    so the norm does not depend on which sign labels it.

    The (windowed) sample must vanish at both window edges; the biperiodic
    transform is meaningless otherwise.  A batch builds the weight table once.
    """
    vals = sample.values
    if cutoff is not None:
        vals = vals * np.asarray(cutoff(sample.times))[:, None]
    check_window_support(vals)
    windowed = SpaceTimeSample(sample.grid, sample.t0, sample.t1, vals)
    coeffs = xt_modulus(windowed, xt_transform(windowed))
    # the x-Nyquist column of a real sample stands for the modes -zeta_N and
    # +zeta_N alike, whose dispersive weights differ: weigh it by the RMS of
    # the two, which splits its energy evenly between them
    g = sample.grid
    nyq = g.nyquist_index
    w = _kernels.bourgain_weight(
        np.append(g.zeta, g.dzeta * nyq), windowed.eta, params.rho, params.s, params.b
    )
    with np.errstate(over="ignore"):  # _apply_weights reports an overflow
        w[:, nyq] = np.hypot(w[:, nyq], w[:, -1]) / np.sqrt(2.0)
    weighted = _apply_weights(coeffs, w[:, :-1], "bourgain_norm", params)
    return sample_l2(weighted, windowed.cell)


_ALLOWED_EXPONENTS = (2.0, 4.0, np.inf)


def _axis_lp(values_abs: np.ndarray, exponent: float, cell: float, axis: int) -> np.ndarray:
    if exponent == np.inf:
        return np.max(values_abs, axis=axis)
    rows = np.moveaxis(values_abs, axis, -1)
    if exponent == 2.0:
        return l2_rows(rows, cell)
    # ||w||_4 = ||w^2||_2^(1/2), with w divided by its peak so w^2 cannot overflow
    peak = np.max(rows, axis=-1)
    unit = rows / np.where(peak == 0.0, 1.0, peak)[..., None]
    return peak * np.sqrt(l2_rows(unit * unit, cell))


def mixed_norm(sample: SpaceTimeSample, p_exp: float, q_exp: float) -> float | np.ndarray:
    """L^p_x L^q_t norm: inner integral in t, outer in x; p, q in {2, 4, inf}."""
    p_exp, q_exp = float(p_exp), float(q_exp)
    if p_exp not in _ALLOWED_EXPONENTS or q_exp not in _ALLOWED_EXPONENTS:
        raise ValueError(f"exponents must be in {{2, 4, inf}}, got ({p_exp}, {q_exp})")
    inner = _axis_lp(np.abs(sample.values), q_exp, sample.dt, axis=-2)
    outer = _axis_lp(inner, p_exp, sample.grid.dx, axis=-1)
    return _float_or_batch(outer)


def apply_smoothing_weight(
    sample: SpaceTimeSample, coeffs: np.ndarray, kappa: float, power: float
) -> SpaceTimeSample:
    """Multiplier (1 + |eta - zeta^3|)^(-kappa) (1 + |zeta|)^power applied
    to the sample through coeffs, its :func:`xt_transform`, which is left
    alone; one inverse transform."""
    g = sample.grid
    mult = (_kernels.dispersive_factor(g.zeta, sample.eta) ** (-kappa)
            * (1.0 + np.abs(g.zeta)) ** power)
    out = xt_inverse(coeffs * mult, g, sample.t0, sample.t1)
    return SpaceTimeSample(g, sample.t0, sample.t1, out)
