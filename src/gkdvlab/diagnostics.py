"""Observables computed on simulation states and trajectories: conserved
quantities, spectral-decay radius estimation, decay-law fitting, and
numerical continuation of a field off the real axis.

A pair (u, v) is one Field whose samples are (2, N), u first, as in the
evolution module; a trajectory record keeps one such (2, N) snapshot per
record time.

The radius estimator reads the exponential decay rate of |u_hat| by linear
regression of -log|u_hat| against zeta over an automatically chosen window:
above the coefficient noise floor, below the dealiasing band, starting
where the spectrum has settled into monotone decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectral import Field, SpectralGrid, dealiased_product, forward_transform

# fit and warning thresholds; the docstrings that use them give their roles
NOISE_FACTOR = 1e3
DEALIAS_FRAC = 2.0 / 3.0
MONOTONE_RUN = 8
MIN_FIT_POINTS = 8
STDERR_FACTOR = 3.0
ANALYTICITY_MARGIN = 0.05


@dataclass(frozen=True)
class InvariantSet:
    """The four conserved functionals of the coupled system."""

    mass_u: float
    mass_v: float
    l2: float
    hamiltonian: float


def invariants(pair: Field, p: int) -> InvariantSet:
    """Masses, combined L^2 energy, and the Hamiltonian
    1/2 (||u_x||^2 + ||v_x||^2) - (p+1)^{-1} integral(u^{p+1} v^{p+1}) of the
    pair, samples (2, N)."""
    if pair.samples.shape[:-1] != (2,):
        raise ValueError("invariants take one pair of fields (2, N), not stacked rows")
    g = pair.grid
    u, v = pair.samples
    mass_u = float(np.sum(u) * g.dx)
    mass_v = float(np.sum(v) * g.dx)
    l2 = 0.5 * float(np.sum(u**2 + v**2) * g.dx)
    cu, cv = forward_transform(pair.samples, g)
    # a sum over every mode: each half-spectrum entry counts with its multiplicity
    grad = float(
        np.sum(g.multiplicity * g.rzeta**2 * (np.abs(cu) ** 2 + np.abs(cv) ** 2)) * g.dzeta
    )
    coupling = dealiased_product([u] * (p + 1) + [v] * (p + 1), g)
    mixed = float(np.sum(coupling) * g.dx)
    return InvariantSet(mass_u, mass_v, l2, 0.5 * grad - mixed / (p + 1))


@dataclass(frozen=True)
class RadiusEstimate:
    """Fitted exponential decay rate of the spectrum, with fit metadata."""

    rho: float
    zeta_lo: float
    zeta_hi: float
    r_squared: float
    slope_stderr: float
    num_points: int
    noise_floor_hit: bool

    @staticmethod
    def floor_hit() -> "RadiusEstimate":
        return RadiusEstimate(np.nan, np.nan, np.nan, np.nan, np.nan, 0, True)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least squares y ~ a + slope x; returns slope, intercept, R^2, stderr."""
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(ssr / dof / sxx))
    return slope, intercept, r_squared, stderr


def _first_run(mask: np.ndarray, run: int) -> int | None:
    """First index i with mask[i : i + run] all True, or None."""
    total = np.concatenate(([0], np.cumsum(mask)))
    hits = np.flatnonzero(total[run:] - total[:-run] == run)
    return int(hits[0]) if hits.size else None


def estimate_radius(coeffs: np.ndarray, grid: SpectralGrid) -> RadiusEstimate:
    """Fit -log|u_hat(zeta)| ~ rho * zeta to one half-spectrum coeffs,
    shape (N/2 + 1,), of grid; stacked rows or another length raise
    ValueError.

    The window keeps coefficients above NOISE_FACTOR (1e3) times the noise
    floor (median magnitude over the top 10% of zeta), below DEALIAS_FRAC
    (2/3) of the grid's maximum wavenumber, and starts at the first run of
    MONOTONE_RUN (8) strictly decreasing magnitudes.  Fewer than
    MIN_FIT_POINTS (8) usable points flags the noise floor instead of
    fitting.
    """
    if np.shape(coeffs) != (grid.nyquist_index + 1,):
        raise ValueError(f"estimate_radius fits one half-spectrum ({grid.nyquist_index + 1},), "
                         f"not stacked rows or another length: {np.shape(coeffs)}")
    # the modes 1 ... N/2 - 1; the unpaired Nyquist mode stays out
    amp = np.abs(coeffs[1 : grid.nyquist_index])
    zeta = grid.rzeta[1 : grid.nyquist_index]
    if amp.size < MIN_FIT_POINTS or not np.any(amp > 0):
        return RadiusEstimate.floor_hit()

    floor = float(np.median(amp[zeta >= 0.9 * zeta[-1]]))
    threshold = NOISE_FACTOR * floor
    usable = (amp > threshold) & (zeta <= DEALIAS_FRAC * grid.zeta_max) & (amp > 0.0)

    lo = _first_run(amp[1:] < amp[:-1], MONOTONE_RUN - 1)
    if lo is None:
        return RadiusEstimate.floor_hit()
    usable[:lo] = False
    sel = np.nonzero(usable)[0]
    if sel.size < MIN_FIT_POINTS:
        return RadiusEstimate.floor_hit()
    x = zeta[sel]
    y = -np.log(amp[sel])
    slope, _, r_squared, stderr = _linear_fit(x, y)
    return RadiusEstimate(
        rho=slope,
        zeta_lo=float(x[0]),
        zeta_hi=float(x[-1]),
        r_squared=r_squared,
        slope_stderr=stderr,
        num_points=int(sel.size),
        noise_floor_hit=False,
    )


def joint_radius(ru: RadiusEstimate, rv: RadiusEstimate) -> RadiusEstimate:
    """Componentwise worst case: the smaller fitted radius, flagged if
    either side sits on the noise floor."""
    if ru.noise_floor_hit or rv.noise_floor_hit:
        return RadiusEstimate.floor_hit()
    return ru if ru.rho <= rv.rho else rv


@dataclass
class TrajectoryRecord:
    """Snapshots of one simulation at its record times, one (2, N) array of
    samples each (u in row 0, v in row 1); the diagnostics are computed from
    them on request."""

    grid: SpectralGrid
    p: int
    times: list[float] = dc_field(default_factory=list)
    snapshots: list[np.ndarray] = dc_field(default_factory=list)
    blow_up: bool = False

    def record(self, t: float, samples: np.ndarray) -> None:
        """Append time t and the (2, N) samples of the pair, kept as given."""
        self.times.append(float(t))
        self.snapshots.append(samples)

    def __len__(self) -> int:
        return len(self.times)

    def samples(self) -> np.ndarray:
        """Every snapshot, pair-first: (2, records, N), like
        PicardResult.samples()."""
        return np.stack(self.snapshots, axis=1)

    def invariant_sets(self) -> list[InvariantSet]:
        """Conserved functionals at each record time."""
        return [invariants(Field(self.grid, snap), self.p) for snap in self.snapshots]

    def radii(self) -> tuple[list[RadiusEstimate], list[RadiusEstimate]]:
        """Fitted radius of u and of v at each record time; one transform."""
        coeffs = forward_transform(self.samples(), self.grid)
        return tuple([estimate_radius(row, self.grid) for row in rows] for rows in coeffs)


def track_radius(record: TrajectoryRecord) -> tuple[np.ndarray, list[RadiusEstimate]]:
    """Joint (min over components) radius estimate at each record time."""
    joints = [joint_radius(ru, rv) for ru, rv in zip(*record.radii())]
    return np.asarray(record.times), joints


def radius_nonincreasing(estimates: list[RadiusEstimate]) -> tuple[bool, float]:
    """True when no step increases the radius by more than STDERR_FACTOR
    (3) times the larger of the adjacent regression standard errors.
    Returns the worst normalized increase as evidence either way."""
    worst = 0.0
    for a, b in zip(estimates[:-1], estimates[1:]):
        if a.noise_floor_hit or b.noise_floor_hit:
            continue
        allowed = STDERR_FACTOR * max(a.slope_stderr, b.slope_stderr)
        rise = b.rho - a.rho
        # exact fits (zero stderr) allow no rise; a fall or a tie scores 0
        excess = rise / allowed if allowed > 0 else (np.inf if rise > 0 else 0.0)
        worst = max(worst, excess)
    return worst <= 1.0, worst


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit rho(t) ~ K t^(-alpha) over t >= t_min."""

    t_min: float
    k_fit: float
    alpha_fit: float
    r_squared: float
    num_points: int


def fit_decay_exponent(times: np.ndarray, rhos: np.ndarray, t_min: float) -> DecayFit:
    """Log-log regression of the radius series against time; needs
    MIN_FIT_POINTS usable points at t >= t_min."""
    times = np.asarray(times, dtype=float)
    rhos = np.asarray(rhos, dtype=float)
    keep = (times >= t_min) & np.isfinite(rhos) & (rhos > 0) & (times > 0)
    if int(keep.sum()) < MIN_FIT_POINTS:
        raise ValueError(
            f"decay fit needs >= {MIN_FIT_POINTS} usable points at t >= {t_min}, "
            f"got {int(keep.sum())}"
        )
    x = np.log(times[keep])
    y = np.log(rhos[keep])
    slope, intercept, r_squared, _ = _linear_fit(x, y)
    return DecayFit(
        t_min=t_min,
        k_fit=float(np.exp(intercept)),
        alpha_fit=-slope,
        r_squared=r_squared,
        num_points=int(keep.sum()),
    )


class AnalyticityMarginWarning(UserWarning):
    """Continuation requested at or beyond the estimated analyticity radius."""


def evaluate_analytic_extension(
    f: Field,
    y: float,
    order: int = 0,
    band_limit: float | None = None,
) -> Field:
    """|d^order/dx^order f(x + i y)| via the multiplier (i zeta)^order
    e^{-y zeta} on the half-spectrum c of f: e^{-y zeta} = cosh(y zeta) -
    sinh(y zeta), so irfft(c cosh(y zeta)) is the real part and
    irfft(i c sinh(y zeta)) the imaginary part.  Warns when |y| reaches the
    fitted radius minus ANALYTICITY_MARGIN (0.05); values there are
    dominated by the spectral tail and untrustworthy.

    e^{|y| zeta} amplifies the coefficient roundoff floor into garbage, so
    for y != 0 the spectrum is cut where it settles onto the floor (first
    run of 8 bins within 10x the floor level) and floor-level bins inside
    the kept band are dropped.  The automatic cut assumes a dense decaying
    spectrum; pass band_limit explicitly for sparse (few-mode) fields.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    g = f.grid
    c = forward_transform(f.samples, g)
    est = estimate_radius(c, g)
    if not est.noise_floor_hit and abs(y) >= est.rho - ANALYTICITY_MARGIN:
        warnings.warn(
            f"|y| = {abs(y):.4g} is within {ANALYTICITY_MARGIN} of the fitted radius "
            f"{est.rho:.4g}; extension values are tail-dominated",
            AnalyticityMarginWarning,
            stacklevel=2,
        )
    if band_limit is not None:
        c[g.rzeta > band_limit] = 0.0
    elif y != 0.0:
        amp = np.abs(c)
        floor = float(np.median(amp[g.rzeta >= 0.9 * g.zeta_max]))
        threshold = 10.0 * floor
        lo = _first_run(amp[: g.nyquist_index] <= threshold, 8)
        cut = g.zeta_max if lo is None else g.rzeta[lo]
        if threshold > 0.0:
            # never keep bins where amplified floor junk could outgrow the
            # leading coefficients (box-truncation tails live up there);
            # the 256 budgets constructive alignment across the kept band
            cut = min(cut, np.log(np.max(amp) / (256.0 * threshold)) / abs(y))
        c[(g.rzeta >= cut) | (amp <= threshold)] = 0.0
    kept = g.rzeta[c != 0.0]
    top = float(kept.max()) if kept.size else 0.0
    if abs(y) * (top + 1.0) > 700.0:
        raise OverflowError(
            f"|y| = {abs(y)} overflows e^(|y| zeta) over the kept band "
            f"|zeta| <= {top:.4g}"
        )
    # a zeroed mode keeps exponent 0, so it never meets an overflowing cosh
    yz = np.where(c != 0.0, y * g.rzeta, 0.0)
    c *= g.derivative_symbol(order)
    return Field(g, np.hypot(g.idft(c * np.cosh(yz), real=True),
                             g.idft(1j * c * np.sinh(yz), real=True)))
