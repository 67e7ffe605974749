"""Observables computed on simulation states and trajectories: conserved
quantities, spectral-decay radius estimation, decay-law fitting, and
numerical continuation of a field off the real axis.

The radius estimator reads the exponential decay rate of |u_hat| by linear
regression of -log|u_hat| against zeta over an automatically chosen window:
above the coefficient noise floor, below the dealiasing band, starting
where the spectrum has settled into monotone decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from .spectral import (
    Field,
    SpectralField,
    SpectralGrid,
    complex_samples,
    dealiased_product,
    forward_transform,
)

if TYPE_CHECKING:  # pragma: no cover
    from .evolution import CoupledState

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


def invariants(state: "CoupledState", p: int) -> InvariantSet:
    """Masses, combined L^2 energy, and the Hamiltonian
    1/2 (||u_x||^2 + ||v_x||^2) - (p+1)^{-1} integral(u^{p+1} v^{p+1})."""
    u, v = state.u, state.v
    g = u.grid
    mass_u = float(np.sum(u.samples) * g.dx)
    mass_v = float(np.sum(v.samples) * g.dx)
    l2 = 0.5 * float(np.sum(u.samples**2 + v.samples**2) * g.dx)
    cu = forward_transform(u).coeffs
    cv = forward_transform(v).coeffs
    grad = float(
        np.sum(g.zeta**2 * (np.abs(cu) ** 2 + np.abs(cv) ** 2)) * g.dzeta
    )
    coupling = dealiased_product([u] * (p + 1) + [v] * (p + 1))
    mixed = float(np.sum(coupling.samples) * g.dx)
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


def estimate_radius(f: Field | SpectralField) -> RadiusEstimate:
    """Fit -log|u_hat(zeta)| ~ rho * zeta on the positive-zeta side.

    The window keeps coefficients above NOISE_FACTOR (1e3) times the noise
    floor (median magnitude over the top 10% of zeta), below DEALIAS_FRAC
    (2/3) of the grid's maximum wavenumber, and starts at the first run of
    MONOTONE_RUN (8) strictly decreasing magnitudes.  Fewer than
    MIN_FIT_POINTS (8) usable points flags the noise floor instead of
    fitting.
    """
    sf = f if isinstance(f, SpectralField) else forward_transform(f)
    g = sf.grid
    half = g.num_points // 2
    amp = np.abs(sf.coeffs[half + 1 :])
    zeta = sf.grid.zeta[half + 1 :]
    if amp.size < MIN_FIT_POINTS or not np.any(amp > 0):
        return RadiusEstimate.floor_hit()

    floor = float(np.median(amp[zeta >= 0.9 * zeta[-1]]))
    threshold = NOISE_FACTOR * floor
    usable = (amp > threshold) & (zeta <= DEALIAS_FRAC * g.zeta_max) & (amp > 0.0)

    dec = amp[1:] < amp[:-1]
    lo = None
    run = MONOTONE_RUN - 1
    for i in range(amp.size - run):
        if np.all(dec[i : i + run]):
            lo = i
            break
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
    """Snapshots of one simulation at its record times; the diagnostics are
    computed from them on request."""

    grid: SpectralGrid
    p: int
    times: list[float] = dc_field(default_factory=list)
    snapshots_u: list[np.ndarray] = dc_field(default_factory=list)
    snapshots_v: list[np.ndarray] = dc_field(default_factory=list)
    blow_up: bool = False

    def record(self, t: float, u: Field, v: Field) -> None:
        self.times.append(float(t))
        self.snapshots_u.append(u.samples.copy())
        self.snapshots_v.append(v.samples.copy())

    def fields_at(self, i: int) -> tuple[Field, Field]:
        return Field(self.grid, self.snapshots_u[i]), Field(self.grid, self.snapshots_v[i])

    def __len__(self) -> int:
        return len(self.times)

    def invariant_sets(self) -> list[InvariantSet]:
        """Conserved functionals at each record time."""
        from .evolution import CoupledState  # deferred, avoids import cycle

        return [invariants(CoupledState(t, *self.fields_at(i)), self.p)
                for i, t in enumerate(self.times)]

    def radii(self) -> tuple[list[RadiusEstimate], list[RadiusEstimate]]:
        """Fitted radius of u and of v at each record time."""
        pairs = [self.fields_at(i) for i in range(len(self))]
        return [estimate_radius(u) for u, _ in pairs], [estimate_radius(v) for _, v in pairs]


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
        excess = (b.rho - a.rho) / allowed if allowed > 0 else np.inf
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
    e^{-y zeta}.  Warns when |y| reaches the fitted radius minus
    ANALYTICITY_MARGIN (0.05); values there are dominated by the spectral
    tail and untrustworthy.

    e^{|y| zeta} amplifies the coefficient roundoff floor into garbage, so
    for y != 0 the spectrum is cut where it settles onto the floor (first
    run of 8 bins within 10x the floor level) and floor-level bins inside
    the kept band are dropped.  The automatic cut assumes a dense decaying
    spectrum; pass band_limit explicitly for sparse (few-mode) fields.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    g = f.grid
    est = estimate_radius(f)
    if not est.noise_floor_hit and abs(y) >= est.rho - ANALYTICITY_MARGIN:
        warnings.warn(
            f"|y| = {abs(y):.4g} is within {ANALYTICITY_MARGIN} of the fitted radius "
            f"{est.rho:.4g}; extension values are tail-dominated",
            AnalyticityMarginWarning,
            stacklevel=2,
        )
    c = forward_transform(f).coeffs.copy()
    if band_limit is not None:
        c[np.abs(g.zeta) > band_limit] = 0.0
    elif y != 0.0:
        amp = np.abs(c)
        floor = float(np.median(amp[np.abs(g.zeta) >= 0.9 * g.zeta_max]))
        threshold = 10.0 * floor
        half = g.num_points // 2
        below = amp[half:] <= threshold  # positive side; |c| is even in zeta
        cut = g.zeta_max
        run = 8
        for i in range(below.size - run + 1):
            if np.all(below[i : i + run]):
                cut = g.zeta[half + i]
                break
        if threshold > 0.0:
            # never keep bins where amplified floor junk could outgrow the
            # leading coefficients (box-truncation tails live up there);
            # the 256 budgets constructive alignment across the kept band
            cut = min(cut, np.log(np.max(amp) / (256.0 * threshold)) / abs(y))
        c[(np.abs(g.zeta) >= cut) | (amp <= threshold)] = 0.0
    kept = np.abs(g.zeta)[np.abs(c) > 0.0]
    top = float(kept.max()) if kept.size else 0.0
    if abs(y) * (top + 1.0) > 700.0:
        raise OverflowError(
            f"|y| = {abs(y)} overflows e^(|y| zeta) over the kept band "
            f"|zeta| <= {top:.4g}"
        )
    exponent = np.where(np.abs(c) > 0.0, -y * g.zeta, 0.0)
    mult = (1j * g.zeta) ** order * np.exp(exponent)
    if order % 2 == 1:
        mult[g.nyquist_index] = 0.0
    vals = complex_samples(SpectralField(g, c * mult))
    return Field(g, np.abs(vals))
