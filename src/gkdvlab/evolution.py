"""Time integration of the coupled system

    u_t + u_xxx + (u^p v^(p+1))_x = 0,
    v_t + v_xxx + (u^(p+1) v^p)_x = 0

on the periodic grid.  Two steppers: an integrating-factor RK4 that treats
the dispersive term exactly in Fourier space (the classic scheme of Kassam
& Trefethen's family), and Strang splitting with an exact dispersive
half-step around a midpoint-rule nonlinear step.  Also a fixed-point
(successive substitution) solver for the integral form of the equations on
a short window, with per-iteration contraction factors.

The two components share their linear part, so the steppers and the solver
hold the coefficients of u and v as one array with the pair on the leading
axis: (2, N) for a state, (2, num_nodes + 1, N) for a Picard node stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .diagnostics import TrajectoryRecord
from .spectral import (
    Field,
    SpectralGrid,
    dft_axis,
    forward_transform,
    idft_axis,
    inverse_transform,
    pad_coeffs,
    padded_points,
    truncate_coeffs,
    SpectralField,
)


class NumericalBlowupError(RuntimeError):
    """Raised when the solution leaves the trusted numerical range; carries
    the partial trajectory record when one exists."""

    def __init__(self, message: str, record: TrajectoryRecord | None = None):
        super().__init__(message)
        self.record = record


class NonContractionError(RuntimeError):
    """Raised when the fixed-point iteration stops contracting."""


@dataclass
class CoupledState:
    """Solution pair at one instant."""

    t: float
    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v live on different grids")

    @property
    def grid(self) -> SpectralGrid:
        return self.u.grid


@dataclass(frozen=True)
class SolverConfig:
    p: int = 1
    dt: float = 1e-3
    t_end: float = 5.0
    scheme: str = "if_rk4"
    record_stride: int = 50
    blowup_factor: float = 1e6

    def __post_init__(self):
        if not (isinstance(self.p, (int, np.integer)) and self.p >= 1):
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if self.scheme not in ("if_rk4", "strang"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if not (np.isfinite(self.blowup_factor) and self.blowup_factor > 1.0):
            raise ValueError(
                f"blowup_factor must be finite and > 1, got {self.blowup_factor}"
            )


def dispersive_phase(grid: SpectralGrid, t: float | np.ndarray) -> np.ndarray:
    """Multiplier e^{i zeta^3 t} of the free group, one row per entry of t
    (a scalar t gives one row of shape (N,)); identity on the unpaired
    Nyquist mode so real fields stay real."""
    phase = np.exp(1j * grid.zeta**3 * np.asarray(t, dtype=np.float64)[..., None])
    phase[..., grid.nyquist_index] = 1.0
    return phase


def _pair_coeffs(u: Field, v: Field) -> np.ndarray:
    """Coefficients of the pair, stacked (2, N)."""
    return np.stack([forward_transform(u).coeffs, forward_transform(v).coeffs])


def _pair_fields(grid: SpectralGrid, c: np.ndarray) -> tuple[Field, Field]:
    """Real fields of a stacked (2, N) coefficient pair."""
    return (inverse_transform(SpectralField(grid, c[0])),
            inverse_transform(SpectralField(grid, c[1])))


def free_propagate(state: CoupledState, dt: float) -> CoupledState:
    """Exact solution of w_t + w_xxx = 0 over time dt."""
    c = _pair_coeffs(state.u, state.v) * dispersive_phase(state.grid, dt)
    return CoupledState(state.t + dt, *_pair_fields(state.grid, c))


def reflect_state(state: CoupledState) -> CoupledState:
    """Spatial reflection x -> -x on the periodic grid (exact, on-node).

    The system is invariant under (t, x) -> (-t, -x), so evolving reflected
    data forward and reflecting back integrates backward in time without a
    negative dt.
    """

    def flip(f: Field) -> Field:
        return Field(f.grid, np.roll(f.samples[::-1], 1))

    return CoupledState(state.t, flip(state.u), flip(state.v))


class _RhsWorkspace:
    """Precomputed padding layout and derivative symbol for one (grid, p);
    maps stacked pair coefficients (2, ..., N) to the stacked right-hand side."""

    def __init__(self, grid: SpectralGrid, p: int):
        self.grid = grid
        self.p = p
        self.num_padded = padded_points(grid.num_points, 2 * p + 1)
        self.span = 2.0 * grid.half_length
        self.offset = -grid.half_length
        deriv = -1j * grid.zeta
        deriv[grid.nyquist_index] = 0.0
        self.deriv = deriv

    def __call__(self, c: np.ndarray) -> np.ndarray:
        # one inverse transform per component and one forward transform per
        # product; the padded samples die with the call, and on a Picard node
        # stack they are the largest arrays alive
        powers = _kernels.coupled_powers(
            idft_axis(pad_coeffs(c[0], self.num_padded), self.span, self.offset).real,
            idft_axis(pad_coeffs(c[1], self.num_padded), self.span, self.offset).real,
            self.p,
        )
        coeffs = [truncate_coeffs(dft_axis(w, self.span, self.offset), self.grid.num_points)
                  for w in powers]
        # allocated once both transforms are done: allocated before them, a
        # node-stack-sized output costs page faults on every Picard iterate
        out = np.empty_like(c)
        for k, ck in enumerate(coeffs):
            np.multiply(self.deriv, ck, out=out[k])
        return out


def nonlinear_rhs(state: CoupledState, p: int) -> tuple[Field, Field]:
    """-(u^p v^(p+1))_x and -(u^(p+1) v^p)_x, dealiased."""
    rhs = _RhsWorkspace(state.grid, p)
    return _pair_fields(state.grid, rhs(_pair_coeffs(state.u, state.v)))


def _step_if_rk4(c, dt, e, e2, rhs):
    """One integrating-factor RK4 step; e and e2 are the half- and full-step
    phases."""
    n1 = rhs(c)
    n2 = rhs(e * (c + 0.5 * dt * n1))
    n3 = rhs(e * c + 0.5 * dt * n2)
    n4 = rhs(e2 * c + dt * e * n3)
    return e2 * c + (dt / 6.0) * (e2 * n1 + 2.0 * e * (n2 + n3) + n4)


def _step_strang(c, dt, e, rhs):
    """Dispersive half-step e, midpoint nonlinear step, dispersive half-step."""
    c = e * c
    k1 = rhs(c)
    k2 = rhs(c + 0.5 * dt * k1)
    return e * (c + dt * k2)


def simulate(initial: CoupledState, config: SolverConfig) -> TrajectoryRecord:
    """March from initial.t to config.t_end, recording snapshots every
    record_stride steps (always at the first and last instant).

    Sup-norm growth beyond blowup_factor times the initial amplitude, or a
    non-finite spectrum, aborts via NumericalBlowupError carrying the
    partial record with its blow_up flag set.
    """
    g = initial.grid
    span_t = config.t_end - initial.t
    if span_t == 0.0 or not np.isfinite(span_t):
        raise ValueError(f"degenerate time span {span_t}")
    steps_float = span_t / config.dt
    num_steps = int(round(steps_float))
    if num_steps < 1 or abs(steps_float - num_steps) > 1e-9 * max(1, num_steps):
        raise ValueError(
            f"(t_end - t0)/dt = {steps_float} is not a positive whole number "
            "of steps; adjust dt or t_end"
        )

    record = TrajectoryRecord(grid=g, p=config.p)

    rhs = _RhsWorkspace(g, config.p)
    half = dispersive_phase(g, 0.5 * config.dt)
    full = dispersive_phase(g, config.dt)
    c = _pair_coeffs(initial.u, initial.v)
    baseline = max(
        float(np.max(np.abs(initial.u.samples))),
        float(np.max(np.abs(initial.v.samples))),
        1e-300,
    )
    record.record(initial.t, initial.u, initial.v)

    for n in range(1, num_steps + 1):
        t = initial.t + n * config.dt
        # overflow inside a diverging step is expected; the finite check below
        # turns it into the typed error instead of a warning cascade
        with np.errstate(over="ignore", invalid="ignore"):
            if config.scheme == "if_rk4":
                c = _step_if_rk4(c, config.dt, half, full, rhs)
            else:
                c = _step_strang(c, config.dt, half, rhs)
        if not np.all(np.isfinite(c)):
            record.blow_up = True
            raise NumericalBlowupError(
                f"blow-up at t = {t:.6g}: non-finite spectrum", record
            )
        if n % config.record_stride == 0 or n == num_steps:
            u, v = _pair_fields(g, c)
            sup = max(float(np.max(np.abs(u.samples))), float(np.max(np.abs(v.samples))))
            if sup > config.blowup_factor * baseline:
                record.blow_up = True
                raise NumericalBlowupError(
                    f"sup-norm grew by {sup / baseline:.3e} (limit "
                    f"{config.blowup_factor:.1e}) at t = {t:.6g}",
                    record,
                )
            record.record(t, u, v)
    return record


@dataclass(frozen=True)
class PicardConfig:
    t_window: float = 0.05
    num_nodes: int = 64
    max_iters: int = 25
    contraction_tol: float = 1e-10
    diff_s: float = 2.0

    def __post_init__(self):
        if not self.t_window > 0:
            raise ValueError(f"t_window must be positive, got {self.t_window}")
        if self.num_nodes < 8:
            raise ValueError(f"num_nodes must be >= 8, got {self.num_nodes}")
        if self.max_iters < 2:
            raise ValueError(f"max_iters must be >= 2, got {self.max_iters}")


@dataclass
class PicardResult:
    """Fixed-point iteration history on [0, t_window]."""

    grid: SpectralGrid
    times: np.ndarray
    coeffs: np.ndarray  # (2, num_nodes + 1, N) at the final iterate
    diffs: list[float] = dc_field(default_factory=list)
    contraction_factors: list[float] = dc_field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    def state_at(self, j: int) -> CoupledState:
        return CoupledState(float(self.times[j]), *_pair_fields(self.grid, self.coeffs[:, j]))


def _duhamel_cumulative(w: np.ndarray, phase_h: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid quadrature of  integral_0^{t_j} e^{i zeta^3 (t_j - s)} w(s) ds
    for all nodes t_j (axis -2 of w), accumulated with the group property."""
    out = np.zeros(w.shape, dtype=np.complex128)
    for j in range(1, w.shape[-2]):
        out[..., j, :] = phase_h * out[..., j - 1, :] + 0.5 * h * (
            phase_h * w[..., j - 1, :] + w[..., j, :])
    return out


def picard_solve(initial: CoupledState, config: PicardConfig, p: int) -> PicardResult:
    """Iterate the integral form w = free(w0) + cumulative(nonlinear(w))
    starting from the free solution; stop when the sup-over-nodes H^s
    successive difference falls below contraction_tol.

    Three consecutive non-decreasing differences raise NonContractionError:
    the window is too long for the contraction regime.
    """
    g = initial.grid
    m = config.num_nodes
    h = config.t_window / m
    times = initial.t + h * np.arange(m + 1)
    rhs = _RhsWorkspace(g, p)
    c0 = _pair_coeffs(initial.u, initial.v)
    free = dispersive_phase(g, h * np.arange(m + 1)) * c0[:, None, :]
    phase_h = dispersive_phase(g, h)

    # settle H^s weights once; differences measured in this norm
    weight = (1.0 + np.abs(g.zeta)) ** config.diff_s
    cell = g.dzeta

    cur = free
    result = PicardResult(g, times, cur)
    rising = 0
    for it in range(1, config.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            new = free + _duhamel_cumulative(rhs(cur), phase_h, h)
            # sup over components and nodes of the H^s successive difference;
            # squared in place, since fresh node-stack-sized temporaries cost
            # page faults on every iterate
            delta = np.abs(new - cur)
            delta *= weight
            delta *= delta
            d = float(np.sqrt(np.sum(delta, axis=-1) * cell).max())
        if not np.isfinite(d):
            d = np.inf
        result.diffs.append(d)
        if len(result.diffs) >= 2:
            prev = result.diffs[-2]
            ratio = d / prev if prev > 0 else (np.inf if d > 0 else 0.0)
            result.contraction_factors.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
        cur = new
        result.iterations = it
        if d <= config.contraction_tol:
            result.converged = True
            break
        if rising >= 3:
            raise NonContractionError(
                f"successive differences stopped contracting after {it} "
                f"iterations (last ratios "
                f"{[round(r, 3) for r in result.contraction_factors[-3:]]}); "
                "shrink t_window"
            )
    result.coeffs = cur
    return result
