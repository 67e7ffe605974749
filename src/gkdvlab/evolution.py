"""Time integration of the coupled system

    u_t + u_xxx + (u^p v^(p+1))_x = 0,
    v_t + v_xxx + (u^(p+1) v^p)_x = 0

on the periodic grid.  Two steppers: an integrating-factor RK4 that treats
the dispersive term exactly in Fourier space (the classic scheme of Kassam
& Trefethen's family), and Strang splitting with an exact dispersive
half-step around a midpoint-rule nonlinear step.  Also a fixed-point
(successive substitution) solver for the integral form of the equations on
a short window, with per-iteration contraction factors.

The two components share their linear part, so the pair is one array with
u and v on the leading axis throughout: samples (2, N) in a CoupledState and
(2, records, N) in a record that simulate sizes before it steps, half-spectra
(2, N/2 + 1) in the steppers and (2, num_nodes + 1, N/2 + 1) for a Picard
node stack.

The stepping loop allocates little and builds what it can once: the
right-hand side is built for one input shape and keeps the padded
half-spectra and the padded samples of the pair with their band views and
component rows, writes both bands at once and has the transforms and the
power products write into them; a run builds the stage phases of its scheme
and enters its floating-point error state once.  Only IF-RK4, the scheme of
every workload, computes its stages in place, as that measured faster.  The
Picard pass holds three complex node stacks: the free solution, the
iterate and a spare.  It evaluates the RHS of the iterate in blocks of
NODE_BLOCK nodes into the spare, forms the Duhamel sum there in place (the
trapezoid forcing NODE_BLOCK nodes at a time from the last node down, then
only the recurrence of the group property node by node, on node-major
views), and that array becomes the next iterate; the successive difference
is written into the old iterate, which becomes the next spare.  Every
operation keeps its operands and their order, so the results are those of
the plain expressions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
from .diagnostics import TrajectoryRecord
from .spectral import (
    SpectralGrid,
    PaddedBand,
    dft_axis,
    forward_transform,
    idft_axis,
    inverse_transform,
    padded_points,
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
    """Solution pair at one instant: float64 samples (2, ..., N) on grid, u
    in row 0 and v in row 1."""

    t: float
    grid: SpectralGrid
    pair: np.ndarray

    def __post_init__(self):
        self.pair = np.asarray(self.pair, dtype=np.float64)
        shape, num = self.pair.shape, self.grid.num_points
        if len(shape) < 2 or shape[0] != 2 or shape[-1] != num:
            raise ValueError(f"the pair needs samples (2, ..., N), N = {num}, got {shape}")


SCHEMES = ("if_rk4", "strang")


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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if not (np.isfinite(self.blowup_factor) and self.blowup_factor > 1.0):
            raise ValueError(
                f"blowup_factor must be finite and > 1, got {self.blowup_factor}"
            )


def dispersive_phase(grid: SpectralGrid, t: float | np.ndarray) -> np.ndarray:
    """Multiplier e^{i zeta^3 t} of the free group over the half-spectrum,
    one row per entry of t (a scalar t gives one row); identity on the
    unpaired Nyquist mode so real fields stay real."""
    phase = np.exp(1j * grid.rzeta**3 * np.asarray(t, dtype=np.float64)[..., None])
    phase[..., grid.nyquist_index] = 1.0
    return phase


def reflect_samples(s: np.ndarray) -> np.ndarray:
    """Spatial reflection x -> -x of sample rows (..., N) on the periodic
    grid (exact, on-node): node x_j goes to x_{-j mod N}.

    The system is invariant under (t, x) -> (-t, -x), so evolving reflected
    data forward and reflecting back integrates backward in time without a
    negative dt.
    """
    return np.roll(s[..., ::-1], 1, axis=-1)


class _RhsWorkspace:
    """Precomputed padding layout and derivative symbol for one (grid, p);
    maps stacked pair half-spectra of one shape (2, ..., N/2 + 1), given
    when it is built, to the stacked RHS.

    Keeps one padded half-spectrum (2, ..., M/2 + 1), the padded samples
    (2, ..., M) of the pair, the band views of the spectrum and the
    component rows of both, so a call makes no view.  A call writes both
    bands into the half-spectrum at once, inverts each component into its
    samples, has the products overwrite the samples, transforms each
    product back into the half-spectrum and returns the derivative of the
    cut-back band as a fresh array, or writes it into out."""

    def __init__(self, grid: SpectralGrid, p: int, shape: tuple[int, ...]):
        self.p = p
        self.span = 2.0 * grid.half_length
        self.deriv = -grid.derivative_symbol(1)
        m = padded_points(grid.num_points, 2 * p + 1)
        spectrum = np.empty(shape[:-1] + (m // 2 + 1,), dtype=np.complex128)
        self.band = PaddedBand(spectrum, grid)
        self.spectra = tuple(spectrum)
        self.samples = tuple(np.empty(shape[:-1] + (m,)))

    def __call__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # one inverse transform per component and one forward transform per
        # product, each into the buffers; the only padded-size arrays a call
        # makes are the temporaries of coupled_powers' common factor
        spectra, (u, v) = self.spectra, self.samples
        self.band.write(c)
        idft_axis(spectra[0], self.span, real=True, out=u)
        idft_axis(spectra[1], self.span, real=True, out=v)
        powers = _kernels.coupled_powers(u, v, self.p, out=(v, u))
        dft_axis(powers[0], self.span, real=True, out=spectra[0])
        dft_axis(powers[1], self.span, real=True, out=spectra[1])
        return np.multiply(self.deriv, self.band.cut(), out=out)


# nodes per RHS call of picard_solve and per forcing block of
# _duhamel_cumulative, which bounds the padded buffers, the temporaries of
# coupled_powers and the forcing temporary to one block instead of the
# whole node stack; no result depends on it.  On a 2-core AMD EPYC with
# numpy 2.4.6, one RHS of the (2, 193, 129) stack took 0.68-0.71 ms in
# 32-node blocks, 0.61-0.62 ms whole and 0.73-0.76 ms in 16-node blocks;
# in 32-node blocks picard_solve peaks at 3.45 MiB of traced memory there.
NODE_BLOCK = 32


def _node_block_rhs(grid: SpectralGrid, p: int, shape: tuple[int, ...]):
    """The RHS of a node stack of the given shape (2, nodes, N/2 + 1),
    evaluated NODE_BLOCK nodes at a time into an array of that shape:
    rhs(c, out) fills out and returns it.  One workspace serves the full
    blocks and one the remainder; each node row goes through the same row
    transforms and elementwise products as in a whole-stack call, so out
    holds the bits of that call."""
    full, rest = divmod(shape[-2], NODE_BLOCK)
    sizes = [NODE_BLOCK] * full + ([rest] if rest else [])
    workspaces = {n: _RhsWorkspace(grid, p, shape[:-2] + (n, shape[-1])) for n in set(sizes)}
    blocks = [(slice(i * NODE_BLOCK, i * NODE_BLOCK + n), workspaces[n])
              for i, n in enumerate(sizes)]

    def rhs(c: np.ndarray, out: np.ndarray) -> np.ndarray:
        for nodes_of, ws in blocks:
            ws(c[..., nodes_of, :], out=out[..., nodes_of, :])
        return out

    return rhs


# The steppers leave c alone.  Each product keeps its operand order, e * t
# and not t * e: numpy's complex multiply is not bitwise commutative, so an
# order swap would move the last bits of every result.  IF-RK4 works in
# place: its plain expression has the same bits but ran 0.6-6% slower per
# step (medians, N = 64 to 1024, p = 1 and 2, 2-core AMD EPYC, numpy 2.4.6).
# Its scalar operands, dt/2 and dt/6, are 0-d complex arrays built with the
# phases: numpy converts a Python float operand on every ufunc call (NEP 50,
# "Promotion rules for Python scalars"), and the complex multiply takes the
# 0-d array as it is, with the same bits.


def _if_rk4_phases(dt, e, e2):
    """The phases and constants of an IF-RK4 step of size dt, built once per
    run: e and e2 are the half- and full-step phases, and the step also
    takes dt e, 2 e and the read-only 0-d complex128 arrays dt/2 and dt/6."""
    half_dt, sixth_dt = np.array(0.5 * dt, complex), np.array(dt / 6.0, complex)
    half_dt.flags.writeable = sixth_dt.flags.writeable = False
    return e, e2, dt * e, 2.0 * e, half_dt, sixth_dt


def _step_if_rk4(c, phases, rhs):
    """One integrating-factor RK4 step of size dt; phases is
    :func:`_if_rk4_phases` of dt, which holds every constant of the step.
    The stages are

        n1 = rhs(c)
        n2 = rhs(e * (c + dt/2 n1))
        n3 = rhs(e * c + dt/2 n2)
        n4 = rhs(e2 * c + dt e n3)

    and the step returns e2 * c + dt/6 (e2 n1 + 2 e (n2 + n3) + n4)."""
    e, e2, dt_e, two_e, half_dt, sixth_dt = phases
    e2c = e2 * c
    n1 = rhs(c)
    arg = np.multiply(half_dt, n1)
    np.add(c, arg, out=arg)
    n2 = rhs(np.multiply(e, arg, out=arg))
    np.multiply(e, c, out=arg)
    n3 = rhs(np.add(arg, np.multiply(half_dt, n2), out=arg))
    np.multiply(dt_e, n3, out=arg)
    n4 = rhs(np.add(e2c, arg, out=arg))
    np.multiply(e2, n1, out=n1)
    np.add(n2, n3, out=n2)
    np.multiply(two_e, n2, out=n2)
    np.add(n1, n2, out=n1)
    np.add(n1, n4, out=n1)
    np.multiply(sixth_dt, n1, out=n1)
    return np.add(e2c, n1, out=e2c)


def _step_strang(c, dt, e, rhs):
    """Dispersive half-step e, midpoint nonlinear step, dispersive half-step."""
    c = e * c
    return e * (c + dt * rhs(c + 0.5 * dt * rhs(c)))


def simulate(initial: CoupledState, config: SolverConfig) -> TrajectoryRecord:
    """March from initial.t to config.t_end, recording the pair every
    record_stride steps (always at the first and last instant) into a
    record sized for that many rows.

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

    stride = config.record_stride
    num_records = num_steps // stride + 1 + (1 if num_steps % stride else 0)
    record = TrajectoryRecord(g, config.p, np.empty((2, num_records) + initial.pair.shape[1:]))

    c = forward_transform(initial.pair, g)
    rhs = _RhsWorkspace(g, config.p, c.shape)
    dt = config.dt
    half = dispersive_phase(g, 0.5 * dt)
    if config.scheme == "if_rk4":
        phases = _if_rk4_phases(dt, half, dispersive_phase(g, dt))

        def step(c):
            return _step_if_rk4(c, phases, rhs)
    else:
        def step(c):
            return _step_strang(c, dt, half, rhs)

    baseline = max(float(np.max(np.abs(initial.pair))), 1e-300)
    record.record(initial.t, initial.pair)  # a copy: a record never aliases the caller's data

    # overflow inside a diverging step is expected; the finite check below
    # turns it into the typed error instead of a warning cascade
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, num_steps + 1):
            t = initial.t + n * dt
            c = step(c)
            if not np.isfinite(c).all():
                record.blow_up = True
                raise NumericalBlowupError(
                    f"blow-up at t = {t:.6g}: non-finite spectrum", record
                )
            if n % stride == 0 or n == num_steps:
                # both components in one inverse, copied into the record
                samples = inverse_transform(c, g)
                sup = float(np.abs(samples).max())  # np.max passes a NaN on
                if sup > config.blowup_factor * baseline:
                    record.blow_up = True
                    raise NumericalBlowupError(
                        f"sup-norm grew by {sup / baseline:.3e} (limit "
                        f"{config.blowup_factor:.1e}) at t = {t:.6g}",
                        record,
                    )
                record.record(t, samples)
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
    coeffs: np.ndarray  # (2, num_nodes + 1, N/2 + 1) half-spectra at the final iterate
    diffs: list[float] = dc_field(default_factory=list)
    contraction_factors: list[float] = dc_field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    def samples(self) -> np.ndarray:
        """Real samples of the final iterate at every node, (2, num_nodes + 1, N)."""
        return inverse_transform(self.coeffs, self.grid)


def _duhamel_cumulative(w: np.ndarray, phase_h: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid quadrature of  integral_0^{t_j} e^{i zeta^3 (t_j - s)} w(s) ds
    for all nodes t_j (axis -2 of w), accumulated with the group property:

        out[j] = phase_h out[j-1] + h/2 (phase_h w[j-1] + w[j]),  out[0] = 0,

    formed in place in w, which is returned.  The forcing, the second term,
    is built NODE_BLOCK nodes at a time in one block-sized temporary and
    written back from the last node down, so every block still reads the
    unmodified w[j-1]; the recurrence then runs over node-major views of w
    with a row of that temporary, two in-place operations per node.  Each
    operation keeps the operands and the order of the formula, so the result
    is that of evaluating it node by node, bit for bit."""
    rows = w.shape[-2]
    block = np.empty(w.shape[:-2] + (min(NODE_BLOCK, rows), w.shape[-1]), dtype=np.complex128)
    for stop in range(rows, 1, -NODE_BLOCK):
        start = max(stop - NODE_BLOCK, 1)
        forcing = block[..., : stop - start, :]
        np.multiply(phase_h, w[..., start - 1 : stop - 1, :], out=forcing)
        np.add(forcing, w[..., start:stop, :], out=forcing)
        np.multiply(0.5 * h, forcing, out=forcing)
        w[..., start:stop, :] = forcing
    w[..., 0, :] = 0.0
    nodes = np.moveaxis(w, -2, 0)
    carried = block[..., 0, :]
    for prev, cur in zip(nodes[:-1], nodes[1:]):
        np.add(np.multiply(phase_h, prev, out=carried), cur, out=cur)
    return w


def picard_solve(initial: CoupledState, config: PicardConfig, p: int) -> PicardResult:
    """Iterate the integral form w = free(w0) + cumulative(nonlinear(w))
    starting from the free solution; stop when the sup-over-nodes H^s
    successive difference falls below contraction_tol.

    The RHS runs per block of NODE_BLOCK nodes.  Three complex node stacks
    live across iterates: the free solution, the current iterate and a
    spare.  An iterate writes its RHS into the spare, forms the Duhamel sum
    and the new iterate there, and writes the successive difference into the
    old iterate, which becomes the next spare; the real modulus of that
    difference is the only other node-stack array.  The first iterate starts
    from the free solution, so its difference takes the one node stack that
    the run allocates after setup.

    Three consecutive non-decreasing differences raise NonContractionError:
    the window is too long for the contraction regime.  A non-finite
    difference raises NumericalBlowupError at once.
    """
    g = initial.grid
    m = config.num_nodes
    h = config.t_window / m
    times = initial.t + h * np.arange(m + 1)
    c0 = forward_transform(initial.pair, g)
    free = dispersive_phase(g, h * np.arange(m + 1)) * c0[:, None, :]
    rhs = _node_block_rhs(g, p, free.shape)
    spare = np.empty_like(free)
    delta = np.empty(free.shape)
    phase_h = dispersive_phase(g, h)

    # settle H^s weights once; differences measured in this norm, where each
    # half-spectrum entry counts with its multiplicity
    weight = (1.0 + g.rzeta) ** config.diff_s
    cell = g.multiplicity * g.dzeta

    cur = free
    result = PicardResult(g, times, cur)
    rising = 0
    for it in range(1, config.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            new = _duhamel_cumulative(rhs(cur, spare), phase_h, h)
            np.add(free, new, out=new)
            # sup over components and nodes of the H^s successive difference,
            # formed in the old iterate (a new stack while that is the free
            # solution) and squared in place
            spare = np.subtract(new, cur, out=None if cur is free else cur)
            np.abs(spare, out=delta)
            delta *= weight
            delta *= delta
            d = float(np.sqrt(delta @ cell).max())
        if not np.isfinite(d):
            raise NumericalBlowupError(
                f"Picard iterate {it}: non-finite successive difference"
            )
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
