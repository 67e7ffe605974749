"""Randomized stress lab for the space-time norm inequalities.

Each check draws an ensemble of reproducible random samples, evaluates both
sides of one inequality with its unknown constant stripped, and reports the
worst LHS/RHS ratio together with the seed that produced it.  A bounded,
ensemble-stable max ratio is evidence that the inequality holds with a finite
constant at this resolution; it proves nothing.  Constants are recorded,
never asserted.  Every check but apriori evaluates its members in batches
on a leading member axis, one array program per batch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator, Sequence

import numpy as np

from .diagnostics import TrajectoryRecord
from .evolution import (
    CoupledState,
    SolverConfig,
    _duhamel_cumulative,
    dispersive_phase,
    reflect_samples,
    simulate,
)
from .spaces import (
    CutoffProfile,
    NormParams,
    SpaceTimeSample,
    _float_or_batch,
    apply_smoothing_weight,
    bourgain_norm,
    gevrey_norm,
    mixed_norm,
    sample_l2,
    xt_modulus,
    xt_transform,
)
from .spectral import (
    NonFiniteDataError,
    SpectralGrid,
    dealiased_product,
    forward_transform,
)

__all__ = [
    "ENVELOPES",
    "STRICHARTZ_VARIANTS",
    "EstimateReport",
    "SampleSpec",
    "StrichartzVariant",
    "bidirectional_record",
    "check_apriori",
    "check_apriori_ensemble",
    "check_duhamel",
    "check_embedding",
    "check_exponential_lemmas",
    "check_linear_free",
    "check_multilinear",
    "check_strichartz",
    "check_time_cutoff",
    "derivative_sample",
    "duhamel_ratio",
    "free_wave_sample",
    "linear_free_ratio",
    "multilinear_ratio",
    "product_sample",
    "random_boxed_sample",
    "random_field",
    "random_window_sample",
    "strichartz_ratio",
    "time_cutoff_ratio",
    "triangle_split_failures",
]

ENVELOPES = ("flat", "gaussian", "exponential")

# step and record stride of the apriori runs: their record times, and so the
# cutoff window [-2T, 2T], fall on multiples of APRIORI_DT * APRIORI_STRIDE
APRIORI_DT = 0.02
APRIORI_STRIDE = 10

# time window [-HALF_SPAN, HALF_SPAN) of the free waves and the random samples:
# slack around the support [-2, 2] of the cutoff psi
HALF_SPAN = 2.5

# smoothing exponent of the Strichartz checks, above every variant's floor (1/4 or 1/2)
STRICHARTZ_KAPPA = 0.55

# members per batch of an ensemble check, which bounds a batch's memory
# (multilinear at p = 2 stacks ten samples per member); no ratio depends on it
MEMBER_CHUNK = 16


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SampleSpec:
    """Recipe for one reproducible family of random samples.

    The envelope w shapes the coefficients inside |zeta| <= bandwidth;
    outside they are zero.  Each half-spectrum coefficient C_k of a sample
    row is Gaussian with E|C_k|^2 = w_k^2: real and imaginary parts of
    variance w_k^2 / 2 for k >= 1, and a real zero mode of variance w_0^2.
    Time profiles are white per node and then multiplied by the smooth
    cutoff psi(t), so every generated sample vanishes identically for
    |t| >= 2.
    """

    seed: int
    bandwidth: float = 4.0
    envelope: str = "exponential"
    rho0: float = 0.5
    amplitude: float = 1.0

    def __post_init__(self):
        if self.envelope not in ENVELOPES:
            raise ValueError(f"envelope must be one of {ENVELOPES}, got {self.envelope!r}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if not (np.isfinite(self.rho0) and self.rho0 >= 0.0):
            raise ValueError(f"rho0 must be >= 0, got {self.rho0}")
        if not (np.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class EstimateReport:
    """Worst observed LHS/RHS ratio of one inequality over an ensemble.

    ratios holds the per-member values in seed order, so a longer run's
    prefix reproduces a shorter run bit-exactly (members are independent).
    max_seed regenerates the extremizing sample; -1 means the input was a
    trajectory, not a seeded sample.
    """

    estimate_id: str
    ensemble: int
    params: dict
    max_ratio: float
    max_seed: int
    violation: bool
    ratios: tuple = ()
    extra: dict = dc_field(default_factory=dict)


def _fold(
    estimate_id: str,
    seeds: Sequence[int],
    ratios: Sequence[float],
    params: dict,
    extra: dict | None = None,
) -> EstimateReport:
    ratios = [float(r) for r in ratios]
    arr = np.asarray(ratios)
    bad = not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0))
    imax = int(np.nanargmax(arr)) if np.any(np.isfinite(arr)) else 0
    return EstimateReport(
        estimate_id=estimate_id,
        ensemble=len(ratios),
        params=dict(params),
        max_ratio=float(arr[imax]),
        max_seed=int(seeds[imax]),
        violation=bool(bad),
        ratios=tuple(ratios),
        extra=dict(extra or {}),
    )


def _ratio(num, den) -> float | np.ndarray:
    """num / den, member by member for arrays; 0 where both vanish."""
    num, den = np.asarray(num, dtype=np.float64), np.asarray(den, dtype=np.float64)
    bad = np.ravel((den == 0.0) & (num != 0.0))
    if bad.any():
        raise ZeroDivisionError(
            f"nonzero numerator {np.ravel(num)[np.argmax(bad)]} against zero denominator")
    return _float_or_batch(np.divide(num, den, out=np.zeros_like(num), where=den != 0.0))


LAB_GRID = SpectralGrid(10.0, 64)


# ---------------------------------------------------------------------------
# Sample generators.  A row is the real inverse of a half-spectrum drawn only
# on the in-band modes 0 ... K, so it is real by construction.  Its law is
# that of the real part of the inverse of unconstrained complex Gaussians
# c_k of standard deviation w_k: that real part has the half-spectrum
# (c_k + conj c_{-k}) / 2, whose real and imaginary parts each have variance
# w_k^2 / 2 for k >= 1, and the zero mode Re c_0.  Draws go to the in-band
# wavenumbers in ascending order, relative to x = 0, whatever the layout.


def _envelope_weights(grid: SpectralGrid, spec: SampleSpec) -> np.ndarray:
    """Weights w_0 ... w_K of the in-band modes zeta_k <= bandwidth < Nyquist."""
    cut = (2.0 / 3.0) * grid.zeta_max
    _require(
        spec.bandwidth <= cut,
        f"bandwidth {spec.bandwidth} exceeds the dealias cutoff {cut:.4g} of this grid",
    )
    zeta = grid.rzeta[grid.rzeta <= spec.bandwidth]
    if spec.envelope == "flat":
        w = np.ones_like(zeta)
    elif spec.envelope == "gaussian":
        # band edge sits at two standard deviations
        w = np.exp(-((2.0 * zeta / spec.bandwidth) ** 2) / 2.0)
    else:
        w = np.exp(-spec.rho0 * zeta)
    return spec.amplitude * w


def random_field(
    grid: SpectralGrid, spec: SampleSpec, seed: int | Sequence[int] | None = None
) -> np.ndarray:
    """Samples (N,) of an envelope-shaped random real field (the law of
    :class:`SampleSpec`, drawn by :func:`_random_half_spectrum`); seed
    defaults to spec.seed, and a sequence of seeds gives one row per seed."""
    return _random_rows(grid, spec, 1, seed)[..., 0, :]


def _random_half_spectrum(
    grid: SpectralGrid, spec: SampleSpec, num_times: int, seeds: np.ndarray
) -> np.ndarray:
    """Half-spectra (len(seeds), num_times, N/2 + 1) of the random rows,
    exactly zero above the band and at Nyquist.

    Member i draws (2, num_times, K + 1) normals from its own generator,
    real parts then imaginary, for the in-band modes 0 ... K in ascending
    order.  Mode k >= 1 is scaled by w_k / sqrt(2) and the zero mode is
    w_0 times its real draw, times (-1)^k so the draws are relative to x = 0.
    """
    weights = _envelope_weights(grid, spec)
    keep = weights.size
    scale = weights / np.sqrt(2.0)
    scale[0] = weights[0]
    scale[1::2] *= -1.0
    draws = np.empty((seeds.size, 2, num_times, keep))
    for member, sd in zip(draws, seeds):
        np.random.default_rng(sd).standard_normal(out=member)
    draws *= scale
    draws[:, 1, :, 0] = 0.0
    coeffs = np.zeros((seeds.size, num_times, grid.num_points // 2 + 1), dtype=np.complex128)
    coeffs.real[..., :keep] = draws[:, 0]
    coeffs.imag[..., :keep] = draws[:, 1]
    return coeffs


def _random_rows(
    grid: SpectralGrid, spec: SampleSpec, num_times: int, seed: int | Sequence[int] | None
) -> np.ndarray:
    """Rows (num_times, N) from one generator; a sequence of seeds gives a
    batch (len(seeds), num_times, N), member i from its own generator.  One
    real inverse of :func:`_random_half_spectrum`."""
    seeds = np.atleast_1d(spec.seed if seed is None else seed)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = grid.idft(_random_half_spectrum(grid, spec, num_times, seeds), real=True)
    if not np.all(np.isfinite(rows)):
        raise NonFiniteDataError(
            f"random samples are not finite: amplitude {spec.amplitude:g} is too large"
        )
    return rows if np.ndim(seed) else rows[0]


def random_window_sample(grid: SpectralGrid, spec: SampleSpec, num_times: int = 64,
                         seed: int | Sequence[int] | None = None,
                         half_span: float | None = None) -> SpaceTimeSample:
    """Random real sample, white in time, cut off by psi(t); a sequence of
    seeds gives a batch, one member per seed.

    The window is [-half_span, half_span); the default HALF_SPAN (2.5)
    leaves the edge rows exactly zero, which the space-time norms require.
    """
    span = HALF_SPAN if half_span is None else float(half_span)
    _require(span >= HALF_SPAN,
             f"half_span {span} leaves no slack around the cutoff support [-2, 2]")
    vals = _random_rows(grid, spec, num_times, seed)
    times = -span + (2.0 * span / num_times) * np.arange(num_times)
    vals *= np.asarray(CutoffProfile()(times))[:, None]
    return SpaceTimeSample(grid, -span, span, vals)


def random_boxed_sample(grid: SpectralGrid, spec: SampleSpec, num_times: int = 64,
                        seed: int | Sequence[int] | None = None) -> SpaceTimeSample:
    """Random real sample on [-HALF_SPAN, HALF_SPAN) with no time cutoff (for
    the mixed-norm checks, which have no support precondition); seeds as for
    random_window_sample."""
    vals = _random_rows(grid, spec, num_times, seed)
    return SpaceTimeSample(grid, -HALF_SPAN, HALF_SPAN, vals)


# ---------------------------------------------------------------------------
# Per-sample ratios.  Each takes one sample (a float ratio) or a batch on a
# leading member axis (one ratio per member, each as if computed alone); the
# check_* drivers below only fold them over seeds, and tests aim oracles at
# them directly.


def free_wave_sample(c0: np.ndarray, grid: SpectralGrid, num_times: int = 64) -> SpaceTimeSample:
    """Free evolution of the data with half-spectrum c0 on grid, sampled on
    [-HALF_SPAN, HALF_SPAN); each mode carries its exact phase
    e^{i zeta^3 t}, no time stepping involved.  Rows of c0 give a batch, one
    member per row."""
    times = -HALF_SPAN + (2.0 * HALF_SPAN / num_times) * np.arange(num_times)
    rows = dispersive_phase(grid, times) * c0[..., None, :]
    vals = grid.idft(rows, real=True)
    return SpaceTimeSample(grid, -HALF_SPAN, HALF_SPAN, vals)


def linear_free_ratio(u0: np.ndarray, grid: SpectralGrid, params: NormParams, T: float,
                      num_times: int = 64) -> float | np.ndarray:
    """Windowed free wave of the data u0, samples (..., N) on grid, in the
    dispersive norm against sqrt(T) times the exponential norm of the data;
    one transform of u0 serves both.  The cutoff is the unscaled psi, so T
    only enters the denominator."""
    _require(params.b > 0.5, f"need b > 1/2, got {params.b}")
    _require(T >= 1.0, f"need T >= 1, got {T}")
    c0 = forward_transform(u0, grid)
    lhs = bourgain_norm(free_wave_sample(c0, grid, num_times), params, CutoffProfile(1.0))
    return _ratio(lhs, np.sqrt(T) * gevrey_norm(c0, grid, params))


def time_cutoff_ratio(sample: SpaceTimeSample, params: NormParams, T: float) -> float | np.ndarray:
    """Dispersive norm of psi_T times the sample against the norm of the
    sample itself."""
    _require(params.b > 0.5, f"need b > 1/2, got {params.b}")
    _require(T >= 1.0, f"need T >= 1, got {T}")
    lhs = bourgain_norm(sample, params, CutoffProfile(T))
    return _ratio(lhs, bourgain_norm(sample, params, None))


def _duhamel_rows(coeffs: np.ndarray, grid: SpectralGrid, dt: float, j0: int) -> np.ndarray:
    """Trapezoid accumulation of int_0^t e^{i zeta^3 (t-s)} w(s) ds per mode
    of the half-spectrum rows (..., M, N/2+1), marching both ways from row j0.
    Each march forms its sum in place, so each gets a copy of its rows: the
    two share row j0, and coeffs stays as it is."""
    phase = dispersive_phase(grid, dt)
    forward = _duhamel_cumulative(coeffs[..., j0:, :].copy(), phase, dt)
    backward = _duhamel_cumulative(coeffs[..., j0::-1, :].copy(), np.conj(phase), -dt)
    return np.concatenate([backward[..., ::-1, :], forward[..., 1:, :]], axis=-2)


def duhamel_ratio(
    sample: SpaceTimeSample, params: NormParams, b_prime: float, T: float
) -> float | np.ndarray:
    """Windowed Duhamel integral of the sample, measured with exponent b,
    against T times the sample measured with the weaker exponent b'."""
    _require(params.b > 0.5, f"need b > 1/2, got {params.b}")
    _require(params.b - 1.0 < b_prime < 0.0, f"need b - 1 < b' < 0, got b'={b_prime}")
    _require(T >= 1.0, f"need T >= 1, got {T}")
    _require(
        -sample.t0 >= 2.0 * T and sample.t1 >= 2.0 * T,
        f"window [{sample.t0}, {sample.t1}) does not contain the cutoff "
        f"support [-{2 * T}, {2 * T}]",
    )
    g = sample.grid
    times = sample.times
    j0 = int(np.argmin(np.abs(times)))
    _require(abs(times[j0]) <= 1e-9 * sample.dt, "time grid must contain t = 0")
    integral = _duhamel_rows(g.dft(sample.values, real=True), g, sample.dt, j0)
    vals = g.idft(integral, real=True) * np.asarray(CutoffProfile(T)(times))[:, None]
    lhs = bourgain_norm(SpaceTimeSample(g, sample.t0, sample.t1, vals), params, None)
    weak = NormParams(params.rho, params.s, b_prime)
    return _ratio(lhs, T * bourgain_norm(sample, weak, None))


@dataclass(frozen=True)
class StrichartzVariant:
    """One mixed-norm bound: spatial weight power (None means -s, the
    maximal-function family), outer/inner exponents, and the floor of s."""

    weight_power: float | None
    p_exp: float
    q_exp: float
    s_floor: float


STRICHARTZ_VARIANTS = {
    "smooth_l4x_l2t": StrichartzVariant(0.5, 4.0, 2.0, -np.inf),
    "smooth_linfx_l2t": StrichartzVariant(1.0, np.inf, 2.0, -np.inf),
    "maximal_l2x_linft": StrichartzVariant(None, 2.0, np.inf, 3.0 * STRICHARTZ_KAPPA),
    "maximal_l4x_linft": StrichartzVariant(None, 4.0, np.inf, 0.25),
    "maximal_linfx_linft": StrichartzVariant(None, np.inf, np.inf, 0.5),
}


def _strichartz_variant(variant: str, s: float) -> StrichartzVariant:
    try:
        v = STRICHARTZ_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {sorted(STRICHARTZ_VARIANTS)}"
        ) from None
    _require(s > v.s_floor, f"{variant} needs s > {v.s_floor:.4g}, got {s}")
    return v


def strichartz_ratio(sample: SpaceTimeSample, variant: str, s: float = 2.0) -> float | np.ndarray:
    """Mixed norm of the weighted, dispersively smoothed sample against the
    plain L^2 size of its space-time spectrum."""
    v = _strichartz_variant(variant, s)
    power = -s if v.weight_power is None else v.weight_power
    coeffs = xt_transform(sample)  # one transform serves both sides
    lhs = mixed_norm(apply_smoothing_weight(sample, coeffs, STRICHARTZ_KAPPA, power),
                     v.p_exp, v.q_exp)
    return _ratio(lhs, sample_l2(xt_modulus(sample, coeffs), sample.cell))


class _FactorSpectra:
    """The half-spectra of samples' rows for dealiased_product, each made as
    it is read, so one factor's transform is alive at a time."""

    def __init__(self, samples: Sequence[SpaceTimeSample]):
        self.samples = samples

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[np.ndarray]:
        return (forward_transform(s.values, s.grid) for s in self.samples)


def product_sample(samples: Sequence[SpaceTimeSample]) -> SpaceTimeSample:
    """Dealiased pointwise product of samples sharing both grids and their
    shape, taken on all time rows (and members) at once: each row is one
    spatial product."""
    _require(len(samples) >= 1, "product_sample: need at least one factor")
    base = samples[0]
    window = (base.grid, base.values.shape, base.t0, base.t1)
    same = all((s.grid, s.values.shape, s.t0, s.t1) == window for s in samples[1:])
    _require(same, "product_sample: samples must share grid and time window")
    rows = dealiased_product(_FactorSpectra(samples), base.grid)
    return SpaceTimeSample(base.grid, base.t0, base.t1, rows)


def derivative_sample(sample: SpaceTimeSample) -> SpaceTimeSample:
    """Spatial derivative, one multiplier pass over all time rows."""
    g = sample.grid
    coeffs = g.dft(sample.values, real=True) * g.derivative_symbol(1)
    return SpaceTimeSample(g, sample.t0, sample.t1, g.idft(coeffs, real=True))


def multilinear_ratio(
    factors: Sequence[SpaceTimeSample], params: NormParams, b_prime: float
) -> float | np.ndarray:
    """Derivative of the dealiased product in the b' norm against the product
    of the factors' b norms.  A product of finite positive norms outside the
    normal float range raises, as it would read as the ratio 0."""
    _require(params.b > 0.5, f"need b > 1/2, got {params.b}")
    _require(b_prime < -0.25, f"need b' < -1/4, got {b_prime}")
    _require(b_prime >= -1.0, f"need b' >= -1, got {b_prime}")
    _require(params.s >= 3.0 * params.b, f"need s >= 3b = {3 * params.b:.4g}, got {params.s}")
    lhs = bourgain_norm(
        derivative_sample(product_sample(factors)),
        NormParams(params.rho, params.s, b_prime),
        None,
    )
    norms = np.array([bourgain_norm(f, params, None) for f in factors])
    with np.errstate(over="ignore"):  # an overflow is rejected below
        rhs = np.prod(norms, axis=0)  # in factor order, the bits of a running product
    positive = np.all((norms > 0.0) & np.isfinite(norms), axis=0)
    if np.any((rhs < np.finfo(np.float64).tiny) & positive):
        raise OverflowError(f"multilinear: the product of {len(factors)} positive factor "
                            "norms underflows the float range; raise the sample amplitude")
    if np.any(np.isinf(rhs) & positive):
        raise OverflowError(f"multilinear: the product of {len(factors)} positive factor "
                            "norms overflows the float range; lower the sample amplitude or rho")
    return _ratio(lhs, rhs)


# ---------------------------------------------------------------------------
# Ensemble drivers.  Member i always uses seed spec.seed + i, so ensembles
# nest: a longer run's ratios start with the shorter run's, bit for bit.


def _base_params(spec: SampleSpec, params: NormParams | None, grid: SpectralGrid,
                 num_times: int, **info) -> dict:
    """The recorded parameters of a check; info joins them last."""
    out = {
        "master_seed": spec.seed,
        "bandwidth": spec.bandwidth,
        "envelope": spec.envelope,
        "rho0": spec.rho0,
        "window_scale": 1.0,  # the cutoff is psi(t), unscaled
        "amplitude": spec.amplitude,
        "half_length": grid.half_length,
        "num_points": grid.num_points,
        "num_times": num_times,
    }
    if params is not None:
        out.update({"rho": params.rho, "s": params.s, "b": params.b})
    return {**out, **info}


def _member_ratios(estimate_id: str, spec: SampleSpec, ensemble: int,
                   ratios: Callable[[list[int]], np.ndarray]) -> tuple[list[int], np.ndarray]:
    """The seeds spec.seed + i and ratios(batch) over them, MEMBER_CHUNK
    seeds per batch, joined along the member axis."""
    _require(ensemble >= 1, f"{estimate_id}: empty ensemble")
    seeds = [spec.seed + i for i in range(ensemble)]
    batches = range(0, ensemble, MEMBER_CHUNK)
    return seeds, np.concatenate([ratios(seeds[i : i + MEMBER_CHUNK]) for i in batches])


def _ensemble(estimate_id: str, spec: SampleSpec, params: NormParams | None,
              grid: SpectralGrid, num_times: int, ensemble: int,
              ratios: Callable[[list[int]], np.ndarray], **info) -> EstimateReport:
    """Fold ratios(seeds), one ratio per seed of a batch, over the seeds
    spec.seed + i; info joins the recorded parameters."""
    seeds, values = _member_ratios(estimate_id, spec, ensemble, ratios)
    return _fold(estimate_id, seeds, values, _base_params(spec, params, grid, num_times, **info))


def check_linear_free(
    spec: SampleSpec,
    params: NormParams,
    T: float,
    grid: SpectralGrid = LAB_GRID,
    num_times: int = 64,
    ensemble: int = 50,
) -> EstimateReport:
    """Windowed free waves from random data: dispersive norm against
    sqrt(T) times the data norm."""

    def ratios(seeds: list[int]) -> np.ndarray:
        return linear_free_ratio(random_field(grid, spec, seeds), grid, params, T, num_times)

    return _ensemble("linear_free", spec, params, grid, num_times, ensemble, ratios, T=T)


def check_time_cutoff(
    spec: SampleSpec,
    params: NormParams,
    T: float,
    grid: SpectralGrid = LAB_GRID,
    num_times: int = 64,
    ensemble: int = 50,
) -> EstimateReport:
    """Stability of the dispersive norm under multiplication by psi_T."""

    def ratios(seeds: list[int]) -> np.ndarray:
        return time_cutoff_ratio(random_window_sample(grid, spec, num_times, seeds), params, T)

    return _ensemble("time_cutoff", spec, params, grid, num_times, ensemble, ratios, T=T)


def check_duhamel(
    spec: SampleSpec,
    params: NormParams,
    T: float,
    b_prime: float = -0.3,
    grid: SpectralGrid = LAB_GRID,
    num_times: int = 64,
    ensemble: int = 50,
) -> EstimateReport:
    """Windowed Duhamel integral against T times the forcing in the b' norm."""
    span = HALF_SPAN * max(T, 1.0)

    def ratios(seeds: list[int]) -> np.ndarray:
        batch = random_window_sample(grid, spec, num_times, seeds, half_span=span)
        return duhamel_ratio(batch, params, b_prime, T)

    return _ensemble("duhamel", spec, params, grid, num_times, ensemble, ratios,
                     T=T, b_prime=b_prime, half_span=span)


def check_strichartz(
    variant: str,
    spec: SampleSpec,
    s: float = 2.0,
    grid: SpectralGrid = LAB_GRID,
    num_times: int = 64,
    ensemble: int = 50,
) -> EstimateReport:
    """One mixed-norm bound at kappa = STRICHARTZ_KAPPA over an ensemble of
    boxed random samples."""
    _strichartz_variant(variant, s)  # fail fast before sampling

    def ratios(seeds: list[int]) -> np.ndarray:
        batch = random_boxed_sample(grid, spec, num_times, seeds)
        return strichartz_ratio(batch, variant, s)

    return _ensemble(f"strichartz:{variant}", spec, None, grid, num_times, ensemble, ratios,
                     variant=variant, kappa=STRICHARTZ_KAPPA, s=s, half_span=HALF_SPAN)


def check_multilinear(
    p: int,
    params: NormParams,
    spec: SampleSpec,
    b_prime: float = -0.3,
    grid: SpectralGrid = LAB_GRID,
    num_times: int = 48,
    ensemble: int = 50,
) -> EstimateReport:
    """Product estimate with 2p+1 random factors.

    Both factor-count splits (p of one component with p+1 of the other, and
    the mirror) are the same product up to relabeling, but each still gets
    its own draws; the per-member ratio is the worse of the two.  Member i
    derives its factor seeds from spec.seed + i as base * 1009 + k, with the
    mirror offset by 500000.
    """
    _require(isinstance(p, (int, np.integer)) and p >= 1, f"p must be a positive int, got {p}")
    count = 2 * p + 1
    estimate_id = f"multilinear:p={p}"

    def split_ratios(seeds: list[int]) -> np.ndarray:
        """(members, 2): the ratio of each member's first and mirror split."""
        factor_seeds = [sd * 1009 + offset + k
                        for sd in seeds for offset in (0, 500000) for k in range(count)]
        batch = random_window_sample(grid, spec, num_times, factor_seeds)
        vals = batch.values.reshape(-1, count, num_times, grid.num_points)
        factors = [SpaceTimeSample(grid, batch.t0, batch.t1, vals[:, k]) for k in range(count)]
        return multilinear_ratio(factors, params, b_prime).reshape(-1, 2)

    seeds, splits = _member_ratios(estimate_id, spec, ensemble, split_ratios)
    first, mirror = splits.T
    recorded = _base_params(spec, params, grid, num_times, p=p, b_prime=b_prime)
    extra = {"max_ratio_first_split": float(np.max(first)),
             "max_ratio_mirror_split": float(np.max(mirror))}
    # the worse split, and the first one when they tie or the mirror is NaN
    return _fold(estimate_id, seeds, np.where(mirror > first, mirror, first), recorded, extra)


def check_embedding(
    spec: SampleSpec,
    params: NormParams,
    grid: SpectralGrid = LAB_GRID,
    num_times: int = 64,
    ensemble: int = 50,
) -> EstimateReport:
    """Sup over time of the per-slice exponential norm against the dispersive
    norm; the b > 1/2 embedding constant, observed empirically."""
    _require(params.b > 0.5, f"need b > 1/2, got {params.b}")

    def ratios(seeds: list[int]) -> np.ndarray:
        w = random_window_sample(grid, spec, num_times, seeds)
        slices = gevrey_norm(forward_transform(w.values, grid), grid, params)
        return _ratio(np.max(slices, axis=-1), bourgain_norm(w, params, None))

    return _ensemble("embedding", spec, params, grid, num_times, ensemble, ratios)


# ---------------------------------------------------------------------------
# Scalar inequalities used by the nonlinear machinery; exact, so any failure
# on any grid point is a bug, not noise.


def triangle_split_failures(
    rhos: np.ndarray, zetas: np.ndarray, z1s: np.ndarray, z2s: np.ndarray
) -> int:
    """Number of grid points (rho, z, z1, z2) that violate the triangle split

        e^{rho(1+|z|)} <= e^{rho(1+|z1|)} e^{rho(1+|z-z2|)} e^{rho(1+|z2-z1|)},

    tested on the exponents as rho a > rho b + 1e-12, with a = 1 + |z| and b
    the sum of the three exponents on the right (0 expected: |z| <= |z1| +
    |z-z2| + |z2-z1|, plus 1 <= 3 spare ones).

    The test runs only on the points that can fail, and the count is that of
    the test at every point.  Rounded multiplication is monotone: for
    rho > 0, a <= b gives rho a <= rho b, and adding 1e-12 rounds to no less
    than rho b, so only a point with a > b can fail.  For rho < 0 the
    products swap order, so only a point with a < b can fail.  At rho = +-0
    both products are +-0 or NaN, which never exceeds 1e-12, and a NaN
    anywhere compares false.

    The grid is swept one z1 value at a time, so the largest arrays alive
    are (z, z2) planes and not the full (z, z1, z2) grid.
    """
    rhos = np.asarray(rhos)
    signs = [(rhos[signed], can_fail)
             for signed, can_fail in ((rhos > 0, np.greater), (rhos < 0, np.less))
             if signed.any()]
    if not signs:
        return 0
    z = zetas[:, None]
    lhs_arg = 1.0 + np.abs(z)
    failures = 0
    for z1 in z1s:
        # (x + y) + w, rounded as the plain sum, without a second plane temporary
        rhs_arg = (1.0 + np.abs(z1)) + (1.0 + np.abs(z - z2s))
        rhs_arg += 1.0 + np.abs(z2s - z1)
        for signed_rhos, can_fail in signs:
            mask = can_fail(lhs_arg, rhs_arg)
            if not mask.any():
                continue
            a, b = np.broadcast_to(lhs_arg, mask.shape)[mask], rhs_arg[mask]
            for rho in signed_rhos:
                failures += int(np.count_nonzero(rho * a > rho * b + 1e-12))
    return failures


def check_exponential_lemmas(
    rhos: np.ndarray | None = None,
    zetas: np.ndarray | None = None,
    z1s: np.ndarray | None = None,
    z2s: np.ndarray | None = None,
) -> dict:
    """Sweep e^{rho(1+|z|)} <= e + sqrt(rho) e^{rho(1+|z|)} sqrt(1+|z|) and
    the three-factor triangle split over a dense parameter grid."""
    rhos = np.linspace(0.0, 2.0, 41) if rhos is None else np.asarray(rhos, dtype=np.float64)
    zetas = np.linspace(0.0, 100.0, 201) if zetas is None else np.asarray(zetas, dtype=np.float64)
    z1s = np.linspace(-100.0, 100.0, 41) if z1s is None else np.asarray(z1s, dtype=np.float64)
    z2s = np.linspace(-100.0, 100.0, 41) if z2s is None else np.asarray(z2s, dtype=np.float64)
    _require(bool(np.all(rhos >= 0.0)), "rho grid must be nonnegative")

    az = 1.0 + np.abs(zetas)[None, :]
    lhs = np.exp(rhos[:, None] * az)
    rhs = np.e + np.sqrt(rhos)[:, None] * lhs * np.sqrt(az)
    pointwise_failures = int(np.count_nonzero(lhs > rhs))

    triangle_failures = triangle_split_failures(rhos, zetas, z1s, z2s)
    return {
        "pointwise_checked": int(lhs.size),
        "pointwise_failures": pointwise_failures,
        "triangle_checked": int(rhos.size * zetas.size * z1s.size * z2s.size),
        "triangle_failures": triangle_failures,
        "passed": pointwise_failures == 0 and triangle_failures == 0,
    }


# ---------------------------------------------------------------------------
# Windowed-trajectory bound.  The symmetric cutoff needs the solution on
# [-2T, 2T]; bidirectional_record builds that from data at t=0 using the
# (t, x) -> (-t, -x) symmetry, so no negative time steps are taken.


def bidirectional_record(
    initial: CoupledState, config: SolverConfig, t_half: float
) -> TrajectoryRecord:
    """Trajectory on [t0 - t_half, t0 + t_half] with uniform record times.

    The backward half is the run of the reflected data with its rows
    reflected back, joined to the forward rows in one array.
    """
    _require(t_half > 0.0, f"t_half must be positive, got {t_half}")
    cfg = dataclasses.replace(config, t_end=initial.t + t_half)
    fwd = simulate(initial, cfg)
    back = simulate(CoupledState(initial.t, initial.grid, reflect_samples(initial.pair)), cfg)
    # back in time; [:0:-1] skips the duplicate t0 entry
    rows = np.concatenate((reflect_samples(back.samples()[:, :0:-1]), fwd.samples()), axis=1)
    times = [2.0 * initial.t - t for t in back.times[:0:-1]] + fwd.times
    return TrajectoryRecord(initial.grid, config.p, rows, times)


def _windowed_pair_sample(record: TrajectoryRecord, T: float) -> SpaceTimeSample:
    """The record times psi_T, with the pair (u, v) on the member axis."""
    times = np.asarray(record.times)
    _require(len(record) >= 5, f"need at least 5 record times, got {len(record)}")
    steps = np.diff(times)
    h = float(steps[0])
    _require(
        h > 0.0 and bool(np.all(np.abs(steps - h) <= 1e-9 * h)),
        "record times must be uniform and increasing",
    )
    tol = 0.5 * h
    _require(
        times[0] <= -2.0 * T + tol and times[-1] >= 2.0 * T - tol,
        f"trajectory spans [{times[0]:.4g}, {times[-1]:.4g}] but the cutoff "
        f"needs [-2T, 2T] = [{-2 * T}, {2 * T}]; extend backward by reflection",
    )
    keep = np.abs(times) <= 2.0 * T + tol
    psi = np.asarray(CutoffProfile(T)(times[keep]))
    rows = psi[:, None] * record.samples()[:, keep]  # (2, rows, N)
    # pad with exact zeros past the cutoff support; keeps spacing uniform and
    # makes the edge rows vanish as the transform requires
    n_pad = max(1, int(np.ceil(0.5 * T / h)))
    n_right = n_pad + (rows.shape[1] + 2 * n_pad) % 2
    pair = np.pad(rows, ((0, 0), (n_pad, n_right), (0, 0)))
    t0 = float(times[keep][0]) - n_pad * h
    return SpaceTimeSample(record.grid, t0, t0 + pair.shape[1] * h, pair)


def _pair_sup(coeffs: np.ndarray, grid: SpectralGrid, params: NormParams) -> float:
    """Sup over the rows (2, rows, N/2 + 1) of the pair's norm."""
    return float(np.max(np.hypot(*gevrey_norm(coeffs, grid, params)), initial=0.0))


def _sup_power(sup: float, power: int, name: str, params: NormParams) -> float:
    """(1 + sup)^power, or OverflowError naming the sup, rho and s where that
    leaves the float range."""
    try:
        return (1.0 + sup) ** power
    except OverflowError:
        raise OverflowError(
            f"apriori: (1 + {name})^{power} overflows at {name} = {sup:.4g} "
            f"(rho = {params.rho:g}, s = {params.s:g}); reduce rho or s"
        ) from None


def check_apriori(
    traj: TrajectoryRecord, params: NormParams, T: float, p: int = 1
) -> EstimateReport:
    """Windowed dispersive norm of a recorded solution pair against
    sqrt(T) (1 + sup-norm over [0, 2T])^{2p+1}.

    The sup uses the derivative-weighted norm at s+1, then the
    exponential-weighted one at params.rho (the same norm at rho = 0), and
    the worse ratio is reported.
    """
    _require(params.s > 1.5, f"need s > 3/2, got {params.s}")
    _require(T >= 1.0, f"need T >= 1, got {T}")
    _require(isinstance(p, (int, np.integer)) and p >= 1, f"p must be a positive int, got {p}")
    pair = _windowed_pair_sample(traj, T)
    power = 2 * p + 1
    times = np.asarray(traj.times)
    inside = (times >= -1e-9) & (times <= 2.0 * T + 1e-9)
    coeffs = forward_transform(traj.samples()[:, inside], traj.grid)  # the rows on [0, 2T]

    extra = {}
    for rho, scale in ((0.0, "derivative"), (params.rho, "exponential")):
        lhs = float(np.hypot(*bourgain_norm(pair, NormParams(rho, params.s, params.b), None)))
        sup = _pair_sup(coeffs, traj.grid, NormParams(rho, params.s + 1.0, 0.0))
        bound = np.sqrt(T) * _sup_power(sup, power, f"sup_{scale}", params)
        extra[f"sup_{scale}"], extra[f"ratio_{scale}_scale"] = sup, _ratio(lhs, bound)
    ratios = [extra["ratio_derivative_scale"], extra["ratio_exponential_scale"]]

    info = {"rho": params.rho, "s": params.s, "b": params.b, "T": T, "p": p,
            "record_times": len(traj)}
    return _fold("apriori", [-1, -1], ratios, info, extra)


def check_apriori_ensemble(
    spec: SampleSpec,
    params: NormParams,
    T: float,
    p: int = 1,
    grid: SpectralGrid = LAB_GRID,
    ensemble: int = 20,
) -> EstimateReport:
    """check_apriori over short two-sided runs from random analytic data.

    Keep spec.amplitude small: the stepping is explicit in the nonlinearity
    and large random data on a coarse grid blows up honestly.
    """
    cfg = SolverConfig(p=p, dt=APRIORI_DT, t_end=2.0 * T, record_stride=APRIORI_STRIDE)

    def ratios(seeds: list[int]) -> list[float]:
        us = random_field(grid, spec, seeds)
        vs = random_field(grid, spec, [sd + 7919 for sd in seeds])
        states = (CoupledState(0.0, grid, [u, v]) for u, v in zip(us, vs))
        return [check_apriori(bidirectional_record(st, cfg, 2.0 * T), params, T, p).max_ratio
                for st in states]

    return _ensemble("apriori", spec, params, grid, 0, ensemble, ratios,
                     T=T, p=p, dt=APRIORI_DT, record_stride=APRIORI_STRIDE)
