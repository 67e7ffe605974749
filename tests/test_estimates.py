"""Estimate-lab tests.

Each ratio gets a closed-form or independently coded oracle; the ensemble
drivers are pinned on reproducibility, seed nesting, and hypothesis
validation.  Observed constants are recorded by the lab, never asserted
against expected magnitudes here.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from gkdvlab import _kernels, estimates, spaces
from gkdvlab.diagnostics import TrajectoryRecord
from gkdvlab.estimates import (
    STRICHARTZ_KAPPA,
    STRICHARTZ_VARIANTS,
    SampleSpec,
    bidirectional_record,
    check_apriori,
    check_apriori_ensemble,
    check_duhamel,
    check_embedding,
    check_exponential_lemmas,
    check_linear_free,
    check_multilinear,
    check_strichartz,
    check_time_cutoff,
    derivative_sample,
    duhamel_ratio,
    free_wave_sample,
    linear_free_ratio,
    multilinear_ratio,
    product_sample,
    random_boxed_sample,
    random_field,
    random_window_sample,
    strichartz_ratio,
    time_cutoff_ratio,
    triangle_split_failures,
)
from gkdvlab.evolution import (
    CoupledState, SolverConfig, dispersive_phase, reflect_samples, simulate,
)
from gkdvlab.spaces import (
    CutoffProfile,
    NormParams,
    SpaceTimeSample,
    apply_smoothing_weight,
    bourgain_norm,
    bump,
    gevrey_norm,
    mixed_norm,
    xt_inverse,
    xt_transform,
)
from gkdvlab.spectral import (
    NonFiniteDataError,
    SpectralGrid,
    dealiased_product,
    forward_transform,
    inverse_transform,
)


def free_flow(state, t):
    """The exact free group of w_t + w_xxx = 0 over time t: the phase
    e^{i zeta^3 t} on each component's half-spectrum."""
    g = state.grid
    c = forward_transform(state.pair, g) * dispersive_phase(g, t)
    return CoupledState(state.t + t, g, inverse_transform(c, g))


GRID = SpectralGrid(10.0, 64)
PARAMS = NormParams(0.25, 2.0, 0.55)


class TestSampleSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"envelope": "box"},
            {"bandwidth": 0.0},
            {"bandwidth": np.inf},
            {"rho0": -1.0},
            {"amplitude": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SampleSpec(seed=1, **kwargs)

    def test_bandwidth_must_clear_dealias_cutoff(self):
        spec = SampleSpec(seed=1, bandwidth=8.0)  # cutoff of GRID is ~6.7
        with pytest.raises(ValueError, match="dealias"):
            random_field(GRID, spec)


class TestGenerators:
    def test_lab_sample_is_pinned(self):
        # the draws go to the wavenumbers in ascending order, so no change of
        # coefficient layout may redraw the lab ensembles; sha256 of the bytes
        s = random_field(estimates.LAB_GRID, SampleSpec(seed=3))
        assert list(s[:4]) == [0.43361360014777617, 0.5332406915445411,
                               0.7498276986999528, 0.9634919158035145]
        digest = hashlib.sha256(s.astype("<f8").tobytes()).hexdigest()
        assert digest == "51c6668030ce2ab111c18d3f34605342bcb4f62523a4d93410f3bf2e5ae828cd"

    def test_field_real_and_reproducible(self):
        spec = SampleSpec(seed=21)
        a = random_field(GRID, spec)
        b = random_field(GRID, spec)
        assert a.dtype == np.float64
        assert np.array_equal(a, b)

    def test_field_band_limited(self):
        # exact zeros hold for the half-spectrum the sampler builds; the
        # sample's own forward transform, Nyquist included, holds them up to
        # rounding
        spec = SampleSpec(seed=22, bandwidth=3.0)
        outside = GRID.rzeta > 3.0
        built = estimates._random_half_spectrum(GRID, spec, 1, np.array([22]))[0, 0]
        assert np.all(built[outside] == 0.0)
        assert built[GRID.nyquist_index] == 0.0
        c = forward_transform(random_field(GRID, spec), GRID)
        assert outside[GRID.nyquist_index]
        assert np.max(np.abs(c[outside])) < 1e-14

    def test_amplitude_scales_samples_linearly(self):
        base = random_field(GRID, SampleSpec(seed=23, amplitude=1.0))
        double = random_field(GRID, SampleSpec(seed=23, amplitude=2.0))
        assert np.allclose(double, 2.0 * base, rtol=1e-14, atol=0.0)

    def test_envelope_reweights_same_draws(self):
        # same seed, different envelope: the coefficient ratio must equal the
        # weight ratio exactly because the Gaussian draws are shared
        flat = forward_transform(
            random_field(GRID, SampleSpec(seed=24, envelope="flat")), GRID
        )
        expo = forward_transform(
            random_field(GRID, SampleSpec(seed=24, envelope="exponential", rho0=0.5)),
            GRID,
        )
        keep = np.abs(flat) > 1e-12
        got = np.abs(expo[keep]) / np.abs(flat[keep])
        want = np.exp(-0.5 * GRID.rzeta[keep])
        assert np.allclose(got, want, rtol=1e-10)

    def test_gaussian_envelope_edge_and_support(self):
        # the band edge sits at two standard deviations: weight amplitude e^-2
        # the table holds the in-band modes 0 ... 10 only
        edge = float(GRID.rzeta[10])
        spec = SampleSpec(seed=0, envelope="gaussian", bandwidth=edge, amplitude=1.5)
        w = estimates._envelope_weights(GRID, spec)
        assert w.shape == (11,)
        assert w[10] == 1.5 * np.exp(-2.0)
        assert w[0] == 1.5

    def test_window_sample_vanishes_outside_cutoff_support(self):
        spec = SampleSpec(seed=25)
        w = random_window_sample(GRID, spec, num_times=64)
        outside = np.abs(w.times) >= 2.0
        assert np.max(np.abs(w.values[outside])) == 0.0
        assert np.any(np.abs(w.values[~outside]) > 0.0)

    def test_window_sample_half_span_validation(self):
        with pytest.raises(ValueError, match="half_span"):
            random_window_sample(GRID, SampleSpec(seed=26), half_span=1.0)

    def test_boxed_sample_is_unwindowed(self):
        w = random_boxed_sample(GRID, SampleSpec(seed=27), num_times=32)
        assert np.max(np.abs(w.values[0])) > 0.0
        assert np.max(np.abs(w.values[-1])) > 0.0


def full_spectrum_real_rows(grid, spec, num_times, seeds):
    """Independently coded sampler of the same law for an exponential
    envelope: N complex Gaussians per row in ascending wavenumber order,
    enveloped over the full spectrum, phased relative to x = 0, and the real
    part of a full complex inverse."""
    assert spec.envelope == "exponential"
    c = np.empty((len(seeds), num_times, grid.num_points), dtype=np.complex128)
    order = np.argsort(grid.zeta)
    for member, sd in zip(c, seeds):
        draws = np.random.default_rng(sd).standard_normal((2,) + member.shape)
        member.real[:, order] = draws[0]
        member.imag[:, order] = draws[1]
    az = np.abs(grid.zeta)
    c *= spec.amplitude * np.where(az <= spec.bandwidth, np.exp(-spec.rho0 * az), 0.0)
    c[..., 1::2] *= -1.0
    return grid.idft(c, axis=-1).real


class TestSamplerLaw:
    SPEC = SampleSpec(seed=40)  # exponential envelope on |zeta| <= 4: modes 0 ... 12

    @pytest.mark.parametrize("sampler", [estimates._random_rows, full_spectrum_real_rows])
    def test_per_mode_variance_matches_closed_form(self, sampler):
        # E|C_k|^2 = w_k^2 on every mode, the zero mode included.  Over 32000
        # rows |C_k|^2 / w_k^2 averages an exponential (a chi-square with one
        # degree of freedom at k = 0), so 4% is beyond five standard errors
        seeds, rows = 2000, 16
        power = np.zeros(GRID.num_points // 2 + 1)
        for first in range(0, seeds, 250):
            samples = sampler(GRID, self.SPEC, rows, list(range(first, first + 250)))
            power += np.sum(np.abs(GRID.dft(samples, real=True)) ** 2, axis=(0, 1))
        power /= seeds * rows
        w2 = np.exp(-self.SPEC.rho0 * GRID.rzeta) ** 2  # w_k = e^{-rho0 zeta_k}
        band = GRID.rzeta <= self.SPEC.bandwidth
        assert np.count_nonzero(band) == 13
        np.testing.assert_allclose(power[band], w2[band], rtol=0.04, atol=0.0)
        assert np.all(power[~band] < 1e-25)

    @pytest.mark.parametrize("num_times", [1, 64])
    def test_member_is_its_seed_drawn_alone(self, num_times):
        seeds = [self.SPEC.seed + i for i in range(5)]
        batch = estimates._random_rows(GRID, self.SPEC, num_times, seeds)
        assert batch.shape == (5, num_times, GRID.num_points)
        for i, sd in enumerate(seeds):
            assert np.array_equal(batch[i], estimates._random_rows(GRID, self.SPEC, num_times, sd))

    def test_draws_land_in_ascending_in_band_modes(self):
        # flat envelope: mode k holds its draws times (-1)^k / sqrt(2), the
        # zero mode its real draw alone
        spec = SampleSpec(seed=9, envelope="flat")
        keep = 13
        built = estimates._random_half_spectrum(GRID, spec, 3, np.array([9]))[0]
        draws = np.random.default_rng(9).standard_normal((2, 3, keep))
        k = np.arange(keep)
        unscale = np.where(k == 0, 1.0, np.sqrt(2.0)) * (-1.0) ** k
        np.testing.assert_allclose(built.real[:, :keep] * unscale, draws[0], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(built.imag[:, 1:keep] * unscale[1:], draws[1][:, 1:],
                                   rtol=1e-15, atol=0.0)
        assert np.all(built.imag[:, 0] == 0.0)
        assert np.all(built[:, keep:] == 0.0)


class TestReportPlumbing:
    def test_as_dict_serializes(self):
        rep = check_time_cutoff(SampleSpec(seed=1), PARAMS, 1.0, ensemble=2)
        blob = json.dumps(dataclasses.asdict(rep), sort_keys=True)
        assert "time_cutoff" in blob
        assert json.loads(blob)["ensemble"] == 2

    def test_zero_over_zero_is_zero(self):
        assert estimates._ratio(0.0, 0.0) == 0.0

    def test_nonzero_over_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            estimates._ratio(1.0, 0.0)

    def test_ensembles_nest_bit_exactly(self):
        spec = SampleSpec(seed=31)
        long = check_linear_free(spec, PARAMS, 1.0, ensemble=10)
        short = check_linear_free(spec, PARAMS, 1.0, ensemble=4)
        assert long.ratios[:4] == short.ratios
        assert long.max_ratio >= short.max_ratio

    def test_reports_reproducible(self):
        spec = SampleSpec(seed=32)
        a = check_duhamel(spec, PARAMS, 1.0, ensemble=3)
        b = check_duhamel(spec, PARAMS, 1.0, ensemble=3)
        assert a.max_ratio == b.max_ratio
        assert a.ratios == b.ratios
        assert a.max_seed == b.max_seed


def _every_check():
    """Each of the eleven lab checks as a function of the ensemble size."""
    spec = SampleSpec(seed=101)
    small = SampleSpec(seed=101, amplitude=0.05, bandwidth=3.0)
    checks = {
        "linear_free": lambda n: check_linear_free(spec, PARAMS, 1.0, ensemble=n),
        "time_cutoff": lambda n: check_time_cutoff(spec, PARAMS, 1.0, ensemble=n),
        "duhamel": lambda n: check_duhamel(spec, PARAMS, 1.0, ensemble=n),
        "multilinear": lambda n: check_multilinear(2, PARAMS, spec, ensemble=n),
        "embedding": lambda n: check_embedding(spec, PARAMS, ensemble=n),
        "apriori": lambda n: check_apriori_ensemble(small, PARAMS, 1.0, ensemble=n),
    }
    for v in STRICHARTZ_VARIANTS:
        checks[f"strichartz:{v}"] = lambda n, v=v: check_strichartz(v, spec, ensemble=n)
    return checks


EVERY_CHECK = _every_check()


class TestMemberBatches:
    """Every check but apriori evaluates its members in batches of
    estimates.MEMBER_CHUNK on a leading member axis; a member's ratio must
    be the one it gets alone, in any batch."""

    SEEDS = [5, 17, 940]

    @pytest.mark.parametrize("name", sorted(EVERY_CHECK))
    def test_ensembles_nest_across_batch_boundaries(self, name, monkeypatch):
        default = EVERY_CHECK[name](7)
        monkeypatch.setattr(estimates, "MEMBER_CHUNK", 2)  # batches of 2, 2, 2, 1
        short, long = EVERY_CHECK[name](3), EVERY_CHECK[name](7)
        assert long.ratios[:3] == short.ratios
        assert long.ratios == default.ratios
        assert long.extra == default.extra and long.max_seed == default.max_seed

    def test_batched_draws_are_the_single_draws(self):
        spec = SampleSpec(seed=0)
        batch = random_window_sample(GRID, spec, 16, self.SEEDS)
        boxed = random_boxed_sample(GRID, spec, 16, self.SEEDS)
        fields = random_field(GRID, spec, self.SEEDS)
        assert batch.values.shape == boxed.values.shape == (3, 16, GRID.num_points)
        for i, sd in enumerate(self.SEEDS):
            assert np.array_equal(batch.values[i], random_window_sample(GRID, spec, 16, sd).values)
            assert np.array_equal(boxed.values[i], random_boxed_sample(GRID, spec, 16, sd).values)
            assert np.array_equal(fields[i], random_field(GRID, spec, sd))

    def test_batch_gives_each_member_its_single_sample_ratio(self):
        spec = SampleSpec(seed=0)

        def window(seed):
            return random_window_sample(GRID, spec, 64, seed)

        def boxed(seed):
            return random_boxed_sample(GRID, spec, 64, seed)

        def factors(seed):  # three factors per member, from seeds 10 * seed + k
            return [random_window_sample(GRID, spec, 48, np.multiply(seed, 10) + k)
                    for k in range(3)]

        cases = {
            "linear_free": (lambda sd: random_field(GRID, spec, sd),
                            lambda u: linear_free_ratio(u, GRID, PARAMS, 1.0)),
            "time_cutoff": (window, lambda w: time_cutoff_ratio(w, PARAMS, 1.0)),
            "duhamel": (window, lambda w: duhamel_ratio(w, PARAMS, -0.3, 1.0)),
            "multilinear": (factors, lambda f: multilinear_ratio(f, PARAMS, -0.3)),
            **{v: (boxed, lambda w, v=v: strichartz_ratio(w, v)) for v in STRICHARTZ_VARIANTS},
        }
        for name, (draw, ratio) in cases.items():
            batch = ratio(draw(self.SEEDS))
            assert isinstance(batch, np.ndarray) and batch.shape == (3,), name
            for i, sd in enumerate(self.SEEDS):
                single = ratio(draw(sd))
                assert isinstance(single, float), name
                assert batch[i] == single, name

    @pytest.mark.parametrize("seed", [0, 3, 77])
    def test_batch_of_one_equals_the_per_sample_ratio(self, seed):
        spec = SampleSpec(seed=seed)
        w = random_window_sample(GRID, spec, 64)
        slices = gevrey_norm(forward_transform(w.values, GRID), GRID, PARAMS)
        emb = float(np.max(slices)) / bourgain_norm(w, PARAMS)
        assert check_embedding(spec, PARAMS, ensemble=1).ratios == (emb,)
        assert check_time_cutoff(spec, PARAMS, 1.0, ensemble=1).ratios == (
            time_cutoff_ratio(w, PARAMS, 1.0),)
        assert check_linear_free(spec, PARAMS, 1.0, ensemble=1).ratios == (
            linear_free_ratio(random_field(GRID, spec), GRID, PARAMS, 1.0),)
        boxed = random_boxed_sample(GRID, spec, 64)
        assert check_strichartz("maximal_l4x_linft", spec, ensemble=1).ratios == (
            strichartz_ratio(boxed, "maximal_l4x_linft"),)

    def test_ratio_of_a_batch(self):
        got = estimates._ratio(np.array([0.0, 3.0, 1.0]), np.array([0.0, 4.0, 8.0]))
        assert got.tolist() == [0.0, 0.75, 0.125]
        with pytest.raises(ZeroDivisionError, match="nonzero numerator 2.0"):
            estimates._ratio(np.array([0.0, 2.0]), np.array([0.0, 0.0]))


class TestLinearFree:
    def test_zero_data_ratio_zero(self):
        zero = np.zeros(GRID.num_points)
        assert linear_free_ratio(zero, GRID, PARAMS, 1.0) == 0.0

    def test_homogeneity(self):
        u0 = random_field(GRID, SampleSpec(seed=41))
        base = linear_free_ratio(u0, GRID, PARAMS, 1.0)
        scaled = linear_free_ratio(37.5 * u0, GRID, PARAMS, 1.0)
        assert abs(scaled - base) < 1e-12 * base

    def test_exact_inverse_sqrt_T_scaling(self):
        # the cutoff is T-independent, so T only rescales the denominator
        u0 = random_field(GRID, SampleSpec(seed=42))
        r1 = linear_free_ratio(u0, GRID, PARAMS, 1.0)
        r2 = linear_free_ratio(u0, GRID, PARAMS, 2.0)
        r4 = linear_free_ratio(u0, GRID, PARAMS, 4.0)
        assert abs(r1 - 2.0 * r4) < 1e-12 * r1
        assert abs(r1 - np.sqrt(2.0) * r2) < 1e-12 * r1
        assert max(r1, r2, r4) <= 2.0 * min(r1, r2, r4) * (1.0 + 1e-12)

    def test_free_wave_single_mode_phase(self):
        k = 4
        zk = k * GRID.dzeta
        u0 = np.cos(zk * GRID.x)
        s = free_wave_sample(forward_transform(u0, GRID), GRID, num_times=16)
        want = np.cos(zk * GRID.x[None, :] + zk**3 * s.times[:, None])
        assert np.max(np.abs(s.values - want)) < 1e-12

    def test_hypothesis_validation(self):
        u0 = random_field(GRID, SampleSpec(seed=43))
        with pytest.raises(ValueError, match="b > 1/2"):
            linear_free_ratio(u0, GRID, NormParams(0.25, 2.0, 0.4), 1.0)
        with pytest.raises(ValueError, match="T >= 1"):
            linear_free_ratio(u0, GRID, PARAMS, 0.5)

    def test_report_contents(self):
        spec = SampleSpec(seed=44)
        rep = check_linear_free(spec, PARAMS, 2.0, ensemble=5)
        assert rep.estimate_id == "linear_free"
        assert rep.ensemble == 5
        assert spec.seed <= rep.max_seed < spec.seed + 5
        assert not rep.violation
        assert rep.params["T"] == 2.0
        assert rep.max_ratio == max(rep.ratios)


class TestTimeCutoff:
    def test_ratio_one_when_cutoff_flat_on_support(self):
        # support of the sample is [-2, 2]; psi_8 is exactly 1 out to |t|=8
        w = random_window_sample(GRID, SampleSpec(seed=51), num_times=64)
        assert abs(time_cutoff_ratio(w, PARAMS, 8.0) - 1.0) < 1e-10

    def test_zero_sample_ratio_zero(self):
        w = SpaceTimeSample(GRID, -2.5, 2.5, np.zeros((16, GRID.num_points)))
        assert time_cutoff_ratio(w, PARAMS, 1.0) == 0.0

    def test_ensemble_finite(self):
        rep = check_time_cutoff(SampleSpec(seed=52), PARAMS, 1.0, ensemble=5)
        assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
        assert not rep.violation


class TestDuhamel:
    def test_recursion_matches_direct_quadrature(self):
        w = random_window_sample(GRID, SampleSpec(seed=61), num_times=32)
        cw = GRID.dft(w.values, axis=1, real=True)
        times, h = w.times, w.dt
        j0 = int(np.argmin(np.abs(times)))
        direct = np.zeros_like(cw)
        for j in range(len(times)):
            if j == j0:
                continue
            lo, hi = min(j0, j), max(j0, j)
            acc = np.zeros(GRID.num_points // 2 + 1, dtype=complex)
            for a in range(lo, hi):
                acc += 0.5 * h * (
                    dispersive_phase(GRID, times[j] - times[a]) * cw[a]
                    + dispersive_phase(GRID, times[j] - times[a + 1]) * cw[a + 1]
                )
            direct[j] = acc if j > j0 else -acc
        rec = estimates._duhamel_rows(cw, GRID, h, j0)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(rec - direct)) < 1e-12 * scale

    def test_zero_forcing_ratio_zero(self):
        w = SpaceTimeSample(GRID, -2.5, 2.5, np.zeros((16, GRID.num_points)))
        assert duhamel_ratio(w, PARAMS, -0.3, 1.0) == 0.0

    def test_hypothesis_validation(self):
        w = random_window_sample(GRID, SampleSpec(seed=62), num_times=16)
        with pytest.raises(ValueError, match="b'"):
            duhamel_ratio(w, PARAMS, 0.1, 1.0)
        with pytest.raises(ValueError, match="b'"):
            duhamel_ratio(w, PARAMS, -0.8, 1.0)  # below b - 1
        with pytest.raises(ValueError, match="T >= 1"):
            duhamel_ratio(w, PARAMS, -0.3, 0.5)
        with pytest.raises(ValueError, match="window"):
            duhamel_ratio(w, PARAMS, -0.3, 2.0)  # [-2.5, 2.5) cannot hold [-4, 4]

    def test_ensemble_finite(self):
        rep = check_duhamel(SampleSpec(seed=63), PARAMS, 1.0, ensemble=5)
        assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
        assert rep.params["b_prime"] == -0.3


class TestStrichartz:
    @pytest.mark.parametrize(
        "variant,power",
        [("smooth_l4x_l2t", 0.5), ("maximal_l4x_linft", -2.0), ("maximal_linfx_linft", -2.0)],
    )
    def test_single_node_matches_multiplier(self, variant, power):
        # a real mode lives on the bins (eta0, zeta0) and (-eta0, -zeta0),
        # where both multipliers take one value, and the right-hand side is
        # its L^2 norm (Parseval)
        kappa, s = STRICHARTZ_KAPPA, 2.0
        m_times = 64
        f = np.zeros((m_times // 2 + 1, GRID.num_points), dtype=complex)
        m0, k0 = 5, 3
        f[m0, k0] = 1.0
        vals = xt_inverse(f, GRID, -2.5, 2.5)
        sample = SpaceTimeSample(GRID, -2.5, 2.5, vals)
        span, two_l = 5.0, 2.0 * GRID.half_length
        eta0, zeta0 = sample.eta[m0], GRID.zeta[k0]
        xx, tt = np.meshgrid(GRID.x - GRID.x[0], sample.times - sample.t0)
        cosine = 4.0 * np.pi / (span * two_l) * np.cos(zeta0 * xx + eta0 * tt)
        assert np.max(np.abs(vals - cosine)) < 1e-14  # a pure real mode

        v = STRICHARTZ_VARIANTS[variant]
        mult = (1.0 + abs(zeta0)) ** power * (1.0 + abs(eta0 - zeta0**3)) ** (-kappa)
        l2 = np.sqrt(np.sum(vals**2) * GRID.dx * sample.dt)
        want = mult * mixed_norm(sample, v.p_exp, v.q_exp) / l2
        got = strichartz_ratio(sample, variant, s)
        assert abs(got - want) < 1e-12 * want

    def test_zero_sample_ratio_zero(self):
        sample = SpaceTimeSample(GRID, -2.5, 2.5, np.zeros((16, GRID.num_points)))
        assert strichartz_ratio(sample, "smooth_l4x_l2t", 2.0) == 0.0

    @pytest.mark.parametrize(
        "variant,s,floor",
        [
            ("maximal_l2x_linft", 1.6, "1.65"),  # 3 kappa
            ("maximal_l2x_linft", 1.65, "1.65"),
            ("maximal_l4x_linft", 0.2, "0.25"),
            ("maximal_linfx_linft", 0.5, "0.5"),
        ],
    )
    def test_threshold_validation(self, variant, s, floor):
        sample = random_boxed_sample(GRID, SampleSpec(seed=71), num_times=16)
        with pytest.raises(ValueError, match=f"^{variant} needs s > {floor}, got {s}$"):
            strichartz_ratio(sample, variant, s)

    def test_unknown_variant_rejected(self):
        sample = random_boxed_sample(GRID, SampleSpec(seed=72), num_times=16)
        with pytest.raises(ValueError, match="unknown variant"):
            strichartz_ratio(sample, "smooth_l6x_l2t", 2.0)

    @pytest.mark.parametrize("variant", list(STRICHARTZ_VARIANTS))
    def test_both_sides_share_one_transform(self, variant, monkeypatch):
        # the weighted side and the L^2 side read one space-time transform
        sample = random_boxed_sample(GRID, SampleSpec(seed=75), num_times=32)
        want = strichartz_ratio(sample, variant)
        calls = []

        def counted(sample):
            calls.append(sample)
            return xt_transform(sample)

        monkeypatch.setattr(estimates, "xt_transform", counted)
        monkeypatch.setattr(spaces, "xt_transform", counted)
        assert strichartz_ratio(sample, variant) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("variant", list(STRICHARTZ_VARIANTS))
    def test_ratio_is_scale_invariant(self, variant):
        # both sides are norms of the sample; a large amplitude must not overflow
        sample = random_boxed_sample(GRID, SampleSpec(seed=74), num_times=32)
        big = SpaceTimeSample(GRID, sample.t0, sample.t1, 1e100 * sample.values)
        base = strichartz_ratio(sample, variant)
        assert strichartz_ratio(big, variant) == pytest.approx(base, rel=1e-12, abs=0.0)

    def test_every_variant_ensemble_finite(self):
        for variant in STRICHARTZ_VARIANTS:
            rep = check_strichartz(variant, SampleSpec(seed=73), ensemble=4)
            assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
            assert rep.estimate_id == f"strichartz:{variant}"


class TestFullSpectrumOracle:
    """The half-eta norms and multipliers against their complex full-spectrum
    formulas: np.fft.fft2 coefficients with eta in FFT order, which labels
    the eta-Nyquist row -eta_N, and ifft2(...).real back.  The lab samples
    are white in time, so that row carries energy; labelling it -eta_N for
    both signs of zeta, as halving x instead of time does, fails here."""

    M = 64

    def windowed(self):
        return [random_window_sample(GRID, SampleSpec(seed=sd), self.M) for sd in (91, 92)]

    def samples(self):
        boxed = [random_boxed_sample(GRID, SampleSpec(seed=sd), self.M) for sd in (93, 94)]
        return self.windowed() + boxed

    @staticmethod
    def full(sample):
        """Full coefficients, their eta in FFT order, and the cell area."""
        scale = sample.grid.dx * sample.dt / (2.0 * np.pi)
        m, span = sample.num_times, sample.t1 - sample.t0
        eta = (2.0 * np.pi / span) * np.fft.ifftshift(np.arange(m) - m // 2)
        return scale * np.fft.fft2(sample.values), eta, sample.grid.dzeta * 2.0 * np.pi / span

    def test_samples_carry_eta_nyquist_energy(self):
        for w in self.samples():
            energy = np.sum(np.abs(self.full(w)[0]) ** 2, axis=1)
            assert energy[self.M // 2] > 0.5 * np.sum(energy) / self.M

    @pytest.mark.parametrize("cutoff", [None, 1.0])
    def test_bourgain_norm(self, cutoff):
        psi = None if cutoff is None else CutoffProfile(cutoff)
        for w in self.windowed():
            vals = w.values if psi is None else w.values * np.asarray(psi(w.times))[:, None]
            c, eta, cell = self.full(SpaceTimeSample(GRID, w.t0, w.t1, vals))
            weight = _kernels.bourgain_weight(GRID.zeta, eta, PARAMS.rho, PARAMS.s, PARAMS.b)
            want = np.sqrt(np.sum((weight * np.abs(c)) ** 2) * cell)
            got = bourgain_norm(w, PARAMS, psi)
            assert abs(got - want) < 1e-13 * want

    @pytest.mark.parametrize("kappa, power",
                             [(0.3, 0.0), (0.55, 0.0), (0.0, -2.0), (0.0, 0.5), (0.55, -2.0)])
    def test_smoothing_weight(self, kappa, power):
        # kappa = 0 or power = 0 leaves one factor alone
        for w in self.samples():
            eta = self.full(w)[1]
            mult = ((1.0 + np.abs(GRID.zeta))[None, :] ** power
                    * _kernels.dispersive_factor(GRID.zeta, eta) ** (-kappa))
            want = np.fft.ifft2(np.fft.fft2(w.values) * mult).real
            got = apply_smoothing_weight(w, xt_transform(w), kappa, power).values
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("variant", list(STRICHARTZ_VARIANTS))
    def test_strichartz_ratio(self, variant):
        kappa, s = STRICHARTZ_KAPPA, 2.0
        v = STRICHARTZ_VARIANTS[variant]
        power = -s if v.weight_power is None else v.weight_power
        for w in self.samples():
            c, eta, cell = self.full(w)
            mult = ((1.0 + np.abs(GRID.zeta))[None, :] ** power
                    * _kernels.dispersive_factor(GRID.zeta, eta) ** (-kappa))
            smoothed = np.fft.ifft2(np.fft.fft2(w.values) * mult).real
            lhs = mixed_norm(SpaceTimeSample(GRID, w.t0, w.t1, smoothed), v.p_exp, v.q_exp)
            want = lhs / np.sqrt(np.sum(np.abs(c) ** 2) * cell)
            got = strichartz_ratio(w, variant, s)
            assert abs(got - want) < 1e-13 * want


class TestMultilinear:
    def _trig_factors(self):
        m_times, span = 48, 2.5
        dt = 2.0 * span / m_times
        times = -span + dt * np.arange(m_times)
        psi = bump(times)
        modes = [(5, 0.3), (3, -1.1), (2, 0.7)]
        factors = [
            SpaceTimeSample(
                GRID,
                -span,
                span,
                psi[:, None] * np.cos(k * GRID.dzeta * GRID.x + ph)[None, :],
            )
            for k, ph in modes
        ]
        return factors, modes, times, psi, span

    def test_three_mode_product_oracle(self):
        factors, modes, times, psi, span = self._trig_factors()
        (ka, pa), (kb, pb), (kc, pc) = modes
        prod = np.zeros((len(times), GRID.num_points))
        deriv = np.zeros_like(prod)
        for sb in (1, -1):
            for sc in (1, -1):
                z = (ka + sb * kb + sc * kc) * GRID.dzeta
                ph = pa + sb * pb + sc * pc
                prod += 0.25 * np.cos(z * GRID.x + ph)[None, :]
                deriv += 0.25 * (-z) * np.sin(z * GRID.x + ph)[None, :]
        prod *= (psi**3)[:, None]
        deriv *= (psi**3)[:, None]

        ps = product_sample(factors)
        assert np.max(np.abs(ps.values - prod)) < 1e-12
        ds = derivative_sample(ps)
        assert np.max(np.abs(ds.values - deriv)) < 1e-12

        b_prime = -0.3
        hand = SpaceTimeSample(GRID, -span, span, deriv)
        lhs = bourgain_norm(hand, NormParams(PARAMS.rho, PARAMS.s, b_prime), None)
        rhs = np.prod([bourgain_norm(f, PARAMS, None) for f in factors])
        got = multilinear_ratio(factors, PARAMS, b_prime)
        assert abs(got - lhs / rhs) < 1e-8 * got

    def test_homogeneity_in_one_factor(self):
        factors, *_ = self._trig_factors()
        base = multilinear_ratio(factors, PARAMS, -0.3)
        scaled = [factors[0], factors[1], factors[2]]
        scaled[1] = SpaceTimeSample(GRID, factors[1].t0, factors[1].t1, 37.5 * factors[1].values)
        assert abs(multilinear_ratio(scaled, PARAMS, -0.3) - base) < 1e-12 * base

    def test_zero_factor_gives_zero(self):
        factors, *_ = self._trig_factors()
        factors[2] = SpaceTimeSample(
            GRID, factors[2].t0, factors[2].t1, np.zeros_like(factors[2].values)
        )
        assert multilinear_ratio(factors, PARAMS, -0.3) == 0.0

    def test_underflowing_norms_raise(self):
        # each norm ~1e-108, so their product is subnormal and the numerator 0
        factors, *_ = self._trig_factors()
        tiny = [SpaceTimeSample(GRID, f.t0, f.t1, 1e-110 * f.values) for f in factors]
        with pytest.raises(OverflowError, match="underflow"):
            multilinear_ratio(tiny, PARAMS, -0.3)
        # one member of a batch is enough
        batch = [SpaceTimeSample(GRID, f.t0, f.t1, np.stack([f.values, t.values]))
                 for f, t in zip(factors, tiny)]
        with pytest.raises(OverflowError, match="underflow"):
            multilinear_ratio(batch, PARAMS, -0.3)

    def test_hypothesis_validation(self):
        factors, *_ = self._trig_factors()
        with pytest.raises(ValueError, match="b > 1/2"):
            multilinear_ratio(factors, NormParams(0.25, 2.0, 0.4), -0.3)
        with pytest.raises(ValueError, match="b' < -1/4"):
            multilinear_ratio(factors, PARAMS, -0.2)
        with pytest.raises(ValueError, match="b' >= -1"):
            multilinear_ratio(factors, PARAMS, -1.2)
        with pytest.raises(ValueError, match="3b"):
            multilinear_ratio(factors, NormParams(0.25, 1.2, 0.55), -0.3)
        with pytest.raises(ValueError, match="positive int"):
            check_multilinear(0, PARAMS, SampleSpec(seed=81), ensemble=2)

    def test_product_rows_equal_field_products(self):
        spec = SampleSpec(seed=83)
        factors = [random_window_sample(GRID, spec, 48, 83 + k) for k in range(5)]
        ps = product_sample(factors)
        for j in range(48):
            row = dealiased_product([forward_transform(f.values[j], GRID) for f in factors], GRID)
            assert np.array_equal(ps.values[j], row)

    def test_overflowing_product_rejected(self):
        # finite factors whose product overflows; raised by name, and no
        # warning escapes (warnings are errors in this suite)
        spec = SampleSpec(seed=84, amplitude=1e160)
        factors = [random_window_sample(GRID, spec, 48, 84 + k) for k in range(5)]
        with pytest.raises(NonFiniteDataError, match="dealiased product"):
            product_sample(factors)

    def test_mismatched_windows_rejected(self):
        factors, *_ = self._trig_factors()
        other = SpaceTimeSample(GRID, -3.0, 3.0, np.zeros((48, GRID.num_points)))
        with pytest.raises(ValueError, match="share"):
            product_sample([factors[0], other])
        # a batch does not broadcast against one sample
        batch = SpaceTimeSample(GRID, factors[1].t0, factors[1].t1, factors[1].values[None])
        with pytest.raises(ValueError, match="share"):
            product_sample([factors[0], batch])

    def test_check_reports_both_splits(self):
        rep = check_multilinear(1, PARAMS, SampleSpec(seed=82), ensemble=3)
        assert set(rep.extra) == {"max_ratio_first_split", "max_ratio_mirror_split"}
        assert rep.max_ratio == max(rep.ratios)
        assert rep.max_ratio >= max(rep.extra.values()) * (1.0 - 1e-15)
        assert np.isfinite(rep.max_ratio)


def test_triangle_split_holds_on_grid():
    rhos = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
    zetas = np.linspace(-50, 50, 41)
    z1s = np.linspace(-60, 60, 31)
    z2s = np.linspace(-60, 60, 31)
    assert triangle_split_failures(rhos, zetas, z1s, z2s) == 0


def test_triangle_split_counter_actually_counts():
    # negative rho flips the inequality everywhere, so every grid point
    # must be reported; guards against a counter that always returns 0
    rhos = np.array([-1.0])
    zetas = np.linspace(-5, 5, 7)
    z1s = np.linspace(-5, 5, 5)
    z2s = np.linspace(-5, 5, 3)
    expect = 7 * 5 * 3
    assert triangle_split_failures(rhos, zetas, z1s, z2s) == expect


def per_rho_sweep(rhos, zetas, z1s, z2s):
    """The triangle-split test at every grid point, one rho at a time."""
    z = zetas[:, None, None]
    z1 = z1s[None, :, None]
    z2 = z2s[None, None, :]
    lhs_arg = 1.0 + np.abs(z)
    rhs_arg = (1.0 + np.abs(z1)) + (1.0 + np.abs(z - z2)) + (1.0 + np.abs(z2 - z1))
    failures = 0
    for rho in rhos:
        failures += int(np.count_nonzero(rho * lhs_arg > rho * rhs_arg + 1e-12))
    return failures


class TestTriangleSplitSweep:
    """The sweep tests only the points that can fail; its count equals the
    test at every point on any grid."""

    SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])

    @pytest.fixture(autouse=True)
    def _non_finite_quietly(self):
        # inf - inf and 0 * inf are part of the input here
        with np.errstate(invalid="ignore"):
            yield

    @classmethod
    def _grid(cls, rng, size):
        # about half the entries in [-1e18, -1e16]: where z <= z2 <= z1 < 0
        # the split is an equality, and rounding can put 1 + |z| above the
        # sum of the three exponents; a few entries are zeros or non-finite
        vals = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-2.0, 18.0, size)
        huge = rng.random(size) < 0.5
        vals[huge] = -rng.uniform(1e16, 1e18, int(huge.sum()))
        special = rng.random(size) < 0.1
        vals[special] = rng.choice(cls.SPECIAL, int(special.sum()))
        return vals

    def test_equals_the_per_rho_sweep_on_random_grids(self):
        rng = np.random.default_rng(2005)
        positive_failures = 0
        for _ in range(40):
            rhos = np.concatenate((rng.standard_normal(5), self.SPECIAL, [1e-14, -1e-14]))
            rng.shuffle(rhos)
            grids = [self._grid(rng, n) for n in rng.integers(1, 12, 3)]
            assert triangle_split_failures(rhos, *grids) == per_rho_sweep(rhos, *grids)
            positive = rhos[rhos > 0]
            want = per_rho_sweep(positive, *grids)
            assert triangle_split_failures(positive, *grids) == want
            positive_failures += want
        # rounding made some points fail at rho > 0, so that branch was tested
        assert positive_failures > 0

    @pytest.mark.parametrize("rhos", [[], [0.0], [-0.0], [np.nan], [np.inf], [-np.inf],
                                      [-2.0, -0.0, 0.0, 2.0]])
    def test_special_rhos(self, rhos):
        rhos = np.array(rhos, dtype=np.float64)
        zetas = np.array([0.0, 1.0, np.inf, np.nan, -3.0])
        z1s = np.array([-np.inf, 0.5, -0.0])
        z2s = np.array([2.0, np.nan, 1e17])
        assert triangle_split_failures(rhos, zetas, z1s, z2s) == per_rho_sweep(
            rhos, zetas, z1s, z2s)

    def test_default_lemma_grid(self):
        rhos = np.linspace(0.0, 2.0, 41)
        grids = (np.linspace(0.0, 100.0, 201), np.linspace(-100.0, 100.0, 41),
                 np.linspace(-100.0, 100.0, 41))
        assert triangle_split_failures(rhos, *grids) == per_rho_sweep(rhos, *grids) == 0
        flipped = -rhos[1:]
        assert triangle_split_failures(flipped, *grids) == per_rho_sweep(flipped, *grids)


class TestExponentialLemmas:
    def test_default_grid_zero_failures(self):
        table = check_exponential_lemmas()
        assert table["passed"]
        assert table["pointwise_failures"] == 0
        assert table["triangle_failures"] == 0
        assert table["pointwise_checked"] > 0
        assert table["triangle_checked"] > 0

    def test_rho_zero_trivial(self):
        table = check_exponential_lemmas(rhos=np.array([0.0]))
        assert table["passed"]

    def test_counts_match_grid_sizes(self):
        rhos = np.linspace(0.0, 2.0, 3)
        zetas = np.linspace(0.0, 10.0, 5)
        z1s = np.linspace(-5.0, 5.0, 4)
        z2s = np.linspace(-5.0, 5.0, 6)
        table = check_exponential_lemmas(rhos, zetas, z1s, z2s)
        assert table["pointwise_checked"] == 15
        assert table["triangle_checked"] == 3 * 5 * 4 * 6
        assert table["passed"]

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_exponential_lemmas(rhos=np.array([-0.1]))


def _manual_record(states, p=1):
    rec = TrajectoryRecord(GRID, p, np.empty((2, len(states), GRID.num_points)))
    for st in states:
        rec.record(st.t, st.pair)
    return rec


class TestApriori:
    def _free_record(self, amplitude=1.0):
        spec = SampleSpec(seed=91, amplitude=amplitude, bandwidth=3.0)
        st0 = CoupledState(0.0, GRID, random_field(GRID, spec, [91, 92]))
        states = [free_flow(st0, t) for t in np.linspace(-2.0, 2.0, 17)]
        return st0, _manual_record(states)

    def test_zero_trajectory_ratio_zero(self):
        zero = np.zeros((2, GRID.num_points))
        states = [CoupledState(t, GRID, zero) for t in np.linspace(-2.0, 2.0, 17)]
        rep = check_apriori(_manual_record(states), PARAMS, 1.0)
        assert rep.max_ratio == 0.0
        assert rep.extra["ratio_derivative_scale"] == 0.0
        assert rep.extra["ratio_exponential_scale"] == 0.0

    def test_free_evolution_sup_is_conserved(self):
        st0, rec = self._free_record()
        rep = check_apriori(rec, PARAMS, 1.0)
        h3 = NormParams(0.0, 3.0)
        want = np.hypot(*gevrey_norm(forward_transform(st0.pair, GRID), st0.grid, h3))
        assert abs(rep.extra["sup_derivative"] - want) < 1e-9 * want
        assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
        assert rep.max_ratio == max(rep.ratios)
        assert rep.max_seed == -1

    def test_zero_rho_reports_the_derivative_scale_twice(self):
        _, rec = self._free_record()
        rep = check_apriori(rec, NormParams(0.0, 2.0, 0.55), 1.0)
        assert rep.extra["ratio_exponential_scale"] == rep.extra["ratio_derivative_scale"]
        assert rep.extra["sup_exponential"] == rep.extra["sup_derivative"]

    def test_forward_only_coverage_rejected(self):
        spec = SampleSpec(seed=93, bandwidth=3.0)
        st0 = CoupledState(0.0, GRID, random_field(GRID, spec, [93, 94]))
        states = [free_flow(st0, t) for t in np.linspace(0.0, 2.0, 9)]
        with pytest.raises(ValueError, match="reflection"):
            check_apriori(_manual_record(states), PARAMS, 1.0)

    def test_irregular_times_rejected(self):
        _, rec = self._free_record()
        rec.times[3] += 0.01
        with pytest.raises(ValueError, match="uniform"):
            check_apriori(rec, PARAMS, 1.0)

    def test_overflowing_sup_power_names_the_sup(self):
        # at rho = 50 the exponential sup is about 1.8e227, so its cube leaves
        # the float range; the error names the check, the sup, rho and s
        _, rec = self._free_record()
        with pytest.raises(OverflowError, match=r"^apriori: \(1 \+ sup_exponential\)\^3 "
                           r"overflows at sup_exponential = 1\.7\d\de\+227 "
                           r"\(rho = 50, s = 2\)"):
            check_apriori(rec, NormParams(50.0, 2.0, 0.55), 1.0)

    def test_hypothesis_validation(self):
        _, rec = self._free_record()
        with pytest.raises(ValueError, match="3/2"):
            check_apriori(rec, NormParams(0.25, 1.2, 0.55), 1.0)
        with pytest.raises(ValueError, match="T >= 1"):
            check_apriori(rec, PARAMS, 0.5)
        with pytest.raises(ValueError, match="positive int"):
            check_apriori(rec, PARAMS, 1.0, p=0)


class TestBidirectional:
    def _setup(self):
        spec = SampleSpec(seed=3, amplitude=0.05, bandwidth=3.0)
        state = CoupledState(0.0, GRID, random_field(GRID, spec, [77, 78]))
        cfg = SolverConfig(p=1, dt=0.02, t_end=2.0, record_stride=10)
        return state, cfg

    def test_merged_record_uniform_and_anchored(self):
        state, cfg = self._setup()
        rec = bidirectional_record(state, cfg, 2.0)
        times = np.asarray(rec.times)
        assert times[0] == -2.0 and times[-1] == 2.0
        assert np.allclose(np.diff(times), 0.2, rtol=0.0, atol=1e-12)
        i0 = int(np.argmin(np.abs(times)))
        u0, v0 = rec.samples()[:, i0]
        assert np.array_equal(u0, state.pair[0])
        assert np.array_equal(v0, state.pair[1])

    def test_backward_half_rejoins_forward_flow(self):
        # integrate the recorded t=-2 state forward; it must land on the data
        state, cfg = self._setup()
        rec = bidirectional_record(state, cfg, 2.0)
        start = rec.samples()[:, 0]
        rec2 = simulate(CoupledState(-2.0, GRID, start), dataclasses.replace(cfg, t_end=0.0))
        uf, vf = rec2.samples()[:, len(rec2) - 1]
        assert np.max(np.abs(uf - state.pair[0])) < 1e-9
        assert np.max(np.abs(vf - state.pair[1])) < 1e-9

    def test_backward_half_is_reflected_back_run(self):
        # the gathered backward half equals reflect_samples applied per
        # row to the run of the reflected data, bit for bit
        state, cfg = self._setup()
        rec = bidirectional_record(state, cfg, 2.0)
        back = simulate(CoupledState(0.0, GRID, reflect_samples(state.pair)), cfg)
        k = len(back) - 1
        assert len(rec) == 2 * k + 1
        for i in range(k):
            mirrored = reflect_samples(back.samples()[:, k - i])
            u, v = rec.samples()[:, i]
            assert rec.times[i] == -back.times[k - i]
            assert np.array_equal(u, mirrored[0])
            assert np.array_equal(v, mirrored[1])

    def test_ensemble_driver_nests(self):
        spec = SampleSpec(seed=7, amplitude=0.05, bandwidth=3.0)
        long = check_apriori_ensemble(spec, PARAMS, 1.0, ensemble=4)
        short = check_apriori_ensemble(spec, PARAMS, 1.0, ensemble=2)
        assert long.ratios[:2] == short.ratios
        assert np.isfinite(long.max_ratio) and not long.violation


class TestEmbedding:
    def test_requires_large_b(self):
        with pytest.raises(ValueError, match="b > 1/2"):
            check_embedding(SampleSpec(seed=95), NormParams(0.25, 2.0, 0.4), ensemble=2)

    def test_ensemble_finite(self):
        rep = check_embedding(SampleSpec(seed=96), PARAMS, ensemble=5)
        assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0
        assert rep.estimate_id == "embedding"
