"""Observable and estimator tests.  Oracles: closed-form soliton
functionals, synthetic spectra with known decay rates, the sech transform
rate pi/(2k), power laws fed to the decay fit, and the closed-form strip
continuation of sech, single cosines and trigonometric polynomials."""

import warnings

import numpy as np
import pytest

from gkdvlab import diagnostics, spectral
from gkdvlab.diagnostics import (
    AnalyticityMarginWarning,
    DecayFit,
    RadiusEstimate,
    estimate_radius,
    evaluate_analytic_extension,
    fit_decay_exponent,
    invariants,
    joint_radius,
    radius_nonincreasing,
    track_radius,
)
from gkdvlab.evolution import CoupledState, SolverConfig, dispersive_phase, simulate
from gkdvlab.harness import TRAJECTORY_COLUMNS, read_csv, write_trajectory_csv
from gkdvlab.spaces import NormParams, gevrey_norm
from gkdvlab.spectral import Field, SpectralGrid, forward_transform, inverse_transform


def free_flow(state, t):
    """The exact free group of w_t + w_xxx = 0 over time t: the phase
    e^{i zeta^3 t} on each component's half-spectrum."""
    g = state.grid
    c = forward_transform(state.pair.samples, g) * dispersive_phase(g, t)
    return CoupledState(state.t + t, Field(g, inverse_transform(c, g)))


def soliton_state(grid, c=1.0, x0=0.0):
    w = np.sqrt(2.0 * c) / np.cosh(np.sqrt(c) * (grid.x - x0))
    return CoupledState(0.0, Field(grid, [w, w]))


class TestInvariants:
    def test_soliton_closed_forms(self):
        # u = v = sqrt(2) sech(x): mass = sqrt(2) pi, combined L2 = 4,
        # energy = 4/3 - 8/3 = -4/3
        g = SpectralGrid(30.0, 1024)
        inv = invariants(soliton_state(g).pair, p=1)
        assert abs(inv.mass_u - np.sqrt(2.0) * np.pi) < 1e-11
        assert abs(inv.mass_v - np.sqrt(2.0) * np.pi) < 1e-11
        assert abs(inv.l2 - 4.0) < 1e-12
        assert abs(inv.hamiltonian + 4.0 / 3.0) < 1e-12

    def test_zero_state(self):
        g = SpectralGrid(5.0, 64)
        z = np.zeros(64)
        inv = invariants(Field(g, [z, z]), p=1)
        assert inv.mass_u == inv.mass_v == inv.l2 == inv.hamiltonian == 0.0

    def test_free_flow_preserves_linear_invariants_only(self):
        g = SpectralGrid(20.0, 512)
        s = CoupledState(
            0.0,
            Field(g, [1.2 / np.cosh(g.x - 2.0), 0.8 / np.cosh(g.x + 1.0) ** 2]),
        )
        a = invariants(s.pair, p=1)
        b = invariants(free_flow(s, 0.5).pair, p=1)
        assert abs(b.mass_u - a.mass_u) < 1e-12
        assert abs(b.mass_v - a.mass_v) < 1e-12
        assert abs(b.l2 - a.l2) < 1e-12 * a.l2
        # the coupling term is not a symbol in zeta, so H moves
        assert abs(b.hamiltonian - a.hamiltonian) > 1e-4

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_coupling_transforms_each_component_once(self, p, monkeypatch):
        # one transform of the pair, then one padded copy of u and one of v
        # serve all 2p + 2 factors of u^(p+1) v^(p+1), bit for bit as if each
        # factor were a separate array
        g = SpectralGrid(20.0, 256)
        pair = Field(g, [1.2 / np.cosh(g.x - 2.0), 0.8 / np.cosh(g.x + 1.0) ** 2])
        calls = []
        forward = spectral.forward_transform
        for module in (spectral, diagnostics):
            monkeypatch.setattr(module, "forward_transform",
                                lambda *args: calls.append(args) or forward(*args))
        inv = invariants(pair, p)
        assert len(calls) <= 3

        def separate(factors, grid):
            return spectral.dealiased_product([f.copy() for f in factors], grid)

        monkeypatch.setattr(diagnostics, "dealiased_product", separate)
        assert invariants(pair, p).hamiltonian == inv.hamiltonian

    def test_conserved_along_the_nonlinear_flow(self):
        g = SpectralGrid(20.0, 256)
        rec = simulate(
            soliton_state(g), SolverConfig(p=1, dt=1e-3, t_end=0.2, record_stride=100)
        )
        invs = rec.invariant_sets()
        first, last = invs[0], invs[-1]
        assert abs(last.mass_u - first.mass_u) < 1e-10
        assert abs(last.l2 - first.l2) < 1e-10
        assert abs(last.hamiltonian - first.hamiltonian) < 1e-8


def test_one_field_functions_reject_stacked_rows():
    # fields may hold stacked rows for the batched lab; a radius fit or the
    # invariants of one state must not silently run over them
    g = SpectralGrid(5.0, 64)
    rows = Field(g, np.zeros((2, 64)))
    with pytest.raises(ValueError, match="stacked rows"):
        estimate_radius(forward_transform(rows.samples, g), g)
    with pytest.raises(ValueError, match="stacked rows"):
        invariants(Field(g, [rows.samples, rows.samples]), p=1)


class TestEstimateRadius:
    @pytest.mark.parametrize("modes", [32, 34, 64], ids=["short", "long", "full-spectrum"])
    def test_rejects_a_half_spectrum_of_the_wrong_length(self, modes):
        # the grid's half-spectrum has N/2 + 1 = 33 entries
        g = SpectralGrid(20.0, 64)
        with pytest.raises(ValueError, match="stacked rows"):
            estimate_radius(np.exp(-0.7 * g.dzeta * np.arange(modes)).astype(complex), g)

    def test_synthetic_exponential_recovered_exactly(self):
        g = SpectralGrid(20.0, 512)
        c = 2.3 * np.exp(-0.7 * g.rzeta).astype(complex)
        c[g.nyquist_index] = 0.0
        est = estimate_radius(c, g)
        assert not est.noise_floor_hit
        assert abs(est.rho - 0.7) < 1e-6
        assert est.r_squared > 0.9999

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_sech_rate(self, k):
        # |sech_hat| ~ e^{-pi zeta/(2k)}
        g = SpectralGrid(40.0, 2048)
        est = estimate_radius(forward_transform(1.0 / np.cosh(k * g.x), g), g)
        target = np.pi / (2.0 * k)
        assert not est.noise_floor_hit
        assert abs(est.rho - target) < 0.05 * target  # measured within 0.4%

    def test_translation_invariant(self):
        # circular shift only rotates coefficient phases; a non-circular
        # shift would move the box-truncation kink and change the floor
        g = SpectralGrid(20.0, 1024)
        sech = 1.0 / np.cosh(g.x)
        a = estimate_radius(forward_transform(sech, g), g)
        b = estimate_radius(forward_transform(np.roll(sech, 137), g), g)
        assert abs(a.rho - b.rho) < 1e-10
        assert a.num_points == b.num_points

    def test_free_flow_invariant(self):
        g = SpectralGrid(20.0, 1024)
        s = soliton_state(g)
        a = estimate_radius(forward_transform(s.pair.samples[0], g), g)
        b = estimate_radius(forward_transform(free_flow(s, 1.3).pair.samples[0], g), g)
        assert abs(a.rho - b.rho) < 1e-10

    def test_white_noise_hits_floor(self):
        g = SpectralGrid(10.0, 512)
        rng = np.random.default_rng(7)
        est = estimate_radius(forward_transform(rng.standard_normal(512), g), g)
        assert est.noise_floor_hit
        assert np.isnan(est.rho)

    def test_constant_field_hits_floor(self):
        g = SpectralGrid(10.0, 64)
        est = estimate_radius(forward_transform(np.full(64, 2.0), g), g)
        assert est.noise_floor_hit

    def test_fit_metadata_consistent(self):
        g = SpectralGrid(20.0, 1024)
        est = estimate_radius(forward_transform(1.0 / np.cosh(g.x), g), g)
        assert 0 < est.zeta_lo < est.zeta_hi <= (2.0 / 3.0) * g.zeta_max
        assert est.num_points >= 8
        assert est.slope_stderr > 0


class TestJointRadius:
    def mk(self, rho, stderr=1e-3):
        return RadiusEstimate(rho, 0.5, 10.0, 0.999, stderr, 40, False)

    def test_takes_smaller(self):
        j = joint_radius(self.mk(1.2), self.mk(0.9))
        assert j.rho == 0.9

    def test_floor_propagates(self):
        j = joint_radius(self.mk(1.2), RadiusEstimate.floor_hit())
        assert j.noise_floor_hit


class TestRadiusMonotonicity:
    def mk(self, rho, stderr=0.01):
        return RadiusEstimate(rho, 0.5, 10.0, 0.999, stderr, 40, False)

    def test_decreasing_passes(self):
        seq = [self.mk(r) for r in (1.0, 0.95, 0.90, 0.88)]
        ok, worst = radius_nonincreasing(seq)
        assert ok
        assert worst <= 0.0

    def test_small_wiggle_within_stderr_passes(self):
        seq = [self.mk(r) for r in (1.0, 0.98, 0.995, 0.97)]
        ok, worst = radius_nonincreasing(seq)  # +0.015 < 3 * 0.01
        assert ok
        assert 0 < worst <= 1.0

    def test_jump_fails(self):
        seq = [self.mk(r) for r in (1.0, 0.95, 1.05)]
        ok, worst = radius_nonincreasing(seq)
        assert not ok
        assert worst > 1.0

    def test_exact_fits_score_rise_fall_and_tie(self):
        # zero stderr allows no rise, but a fall or a tie scores 0
        pair = lambda a, b: radius_nonincreasing([self.mk(a, 0.0), self.mk(b, 0.0)])
        assert pair(1.0, 1.1) == (False, np.inf)
        assert pair(1.0, 0.9) == (True, 0.0)
        assert pair(1.0, 1.0) == (True, 0.0)

    def test_floor_entries_skipped(self):
        seq = [self.mk(1.0), RadiusEstimate.floor_hit(), self.mk(2.0)]
        ok, _ = radius_nonincreasing(seq)
        assert ok


class TestTrajectoryTracking:
    def test_short_soliton_run(self):
        g = SpectralGrid(20.0, 256)
        rec = simulate(
            soliton_state(g), SolverConfig(p=1, dt=1e-3, t_end=0.2, record_stride=100)
        )
        times, joints = track_radius(rec)
        assert list(np.round(times, 10)) == [0.0, 0.1, 0.2]
        assert all(not j.noise_floor_hit for j in joints)
        for j in joints:
            assert abs(j.rho - np.pi / 2.0) < 0.05 * np.pi / 2.0
        ok, _ = radius_nonincreasing(joints)
        assert ok
        u0 = rec.samples()[0, 0]
        assert np.max(np.abs(u0 - np.sqrt(2.0) / np.cosh(g.x))) < 1e-14
        assert len(rec.invariant_sets()) == len(rec) == 3

    def test_derived_diagnostics_equal_direct_calls(self, tmp_path):
        # the record keeps snapshots only; every diagnostic read from it is
        # the plain function applied to one snapshot, bit for bit
        g = SpectralGrid(20.0, 256)
        rec = simulate(
            soliton_state(g), SolverConfig(p=2, dt=1e-3, t_end=0.2, record_stride=50)
        )
        invs = rec.invariant_sets()
        radius_u, radius_v = rec.radii()
        write_trajectory_csv(rec, tmp_path / "trajectory.csv", 1.5)
        header, data = read_csv(tmp_path / "trajectory.csv")
        hs_u, hs_v = (data[:, header.index(c)] for c in ("hs_u", "hs_v"))
        assert header == list(TRAJECTORY_COLUMNS) and len(rec) == 5
        for i in range(len(rec)):
            pair = Field(g, rec.samples()[:, i])
            u, v = pair.samples
            assert invs[i] == invariants(pair, p=2)
            assert radius_u[i] == estimate_radius(forward_transform(u, g), g)
            assert radius_v[i] == estimate_radius(forward_transform(v, g), g)
            assert hs_u[i] == gevrey_norm(u, g, NormParams(0.0, 1.5))
            assert hs_v[i] == gevrey_norm(v, g, NormParams(0.0, 1.5))


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 20.0, 40)
        fit = fit_decay_exponent(t, 3.0 * t**-2.0, t_min=1.0)
        assert abs(fit.k_fit - 3.0) < 1e-10
        assert abs(fit.alpha_fit - 2.0) < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.num_points == 40

    def test_constant_series_gives_zero_exponent(self):
        t = np.linspace(1.0, 10.0, 20)
        fit = fit_decay_exponent(t, np.full(20, 0.8), t_min=1.0)
        assert abs(fit.alpha_fit) < 1e-12
        assert abs(fit.k_fit - 0.8) < 1e-12

    def test_t_min_excludes_early_points(self):
        t = np.linspace(1.0, 20.0, 40)
        rho = 3.0 * t**-2.0
        rho[t < 5.0] *= 7.0  # corrupt the transient
        fit = fit_decay_exponent(t, rho, t_min=5.0)
        assert abs(fit.alpha_fit - 2.0) < 1e-10

    def test_too_few_points_raises(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(ValueError, match="usable points"):
            fit_decay_exponent(t, 3.0 * t**-2.0, t_min=1.0)

    def test_nonpositive_values_dropped(self):
        t = np.linspace(1.0, 20.0, 40)
        rho = 3.0 * t**-2.0
        rho[::5] = 0.0
        fit = fit_decay_exponent(t, rho, t_min=1.0)
        assert fit.num_points == 32
        assert abs(fit.alpha_fit - 2.0) < 1e-10


class TestAnalyticExtension:
    def test_zero_offset_is_identity(self):
        g = SpectralGrid(10.0, 256)
        f = Field(g, 0.7 * np.exp(np.sin(g.x)))
        out = evaluate_analytic_extension(f, 0.0)
        assert np.max(np.abs(out.samples - np.abs(f.samples))) < 1e-12

    def test_sech_strip_value(self):
        # max |sech(x + i)| = 1/cos(1).  The float64 coefficient floor cuts
        # the usable band near zeta = 24, bounding accuracy at ~2e-6.
        g = SpectralGrid(20.0, 1024)
        f = Field(g, 1.0 / np.cosh(g.x))
        got = np.max(evaluate_analytic_extension(f, 1.0).samples)
        oracle = 1.0 / np.cos(1.0)
        assert abs(got - oracle) < 1e-5 * oracle  # measured 2.9e-6

    def test_growth_toward_the_pole(self):
        g = SpectralGrid(20.0, 1024)
        f = Field(g, 1.0 / np.cosh(g.x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AnalyticityMarginWarning)
            vals = [
                np.max(evaluate_analytic_extension(f, y).samples)
                for y in (1.2, 1.4, 1.5)
            ]
        assert vals[0] < vals[1] < vals[2]
        assert vals[0] == pytest.approx(1.0 / np.cos(1.2), rel=0.05)

    def test_single_mode_closed_form(self):
        # |cos(k(x+iy))| peaks at cosh(ky); derivative adds a factor k
        g = SpectralGrid(np.pi, 64)
        k, y = 3, 0.4
        f = Field(g, np.cos(k * g.x))
        got = np.max(evaluate_analytic_extension(f, y, band_limit=k + 0.5).samples)
        assert abs(got - np.cosh(k * y)) < 1e-12
        d1 = np.max(
            evaluate_analytic_extension(f, y, order=1, band_limit=k + 0.5).samples
        )
        assert abs(d1 - k * np.cosh(k * y)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("y", [0.3, -0.3])
    def test_trig_polynomial_closed_form(self, order, y):
        # f = a0 + sum a_j cos(k_j x + phi_j) continues to the same sum at
        # x + i y, and d^n/dx^n adds n pi / 2 to each phase.  Several modes
        # with phases make |F| depend on both the cosh (real) and the sinh
        # (imaginary) part of every mode, so it is compared point by point
        g = SpectralGrid(np.pi, 64)
        a0, modes = 0.4, [(1, 1.0, 0.3), (2, -0.6, 1.1), (5, 0.35, -2.0), (9, 0.2, 0.7)]
        f = Field(g, a0 + sum(a * np.cos(k * g.x + ph) for k, a, ph in modes))
        z = g.x + 1j * y
        exact = (a0 if order == 0 else 0.0) + sum(
            a * k**order * np.cos(k * z + ph + order * np.pi / 2) for k, a, ph in modes)
        got = evaluate_analytic_extension(f, y, order=order, band_limit=9.5).samples
        np.testing.assert_allclose(got, np.abs(exact), rtol=1e-12, atol=0.0)

    def test_margin_warning(self):
        g = SpectralGrid(20.0, 1024)
        f = Field(g, 1.0 / np.cosh(g.x))  # fitted radius 1.564
        with pytest.warns(AnalyticityMarginWarning):
            evaluate_analytic_extension(f, 1.55)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AnalyticityMarginWarning)
            evaluate_analytic_extension(f, 1.2)  # must not warn

    def test_overflow_guard_on_explicit_band(self):
        g = SpectralGrid(10.0, 256)
        f = Field(g, 1.0 / np.cosh(g.x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AnalyticityMarginWarning)
            with pytest.raises(OverflowError):
                evaluate_analytic_extension(f, 50.0, band_limit=g.zeta_max)

    def test_order_validated(self):
        g = SpectralGrid(1.0, 16)
        f = Field(g, np.zeros(16))
        with pytest.raises(ValueError, match="order"):
            evaluate_analytic_extension(f, 0.1, order=4)
