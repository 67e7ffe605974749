"""Norm and cutoff tests.  Oracles: closed forms for single modes, the
analytic transform of sech (direct sum and adaptive quadrature), direct
loop implementations of the mixed norms, and internal Fubini identities."""

import numpy as np
import pytest

from gkdvlab import _kernels
from gkdvlab.spectral import NonFiniteDataError, SpectralGrid, forward_transform
from gkdvlab.spaces import (
    CutoffProfile,
    NormParams,
    SpaceTimeSample,
    apply_smoothing_weight,
    bourgain_norm,
    bump,
    check_window_support,
    gevrey_norm,
    mixed_norm,
    xt_inverse,
    xt_modulus,
    xt_transform,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)

# continuum G_{0.5,1} norm of sech, from adaptive quadrature of the exact
# transform sqrt(pi/2) sech(pi zeta / 2) (scipy.integrate.quad, frozen)
SECH_GEVREY_CONTINUUM = 5.215072691367381


def free_wave_sample(grid, z0, half_window, num_times, sign=+1.0):
    """cos(z0 x + sign z0^3 t): sign=+1 rides the dispersive curve."""
    times = -half_window + 2.0 * half_window / num_times * np.arange(num_times)
    xx, tt = np.meshgrid(grid.x, times)
    return SpaceTimeSample(
        grid, -half_window, half_window, np.cos(z0 * xx + sign * z0**3 * tt)
    )


class TestNormParams:
    def test_validation(self):
        NormParams(0.0, -1.0, 0.55)
        with pytest.raises(ValueError):
            NormParams(-0.1, 2.0)
        with pytest.raises(ValueError):
            NormParams(np.inf, 2.0)
        with pytest.raises(ValueError):
            NormParams(0.5, 2.0, 1.5)


class TestCutoff:
    def test_plateau_and_support(self):
        assert bump(0.0) == 1.0
        assert bump(1.0) == 1.0
        assert bump(-1.0) == 1.0
        assert bump(2.0) == 0.0
        assert bump(5.0) == 0.0
        assert np.isclose(bump(1.5), np.exp(-1.0 / 3.0), rtol=1e-14)
        t = np.linspace(-3, 3, 601)
        vals = bump(t)
        assert np.allclose(vals, vals[::-1])  # even

    def test_smooth_and_monotone_on_ramp(self):
        t = np.linspace(1.0, 2.0, 2001)
        v = bump(t)
        assert np.all(np.diff(v) <= 0)
        # continuity at the junctions
        assert abs(bump(1.0 + 1e-4) - 1.0) < 1e-6
        assert bump(2.0 - 1e-4) < 1e-6

    def test_rescaling(self):
        psi = CutoffProfile(0.5)
        assert psi(0.5) == 1.0
        assert psi(1.0) == 0.0
        assert np.isclose(psi(0.75), np.exp(-1.0 / 3.0), rtol=1e-14)
        with pytest.raises(ValueError):
            CutoffProfile(0.0)


class TestSpaceTimeSample:
    def test_validation(self):
        g = SpectralGrid(np.pi, 16)
        with pytest.raises(ValueError):
            SpaceTimeSample(g, 0.0, 1.0, np.zeros((7, 16)))
        with pytest.raises(ValueError):
            SpaceTimeSample(g, 0.0, 1.0, np.zeros((9, 16)))
        with pytest.raises(ValueError):
            SpaceTimeSample(g, 1.0, 1.0, np.zeros((8, 16)))
        with pytest.raises(ValueError):
            SpaceTimeSample(g, 0.0, 1.0, np.zeros((8, 12)))

    @pytest.mark.parametrize("values", [
        np.zeros((8, 16), dtype=complex),  # complex, even with zero imaginary part
        np.zeros(16),  # one row, not a (time, x) array
        np.zeros((2, 2, 8, 16)),  # one leading member axis at most
    ], ids=["complex", "1-D", "4-D"])
    def test_rejects_complex_or_non_2d_values(self, values):
        g = SpectralGrid(np.pi, 16)
        with pytest.raises(ValueError, match="real 2-D array"):
            SpaceTimeSample(g, 0.0, 1.0, values)

    def test_batch_on_a_leading_member_axis(self):
        # each member's transforms and norms are those it gets alone
        g = SpectralGrid(np.pi, 16)
        vals = np.random.default_rng(4).standard_normal((3, 16, 16))
        vals *= bump(np.linspace(-2.5, 2.5, 16, endpoint=False))[:, None]
        batch = SpaceTimeSample(g, -2.5, 2.5, vals)
        assert (batch.num_times, batch.eta.size) == (16, 9)
        params = NormParams(0.25, 2.0, 0.55)
        norms = bourgain_norm(batch, params)
        mixed = mixed_norm(batch, 4.0, 2.0)
        assert norms.shape == mixed.shape == (3,)
        for i in range(3):
            one = SpaceTimeSample(g, -2.5, 2.5, vals[i])
            assert np.array_equal(xt_transform(batch)[i], xt_transform(one))
            assert norms[i] == bourgain_norm(one, params)
            assert mixed[i] == mixed_norm(one, 4.0, 2.0)

    def test_integer_values_become_float64(self):
        g = SpectralGrid(np.pi, 16)
        s = SpaceTimeSample(g, 0.0, 1.0, np.ones((8, 16), dtype=int))
        assert s.values.dtype == np.float64

    def test_time_and_eta_grids(self):
        g = SpectralGrid(np.pi, 16)
        s = SpaceTimeSample(g, -1.0, 3.0, np.zeros((16, 16)))
        assert s.times[0] == -1.0
        assert np.allclose(np.diff(s.times), 0.25)
        assert s.times[-1] == pytest.approx(2.75)
        deta = 2 * np.pi / 4.0
        assert np.allclose(s.eta, deta * np.r_[0:9])
        assert np.array_equal(s.multiplicity, np.r_[1.0, [2.0] * 7, 1.0])
        assert not s.multiplicity.flags.writeable

    def test_xt_roundtrip_and_parseval(self):
        g = SpectralGrid(2.0, 32)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((24, 32))
        s = SpaceTimeSample(g, -0.7, 1.3, vals)
        c = xt_transform(s)
        assert c.shape == (13, 32)
        back = xt_inverse(c, g, s.t0, s.t1)
        assert np.isrealobj(back)
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))
        phys = np.sum(vals**2) * g.dx * s.dt
        deta = 2 * np.pi / (s.t1 - s.t0)
        # each eta row stands for its multiplicity of the full spectrum's rows
        spec = np.sum(s.multiplicity[:, None] * np.abs(c) ** 2) * g.dzeta * deta
        assert abs(phys - spec) < 1e-12 * phys

    def test_traveling_mode_lands_on_dual_bins(self):
        # cos(2x + 8t) on a window whose eta grid contains 8
        g = SpectralGrid(np.pi, 16)
        span = np.pi / 2.0
        m = 16
        times = -span / 2 + span / m * np.arange(m)
        xx, tt = np.meshgrid(g.x, times)
        s = SpaceTimeSample(g, -span / 2, span / 2, np.cos(2 * xx + 8 * tt))
        c = xt_transform(s)
        assert c.shape == (m // 2 + 1, g.num_points)
        deta = 2 * np.pi / span  # = 4
        l_plus = 2  # eta = +8; its partner (-8, -2) is not in the half-eta spectrum
        k_plus = 2  # zeta = +2
        assert s.eta[l_plus] == pytest.approx(8.0) and g.zeta[k_plus] == 2.0
        expect = 0.5 * (2 * g.half_length / SQRT_2PI) * (span / SQRT_2PI)
        assert np.isclose(abs(c[l_plus, k_plus]), expect, rtol=1e-10)
        mask = np.ones_like(c, dtype=bool)
        mask[l_plus, k_plus] = False
        assert np.max(np.abs(c[mask])) < 1e-10 * expect


class TestGevreyNorm:
    def test_single_mode_closed_form(self):
        # amplitude a at on-grid zeta0: norm = a e^{rho(1+z0)} (1+z0)^s sqrt(L)
        g = SpectralGrid(np.pi, 64)
        a, z0 = 0.8, 5.0
        params = NormParams(0.3, 1.5)
        val = gevrey_norm(forward_transform(a * np.cos(z0 * g.x), g), g, params)
        expect = a * np.exp(0.3 * 6.0) * 6.0**1.5 * np.sqrt(np.pi)
        assert np.isclose(val, expect, rtol=1e-12)

    def test_rho_zero_s_zero_is_l2(self):
        g = SpectralGrid(3.0, 128)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(128)
        val = gevrey_norm(forward_transform(u, g), g, NormParams(0.0, 0.0))
        assert np.isclose(val, np.sqrt(np.sum(u**2) * g.dx), rtol=1e-12)

    def test_sech_against_analytic_transform(self):
        # direct sum over the exact transform sqrt(pi/2) sech(pi zeta/2)
        g = SpectralGrid(40.0, 1024)
        params = NormParams(0.5, 1.0)
        val = gevrey_norm(forward_transform(1.0 / np.cosh(g.x), g), g, params)
        w = np.exp(0.5 * (1 + np.abs(g.zeta))) * (1 + np.abs(g.zeta))
        uh = np.sqrt(np.pi / 2.0) / np.cosh(np.pi * g.zeta / 2.0)
        direct = np.sqrt(np.sum((w * uh) ** 2) * g.dzeta)
        assert np.isclose(val, direct, rtol=1e-10)
        assert np.isclose(val, SECH_GEVREY_CONTINUUM, rtol=1e-3)

    def test_monotone_in_rho_and_s(self):
        g = SpectralGrid(10.0, 256)
        u = np.exp(-g.x**2)
        n00 = gevrey_norm(forward_transform(u, g), g, NormParams(0.0, 0.0))
        n10 = gevrey_norm(forward_transform(u, g), g, NormParams(0.3, 0.0))
        n11 = gevrey_norm(forward_transform(u, g), g, NormParams(0.3, 1.0))
        assert n00 < n10 < n11

    def test_overflow_guard(self):
        g = SpectralGrid(40.0, 1024)
        u = 1.0 / np.cosh(g.x)
        with pytest.raises(OverflowError):
            gevrey_norm(forward_transform(u, g), g, NormParams(50.0, 0.0))

    def test_overflow_message_names_s(self):
        # at rho = 0 the polynomial H^s weight is the one that overflows
        g = SpectralGrid(40.0, 1024)
        u = 1.0 / np.cosh(g.x)
        with pytest.raises(OverflowError, match=r"rho, s or the grid bandwidth") as info:
            gevrey_norm(forward_transform(u, g), g, NormParams(0.0, 300.0))
        assert "s = 300" in str(info.value)

    def test_rejects_nonfinite_coeffs(self):
        g = SpectralGrid(10.0, 64)
        c = forward_transform(np.ones(64), g)
        c[5] = np.nan
        with pytest.raises(NonFiniteDataError, match="gevrey_norm: coeffs: non-finite"):
            gevrey_norm(c, g, NormParams(0.3, 1.0))

    def test_zero_field_is_zero_even_at_huge_rho(self):
        g = SpectralGrid(40.0, 1024)
        assert gevrey_norm(forward_transform(np.zeros(1024), g), g, NormParams(50.0, 0.0)) == 0.0

    def test_rows_equal_per_row_norms_exactly(self):
        g = SpectralGrid(10.0, 64)
        rows = np.random.default_rng(3).standard_normal((3, 2, 64))
        rows[1, 0] = 0.0
        params = NormParams(0.4, 1.5)
        norms = gevrey_norm(forward_transform(rows, g), g, params)
        assert norms.shape == (3, 2) and norms[1, 0] == 0.0
        for i, j in np.ndindex(3, 2):
            assert norms[i, j] == gevrey_norm(forward_transform(rows[i, j], g), g, params)

    def test_slices_equal_per_slice_loop(self):
        # one peak-scaled L^2 per time slice, over the half-spectrum with each
        # entry counted with its multiplicity; and, to rounding, over every mode
        g = SpectralGrid(10.0, 64)
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((8, 64))
        vals[5] = 0.0
        params = NormParams(0.3, 2.0)

        def loop(zeta, transform):
            w = np.exp(0.3 * (1.0 + np.abs(zeta))) * (1.0 + np.abs(zeta)) ** 2.0
            expect = []
            for row in vals:
                weighted = w * transform(row)
                peak = np.max(weighted)
                if peak == 0.0:
                    expect.append(0.0)
                    continue
                ratio = weighted / peak
                expect.append(peak * np.sqrt(np.sum(ratio * ratio) * g.dzeta))
            return np.array(expect)

        got = gevrey_norm(forward_transform(vals, g), g, params)
        half = loop(g.rzeta, lambda row: np.abs(g.dft(row, real=True)) * np.sqrt(g.multiplicity))
        assert np.array_equal(got, half)
        full = loop(g.zeta, lambda row: np.abs(g.dft(row)))
        assert np.allclose(got, full, rtol=1e-13, atol=0.0)


class TestBourgainNorm:
    def test_fubini_identity_at_b_zero(self):
        # squared (rho,s,0) space-time norm == sum_t dt * squared slice norms
        g = SpectralGrid(np.pi, 32)
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((64, 32))
        vals *= bump(np.linspace(-2.5, 2.5, 64, endpoint=False))[:, None]
        s = SpaceTimeSample(g, -2.5, 2.5, vals)
        params = NormParams(0.2, 1.0, 0.0)
        total = bourgain_norm(s, params, cutoff=None)
        slices = gevrey_norm(forward_transform(s.values, g), g, params)
        assert np.isclose(total**2, np.sum(slices**2) * s.dt, rtol=1e-10)

    def test_free_wave_rides_the_curve(self):
        # on-curve wave cos(2x + 8t) has small dispersive weight; the
        # counter-propagating wave pays (1 + |eta - zeta^3|)^b ~ 17^0.55
        g = SpectralGrid(np.pi, 16)
        params = NormParams(0.25, 2.0, 0.55)
        psi = CutoffProfile(1.0)
        on = bourgain_norm(free_wave_sample(g, 2.0, 2.5, 128, +1.0), params, psi)
        off = bourgain_norm(free_wave_sample(g, 2.0, 2.5, 128, -1.0), params, psi)
        assert off / on > 2.0

    def test_free_wave_norm_insensitive_to_b_on_wide_window(self):
        g = SpectralGrid(np.pi, 16)
        psi = CutoffProfile(8.0)
        samp = free_wave_sample(g, 2.0, 20.0, 512, +1.0)
        vals = [
            bourgain_norm(samp, NormParams(0.25, 2.0, b), psi)
            for b in (0.0, 0.2, 0.4, 0.55, 0.6)
        ]
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread < 0.10  # measured 0.041 at this resolution

    def test_norm_monotone_in_b(self):
        g = SpectralGrid(np.pi, 16)
        samp = free_wave_sample(g, 2.0, 2.5, 64, -1.0)
        psi = CutoffProfile(1.0)
        vals = [
            bourgain_norm(samp, NormParams(0.1, 1.0, b), psi) for b in (0.0, 0.3, 0.6)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_x_nyquist_column_splits_evenly_between_its_labels(self):
        # cos(8x) on 16 points is all x-Nyquist: the full spectrum holds it at
        # -zeta_N only, while it stands for +-zeta_N alike, so the oracle
        # splits that column's energy evenly between the two weights
        g = SpectralGrid(np.pi, 16)
        m, t0, t1 = 64, -2.5, 2.5
        times = t0 + (t1 - t0) / m * np.arange(m)
        rng = np.random.default_rng(4)
        vals = bump(times)[:, None] * (rng.standard_normal(m)[:, None] * np.cos(8.0 * g.x)
                                       + 0.3 * rng.standard_normal((m, 16)))
        sample = SpaceTimeSample(g, t0, t1, vals)
        params = NormParams(0.25, 2.0, 0.55)
        c = sample.grid.dx * sample.dt / (2.0 * np.pi) * np.fft.fft2(vals)
        eta = (2.0 * np.pi / (t1 - t0)) * np.fft.ifftshift(np.arange(m) - m // 2)
        cell = g.dzeta * 2.0 * np.pi / (t1 - t0)
        nyq = g.nyquist_index
        signed = [g.zeta.copy(), g.zeta.copy()]
        signed[1][nyq] *= -1.0  # +zeta_N
        minus, plus = (_kernels.bourgain_weight(z, eta, params.rho, params.s, params.b) ** 2
                       for z in signed)
        want = np.sqrt(np.sum(0.5 * (minus + plus) * np.abs(c) ** 2) * cell)
        got = bourgain_norm(sample, params)
        assert abs(got - want) < 1e-13 * want
        # the half-eta rows with that column at either single label miss by far more
        modulus = xt_modulus(sample, xt_transform(sample))
        for z in signed:
            w = _kernels.bourgain_weight(z, sample.eta, params.rho, params.s, params.b)
            one_label = np.sqrt(np.sum((w * modulus) ** 2) * cell)
            assert abs(one_label - want) > 1e-3 * want

    def test_support_violation_rejected(self):
        g = SpectralGrid(np.pi, 16)
        vals = np.ones((16, 16))
        s = SpaceTimeSample(g, -1.0, 1.0, vals)
        with pytest.raises(ValueError, match="support"):
            bourgain_norm(s, NormParams(0.0, 0.0, 0.5), cutoff=None)
        check_window_support(np.zeros((4, 4)))  # all-zero sample passes
        # in a batch, the first failing member is named
        batch = np.zeros((3, 4, 4))
        batch[1, 0, 0], batch[1, 1, 0] = 1.0, 4.0
        batch[2, 0, 0] = 1.0
        with pytest.raises(ValueError, match="edge/peak = 2.500e-01"):
            check_window_support(batch)

    def test_shifted_window_keeps_the_norm_exactly(self):
        # the norm weighs |w-hat| only, and the time transform is taken from
        # the window's left edge: moving the window by a non-integer amount
        # must not change a single bit
        g = SpectralGrid(np.pi, 32)
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((64, 32))
        vals *= bump(np.linspace(-2.5, 2.5, 64, endpoint=False))[:, None]
        s = SpaceTimeSample(g, -2.5, 2.5, vals)
        moved = SpaceTimeSample(g, s.t0 + 0.37, s.t1 + 0.37, vals)
        params = NormParams(0.3, 1.2, 0.55)
        assert np.array_equal(np.abs(xt_transform(moved)), np.abs(xt_transform(s)))
        assert bourgain_norm(moved, params, None) == bourgain_norm(s, params, None)

    def test_matches_low_level_weighted_l2(self):
        g = SpectralGrid(np.pi, 16)
        samp = free_wave_sample(g, 2.0, 2.5, 64, +1.0)
        psi = CutoffProfile(1.0)
        params = NormParams(0.3, 1.2, 0.55)
        hi = bourgain_norm(samp, params, psi)
        windowed = samp.values * np.asarray(psi(samp.times))[:, None]
        wsamp = SpaceTimeSample(g, samp.t0, samp.t1, windowed)
        w = _kernels.bourgain_weight(g.zeta, wsamp.eta, 0.3, 1.2, 0.55)
        cell = g.dzeta * 2.0 * np.pi / (samp.t1 - samp.t0)
        squares = (w * np.abs(xt_transform(wsamp))) ** 2
        lo = np.sqrt(np.sum(wsamp.multiplicity[:, None] * squares) * cell)
        assert np.isclose(hi, lo, rtol=1e-12)


class TestMixedNorm:
    def mixed_oracle(self, vals, dx, dt, p, q):
        inner = []
        for i in range(vals.shape[1]):
            col = np.abs(vals[:, i])
            if q == np.inf:
                inner.append(col.max())
            else:
                inner.append((np.sum(col**q) * dt) ** (1.0 / q))
        inner = np.array(inner)
        if p == np.inf:
            return inner.max()
        return (np.sum(inner**p) * dx) ** (1.0 / p)

    @pytest.mark.parametrize("p", [2.0, 4.0, np.inf])
    @pytest.mark.parametrize("q", [2.0, 4.0, np.inf])
    def test_against_direct_loop(self, p, q):
        g = SpectralGrid(1.5, 16)
        rng = np.random.default_rng(int(p if p != np.inf else 9) * 10 + int(q if q != np.inf else 9))
        vals = rng.standard_normal((12, 16))
        s = SpaceTimeSample(g, 0.0, 2.0, vals)
        assert np.isclose(
            mixed_norm(s, p, q), self.mixed_oracle(vals, g.dx, s.dt, p, q), rtol=1e-12
        )

    def test_separable_closed_form(self):
        # w = cos(x) * 1_{[0,S)}(t): L4_x L2_t = (3L/4)^{1/4} sqrt(S)
        g = SpectralGrid(np.pi, 64)
        span = 2.0
        vals = np.tile(np.cos(g.x), (16, 1))
        s = SpaceTimeSample(g, 0.0, span, vals)
        expect = (3.0 * np.pi / 4.0) ** 0.25 * np.sqrt(span)
        assert np.isclose(mixed_norm(s, 4.0, 2.0), expect, rtol=1e-12)
        assert np.isclose(mixed_norm(s, np.inf, np.inf), 1.0, rtol=1e-12)

    def test_exponent_validation(self):
        g = SpectralGrid(1.0, 8)
        s = SpaceTimeSample(g, 0.0, 1.0, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            mixed_norm(s, 3.0, 2.0)
        with pytest.raises(ValueError):
            mixed_norm(s, 2.0, 1.0)


class TestMultipliers:
    def cos_mode_sample(self, g, k, l, m=16, span=np.pi / 2):
        # real cosine living on exactly the (eta, zeta) bins of the modes
        # (l, k) and (-l, -k); the multipliers are even under (eta, zeta) ->
        # (-eta, -zeta), so they scale it by one factor
        times = -span / 2 + span / m * np.arange(m)
        z = g.zeta[k]
        e = (2 * np.pi / span) * l
        xx, tt = np.meshgrid(g.x, times)
        vals = np.cos(z * xx + e * tt)
        return SpaceTimeSample(g, -span / 2, span / 2, vals), z, e

    def test_weight_exact_on_single_mode(self):
        g = SpectralGrid(np.pi, 16)
        s, z, e = self.cos_mode_sample(g, 3, 1)
        out = apply_smoothing_weight(s, xt_transform(s), 0.55, -1.5)
        factor = (1.0 + abs(e - z**3)) ** -0.55 * (1.0 + abs(z)) ** -1.5
        assert np.allclose(out.values, factor * s.values, rtol=1e-10)

    def test_smoothing_is_identity_on_curve(self):
        g = SpectralGrid(np.pi, 16)
        # zeta = 2 (k=2), eta = 8 needs l = 8/deta = 2
        s, z, e = self.cos_mode_sample(g, 2, 2)
        assert e == pytest.approx(z**3)
        out = apply_smoothing_weight(s, xt_transform(s), 0.55, 0.0)
        assert np.allclose(out.values, s.values, rtol=1e-10)

    def test_smoothing_damps_off_curve(self):
        g = SpectralGrid(np.pi, 16)
        s, z, e = self.cos_mode_sample(g, 2, -2)  # eta = -8, zeta = 2
        out = apply_smoothing_weight(s, xt_transform(s), 0.55, 0.0)
        factor = (1.0 + abs(e - z**3)) ** -0.55
        assert np.allclose(out.values, factor * s.values, rtol=1e-10)

    def test_real_samples_stay_real(self):
        g = SpectralGrid(np.pi, 16)
        rng = np.random.default_rng(2)
        s = SpaceTimeSample(g, 0.0, 1.0, rng.standard_normal((16, 16)))
        out = apply_smoothing_weight(s, xt_transform(s), 0.55, 0.5)
        assert np.isrealobj(out.values)
