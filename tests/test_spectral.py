"""Transform, derivative, and dealiasing tests against independent oracles:
an O(N^2) direct DFT sum, finite-difference stencils, and an O(N^2) direct
spectral convolution."""

import numpy as np
import pytest

from gkdvlab.spectral import (
    Field,
    SpectralField,
    SpectralGrid,
    complex_samples,
    dealiased_product,
    dealiased_product_rows,
    dft_axis,
    differentiate,
    forward_transform,
    hermitian_asymmetry,
    idft_axis,
    inverse_transform,
    mollifier_multiplier,
    pad_coeffs,
    project_lowpass,
    truncate_coeffs,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field(grid, scale * rng.standard_normal(grid.num_points))


def bandlimited_field(grid, seed, bandwidth):
    """Real field with random spectrum supported on 0 < |k| <= bandwidth."""
    rng = np.random.default_rng(seed)
    half = grid.num_points // 2
    c = np.zeros(grid.num_points, dtype=complex)
    c[half] = rng.standard_normal()
    for k in range(1, bandwidth + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[half + k] = z
        c[half - k] = np.conj(z)
    return inverse_transform(SpectralField(grid, c)), c


class TestGrid:
    def test_nodes_and_wavenumbers(self):
        g = SpectralGrid(np.pi, 16)
        assert g.x[0] == -np.pi
        assert np.isclose(g.dx * g.num_points, 2 * np.pi)
        # zeta ascending, integer multiples of pi/L, symmetric except Nyquist
        assert np.allclose(g.zeta, np.arange(-8, 8) * 1.0)
        assert np.allclose(g.zeta[1:], -g.zeta[1:][::-1])
        assert g.zeta[g.nyquist_index] == g.zeta.min()

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(-1.0, 16)
        with pytest.raises(ValueError):
            SpectralGrid(1.0, 15)
        with pytest.raises(ValueError):
            SpectralGrid(1.0, 2)

    def test_field_shape_checked(self):
        g = SpectralGrid(1.0, 8)
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))
        with pytest.raises(ValueError):
            SpectralField(g, np.zeros(9, dtype=complex))


class TestForwardTransform:
    def test_matches_direct_dft_sum(self):
        g = SpectralGrid(2.0, 64)
        u = random_field(g, 7)
        c = forward_transform(u).coeffs
        naive = np.array(
            [
                (g.dx / SQRT_2PI) * np.sum(u.samples * np.exp(-1j * g.x * z))
                for z in g.zeta
            ]
        )
        assert np.max(np.abs(c - naive)) <= 1e-12 * np.max(np.abs(c))

    def test_single_cosine_lands_on_two_bins(self):
        g = SpectralGrid(np.pi, 64)
        amp, k1 = 0.7, 5
        c = forward_transform(Field(g, amp * np.cos(k1 * g.x))).coeffs
        half = g.num_points // 2
        expected = amp * g.half_length / SQRT_2PI
        assert abs(abs(c[half + k1]) - expected) < 1e-12 * expected
        assert abs(abs(c[half - k1]) - expected) < 1e-12 * expected
        rest = np.abs(np.delete(c, [half - k1, half + k1]))
        assert np.max(rest) < 1e-12 * expected

    def test_constant_field_is_zero_mode_only(self):
        g = SpectralGrid(7.0, 64)
        c = forward_transform(Field(g, np.full(64, 1.5))).coeffs
        expected = 1.5 * 2 * g.half_length / SQRT_2PI
        assert abs(c[32] - expected) < 1e-13 * expected
        rest = np.abs(np.delete(c, 32))
        assert np.max(rest) < 1e-13 * expected

    def test_zero_mode_delta_is_constant_field(self):
        g = SpectralGrid(3.0, 32)
        c = np.zeros(32, dtype=complex)
        c[16] = 2.5
        u = inverse_transform(SpectralField(g, c))
        expected = 2.5 * SQRT_2PI / (2 * g.half_length)
        assert np.allclose(u.samples, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("num", [8, 64, 250, 1024])
    def test_parseval_exact(self, num):
        g = SpectralGrid(17.3, num)
        u = random_field(g, num)
        c = forward_transform(u).coeffs
        phys = np.sum(u.samples**2) * g.dx
        spec = np.sum(np.abs(c) ** 2) * g.dzeta
        assert abs(phys - spec) <= 1e-12 * phys

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        g = SpectralGrid(5.0, 128)
        u = random_field(g, seed)
        back = inverse_transform(forward_transform(u)).samples
        assert np.max(np.abs(back - u.samples)) <= 1e-12 * np.max(np.abs(u.samples))

    def test_rejects_nonfinite(self):
        g = SpectralGrid(1.0, 8)
        bad = Field(g, np.zeros(8))
        bad.samples[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            forward_transform(bad)

    def test_inverse_rejects_asymmetric_coeffs(self):
        g = SpectralGrid(1.0, 16)
        c = np.zeros(16, dtype=complex)
        c[9] = 1.0  # positive-zeta bin with no conjugate partner
        with pytest.raises(ValueError, match="symmetry"):
            inverse_transform(SpectralField(g, c))
        assert hermitian_asymmetry(SpectralField(g, c)) == 1.0

    def test_complex_samples_skips_check(self):
        g = SpectralGrid(1.0, 16)
        c = np.zeros(16, dtype=complex)
        c[9] = 1.0
        vals = complex_samples(SpectralField(g, c))
        assert vals.dtype == np.complex128
        assert np.max(np.abs(vals)) > 0


class TestDifferentiate:
    def test_first_derivative_of_cosine(self):
        g = SpectralGrid(np.pi, 64)
        sf = forward_transform(Field(g, np.cos(3 * g.x)))
        d = inverse_transform(differentiate(sf, 1)).samples
        assert np.max(np.abs(d + 3 * np.sin(3 * g.x))) < 1e-12

    def test_third_derivative_of_cosine(self):
        g = SpectralGrid(np.pi, 64)
        sf = forward_transform(Field(g, np.cos(3 * g.x)))
        d = inverse_transform(differentiate(sf, 3)).samples
        assert np.max(np.abs(d - 27 * np.sin(3 * g.x))) < 1e-10

    def test_against_finite_differences(self):
        # 4th-order centered stencils for d1/d2, 2nd-order for d3, on a
        # smooth periodic function; tolerances sized to the stencil error.
        g = SpectralGrid(np.pi, 256)
        f = np.exp(np.sin(g.x))
        sf = forward_transform(Field(g, f))
        h = g.dx

        def s(n):
            return np.roll(f, -n)

        fd1 = (-s(2) + 8 * s(1) - 8 * s(-1) + s(-2)) / (12 * h)
        fd2 = (-s(2) + 16 * s(1) - 30 * f + 16 * s(-1) - s(-2)) / (12 * h * h)
        fd3 = (s(2) - 2 * s(1) + 2 * s(-1) - s(-2)) / (2 * h**3)
        for order, fd, tol in ((1, fd1, 1e-6), (2, fd2, 1e-6), (3, fd3, 5e-3)):
            d = inverse_transform(differentiate(sf, order)).samples
            assert np.max(np.abs(d - fd)) <= tol * np.max(np.abs(d))

    def test_first_derivative_of_sine(self):
        g = SpectralGrid(np.pi, 64)
        sf = forward_transform(Field(g, np.sin(4 * g.x)))
        d = inverse_transform(differentiate(sf, 1)).samples
        assert np.max(np.abs(d - 4 * np.cos(4 * g.x))) < 1e-12

    def test_third_derivative_of_sech(self):
        # Closed form: sech''' = sech*tanh*(6 sech^2 - 1).
        g = SpectralGrid(40.0, 32768)
        sech = 1.0 / np.cosh(g.x)
        d3 = inverse_transform(differentiate(forward_transform(Field(g, sech)), 3))
        exact = sech * np.tanh(g.x) * (6 * sech**2 - 1)
        assert np.max(np.abs(d3.samples - exact)) < 5e-7 * np.max(np.abs(exact))

    def test_third_derivative_of_sech_vs_stencil(self):
        # Mutual agreement with the 5-point stencil bottoms out near 2e-6:
        # stencil truncation ~4.2 h^2 meets the zeta^3-amplified FFT floor.
        # Interior points only; the box edge carries a periodization kink.
        g = SpectralGrid(36.0, 65536)
        f = 1.0 / np.cosh(g.x)
        d3 = inverse_transform(differentiate(forward_transform(Field(g, f)), 3)).samples
        h = g.dx

        def s(n):
            return np.roll(f, -n)

        fd3 = (s(2) - 2 * s(1) + 2 * s(-1) - s(-2)) / (2 * h**3)
        interior = np.abs(g.x) < 0.5 * g.half_length
        err = np.max(np.abs((d3 - fd3)[interior]))
        assert err < 5e-6 * np.max(np.abs(d3))

    def test_nyquist_zeroed_for_odd_orders(self):
        g = SpectralGrid(np.pi, 16)
        sawtooth = Field(g, (-1.0) ** np.arange(16))  # pure Nyquist mode
        for order in (1, 3):
            d = inverse_transform(differentiate(forward_transform(sawtooth), order))
            assert np.max(np.abs(d.samples)) < 1e-12

    def test_order_validated(self):
        g = SpectralGrid(1.0, 8)
        sf = forward_transform(Field(g, np.zeros(8)))
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                differentiate(sf, bad)


class TestProjections:
    def test_passes_band_below_n(self):
        g = SpectralGrid(np.pi, 32)
        u, c = bandlimited_field(g, 3, 5)
        proj = project_lowpass(forward_transform(u), 5.0)
        assert np.allclose(proj.coeffs, c, atol=1e-13)

    def test_kills_band_above_2n(self):
        g = SpectralGrid(np.pi, 64)
        c = np.zeros(64, dtype=complex)
        c[32 + 13] = 1.0
        c[32 - 13] = 1.0
        proj = project_lowpass(SpectralField(g, c), 6.0)
        assert np.max(np.abs(proj.coeffs)) == 0.0

    def test_ramp_midpoint_is_half(self):
        g = SpectralGrid(np.pi, 256)
        n = 20.0
        m = mollifier_multiplier(g, n)
        az = np.abs(g.zeta)
        assert np.all(m[az <= n] == 1.0)
        assert np.all(m[az >= 2 * n] == 0.0)
        assert np.allclose(m[np.isclose(az, 1.5 * n)], 0.5)
        pos = m[g.num_points // 2 :]
        assert np.all(np.diff(pos) <= 1e-15)  # monotone

    def test_wider_projection_after_narrower_is_noop(self):
        g = SpectralGrid(np.pi, 256)
        sf = forward_transform(Field(g, np.exp(np.sin(g.x)) * np.cos(7 * g.x)))
        n = 10.0
        once = project_lowpass(sf, n)
        twice = project_lowpass(once, 2 * n)
        keep = np.abs(g.zeta) <= n
        assert np.allclose(twice.coeffs[keep], once.coeffs[keep], atol=1e-15)
        # but the projection itself is not idempotent on the ramp
        again = project_lowpass(once, n)
        ramp = (np.abs(g.zeta) > n) & (np.abs(g.zeta) < 2 * n)
        assert not np.allclose(again.coeffs[ramp], once.coeffs[ramp])

    def test_cutoff_validated(self):
        g = SpectralGrid(1.0, 8)
        sf = forward_transform(Field(g, np.zeros(8)))
        with pytest.raises(ValueError):
            project_lowpass(sf, 0.0)

    def test_differentiate_commutes_with_projection(self):
        g = SpectralGrid(np.pi, 128)
        sf = forward_transform(Field(g, np.exp(np.cos(g.x))))
        a = differentiate(project_lowpass(sf, 11.0), 2)
        b = project_lowpass(differentiate(sf, 2), 11.0)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * np.max(np.abs(b.coeffs))


class TestDealiasedProduct:
    def test_matches_direct_convolution(self):
        g = SpectralGrid(np.pi, 64)
        f1, c1 = bandlimited_field(g, 1, 5)
        f2, c2 = bandlimited_field(g, 2, 5)
        prod = dealiased_product([f1, f2])
        cp = forward_transform(prod).coeffs
        half = 32
        oracle = np.zeros(64, dtype=complex)
        for m in range(-half, half):
            acc = 0.0 + 0j
            for k in range(-half, half):
                l = m - k
                if -half <= l < half:
                    acc += c1[half + k] * c2[half + l]
            oracle[half + m] = acc * g.dzeta / SQRT_2PI
        oracle[0] = 0.0
        assert np.max(np.abs(cp - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_triple_product_matches_pointwise_for_smooth_fields(self):
        # exp(sin x) decays fast enough that aliasing is below roundoff at
        # this resolution, so the dealiased product equals the pointwise one.
        g = SpectralGrid(np.pi, 256)
        f = Field(g, np.exp(np.sin(g.x)))
        cubed = dealiased_product([f, f, f]).samples
        assert np.max(np.abs(cubed - f.samples**3)) < 1e-11 * np.max(f.samples**3)

    def test_product_with_constant_one_is_identity(self):
        g = SpectralGrid(np.pi, 64)
        u, _ = bandlimited_field(g, 9, 12)
        one = Field(g, np.ones(64))
        prod = dealiased_product([u, one]).samples
        assert np.max(np.abs(prod - u.samples)) < 1e-13 * np.max(np.abs(u.samples))

    def test_cosine_product_lands_on_sum_and_difference_bins(self):
        # cos(5x) cos(3x) = cos(2x)/2 + cos(8x)/2
        g = SpectralGrid(np.pi, 64)
        prod = dealiased_product([Field(g, np.cos(5 * g.x)), Field(g, np.cos(3 * g.x))])
        c = forward_transform(prod).coeffs
        half = 32
        expected = 0.5 * g.half_length / SQRT_2PI  # per-bin weight of cos/2
        for k in (2, 8):
            assert abs(abs(c[half + k]) - expected) < 1e-12
            assert abs(abs(c[half - k]) - expected) < 1e-12
        rest = np.abs(c.copy())
        for k in (2, 8):
            rest[half + k] = rest[half - k] = 0.0
        assert np.max(rest) < 1e-12

    def test_unpadded_product_aliases(self):
        # two modes near Nyquist: their product wraps around without padding
        g = SpectralGrid(np.pi, 32)
        u = Field(g, np.cos(12 * g.x))
        clean = forward_transform(dealiased_product([u, u])).coeffs
        dirty = forward_transform(Field(g, u.samples * u.samples)).coeffs
        half = 16
        # true product: 1/2 + cos(24 x)/2; mode 24 is unrepresentable, but the
        # aliased copy lands at |k|=8 only in the unpadded version
        assert abs(clean[half + 8]) < 1e-13
        assert abs(dirty[half + 8]) > 0.1

    def test_grid_mismatch_rejected(self):
        f1 = Field(SpectralGrid(np.pi, 32), np.zeros(32))
        f2 = Field(SpectralGrid(np.pi, 64), np.zeros(64))
        with pytest.raises(ValueError, match="grid"):
            dealiased_product([f1, f2])
        with pytest.raises(ValueError):
            dealiased_product([])

    def test_pad_truncate_roundtrip(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        padded = pad_coeffs(c, 24)
        assert padded.shape == (24,)
        back = truncate_coeffs(padded, 16)
        expect = c.copy()
        expect[0] = 0.0  # band Nyquist dropped by design
        assert np.array_equal(back, expect)


class TestBatchedTransforms:
    # the lab, the products and the Picard solver transform whole stacks of
    # rows; ensemble nesting and byte-identical reruns rely on a stack giving
    # exactly the per-row result (the padded sizes 64 ... 512 occur there)
    @pytest.mark.parametrize("num", [64, 128, 192, 256, 512])
    @pytest.mark.parametrize("rows", [3, 64, 193])
    def test_stack_equals_rows_exactly(self, num, rows):
        rng = np.random.default_rng(num + rows)
        span, offset = 20.0, -10.0
        vals = rng.standard_normal((rows, num))
        coeffs = rng.standard_normal((rows, num)) + 1j * rng.standard_normal((rows, num))
        fwd = dft_axis(vals, span, offset)
        inv = idft_axis(coeffs, span, offset)
        for j in range(rows):
            assert np.array_equal(fwd[j], dft_axis(vals[j], span, offset))
            assert np.array_equal(inv[j], idft_axis(coeffs[j], span, offset))

    def test_product_rows_equal_field_products(self):
        g = SpectralGrid(10.0, 64)
        rng = np.random.default_rng(5)
        factors = [rng.standard_normal((9, 64)) for _ in range(3)]
        rows = dealiased_product_rows(factors, g)
        for j in range(9):
            one = dealiased_product([Field(g, f[j]) for f in factors])
            assert np.array_equal(rows[j], one.samples)

    def test_product_rows_reject_nonfinite_row(self):
        g = SpectralGrid(10.0, 64)
        bad = np.ones((4, 64))
        bad[2, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dealiased_product_rows([np.ones((4, 64)), bad], g)
