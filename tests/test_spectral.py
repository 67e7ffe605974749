"""Transform, derivative, and dealiasing tests against independent oracles:
an O(N^2) direct DFT sum, finite-difference stencils, and an O(N^2) direct
spectral convolution."""

import numpy as np
import pytest

from gkdvlab.spectral import (
    NonFiniteDataError,
    Field,
    PaddedBand,
    SpectralGrid,
    dealiased_product,
    dft_axis,
    forward_transform,
    idft_axis,
    inverse_transform,
    padded_samples,
    truncated_coeffs,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


def apply_derivative(c, grid, order):
    """Spectral d^order/dx^order: the grid's derivative symbol on the half-spectrum."""
    return c * grid.derivative_symbol(order)


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field(grid, scale * rng.standard_normal(grid.num_points))


def bandlimited_field(grid, seed, bandwidth):
    """Real field with random spectrum supported on 0 < |k| <= bandwidth,
    and its full spectrum in FFT order."""
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.num_points, dtype=complex)
    c[0] = rng.standard_normal()
    for k in range(1, bandwidth + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[k] = z
        c[-k] = np.conj(z)
    half = c[: grid.num_points // 2 + 1]
    return Field(grid, inverse_transform(half, grid)), c


class TestGrid:
    def test_nodes_and_wavenumbers(self):
        g = SpectralGrid(np.pi, 16)
        assert g.x[0] == -np.pi
        assert np.isclose(g.dx * g.num_points, 2 * np.pi)
        # FFT order, integer multiples of pi/L; index j pairs with N - j, except Nyquist
        assert np.allclose(g.zeta, np.r_[0:8, -8:0] * 1.0)
        j = np.arange(1, 16)
        j = j[j != g.nyquist_index]
        assert np.allclose(g.zeta[j], -g.zeta[16 - j])
        assert g.zeta[g.nyquist_index] == g.zeta.min()
        g = SpectralGrid(3.0, 32)
        assert np.array_equal(g.zeta, (np.pi / g.half_length) * np.r_[0:16, -16:0])

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
            inverse_transform(np.zeros(9, dtype=complex), g)
        with pytest.raises(ValueError):  # a full spectrum is not a half-spectrum
            inverse_transform(np.zeros(8, dtype=complex), g)
        assert inverse_transform(np.zeros(5), g).shape == (8,)
        # stacked rows are fields too, transformed row by row
        rows = np.random.default_rng(2).standard_normal((3, 8))
        coeffs = forward_transform(rows, g)
        assert coeffs.shape == (3, 5)
        for row, c in zip(rows, coeffs):
            assert np.array_equal(c, forward_transform(row, g))
        assert np.array_equal(inverse_transform(coeffs, g)[1],
                              inverse_transform(coeffs[1], g))
        with pytest.raises(ValueError):
            Field(g, np.zeros((3, 7)))

    @pytest.mark.parametrize("shape", [(3, 7), (8, 3), (3, 5)],
                             ids=["short-rows", "transposed", "half-spectra"])
    def test_forward_transform_checks_the_row_length(self, shape):
        # the last axis of the samples must be the grid's N, stacked or not
        g = SpectralGrid(1.0, 8)
        with pytest.raises(ValueError, match="grid"):
            forward_transform(np.zeros(shape), g)

    def test_half_spectrum_wavenumbers_and_multiplicity(self):
        g = SpectralGrid(3.0, 16)
        assert np.array_equal(g.rzeta, g.dzeta * np.arange(9))
        assert np.array_equal(g.rzeta[:8], g.zeta[:8])
        assert g.rzeta[g.nyquist_index] == -g.zeta[g.nyquist_index]
        assert np.array_equal(g.multiplicity, [1.0] + [2.0] * 7 + [1.0])
        assert g.multiplicity.sum() == g.num_points
        with pytest.raises(ValueError):
            g.multiplicity[1] = 1.0


class TestForwardTransform:
    def test_matches_direct_dft_sum(self):
        g = SpectralGrid(2.0, 64)
        u = random_field(g, 7)
        c = forward_transform(u.samples, g)
        naive = np.array(
            [
                (g.dx / SQRT_2PI) * np.sum(u.samples * np.exp(-1j * (g.x + g.half_length) * z))
                for z in g.rzeta
            ]
        )
        assert np.max(np.abs(c - naive)) <= 1e-12 * np.max(np.abs(c))

    def test_single_cosine_lands_on_two_bins(self):
        # the half-spectrum holds +k1; the complex transform shows both bins
        g = SpectralGrid(np.pi, 64)
        amp, k1 = 0.7, 5
        samples = amp * np.cos(k1 * g.x)
        c = forward_transform(samples, g)
        full = g.dft(samples)
        n = g.num_points  # mode m sits at index m mod n of the full spectrum
        expected = amp * g.half_length / SQRT_2PI
        assert abs(abs(c[k1]) - expected) < 1e-12 * expected
        assert abs(abs(full[n - k1]) - expected) < 1e-12 * expected
        rest = np.abs(np.delete(c, [k1]))
        assert np.max(rest) < 1e-12 * expected
        rest = np.abs(np.delete(full, [n - k1, k1]))
        assert np.max(rest) < 1e-12 * expected

    def test_constant_field_is_zero_mode_only(self):
        g = SpectralGrid(7.0, 64)
        c = forward_transform(np.full(64, 1.5), g)
        expected = 1.5 * 2 * g.half_length / SQRT_2PI
        assert abs(c[0] - expected) < 1e-13 * expected
        rest = np.abs(np.delete(c, 0))
        assert np.max(rest) < 1e-13 * expected

    def test_zero_mode_delta_is_constant_field(self):
        g = SpectralGrid(3.0, 32)
        c = np.zeros(17, dtype=complex)
        c[0] = 2.5
        u = inverse_transform(c, g)
        expected = 2.5 * SQRT_2PI / (2 * g.half_length)
        assert np.allclose(u, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("num", [8, 64, 250, 1024])
    def test_parseval_exact(self, num):
        g = SpectralGrid(17.3, num)
        u = random_field(g, num)
        c = forward_transform(u.samples, g)
        phys = np.sum(u.samples**2) * g.dx
        # every mode: the modes 1 ... N/2 - 1 stand for their conjugates too
        spec = np.sum(g.multiplicity * np.abs(c) ** 2) * g.dzeta
        assert abs(phys - spec) <= 1e-12 * phys

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        g = SpectralGrid(5.0, 128)
        u = random_field(g, seed)
        back = inverse_transform(forward_transform(u.samples, g), g)
        assert np.max(np.abs(back - u.samples)) <= 1e-12 * np.max(np.abs(u.samples))

    def test_rejects_nonfinite(self):
        g = SpectralGrid(1.0, 8)
        bad = Field(g, np.zeros(8))
        bad.samples[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            forward_transform(bad.samples, g)

    @pytest.mark.parametrize("where,value", [(3, np.nan), (0, np.nan), (8, np.inf)])
    def test_inverse_rejects_nonfinite_coeffs(self, where, value):
        g = SpectralGrid(10.0, 16)
        c = np.zeros(9, dtype=complex)
        c[where] = value
        with pytest.raises(NonFiniteDataError, match="non-finite"):
            inverse_transform(c, g)

    def test_complex_samples_skips_check(self):
        g = SpectralGrid(1.0, 16)
        c = np.zeros(16, dtype=complex)
        c[9] = 1.0
        vals = g.idft(c)
        assert vals.dtype == np.complex128
        assert np.max(np.abs(vals)) > 0


class TestDifferentiate:
    def test_first_derivative_of_cosine(self):
        g = SpectralGrid(np.pi, 64)
        c = forward_transform(np.cos(3 * g.x), g)
        d = inverse_transform(apply_derivative(c, g, 1), g)
        assert np.max(np.abs(d + 3 * np.sin(3 * g.x))) < 1e-12

    def test_third_derivative_of_cosine(self):
        g = SpectralGrid(np.pi, 64)
        c = forward_transform(np.cos(3 * g.x), g)
        d = inverse_transform(apply_derivative(c, g, 3), g)
        assert np.max(np.abs(d - 27 * np.sin(3 * g.x))) < 1e-10

    def test_against_finite_differences(self):
        # 4th-order centered stencils for d1/d2, 2nd-order for d3, on a
        # smooth periodic function; tolerances sized to the stencil error.
        g = SpectralGrid(np.pi, 256)
        f = np.exp(np.sin(g.x))
        c = forward_transform(f, g)
        h = g.dx

        def s(n):
            return np.roll(f, -n)

        fd1 = (-s(2) + 8 * s(1) - 8 * s(-1) + s(-2)) / (12 * h)
        fd2 = (-s(2) + 16 * s(1) - 30 * f + 16 * s(-1) - s(-2)) / (12 * h * h)
        fd3 = (s(2) - 2 * s(1) + 2 * s(-1) - s(-2)) / (2 * h**3)
        for order, fd, tol in ((1, fd1, 1e-6), (2, fd2, 1e-6), (3, fd3, 5e-3)):
            d = inverse_transform(apply_derivative(c, g, order), g)
            assert np.max(np.abs(d - fd)) <= tol * np.max(np.abs(d))

    def test_first_derivative_of_sine(self):
        g = SpectralGrid(np.pi, 64)
        c = forward_transform(np.sin(4 * g.x), g)
        d = inverse_transform(apply_derivative(c, g, 1), g)
        assert np.max(np.abs(d - 4 * np.cos(4 * g.x))) < 1e-12

    def test_third_derivative_of_sech(self):
        # Closed form: sech''' = sech*tanh*(6 sech^2 - 1).
        g = SpectralGrid(40.0, 32768)
        sech = 1.0 / np.cosh(g.x)
        d3 = inverse_transform(apply_derivative(forward_transform(sech, g), g, 3), g)
        exact = sech * np.tanh(g.x) * (6 * sech**2 - 1)
        assert np.max(np.abs(d3 - exact)) < 5e-7 * np.max(np.abs(exact))

    def test_third_derivative_of_sech_vs_stencil(self):
        # Mutual agreement with the 5-point stencil bottoms out near 2e-6:
        # stencil truncation ~4.2 h^2 meets the zeta^3-amplified FFT floor.
        # Interior points only; the box edge carries a periodization kink.
        g = SpectralGrid(36.0, 65536)
        f = 1.0 / np.cosh(g.x)
        d3 = inverse_transform(apply_derivative(forward_transform(f, g), g, 3), g)
        h = g.dx

        def s(n):
            return np.roll(f, -n)

        fd3 = (s(2) - 2 * s(1) + 2 * s(-1) - s(-2)) / (2 * h**3)
        interior = np.abs(g.x) < 0.5 * g.half_length
        err = np.max(np.abs((d3 - fd3)[interior]))
        assert err < 5e-6 * np.max(np.abs(d3))

    def test_nyquist_zeroed_for_odd_orders(self):
        g = SpectralGrid(np.pi, 16)
        sawtooth = (-1.0) ** np.arange(16)  # pure Nyquist mode
        for order in (1, 3):
            d = inverse_transform(apply_derivative(forward_transform(sawtooth, g), g, order), g)
            assert np.max(np.abs(d)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_symbol_is_i_zeta_to_the_order(self, order):
        g = SpectralGrid(2.0, 16)
        mult = g.derivative_symbol(order)
        expect = (1j * g.rzeta) ** order
        assert mult.shape == (9,)
        assert np.array_equal(mult[:-1], expect[:-1])
        # only odd orders drop the unpaired Nyquist mode
        assert mult[g.nyquist_index] == (0.0 if order % 2 else expect[g.nyquist_index])
        assert expect[g.nyquist_index] != 0.0


class TestDealiasedProduct:
    def test_matches_direct_convolution(self):
        g = SpectralGrid(np.pi, 64)
        f1, c1 = bandlimited_field(g, 1, 5)
        f2, c2 = bandlimited_field(g, 2, 5)
        prod = dealiased_product([f1.samples, f2.samples], g)
        cp = forward_transform(prod, g)
        half = 32
        oracle = np.zeros(64, dtype=complex)
        for m in range(-half, half):
            acc = 0.0 + 0j
            for k in range(-half, half):
                l = m - k
                if -half <= l < half:
                    acc += c1[k] * c2[l]
            oracle[m] = acc * g.dzeta / SQRT_2PI
        oracle[-half] = 0.0  # the Nyquist mode
        oracle = oracle[: half + 1]  # the modes 0 ... N/2 of the half-spectrum
        assert np.max(np.abs(cp - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_triple_product_matches_pointwise_for_smooth_fields(self):
        # exp(sin x) decays fast enough that aliasing is below roundoff at
        # this resolution, so the dealiased product equals the pointwise one.
        g = SpectralGrid(np.pi, 256)
        f = Field(g, np.exp(np.sin(g.x)))
        cubed = dealiased_product([f.samples, f.samples, f.samples], g)
        assert np.max(np.abs(cubed - f.samples**3)) < 1e-11 * np.max(f.samples**3)

    def test_product_with_constant_one_is_identity(self):
        g = SpectralGrid(np.pi, 64)
        u, _ = bandlimited_field(g, 9, 12)
        one = Field(g, np.ones(64))
        prod = dealiased_product([u.samples, one.samples], g)
        assert np.max(np.abs(prod - u.samples)) < 1e-13 * np.max(np.abs(u.samples))

    def test_cosine_product_lands_on_sum_and_difference_bins(self):
        # cos(5x) cos(3x) = cos(2x)/2 + cos(8x)/2
        g = SpectralGrid(np.pi, 64)
        prod = dealiased_product([np.cos(5 * g.x), np.cos(3 * g.x)], g)
        c = g.dft(prod)  # every mode, in FFT order
        assert np.max(np.abs(forward_transform(prod, g) - c[:33])) < 1e-15
        expected = 0.5 * g.half_length / SQRT_2PI  # per-bin weight of cos/2
        for k in (2, 8):
            assert abs(abs(c[k]) - expected) < 1e-12
            assert abs(abs(c[-k]) - expected) < 1e-12
        rest = np.abs(c.copy())
        for k in (2, 8):
            rest[k] = rest[-k] = 0.0
        assert np.max(rest) < 1e-12

    def test_unpadded_product_aliases(self):
        # two modes near Nyquist: their product wraps around without padding
        g = SpectralGrid(np.pi, 32)
        u = Field(g, np.cos(12 * g.x))
        clean = forward_transform(dealiased_product([u.samples, u.samples], g), g)
        dirty = forward_transform(u.samples * u.samples, g)
        # true product: 1/2 + cos(24 x)/2; mode 24 is unrepresentable, but the
        # aliased copy lands at |k|=8 only in the unpadded version
        assert abs(clean[8]) < 1e-13
        assert abs(dirty[8]) > 0.1

    def test_grid_mismatch_rejected(self):
        g = SpectralGrid(np.pi, 32)
        f1, f2 = np.zeros(32), np.zeros(64)
        with pytest.raises(ValueError, match="grid"):
            dealiased_product([f1, f2], g)
        with pytest.raises(ValueError):
            dealiased_product([], g)

    def test_pad_truncate_roundtrip(self):
        # the half-spectrum round trip gives what the complex one gives:
        # zero-pad the full spectrum in FFT order and keep .real of the
        # inverse; transform, keep the band and zero its Nyquist entry.  The
        # Nyquist entry +8 is complex; the complex layout holds its conjugate
        # as mode -8, which the complex inverse reads on its own
        g = SpectralGrid(10.0, 16)
        rng = np.random.default_rng(0)
        c = g.dft(rng.standard_normal((3, 16)), real=True)
        c[:, 8] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for num_padded in (16, 24, 40):
            padded = np.zeros((3, num_padded), dtype=complex)
            padded[:, :8] = c[:, :8]
            padded[:, -7:] = np.conj(c[:, 7:0:-1])
            padded[:, -8] = np.conj(c[:, 8])
            expect = g.idft(padded).real
            vals = padded_samples(c, g, num_padded)
            assert vals.shape == (3, num_padded) and np.isrealobj(vals)
            assert np.max(np.abs(vals - expect)) <= 1e-15 * np.max(np.abs(expect))

            w = rng.standard_normal((3, num_padded))
            full = g.dft(w)
            expect = full[:, :9].copy()
            expect[:, 8] = 0.0
            back = truncated_coeffs(w, g)
            assert back.shape == (3, 9)
            assert np.max(np.abs(back - expect)) <= 1e-15 * np.max(np.abs(expect))
        with pytest.raises(ValueError, match="num_padded"):
            padded_samples(c, g, 12)

    def test_product_rows_match_the_conjugate_symmetric_formula(self):
        # the half-spectrum product against the conjugate-symmetric formula:
        # full transform of each factor projected onto conjugate symmetry,
        # padded samples from the modes 0 ... N/2 (the -N/2 entry read as its
        # conjugate at half weight), the rfft band with the Nyquist entry
        # zeroed, mirrored back to every mode and inverted in complex
        g = SpectralGrid(10.0, 64)
        rng = np.random.default_rng(11)
        factors = [np.exp(-0.3 * g.x**2) * rng.standard_normal((64, 64)) for _ in range(3)]
        num, half = 64, 32
        num_padded = 128
        prod = 1.0
        for f in factors:
            full = g.dft(f)
            sym = np.empty_like(full)
            sym[:, 0] = full[:, 0].real
            sym[:, 1:] = 0.5 * (full[:, 1:] + np.conj(full[:, :0:-1]))
            modes = np.zeros((64, num_padded // 2 + 1), dtype=complex)
            modes[:, :half] = sym[:, :half]
            modes[:, half] = 0.5 * np.conj(sym[:, half])
            prod = prod * g.idft(modes, real=True)
        band = g.dft(prod, real=True)
        full = np.empty((64, num), dtype=complex)
        full[:, :half] = band[:, :half]
        full[:, half] = 0.0
        full[:, half + 1 :] = np.conj(band[:, half - 1 : 0 : -1])
        expect = g.idft(full).real
        got = dealiased_product(factors, g)
        peak = np.max(np.abs(expect), axis=-1)
        assert np.all(np.max(np.abs(got - expect), axis=-1) <= 1e-14 * peak)


class TestGridTransforms:
    # every x-transform goes through the grid; it must be exactly dft_axis /
    # idft_axis over the span 2L, or snapshots and report hashes would move
    @pytest.mark.parametrize("shape, axis", [
        ((64,), -1), ((5, 64), 1), ((64, 5), 0), ((2, 3, 64), -1), ((5, 96), 1),
    ], ids=["row", "stack-axis1", "stack-axis0", "pair-stack", "padded"])
    def test_equal_to_axis_transforms_on_the_grid(self, shape, axis):
        g = SpectralGrid(7.5, 64)
        rng = np.random.default_rng(len(shape) + shape[axis])
        vals = rng.standard_normal(shape)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        span = 2.0 * g.half_length
        assert np.array_equal(g.dft(vals, axis=axis), dft_axis(vals, span, axis=axis))
        assert np.array_equal(g.idft(coeffs, axis=axis), idft_axis(coeffs, span, axis=axis))
        # the real pair: samples to the modes 0 ... num/2 and back
        half = np.take(coeffs, np.arange(shape[axis] // 2 + 1), axis=axis)
        assert np.array_equal(g.dft(vals, axis=axis, real=True),
                              dft_axis(vals, span, axis=axis, real=True))
        assert np.array_equal(g.idft(half, axis=axis, real=True),
                              idft_axis(half, span, axis=axis, real=True))


class TestBatchedTransforms:
    # the lab, the products and the Picard solver transform whole stacks of
    # rows; ensemble nesting and byte-identical reruns rely on a stack giving
    # exactly the per-row result (the padded sizes 64 ... 512 occur there)
    @pytest.mark.parametrize("num", [64, 128, 192, 256, 512])
    @pytest.mark.parametrize("rows", [3, 64, 193])
    def test_stack_equals_rows_exactly(self, num, rows):
        rng = np.random.default_rng(num + rows)
        span = 20.0
        vals = rng.standard_normal((rows, num))
        coeffs = rng.standard_normal((rows, num)) + 1j * rng.standard_normal((rows, num))
        fwd = dft_axis(vals, span)
        inv = idft_axis(coeffs, span)
        for j in range(rows):
            assert np.array_equal(fwd[j], dft_axis(vals[j], span))
            assert np.array_equal(inv[j], idft_axis(coeffs[j], span))

    @pytest.mark.parametrize("num", [64, 128, 192, 256, 512, 2048])
    @pytest.mark.parametrize("rows", [3, 64, 193])
    def test_real_stack_equals_rows_exactly(self, num, rows):
        rng = np.random.default_rng(num + rows)
        span = 20.0
        vals = rng.standard_normal((rows, num))
        shape = (rows, num // 2 + 1)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fwd = dft_axis(vals, span, real=True)
        inv = idft_axis(coeffs, span, real=True)
        for j in range(rows):
            assert np.array_equal(fwd[j], dft_axis(vals[j], span, real=True))
            assert np.array_equal(inv[j], idft_axis(coeffs[j], span, real=True))

    @pytest.mark.parametrize("shape", [(3, 64), (2, 5, 64)])
    def test_round_trip_rows_equal_lone_rows_exactly(self, shape):
        g = SpectralGrid(10.0, 64)
        rows = np.random.default_rng(8).standard_normal(shape)
        back = inverse_transform(forward_transform(rows, g), g)
        for idx in np.ndindex(shape[:-1]):
            alone = inverse_transform(forward_transform(rows[idx], g), g)
            assert np.array_equal(back[idx], alone)

    def test_product_rows_equal_field_products(self):
        g = SpectralGrid(10.0, 64)
        rng = np.random.default_rng(5)
        factors = [rng.standard_normal((9, 64)) for _ in range(3)]
        rows = dealiased_product(factors, g)
        for j in range(9):
            one = dealiased_product([f[j] for f in factors], g)
            assert np.array_equal(rows[j], one)

    def test_product_rows_reject_nonfinite_row(self):
        g = SpectralGrid(10.0, 64)
        bad = np.ones((4, 64))
        bad[2, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dealiased_product([np.ones((4, 64)), bad], g)


def _plain_dft(values, span, axis, real=False):
    scale = (span / values.shape[axis]) / SQRT_2PI
    return scale * (np.fft.rfft if real else np.fft.fft)(values, axis=axis)


def _plain_idft(coeffs, span, axis, real=False):
    num = 2 * (coeffs.shape[axis] - 1) if real else coeffs.shape[axis]
    scale = (span / num) / SQRT_2PI
    if real:
        return np.fft.irfft(coeffs, num, axis=axis) / scale
    return np.fft.ifft(coeffs, axis=axis) / scale


class TestTransformPlan:
    # every transform must be the plain scaled np.fft bit for bit, or
    # snapshots and report hashes would move; odd sizes check an odd axis
    @pytest.mark.parametrize("num", [8, 9, 64, 2048])
    @pytest.mark.parametrize("span", [20.0, 2.0], ids=["grid", "time-window"])
    @pytest.mark.parametrize("layout", ["row", "stack-axis0", "stack-axis-1"])
    def test_bit_identical_to_plain_formula(self, num, span, layout):
        shape, axis = {
            "row": ((num,), -1),
            "stack-axis0": ((num, 5), 0),
            "stack-axis-1": ((5, num), -1),
        }[layout]
        rng = np.random.default_rng(num)
        vals = rng.standard_normal(shape)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(dft_axis(vals, span, axis=axis),
                              _plain_dft(vals, span, axis))
        assert np.array_equal(idft_axis(coeffs, span, axis=axis),
                              _plain_idft(coeffs, span, axis))

    @pytest.mark.parametrize("num", [8, 64, 2048])
    @pytest.mark.parametrize("span", [20.0, 2.0], ids=["grid", "time-window"])
    @pytest.mark.parametrize("layout", ["row", "stack-axis0", "stack-axis-1"])
    def test_real_pair_bit_identical_to_plain_formula(self, num, span, layout):
        shape, axis = {
            "row": ((num,), -1),
            "stack-axis0": ((num, 5), 0),
            "stack-axis-1": ((5, num), -1),
        }[layout]
        rng = np.random.default_rng(num)
        vals = rng.standard_normal(shape)
        fwd = dft_axis(vals, span, axis=axis, real=True)
        assert np.array_equal(fwd, _plain_dft(vals, span, axis, real=True))
        inv = idft_axis(fwd, span, axis=axis, real=True)
        assert np.array_equal(inv, _plain_idft(fwd, span, axis, real=True))
        # against the complex pair: the modes 0 ... num/2 - 1 agree, and the
        # entry num/2 is mode +num/2, the conjugate of the complex entry -num/2
        full = _plain_dft(vals, span, axis)
        expect = np.take(full, np.arange(num // 2 + 1), axis=axis)
        nyq = [slice(None)] * vals.ndim
        nyq[axis] = num // 2
        expect[tuple(nyq)] = np.conj(expect[tuple(nyq)])
        assert np.max(np.abs(fwd - expect)) <= 1e-15 * np.max(np.abs(expect))
        back = _plain_idft(full, span, axis).real
        assert np.max(np.abs(inv - back)) <= 1e-15 * np.max(np.abs(back))

    # coefficients are measured from the first sample of the window
    # [offset, offset + span): the direct quadrature from there matches them,
    # and e^{-i offset zeta} turns them into the transform taken from x = 0
    # (the sign (-1)^k on the grid [-L, L))
    @staticmethod
    def _check_origin(vals, coeffs, span, offset, modes):
        num = vals.size
        h = span / num
        zeta = (2.0 * np.pi / span) * modes
        x = offset + h * np.arange(num)
        from_start = np.array([(h / SQRT_2PI) * np.sum(vals * np.exp(-1j * (x - offset) * z))
                               for z in zeta])
        from_zero = np.array([(h / SQRT_2PI) * np.sum(vals * np.exp(-1j * x * z))
                              for z in zeta])
        assert np.max(np.abs(coeffs - from_start)) <= 1e-12 * np.max(np.abs(from_start))
        shifted = np.exp(-1j * offset * zeta) * coeffs
        assert np.max(np.abs(shifted - from_zero)) <= 1e-12 * np.max(np.abs(from_zero))

    @pytest.mark.parametrize("num", [8, 9, 64, 256])
    @pytest.mark.parametrize(
        "span, offset",
        [(20.0, 0.0), (20.0, -10.0), (2.0, 0.3)],
        ids=["even-ratio", "grid-edge", "time-window"],
    )
    def test_coefficients_are_taken_from_the_window_start(self, num, span, offset):
        vals = np.random.default_rng(num).standard_normal(num)
        modes = np.fft.fftfreq(num, 1.0 / num)
        self._check_origin(vals, dft_axis(vals, span), span, offset, modes)

    @pytest.mark.parametrize("num", [8, 64, 256])
    @pytest.mark.parametrize(
        "span, offset",
        [(20.0, 0.0), (20.0, -10.0), (2.0, 0.3)],
        ids=["even-ratio", "grid-edge", "time-window"],
    )
    def test_real_pair_is_taken_from_the_window_start(self, num, span, offset):
        vals = np.random.default_rng(num).standard_normal(num)
        modes = np.arange(num // 2 + 1)
        self._check_origin(vals, dft_axis(vals, span, real=True), span, offset, modes)

    def test_real_pair_needs_an_even_axis(self):
        with pytest.raises(ValueError, match="even"):
            dft_axis(np.ones(9), 20.0, real=True)

    def test_results_do_not_alias_their_input(self):
        span = 2.0
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(64)
        for real in (False, True):
            fwd = dft_axis(vals, span, real=real)
            inv = idft_axis(fwd, span, real=real)
            assert not np.shares_memory(fwd, vals)
            assert not np.shares_memory(inv, fwd)
            expect_fwd, expect_inv = fwd.copy(), inv.copy()
            fwd[:] = 7.0
            inv[:] = 7.0
            assert np.array_equal(dft_axis(vals, span, real=real), expect_fwd)
            assert np.array_equal(idft_axis(expect_fwd, span, real=real), expect_inv)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("layout", ["row", "stack-axis0", "stack-axis-1"])
    def test_out_is_filled_and_returned_with_the_same_bits(self, real, layout):
        num, span = 64, 20.0
        shape, axis = {
            "row": ((num,), -1),
            "stack-axis0": ((num, 5), 0),
            "stack-axis-1": ((5, num), -1),
        }[layout]
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(shape)
        fwd = _plain_dft(vals, span, axis, real=real)
        out = np.full(fwd.shape, np.nan, dtype=complex)  # stale contents are overwritten
        assert dft_axis(vals, span, axis=axis, real=real, out=out) is out
        assert np.array_equal(out, fwd)
        inv = _plain_idft(fwd, span, axis, real=real)
        out = np.full(inv.shape, np.nan, dtype=inv.dtype)
        assert idft_axis(fwd, span, axis=axis, real=real, out=out) is out
        assert np.array_equal(out, inv)

    # the transforms call np.fft's gufuncs without its wrapper, so the
    # wrapper's check of out is theirs to keep: the bare gufunc would fill a
    # core axis one short without a word
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("wrong", ["one-short", "axis-missing"])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_a_wrong_shaped_out_is_rejected(self, real, wrong, axis):
        num, span = 8, 20.0
        vals = np.random.default_rng(4).standard_normal((3, num) if axis == -1 else (num, 3))
        fwd = _plain_dft(vals, span, axis, real=real)
        inv = _plain_idft(fwd, span, axis, real=real)
        for transform, arg, result in ((dft_axis, vals, fwd), (idft_axis, fwd, inv)):
            shape = list(result.shape)
            if wrong == "one-short":
                shape[axis] -= 1
            else:
                del shape[1 + axis]  # the axis that is not transformed
            out = np.zeros(shape, dtype=result.dtype)
            with pytest.raises(ValueError, match="wrong shape"):
                transform(arg, span, axis=axis, real=real, out=out)
            assert not np.any(out)

    @pytest.mark.parametrize("num", [64, 96])
    def test_rhs_rows_and_picard_blocks_equal_the_plain_formula(self, num):
        # the RHS transforms one component at a time into row views of its
        # pair buffers; picard_solve does the same on node blocks
        span = 20.0
        rng = np.random.default_rng(num)
        for rows in [(), (32,)]:
            samples = rng.standard_normal((2,) + rows + (num,))
            spectra = np.full((2,) + rows + (num // 2 + 1,), np.nan + 0j)
            back = np.full(samples.shape, np.nan)
            for row, spectrum, row_back in zip(samples, spectra, back):
                assert dft_axis(row, span, real=True, out=spectrum) is spectrum
                assert np.array_equal(spectrum, _plain_dft(row, span, -1, real=True))
                assert idft_axis(spectrum, span, real=True, out=row_back) is row_back
                assert np.array_equal(row_back, _plain_idft(spectrum, span, -1, real=True))
            assert np.array_equal(dft_axis(samples, span, real=True),
                                  _plain_dft(samples, span, -1, real=True))
            assert np.array_equal(idft_axis(spectra, span, real=True),
                                  _plain_idft(spectra, span, -1, real=True))

    def test_space_time_stack_equals_the_plain_formula(self):
        # spaces.xt_transform: the real time transform along axis -2 of a
        # (members, R, N) stack, then every x mode along axis -1; xt_inverse
        # inverts the x axis on the complex path
        rows, num, window, span = 16, 32, 2.0, 20.0
        vals = np.random.default_rng(5).standard_normal((2, rows, num))
        ct = dft_axis(vals, window, axis=-2, real=True)
        assert np.array_equal(ct, _plain_dft(vals, window, -2, real=True))
        coeffs = dft_axis(ct, span, axis=-1)
        assert np.array_equal(coeffs, _plain_dft(ct, span, -1))
        x_inv = idft_axis(coeffs, span, axis=-1)
        assert np.array_equal(x_inv, _plain_idft(coeffs, span, -1))
        assert np.array_equal(idft_axis(x_inv, window, axis=-2, real=True),
                              _plain_idft(x_inv, window, -2, real=True))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("view", ["reversed-rows", "strided"])
    def test_views_equal_the_plain_formula(self, real, view):
        span = 20.0
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((3, 128))
        vals = vals[::-1] if view == "reversed-rows" else vals[:, ::2]
        fwd = dft_axis(vals, span, real=real)
        assert np.array_equal(fwd, _plain_dft(vals, span, -1, real=real))
        spectrum = _plain_dft(rng.standard_normal((3, 128)), span, -1, real=real)
        spectrum = spectrum[::-1] if view == "reversed-rows" else spectrum[:, ::2]
        assert np.array_equal(idft_axis(spectrum, span, real=real),
                              _plain_idft(spectrum, span, -1, real=real))
        for axis in (0, -1):
            assert np.array_equal(dft_axis(vals, span, axis=axis),
                                  _plain_dft(vals, span, axis))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_integer_input_equals_the_plain_formula(self, real):
        span = 20.0
        vals = np.arange(16) % 5 - 2
        assert np.array_equal(dft_axis(vals, span, real=real),
                              _plain_dft(vals, span, -1, real=real))
        coeffs = np.arange(9) % 4 - 1
        assert np.array_equal(idft_axis(coeffs, span, real=real),
                              _plain_idft(coeffs, span, -1, real=real))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64, np.complex64,
                                       np.complex128])
    def test_new_results_have_the_np_fft_dtypes(self, dtype):
        vals = (np.arange(16) % 3).astype(dtype)
        assert dft_axis(vals, 2.0).dtype == np.fft.fft(vals).dtype
        assert idft_axis(vals, 2.0).dtype == np.fft.ifft(vals).dtype
        assert idft_axis(vals[:9], 2.0, real=True).dtype == np.fft.irfft(vals[:9]).dtype
        if not np.iscomplexobj(vals):
            assert dft_axis(vals, 2.0, real=True).dtype == np.fft.rfft(vals).dtype


class TestPaddingBuffers:
    # the RHS workspace pads and truncates the pair through one buffer it
    # keeps: PaddedBand.write fills the band of both components at once,
    # whatever the buffer held before, and PaddedBand.cut cuts the forward
    # transforms back in place; per component they give padded_samples and
    # truncated_coeffs bit for bit, and the views made once serve every call
    @pytest.mark.parametrize("num_padded", [16, 24, 40])
    @pytest.mark.parametrize("rows", [(), (3,), (2, 3)])
    def test_buffers_give_the_fresh_results(self, num_padded, rows):
        g = SpectralGrid(10.0, 16)
        rng = np.random.default_rng(num_padded)
        pair = (2,) + rows
        c = g.dft(rng.standard_normal(pair + (16,)), real=True)
        c[..., 8] = rng.standard_normal(pair) + 1j * rng.standard_normal(pair)
        spectrum = np.full(pair + (num_padded // 2 + 1,), 7.0 + 7.0j)
        band = PaddedBand(spectrum, g)
        for _ in range(2):
            assert band.write(c) is spectrum
            for k in range(2):
                samples = np.full(rows + (num_padded,), 7.0)
                idft_axis(spectrum[k], 2.0 * g.half_length, real=True, out=samples)
                assert np.array_equal(samples, padded_samples(c[k], g, num_padded))

            w = rng.standard_normal(pair + (num_padded,))
            spectrum[...] = 7.0 + 7.0j
            for k in range(2):
                dft_axis(w[k], 2.0 * g.half_length, real=True, out=spectrum[k])
            back = band.cut()
            assert back.shape == pair + (9,) and np.shares_memory(back, spectrum)
            for k in range(2):
                assert np.array_equal(back[k], truncated_coeffs(w[k], g))
