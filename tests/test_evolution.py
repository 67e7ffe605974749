"""Stepper and fixed-point solver tests.  Oracles: the exact free group on
single modes, hand-expanded trigonometric products for the nonlinear term,
dt-halving self-convergence, and an O(M^2) direct quadrature for the first
integral iterate."""

import dataclasses
import hashlib

import numpy as np
import pytest

from gkdvlab.estimates import LAB_GRID, SampleSpec, duhamel_ratio, random_window_sample
from gkdvlab.evolution import (
    NODE_BLOCK,
    CoupledState,
    _duhamel_cumulative,
    _RhsWorkspace,
    _if_rk4_phases,
    _step_if_rk4,
    _step_strang,
    NonContractionError,
    NumericalBlowupError,
    PicardConfig,
    SolverConfig,
    dispersive_phase,
    picard_solve,
    reflect_samples,
    simulate,
)
from gkdvlab.harness import RunConfig, initial_state
from gkdvlab.spaces import NormParams, gevrey_norm
from gkdvlab.spectral import (
    SpectralGrid,
    forward_transform,
    inverse_transform,
    padded_points,
    padded_samples,
    truncated_coeffs,
)


def bandlimited_state(grid, seed, bandwidth=5, amp=1.5):
    """Random smooth pair with geometrically decaying spectra."""

    def one(s):
        r = np.random.default_rng(s)
        c = np.zeros(grid.num_points // 2 + 1, dtype=complex)
        for k in range(1, bandwidth + 1):
            c[k] = (r.standard_normal() + 1j * r.standard_normal()) * amp * 0.5**k
        return inverse_transform(c, grid)

    return CoupledState(0.0, grid, [one(seed), one(seed + 1000)])


def free_flow(state, t):
    """The exact free group of w_t + w_xxx = 0 over time t: the phase
    e^{i zeta^3 t} on each component's half-spectrum."""
    g = state.grid
    c = forward_transform(state.pair, g) * dispersive_phase(g, t)
    return CoupledState(state.t + t, g, inverse_transform(c, g))


def pair_rhs(state, p):
    """The workspace RHS of a state's pair, as real samples (2, N)."""
    c = forward_transform(state.pair, state.grid)
    out = _RhsWorkspace(state.grid, p, c.shape)(c)
    return inverse_transform(out, state.grid)


def run_steps(state, config, num_steps):
    """Final state of simulate after num_steps steps of config.dt."""
    rec = simulate(
        state,
        dataclasses.replace(
            config, t_end=state.t + num_steps * config.dt, record_stride=num_steps
        ),
    )
    return CoupledState(rec.times[-1], rec.grid, rec.samples()[:, -1])


class TestFreeGroup:
    def test_zero_time_is_identity(self):
        g = SpectralGrid(10.0, 128)
        s = bandlimited_state(g, 3)
        out = free_flow(s, 0.0)
        scale = np.max(np.abs(s.pair[0]))
        assert np.max(np.abs(out.pair[0] - s.pair[0])) < 1e-14 * scale
        assert out.t == s.t

    def test_single_mode_phase(self):
        # w = cos(k x + k^3 t) solves w_t + w_xxx = 0
        g = SpectralGrid(np.pi, 64)
        k, t = 3, 0.37
        s = CoupledState(0.0, g, [np.cos(k * g.x), np.zeros(64)])
        out = free_flow(s, t)
        exact = np.cos(k * g.x + k**3 * t)
        assert np.max(np.abs(out.pair[0] - exact)) < 1e-12
        assert np.max(np.abs(out.pair[1])) < 1e-14
        assert out.t == pytest.approx(t)

    def test_weighted_norms_preserved(self):
        # the group is a modulus-one multiplier, so any |coeff|-built norm
        # is exactly invariant
        g = SpectralGrid(10.0, 256)
        s = bandlimited_state(g, 7)
        params = NormParams(0.4, 2.0, 0.0)
        before = gevrey_norm(forward_transform(s.pair[0], g), g, params)
        after = gevrey_norm(forward_transform(free_flow(s, 1.7).pair[0], g), g, params)
        assert abs(after - before) < 1e-12 * before

    def test_group_property(self):
        g = SpectralGrid(5.0, 64)
        s = bandlimited_state(g, 11)
        one = free_flow(free_flow(s, 0.3), 0.5)
        both = free_flow(s, 0.8)
        assert np.max(np.abs(one.pair[0] - both.pair[0])) < 1e-12

    def test_nyquist_untouched(self):
        g = SpectralGrid(np.pi, 16)
        phase = dispersive_phase(g, 2.3)
        assert phase.shape == (9,)
        assert phase[g.nyquist_index] == 1.0
        assert np.allclose(np.abs(phase), 1.0)

    def test_array_of_times_equals_scalar_calls(self):
        g = SpectralGrid(10.0, 256)
        times = (0.05 / 192) * np.arange(193)
        rows = dispersive_phase(g, times)
        assert rows.shape == (193, 129)
        for j, t in enumerate(times):
            assert np.array_equal(rows[j], dispersive_phase(g, float(t)))


class TestRhsWorkspace:
    def test_zero_state(self):
        g = SpectralGrid(np.pi, 64)
        z = np.zeros(64)
        ru, rv = pair_rhs(CoupledState(0.0, g, [z, z]), p=1)
        assert np.max(np.abs(ru)) == 0.0
        assert np.max(np.abs(rv)) == 0.0

    def test_trig_oracle_p1(self):
        # u = cos x, v = sin x:
        #   -(u v^2)_x = sin(x)/4 - 3 sin(3x)/4
        #   -(u^2 v)_x = -cos(x)/4 - 3 cos(3x)/4
        g = SpectralGrid(np.pi, 64)
        s = CoupledState(0.0, g, [np.cos(g.x), np.sin(g.x)])
        ru, rv = pair_rhs(s, p=1)
        eu = 0.25 * np.sin(g.x) - 0.75 * np.sin(3 * g.x)
        ev = -0.25 * np.cos(g.x) - 0.75 * np.cos(3 * g.x)
        assert np.max(np.abs(ru - eu)) < 1e-10
        assert np.max(np.abs(rv - ev)) < 1e-10

    @pytest.mark.parametrize("p", [1, 2])
    def test_equal_components_reduce_to_single_equation(self, p):
        # u = v = w makes both components -(w^(2p+1))_x
        g = SpectralGrid(np.pi, 256)
        w = 0.9 * np.exp(np.sin(g.x)) - 1.0
        s = CoupledState(0.0, g, [w, w])
        ru, rv = pair_rhs(s, p=p)
        assert np.array_equal(ru, rv)
        power = w ** (2 * p + 1)
        expect = inverse_transform(
            forward_transform(power, g) * np.where(np.arange(129) == 0, 0.0, -1j * g.rzeta),
            g,
        )
        # pointwise power is alias-free here only up to spectral decay
        assert np.max(np.abs(ru - expect)) < 1e-8

    @pytest.mark.parametrize("p", [1, 2])
    def test_node_stack_equals_per_node_calls(self, p):
        # picard_solve evaluates all nodes in one call
        g = SpectralGrid(20.0, 256)
        nodes = [bandlimited_state(g, 40 + j) for j in range(7)]
        c = np.stack([forward_transform(s.pair, s.grid) for s in nodes], axis=1)
        w = _RhsWorkspace(g, p, c.shape)(c)
        rhs = _RhsWorkspace(g, p, c[:, 0].shape)
        for j in range(len(nodes)):
            assert np.array_equal(w[:, j], rhs(c[:, j]))

    def test_mean_is_conserved_by_flux_form(self):
        # the rhs is an exact x-derivative, so its zero mode vanishes
        g = SpectralGrid(7.0, 128)
        s = bandlimited_state(g, 5)
        for r in pair_rhs(s, p=1):
            c0 = forward_transform(r, g)[0]
            assert abs(c0) < 1e-14


class TestStep:
    def test_zero_state_stays_zero(self):
        g = SpectralGrid(np.pi, 64)
        z = np.zeros(64)
        out = run_steps(CoupledState(0.0, g, [z, z]), SolverConfig(p=1, dt=0.01), 1)
        assert np.max(np.abs(out.pair[0])) == 0.0
        assert out.t == pytest.approx(0.01)

    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_equal_components_stay_equal(self, scheme):
        g = SpectralGrid(10.0, 128)
        w = 1.0 / np.cosh(g.x)
        st = CoupledState(0.0, g, [w, w])
        st = run_steps(st, SolverConfig(p=1, dt=1e-3, scheme=scheme), 50)
        assert np.max(np.abs(st.pair[0] - st.pair[1])) < 1e-10

    @staticmethod
    def _observed_order(scheme):
        # average slope over two dt octaves; single-octave ratios wobble
        g = SpectralGrid(np.pi, 128)
        s0 = bandlimited_state(g, 1)

        def run(dt, t_end=0.064):
            cfg = SolverConfig(p=1, dt=dt, scheme=scheme)
            return run_steps(s0, cfg, int(round(t_end / dt))).pair[0]

        ref = run(0.000125)
        coarse = np.max(np.abs(run(0.004) - ref))
        fine = np.max(np.abs(run(0.001) - ref))
        return np.log2(coarse / fine) / 2.0

    def test_if_rk4_fourth_order(self):
        order = self._observed_order("if_rk4")
        assert 3.6 < order < 4.4  # measured 4.08

    def test_strang_second_order(self):
        order = self._observed_order("strang")
        assert 1.7 < order < 2.3  # measured 1.95

    def test_schemes_agree_at_small_dt(self):
        g = SpectralGrid(10.0, 128)
        w = 1.0 / np.cosh(g.x)
        s0 = CoupledState(0.0, g, [w, w])
        a = run_steps(s0, SolverConfig(p=1, dt=5e-4, scheme="if_rk4"), 20)
        b = run_steps(s0, SolverConfig(p=1, dt=5e-4, scheme="strang"), 20)
        assert np.max(np.abs(a.pair[0] - b.pair[0])) < 1e-6


def full_spectrum(half, grid):
    """Every mode, in FFT order, of half-spectrum rows (..., N/2 + 1)."""
    n = grid.num_points
    out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., : n // 2] = half[..., : n // 2]
    out[..., n // 2] = np.conj(half[..., n // 2])  # +N/2 stored as -N/2
    out[..., n // 2 + 1 :] = np.conj(half[..., n // 2 - 1 : 0 : -1])
    return out


def full_phase(grid, t):
    """e^{i zeta^3 t} over a full spectrum in FFT order, identity on the
    Nyquist mode."""
    phase = np.exp(1j * grid.zeta**3 * t)
    phase[grid.nyquist_index] = 1.0
    return phase


def full_rhs(c, grid, p):
    """The complex right-hand side on full spectra (2, N): zero-pad in FFT
    order, keep .real of the complex inverse, transform the powers in
    complex, keep the band with its Nyquist entry zeroed, times -i zeta."""
    n, half = grid.num_points, grid.num_points // 2
    m = padded_points(n, 2 * p + 1)

    def padded(ck):
        out = np.zeros(m, dtype=complex)
        out[:half] = ck[:half]
        out[m - half :] = ck[half:]
        return grid.idft(out).real

    u, v = padded(c[0]), padded(c[1])
    out = np.empty_like(c)
    for k, w in enumerate(((u * v) ** p * v, (u * v) ** p * u)):
        wh = grid.dft(w)
        band = np.concatenate((wh[:half], [0.0], wh[m - half + 1 :]))
        out[k] = -1j * np.where(np.arange(n) == half, 0.0, grid.zeta) * band
    return out


class TestHalfSpectrumMarch:
    """The half-spectrum steppers against the complex full-spectrum formulas:
    every step operation is elementwise on conjugate-symmetric arrays, so the
    modes 0 ... N/2 evolve alike."""

    @staticmethod
    def _march(scheme, p, num_steps=5, dt=2e-3):
        g = SpectralGrid(10.0, 128)
        s = bandlimited_state(g, 31, bandwidth=12, amp=0.8 if p == 1 else 0.6)
        half = forward_transform(s.pair, s.grid)
        full = full_spectrum(half, g)
        eh, e2h = (dispersive_phase(g, t) for t in (0.5 * dt, dt))
        ef, e2f = (full_phase(g, t) for t in (0.5 * dt, dt))
        rhs = _RhsWorkspace(g, p, half.shape)
        phases = _if_rk4_phases(dt, eh, e2h)

        def frhs(c):
            return full_rhs(c, g, p)

        for _ in range(num_steps):
            if scheme == "if_rk4":
                half = _step_if_rk4(half, dt, phases, rhs)
                n1 = frhs(full)
                n2 = frhs(ef * (full + 0.5 * dt * n1))
                n3 = frhs(ef * full + 0.5 * dt * n2)
                n4 = frhs(e2f * full + dt * ef * n3)
                full = e2f * full + (dt / 6.0) * (e2f * n1 + 2.0 * ef * (n2 + n3) + n4)
            else:
                half = _step_strang(half, dt, eh, rhs)
                c = ef * full
                k1 = frhs(c)
                k2 = frhs(c + 0.5 * dt * k1)
                full = ef * (c + dt * k2)
        return g, half, full

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_agrees_with_full_spectrum_step(self, scheme, p):
        g, half, full = self._march(scheme, p)
        assert half.shape == (2, 65)
        expect = full[:, :65].copy()
        expect[:, 64] = np.conj(full[:, 64])  # the half-spectrum keeps +N/2
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(half - expect)) <= 1e-14 * scale
        # the full march stays conjugate-symmetric, so the half loses nothing
        assert np.max(np.abs(full - full_spectrum(half, g))) <= 1e-14 * scale


def reference_rhs(grid, p):
    """The RHS as the expression it computes, on fresh arrays: padded
    samples of each component, the coupled powers, the truncated band of
    each times the derivative symbol."""
    m = padded_points(grid.num_points, 2 * p + 1)
    deriv = -grid.derivative_symbol(1)

    def rhs(c):
        u, v = padded_samples(c[0], grid, m), padded_samples(c[1], grid, m)
        base = (u * v) ** p
        return np.stack([deriv * truncated_coeffs(w, grid) for w in (base * v, base * u)])

    return rhs


def reference_if_rk4(c, dt, e, e2, rhs):
    n1 = rhs(c)
    n2 = rhs(e * (c + 0.5 * dt * n1))
    n3 = rhs(e * c + 0.5 * dt * n2)
    n4 = rhs(e2 * c + dt * e * n3)
    return e2 * c + (dt / 6.0) * (e2 * n1 + 2.0 * e * (n2 + n3) + n4)


def reference_strang(c, dt, e, rhs):
    c = e * c
    k1 = rhs(c)
    k2 = rhs(c + 0.5 * dt * k1)
    return e * (c + dt * k2)


class TestInPlaceStepping:
    """The RHS workspace and the in-place steppers against the plain
    expressions on fresh arrays, bit for bit: the same operations in the same
    order, on a state and on a Picard-like node stack."""

    @staticmethod
    def _pair_stack(g, p, nodes):
        amp = 0.8 if p == 1 else 0.6
        states = [bandlimited_state(g, 60 + j, bandwidth=12, amp=amp) for j in range(nodes)]
        c = np.stack([forward_transform(s.pair, s.grid) for s in states], axis=1)
        return c[:, 0] if nodes == 1 else c

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("nodes", [1, 5], ids=["state", "node-stack"])
    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_steps_equal_the_expressions(self, scheme, nodes, p):
        g = SpectralGrid(10.0, 128)
        dt = 2e-3
        e, e2 = dispersive_phase(g, 0.5 * dt), dispersive_phase(g, dt)
        got = want = self._pair_stack(g, p, nodes)
        rhs, ref_rhs = _RhsWorkspace(g, p, got.shape), reference_rhs(g, p)
        phases = _if_rk4_phases(dt, e, e2)
        for _ in range(4):
            before = got.copy()
            if scheme == "if_rk4":
                got = _step_if_rk4(got, dt, phases, rhs)
                want = reference_if_rk4(want, dt, e, e2, ref_rhs)
            else:
                got = _step_strang(got, dt, e, rhs)
                want = reference_strang(want, dt, e, ref_rhs)
            assert np.array_equal(got, want)
            assert not np.array_equal(got, before)
        assert got.shape == ((2, 65) if nodes == 1 else (2, nodes, 65))

    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_steps_leave_their_input_alone(self, scheme):
        g = SpectralGrid(10.0, 64)
        dt = 2e-3
        e, e2 = dispersive_phase(g, 0.5 * dt), dispersive_phase(g, dt)
        c = self._pair_stack(g, 1, 1)
        keep = c.copy()
        if scheme == "if_rk4":
            _step_if_rk4(c, dt, _if_rk4_phases(dt, e, e2), _RhsWorkspace(g, 1, c.shape))
        else:
            _step_strang(c, dt, e, _RhsWorkspace(g, 1, c.shape))
        assert np.array_equal(c, keep)

    @pytest.mark.parametrize("p", [1, 2])
    def test_calls_return_fresh_arrays(self, p):
        g = SpectralGrid(20.0, 64)
        stack = self._pair_stack(g, p, 6)
        inputs = [stack[:, j] for j in (0, 2, 3, 2)]
        rhs = _RhsWorkspace(g, p, inputs[0].shape)
        results = [rhs(c) for c in inputs]
        kept = [r.copy() for r in results]
        for c, r, k in zip(inputs, results, kept):
            # a later call leaves every earlier result as it was
            assert np.array_equal(r, k)
            assert np.array_equal(r, reference_rhs(g, p)(c))
        assert not any(np.shares_memory(a, b) for i, a in enumerate(results)
                       for b in results[i + 1:])


class TestReflection:
    def test_reflect_is_on_node_flip(self):
        g = SpectralGrid(4.0, 16)
        f = np.exp(g.x / 3.0)
        r = reflect_samples(f)
        # node x_j maps to -x_j, which is on the grid for j != 0
        for j in range(16):
            xi = g.x[j]
            src = np.argmin(np.abs(g.x - (-xi))) if -xi < g.half_length else 0
            assert r[j] == f[src]

    def test_double_reflection_is_identity(self):
        g = SpectralGrid(3.0, 32)
        s = bandlimited_state(g, 9)
        back = reflect_samples(reflect_samples(s.pair))
        assert np.array_equal(back, s.pair)

    def test_block_reflection_matches_per_state(self):
        # a (k, 2, N) block of pairs reflects row by row, bit for bit
        g = SpectralGrid(3.0, 32)
        states = [bandlimited_state(g, sd) for sd in range(4)]
        block = np.stack([s.pair for s in states])
        out = reflect_samples(block)
        for row, s in zip(out, states):
            r = reflect_samples(s.pair)
            assert np.array_equal(row[0], r[0])
            assert np.array_equal(row[1], r[1])

    def test_backward_integration_round_trip(self):
        # (t,x) -> (-t,-x) symmetry: forward-evolving the reflected final
        # state undoes the evolution up to scheme error
        g = SpectralGrid(20.0, 256)
        s0 = CoupledState(0.0, g, [1.2 / np.cosh(g.x - 2.0), 0.8 / np.cosh(g.x + 1.0) ** 2])
        cfg = SolverConfig(p=1, dt=1e-3)

        def reflected(st):
            return CoupledState(st.t, g, reflect_samples(st.pair))

        st = reflected(run_steps(s0, cfg, 200))
        st = reflected(run_steps(st, cfg, 200))
        assert np.max(np.abs(st.pair[0] - s0.pair[0])) < 1e-10
        assert np.max(np.abs(st.pair[1] - s0.pair[1])) < 1e-10


class TestSimulate:
    def test_record_cadence(self):
        g = SpectralGrid(10.0, 64)
        s = bandlimited_state(g, 2, amp=0.3)
        rec = simulate(s, SolverConfig(p=1, dt=0.01, t_end=0.1, record_stride=4))
        # steps 0, 4, 8, 10
        assert list(np.round(rec.times, 10)) == [0.0, 0.04, 0.08, 0.1]
        assert len(rec) == 4
        assert not rec.blow_up

    def test_fractional_step_count_rejected(self):
        g = SpectralGrid(10.0, 64)
        s = bandlimited_state(g, 2)
        with pytest.raises(ValueError, match="whole number"):
            simulate(s, SolverConfig(p=1, dt=0.3, t_end=1.0))

    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_instability_raises_with_partial_record(self, scheme):
        # warnings are errors in this suite, so no overflow of the diverging
        # steps may escape the run's error state
        g = SpectralGrid(np.pi, 128)
        big = 5.0 * np.sin(g.x)
        with pytest.raises(NumericalBlowupError) as info:
            simulate(
                CoupledState(0.0, g, [big, big]),
                SolverConfig(p=1, dt=0.05, t_end=5.0, record_stride=5, scheme=scheme),
            )
        rec = info.value.record
        assert rec is not None and rec.blow_up
        assert len(rec) >= 1

    def test_blown_up_record_holds_only_its_rows(self):
        # simulate sizes the record for the whole run; a blow-up at t = 0.9
        # leaves nine rows, each the final row of a clean run stopping there
        g = SpectralGrid(np.pi, 64)
        s0 = CoupledState(0.0, g, [np.sin(g.x), np.sin(g.x)])
        cfg = SolverConfig(p=1, dt=0.05, t_end=5.0, record_stride=2)
        with pytest.raises(NumericalBlowupError, match="t = 0.9") as info:
            simulate(s0, cfg)
        rec = info.value.record
        rows = rec.samples()
        assert len(rec) == 9 and rec.rows.shape == (2, 51, 64)
        assert rows.shape == (2, len(rec), 64) and np.shares_memory(rows, rec.rows)
        assert np.array_equal(rows[:, 0], s0.pair)
        for i in range(1, len(rec)):
            clean = simulate(s0, dataclasses.replace(cfg, t_end=rec.times[i]))
            assert np.array_equal(rows[:, i], clean.samples()[:, -1])

    def test_record_samples_are_read_only(self):
        g = SpectralGrid(10.0, 64)
        rec = simulate(bandlimited_state(g, 2, amp=0.3),
                       SolverConfig(p=1, dt=0.01, t_end=0.1, record_stride=4))
        with pytest.raises(ValueError, match="read-only"):
            rec.samples()[0, 0, 0] = 1.0
        assert rec.rows.flags.writeable

    def test_sup_growth_guard(self):
        # a weak pulse run back 0.1 under the free group refocuses by t = 0.1;
        # its sup-norm grows 1.6x, past a factor of 1.2
        g = SpectralGrid(10.0, 64)
        w = 0.3 * np.exp(-4.0 * g.x**2)
        s = free_flow(CoupledState(0.1, g, [w, w]), -0.1)
        with pytest.raises(NumericalBlowupError, match="sup-norm") as info:
            simulate(
                s,
                SolverConfig(
                    p=1, dt=0.01, t_end=0.1, record_stride=2, blowup_factor=1.2
                ),
            )
        assert info.value.record.blow_up

    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_recording_only_reads_the_state(self, scheme):
        # the final record row must not depend on how often the loop records
        g = SpectralGrid(20.0 * np.pi, 256)
        w = np.sqrt(2.0) / np.cosh(g.x)
        s0 = CoupledState(0.0, g, [w, w])
        every = simulate(s0, SolverConfig(dt=1e-3, t_end=0.04, scheme=scheme, record_stride=1))
        once = simulate(s0, SolverConfig(dt=1e-3, t_end=0.04, scheme=scheme, record_stride=40))
        assert len(every) == 41 and len(once) == 2
        assert np.array_equal(every.samples()[:, -1], once.samples()[:, -1])


class TestPicard:
    def test_zero_data_converges_immediately(self):
        g = SpectralGrid(np.pi, 64)
        z = np.zeros(64)
        res = picard_solve(CoupledState(0.0, g, [z, z]), PicardConfig(), p=1)
        assert res.converged
        assert res.iterations == 1
        assert res.diffs[0] == 0.0

    def test_first_iterate_matches_direct_quadrature(self):
        # seed = free flow; first correction is the Duhamel integral of the
        # nonlinearity of the seed.  Direct O(M^2) trapezoid as oracle.
        g = SpectralGrid(np.pi, 64)
        s0 = bandlimited_state(g, 4, amp=1.0)
        # infinite tolerance stops the solver right after the first iterate
        cfg = PicardConfig(
            t_window=0.05, num_nodes=16, max_iters=2, contraction_tol=np.inf
        )
        res = picard_solve(s0, cfg, p=1)
        assert res.iterations == 1

        rhs = _RhsWorkspace(g, 1, (2, g.num_points // 2 + 1))
        m, h = cfg.num_nodes, cfg.t_window / cfg.num_nodes
        c0 = forward_transform(s0.pair, s0.grid)
        free = np.stack([dispersive_phase(g, h * j) * c0 for j in range(m + 1)])
        w_u = np.stack([rhs(free[j])[0] for j in range(m + 1)])
        expect_u = free[:, 0].copy()
        for j in range(1, m + 1):
            acc = np.zeros(g.num_points // 2 + 1, dtype=complex)
            for k in range(j + 1):
                wt = 0.5 if k in (0, j) else 1.0
                acc += wt * h * dispersive_phase(g, h * (j - k)) * w_u[k]
            expect_u[j] += acc
        scale = np.max(np.abs(expect_u))
        assert np.max(np.abs(res.coeffs[0] - expect_u)) < 1e-10 * scale

    def test_contracts_on_short_window_and_matches_stepper(self):
        g = SpectralGrid(20.0, 256)
        w = 1.0 / np.cosh(g.x)
        s0 = CoupledState(0.0, g, [w, w])
        res = picard_solve(
            s0, PicardConfig(t_window=0.1, num_nodes=512, max_iters=30), p=1
        )
        assert res.converged
        assert all(f < 0.5 for f in res.contraction_factors)
        rec = simulate(s0, SolverConfig(p=1, dt=0.1 / 512, t_end=0.1, record_stride=1))
        assert len(rec) == 513
        pic = res.samples()
        worst = 0.0
        for j in range(1, 513):
            err = np.sqrt(np.sum((pic[0, j] - rec.samples()[0, j]) ** 2) * g.dx)
            worst = max(worst, err)
        assert worst < 1e-6  # measured 1.04e-7

    def test_first_difference_is_the_full_spectrum_sobolev_sum(self):
        # diffs[0] is the H^s size of (first iterate - free flow), a sum over
        # every mode; the half-spectrum entries 1 ... N/2 - 1 count twice
        g = SpectralGrid(np.pi, 64)
        s0 = bandlimited_state(g, 4, amp=1.0)
        cfg = PicardConfig(
            t_window=0.05, num_nodes=16, max_iters=2, contraction_tol=np.inf, diff_s=1.5
        )
        res = picard_solve(s0, cfg, p=1)
        h = cfg.t_window / cfg.num_nodes
        c0 = forward_transform(s0.pair, s0.grid)
        free = dispersive_phase(g, h * np.arange(17)) * c0[:, None, :]
        every = g.dft(g.idft(res.coeffs - free, real=True))  # (2, 17, N), FFT order
        weight = (1.0 + np.abs(g.zeta)) ** (2.0 * cfg.diff_s)
        expect = np.sqrt(np.sum(weight * np.abs(every) ** 2, axis=-1) * g.dzeta).max()
        assert expect > 0.0
        assert abs(res.diffs[0] - expect) <= 1e-13 * expect

    def test_samples_match_per_node_inverse(self):
        # one batched inverse of the node stack equals the per-node inverses
        g = SpectralGrid(20.0, 128)
        s0 = CoupledState(0.0, g, [1.0 / np.cosh(g.x), 0.5 / np.cosh(g.x - 1.0)])
        res = picard_solve(s0, PicardConfig(num_nodes=16), p=1)
        pic = res.samples()
        assert pic.shape == (2, 17, 128)
        for k in range(2):
            for j in range(17):
                node = inverse_transform(res.coeffs[k, j], g)
                assert np.array_equal(pic[k, j], node)

    def test_reference_record_samples_are_pair_first(self):
        # the picard-test reference stepper records every node; its record
        # reads pair-first like the Picard node stack, and simulate sized it
        # for exactly its rows
        nodes, t_window = 40, 0.01
        s0 = initial_state(RunConfig(num_points=64, p=2))
        res = picard_solve(s0, PicardConfig(t_window=t_window, num_nodes=nodes), p=2)
        ref = simulate(s0, SolverConfig(p=2, dt=t_window / nodes, t_end=t_window,
                                        record_stride=1))
        samples = ref.samples()
        assert samples.shape == res.samples().shape == (2, nodes + 1, 64)
        assert samples.shape == ref.rows.shape

    def test_nonfinite_difference_raises_at_first_iterate(self):
        # a sech pair of amplitude 1e300 overflows the first iterate
        g = SpectralGrid(20.0, 64)
        w = 1e300 / np.cosh(g.x)
        with pytest.raises(NumericalBlowupError, match="iterate 1: non-finite"):
            picard_solve(CoupledState(0.0, g, [w, w]), PicardConfig(max_iters=25), p=1)

    def test_long_window_raises(self):
        g = SpectralGrid(20.0, 128)
        w = 1.0 / np.cosh(g.x)
        with pytest.raises(NonContractionError, match="t_window"):
            picard_solve(
                CoupledState(0.0, g, [w, w]),
                PicardConfig(t_window=5.0, num_nodes=64, max_iters=25),
                p=1,
            )

    def test_factors_grow_with_window(self):
        g = SpectralGrid(20.0, 128)
        w = 1.0 / np.cosh(g.x)
        s0 = CoupledState(0.0, g, [w, w])
        firsts = []
        for t_window in (0.02, 0.08, 0.32):
            res = picard_solve(
                s0, PicardConfig(t_window=t_window, num_nodes=64), p=1
            )
            firsts.append(res.contraction_factors[0])
        assert firsts[0] < firsts[1] < firsts[2]


def per_node_duhamel(w, phase_h, h):
    """The Duhamel accumulation as a loop over nodes, one expression each."""
    out = np.zeros(w.shape, dtype=np.complex128)
    for j in range(1, w.shape[-2]):
        out[..., j, :] = phase_h * out[..., j - 1, :] + 0.5 * h * (
            phase_h * w[..., j - 1, :] + w[..., j, :])
    return out


class TestDuhamelCumulative:
    """The node-major recurrence against the per-node expression, bit for
    bit: the same operands in the same order at every node."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    @staticmethod
    def _forcing(shape, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # 34, 40 and 41 nodes leave a short first block of forcing rows
    @pytest.mark.parametrize("nodes", [1, 2, 33, 34, 40, 41, 193])
    @pytest.mark.parametrize("pair", [True, False], ids=["node-stack", "rows"])
    def test_equals_the_per_node_loop(self, nodes, pair):
        g = SpectralGrid(20.0, 64)
        h = 0.025 / 192
        w = self._forcing(((2,) if pair else ()) + (nodes, 33), nodes)
        phase_h = dispersive_phase(g, h)
        got = w.copy()
        assert _duhamel_cumulative(got, phase_h, h) is got
        assert np.array_equal(self._bits(got), self._bits(per_node_duhamel(w, phase_h, h)))

    def test_backward_march_on_a_reversed_view(self):
        # the lab marches back from a row j0 with the conjugate phase and a
        # negative step; in place on a negative-stride view of the rows too
        g = SpectralGrid(np.pi, 32)
        h, j0 = 0.05, 11
        coeffs = self._forcing((24, 17), 7)
        phase = np.conj(dispersive_phase(g, h))
        rows = coeffs[j0::-1]
        assert rows.strides[0] < 0
        want = per_node_duhamel(rows, phase, -h)
        assert _duhamel_cumulative(rows, phase, -h) is rows
        assert np.array_equal(self._bits(rows), self._bits(want))

    def test_duhamel_ratio_leaves_the_sample_alone(self):
        sample = random_window_sample(LAB_GRID, SampleSpec(seed=5), 64, 5)
        before = sample.values.copy()
        duhamel_ratio(sample, NormParams(0.5, 2.0, 0.55), -0.3, 1.0)
        assert np.array_equal(self._bits(sample.values), self._bits(before))


class TestSwapSymmetry:
    """Swapping u and v maps the system to itself, and the stacked pair must
    not mix its components: swapped data give swapped results bit for bit."""

    @staticmethod
    def _pair(p):
        g = SpectralGrid(10.0, 128)
        s = bandlimited_state(g, 21, amp=0.6 if p == 1 else 0.4)
        return s, CoupledState(s.t, g, s.pair[::-1])

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_simulate(self, scheme, p):
        s, swapped = self._pair(p)
        cfg = SolverConfig(p=p, dt=2e-3, t_end=0.1, scheme=scheme, record_stride=10)
        a, b = simulate(s, cfg), simulate(swapped, cfg)
        assert len(a) == len(b) == 6
        for i in range(len(a)):
            assert np.array_equal(a.samples()[:, i], b.samples()[:, i][::-1])
        assert not np.array_equal(a.samples()[0, -1], a.samples()[1, -1])

    @pytest.mark.parametrize("p", [1, 2])
    def test_picard(self, p):
        s, swapped = self._pair(p)
        cfg = PicardConfig(t_window=0.02, num_nodes=16)
        a, b = picard_solve(s, cfg, p), picard_solve(swapped, cfg, p)
        assert a.converged and a.iterations == b.iterations
        assert a.diffs == b.diffs
        assert np.array_equal(a.coeffs, b.coeffs[::-1])


def _sha256(samples):
    return hashlib.sha256(np.ascontiguousarray(samples, dtype="<f8").tobytes()).hexdigest()


def _perturbed_sech(num_points, p):
    return initial_state(
        RunConfig(ic="perturbed_sech", half_length=10.0, num_points=num_points, p=p))


class TestPinnedOutputs:
    # sha256 of the bytes: no change of coefficient convention or layout may
    # move a stepper or Picard result, not even by one rounding
    @pytest.mark.parametrize("scheme, p, digest", [
        ("if_rk4", 1, "438050fa6533d4e4068cdce6fa119099c9b6ea3ab32ff0d3b520737d534ae1b8"),
        ("if_rk4", 2, "c57713e38ac504f5ff1f079cb1238570807e681da266026e0732d78e02654260"),
        ("strang", 1, "260a0f30ed8392b1455c47cdd5c73ee507136fa92c889c9ffc69e864390fb400"),
        ("strang", 2, "9b0f22a10064f8e68cd52690c066a149bd41e178f02bc0e3b7827961325de2e2"),
    ])
    def test_simulate_snapshot(self, scheme, p, digest):
        cfg = SolverConfig(p=p, dt=2e-3, t_end=0.1, scheme=scheme, record_stride=50)
        rec = simulate(_perturbed_sech(128, p), cfg)
        assert rec.times == [0.0, 0.1]
        assert _sha256(rec.samples()[:, -1]) == digest

    @pytest.mark.parametrize("p, digest", [
        (1, "bbb0d66d0d7d25dacfa051b1b3948f87cacb32312793a524cc564de839af3d4c"),
        (2, "f73a3291b49e9b31312e0f85ad60b247789ae292d105af08f9488785bff0255b"),
    ])
    def test_picard_samples(self, p, digest):
        res = picard_solve(_perturbed_sech(64, p), PicardConfig(t_window=0.02, num_nodes=16), p)
        assert res.converged
        assert _sha256(res.samples()) == digest


def whole_stack_picard(initial, config, p):
    """picard_solve with one workspace over the whole node stack and fresh
    node-stack temporaries at the iterate update: (coeffs, diffs,
    contraction_factors) of a run that converges."""
    g = initial.grid
    m = config.num_nodes
    h = config.t_window / m
    c0 = forward_transform(initial.pair, initial.grid)
    free = dispersive_phase(g, h * np.arange(m + 1)) * c0[:, None, :]
    rhs = _RhsWorkspace(g, p, free.shape)
    phase_h = dispersive_phase(g, h)
    weight = (1.0 + g.rzeta) ** config.diff_s
    cell = g.multiplicity * g.dzeta
    cur, diffs, factors = free, [], []
    for _ in range(config.max_iters):
        new = _duhamel_cumulative(rhs(cur), phase_h, h)
        np.add(free, new, out=new)
        delta = np.abs(new - cur)
        delta *= weight
        delta *= delta
        diffs.append(float(np.sqrt(delta @ cell).max()))
        if len(diffs) >= 2:
            factors.append(diffs[-1] / diffs[-2])
        cur = new
        if diffs[-1] <= config.contraction_tol:
            return cur, diffs, factors
    raise AssertionError("the whole-stack iteration did not converge")


class TestNodeBlocks:
    """The RHS in node blocks and the reused iterate buffers give the bits of
    the whole-stack iteration, whatever the node count's remainder."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("num_nodes", [16, NODE_BLOCK - 1, NODE_BLOCK + 8, 192],
                             ids=["below-block", "one-block", "block-and-rest", "workload"])
    def test_equals_the_whole_stack_iteration(self, num_nodes, p):
        s0 = _perturbed_sech(64, p)
        cfg = PicardConfig(t_window=0.02, num_nodes=num_nodes)
        res = picard_solve(s0, cfg, p)
        coeffs, diffs, factors = whole_stack_picard(s0, cfg, p)
        assert res.converged and res.iterations == len(diffs)
        assert np.array_equal(self._bits(res.coeffs), self._bits(coeffs))
        assert np.array_equal(self._bits(res.diffs), self._bits(diffs))
        assert np.array_equal(self._bits(res.contraction_factors), self._bits(factors))


class TestConfigValidation:
    def test_solver_config(self):
        for kwargs in (
            dict(p=0),
            dict(p=-1),
            dict(dt=0.0),
            dict(dt=-1e-3),
            dict(dt=np.inf),
            dict(scheme="euler"),
            dict(record_stride=0),
            dict(blowup_factor=np.nan),
            dict(blowup_factor=1.0),
            dict(blowup_factor=0.0),
        ):
            with pytest.raises(ValueError):
                SolverConfig(**kwargs)

    def test_picard_config(self):
        for kwargs in (
            dict(t_window=0.0),
            dict(t_window=-1.0),
            dict(num_nodes=4),
            dict(max_iters=1),
        ):
            with pytest.raises(ValueError):
                PicardConfig(**kwargs)

    def test_state_rejects_samples_off_the_grid(self):
        g = SpectralGrid(1.0, 16)
        with pytest.raises(ValueError, match=r"\(2, \.\.\., N\), N = 16, got \(2, 8\)"):
            CoupledState(0.0, g, np.zeros((2, 8)))

    @pytest.mark.parametrize("shape", [(16,), (3, 16), (1, 16)])
    def test_state_rejects_anything_but_a_pair(self, shape):
        # one array holds the pair, u first: a single row or a leading
        # axis other than 2 is no pair
        g = SpectralGrid(1.0, 16)
        with pytest.raises(ValueError, match=r"\(2, \.\.\., N\)"):
            CoupledState(0.0, g, np.zeros(shape))
