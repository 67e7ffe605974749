"""Stepper and fixed-point solver tests.  Oracles: the exact free group on
single modes, hand-expanded trigonometric products for the nonlinear term,
dt-halving self-convergence, and an O(M^2) direct quadrature for the first
integral iterate."""

import dataclasses

import numpy as np
import pytest

from gkdvlab.evolution import (
    CoupledState,
    _RhsWorkspace,
    NonContractionError,
    NumericalBlowupError,
    PicardConfig,
    SolverConfig,
    dispersive_phase,
    free_propagate,
    nonlinear_rhs,
    picard_solve,
    reflect_state,
    simulate,
)
from gkdvlab.spaces import NormParams, gevrey_norm
from gkdvlab.spectral import (
    Field,
    SpectralField,
    SpectralGrid,
    forward_transform,
    inverse_transform,
)


def bandlimited_state(grid, seed, bandwidth=5, amp=1.5):
    """Random smooth pair with geometrically decaying spectra."""

    def one(s):
        r = np.random.default_rng(s)
        c = np.zeros(grid.num_points, dtype=complex)
        half = grid.num_points // 2
        for k in range(1, bandwidth + 1):
            z = (r.standard_normal() + 1j * r.standard_normal()) * amp * 0.5**k
            c[half + k] = z
            c[half - k] = np.conj(z)
        return inverse_transform(SpectralField(grid, c))

    return CoupledState(0.0, one(seed), one(seed + 1000))


def run_steps(state, config, num_steps):
    """Final state of simulate after num_steps steps of config.dt."""
    rec = simulate(
        state,
        dataclasses.replace(
            config, t_end=state.t + num_steps * config.dt, record_stride=num_steps
        ),
    )
    u, v = rec.fields_at(-1)
    return CoupledState(rec.times[-1], u, v)


class TestFreePropagate:
    def test_zero_time_is_identity(self):
        g = SpectralGrid(10.0, 128)
        s = bandlimited_state(g, 3)
        out = free_propagate(s, 0.0)
        scale = np.max(np.abs(s.u.samples))
        assert np.max(np.abs(out.u.samples - s.u.samples)) < 1e-14 * scale
        assert out.t == s.t

    def test_single_mode_phase(self):
        # w = cos(k x + k^3 t) solves w_t + w_xxx = 0
        g = SpectralGrid(np.pi, 64)
        k, t = 3, 0.37
        s = CoupledState(0.0, Field(g, np.cos(k * g.x)), Field(g, np.zeros(64)))
        out = free_propagate(s, t)
        exact = np.cos(k * g.x + k**3 * t)
        assert np.max(np.abs(out.u.samples - exact)) < 1e-12
        assert np.max(np.abs(out.v.samples)) < 1e-14
        assert out.t == pytest.approx(t)

    def test_weighted_norms_preserved(self):
        # the group is a modulus-one multiplier, so any |coeff|-built norm
        # is exactly invariant
        g = SpectralGrid(10.0, 256)
        s = bandlimited_state(g, 7)
        params = NormParams(0.4, 2.0, 0.0)
        before = gevrey_norm(s.u, params)
        after = gevrey_norm(free_propagate(s, 1.7).u, params)
        assert abs(after - before) < 1e-12 * before

    def test_group_property(self):
        g = SpectralGrid(5.0, 64)
        s = bandlimited_state(g, 11)
        one = free_propagate(free_propagate(s, 0.3), 0.5)
        both = free_propagate(s, 0.8)
        assert np.max(np.abs(one.u.samples - both.u.samples)) < 1e-12

    def test_nyquist_untouched(self):
        g = SpectralGrid(np.pi, 16)
        phase = dispersive_phase(g, 2.3)
        assert phase[g.nyquist_index] == 1.0
        assert np.allclose(np.abs(phase), 1.0)

    def test_array_of_times_equals_scalar_calls(self):
        g = SpectralGrid(10.0, 256)
        times = (0.05 / 192) * np.arange(193)
        rows = dispersive_phase(g, times)
        assert rows.shape == (193, 256)
        for j, t in enumerate(times):
            assert np.array_equal(rows[j], dispersive_phase(g, float(t)))


class TestNonlinearRhs:
    def test_zero_state(self):
        g = SpectralGrid(np.pi, 64)
        z = Field(g, np.zeros(64))
        ru, rv = nonlinear_rhs(CoupledState(0.0, z, z), p=1)
        assert np.max(np.abs(ru.samples)) == 0.0
        assert np.max(np.abs(rv.samples)) == 0.0

    def test_trig_oracle_p1(self):
        # u = cos x, v = sin x:
        #   -(u v^2)_x = sin(x)/4 - 3 sin(3x)/4
        #   -(u^2 v)_x = -cos(x)/4 - 3 cos(3x)/4
        g = SpectralGrid(np.pi, 64)
        s = CoupledState(0.0, Field(g, np.cos(g.x)), Field(g, np.sin(g.x)))
        ru, rv = nonlinear_rhs(s, p=1)
        eu = 0.25 * np.sin(g.x) - 0.75 * np.sin(3 * g.x)
        ev = -0.25 * np.cos(g.x) - 0.75 * np.cos(3 * g.x)
        assert np.max(np.abs(ru.samples - eu)) < 1e-10
        assert np.max(np.abs(rv.samples - ev)) < 1e-10

    @pytest.mark.parametrize("p", [1, 2])
    def test_equal_components_reduce_to_single_equation(self, p):
        # u = v = w makes both components -(w^(2p+1))_x
        g = SpectralGrid(np.pi, 256)
        w = Field(g, 0.9 * np.exp(np.sin(g.x)) - 1.0)
        s = CoupledState(0.0, w, w)
        ru, rv = nonlinear_rhs(s, p=p)
        assert np.array_equal(ru.samples, rv.samples)
        power = Field(g, w.samples ** (2 * p + 1))
        expect = inverse_transform(
            SpectralField(
                g,
                forward_transform(power).coeffs
                * np.where(np.arange(256) == 0, 0.0, -1j * g.zeta),
            )
        )
        # pointwise power is alias-free here only up to spectral decay
        assert np.max(np.abs(ru.samples - expect.samples)) < 1e-8

    @pytest.mark.parametrize("p", [1, 2])
    def test_node_stack_equals_per_node_calls(self, p):
        # picard_solve evaluates all nodes in one call
        g = SpectralGrid(20.0, 256)
        nodes = [bandlimited_state(g, 40 + j) for j in range(7)]
        c = np.stack([[forward_transform(f).coeffs for f in (s.u, s.v)] for s in nodes], axis=1)
        rhs = _RhsWorkspace(g, p)
        w = rhs(c)
        for j in range(len(nodes)):
            assert np.array_equal(w[:, j], rhs(c[:, j]))

    def test_mean_is_conserved_by_flux_form(self):
        # the rhs is an exact x-derivative, so its zero mode vanishes
        g = SpectralGrid(7.0, 128)
        s = bandlimited_state(g, 5)
        ru, rv = nonlinear_rhs(s, p=1)
        for r in (ru, rv):
            c0 = forward_transform(r).coeffs[g.num_points // 2]
            assert abs(c0) < 1e-14


class TestStep:
    def test_zero_state_stays_zero(self):
        g = SpectralGrid(np.pi, 64)
        z = Field(g, np.zeros(64))
        out = run_steps(CoupledState(0.0, z, z), SolverConfig(p=1, dt=0.01), 1)
        assert np.max(np.abs(out.u.samples)) == 0.0
        assert out.t == pytest.approx(0.01)

    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_equal_components_stay_equal(self, scheme):
        g = SpectralGrid(10.0, 128)
        w = Field(g, 1.0 / np.cosh(g.x))
        st = CoupledState(0.0, w, Field(g, w.samples.copy()))
        st = run_steps(st, SolverConfig(p=1, dt=1e-3, scheme=scheme), 50)
        assert np.max(np.abs(st.u.samples - st.v.samples)) < 1e-10

    @staticmethod
    def _observed_order(scheme):
        # average slope over two dt octaves; single-octave ratios wobble
        g = SpectralGrid(np.pi, 128)
        s0 = bandlimited_state(g, 1)

        def run(dt, t_end=0.064):
            cfg = SolverConfig(p=1, dt=dt, scheme=scheme)
            return run_steps(s0, cfg, int(round(t_end / dt))).u.samples

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
        w = Field(g, 1.0 / np.cosh(g.x))
        s0 = CoupledState(0.0, w, w)
        a = run_steps(s0, SolverConfig(p=1, dt=5e-4, scheme="if_rk4"), 20)
        b = run_steps(s0, SolverConfig(p=1, dt=5e-4, scheme="strang"), 20)
        assert np.max(np.abs(a.u.samples - b.u.samples)) < 1e-6


class TestReflection:
    def test_reflect_is_on_node_flip(self):
        g = SpectralGrid(4.0, 16)
        f = Field(g, np.exp(g.x / 3.0))
        r = reflect_state(CoupledState(0.0, f, f)).u
        # node x_j maps to -x_j, which is on the grid for j != 0
        for j in range(16):
            xi = g.x[j]
            src = np.argmin(np.abs(g.x - (-xi))) if -xi < g.half_length else 0
            assert r.samples[j] == f.samples[src]

    def test_double_reflection_is_identity(self):
        g = SpectralGrid(3.0, 32)
        s = bandlimited_state(g, 9)
        back = reflect_state(reflect_state(s))
        assert np.array_equal(back.u.samples, s.u.samples)
        assert np.array_equal(back.v.samples, s.v.samples)

    def test_backward_integration_round_trip(self):
        # (t,x) -> (-t,-x) symmetry: forward-evolving the reflected final
        # state undoes the evolution up to scheme error
        g = SpectralGrid(20.0, 256)
        s0 = CoupledState(
            0.0,
            Field(g, 1.2 / np.cosh(g.x - 2.0)),
            Field(g, 0.8 / np.cosh(g.x + 1.0) ** 2),
        )
        cfg = SolverConfig(p=1, dt=1e-3)
        st = reflect_state(run_steps(s0, cfg, 200))
        st = reflect_state(run_steps(st, cfg, 200))
        assert np.max(np.abs(st.u.samples - s0.u.samples)) < 1e-10
        assert np.max(np.abs(st.v.samples - s0.v.samples)) < 1e-10


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

    def test_instability_raises_with_partial_record(self):
        g = SpectralGrid(np.pi, 128)
        big = Field(g, 5.0 * np.sin(g.x))
        with pytest.raises(NumericalBlowupError) as info:
            simulate(
                CoupledState(0.0, big, big),
                SolverConfig(p=1, dt=0.05, t_end=5.0, record_stride=5),
            )
        rec = info.value.record
        assert rec is not None and rec.blow_up
        assert len(rec) >= 1

    def test_sup_growth_guard(self):
        # a weak pulse run back 0.1 under the free group refocuses by t = 0.1;
        # its sup-norm grows 1.6x, past a factor of 1.2
        g = SpectralGrid(10.0, 64)
        w = Field(g, 0.3 * np.exp(-4.0 * g.x**2))
        s = free_propagate(CoupledState(0.1, w, w), -0.1)
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
        # the final snapshot must not depend on how often the loop records
        g = SpectralGrid(20.0 * np.pi, 256)
        w = Field(g, np.sqrt(2.0) / np.cosh(g.x))
        s0 = CoupledState(0.0, w, w)
        every = simulate(s0, SolverConfig(dt=1e-3, t_end=0.04, scheme=scheme, record_stride=1))
        once = simulate(s0, SolverConfig(dt=1e-3, t_end=0.04, scheme=scheme, record_stride=40))
        assert len(every) == 41 and len(once) == 2
        assert np.array_equal(every.snapshots_u[-1], once.snapshots_u[-1])
        assert np.array_equal(every.snapshots_v[-1], once.snapshots_v[-1])


class TestPicard:
    def test_zero_data_converges_immediately(self):
        g = SpectralGrid(np.pi, 64)
        z = Field(g, np.zeros(64))
        res = picard_solve(CoupledState(0.0, z, z), PicardConfig(), p=1)
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

        rhs = _RhsWorkspace(g, 1)
        m, h = cfg.num_nodes, cfg.t_window / cfg.num_nodes
        c0 = np.stack([forward_transform(s0.u).coeffs, forward_transform(s0.v).coeffs])
        free = np.stack([dispersive_phase(g, h * j) * c0 for j in range(m + 1)])
        w_u = np.stack([rhs(free[j])[0] for j in range(m + 1)])
        expect_u = free[:, 0].copy()
        for j in range(1, m + 1):
            acc = np.zeros(g.num_points, dtype=complex)
            for k in range(j + 1):
                wt = 0.5 if k in (0, j) else 1.0
                acc += wt * h * dispersive_phase(g, h * (j - k)) * w_u[k]
            expect_u[j] += acc
        scale = np.max(np.abs(expect_u))
        assert np.max(np.abs(res.coeffs[0] - expect_u)) < 1e-10 * scale

    def test_contracts_on_short_window_and_matches_stepper(self):
        g = SpectralGrid(20.0, 256)
        w = Field(g, 1.0 / np.cosh(g.x))
        s0 = CoupledState(0.0, w, w)
        res = picard_solve(
            s0, PicardConfig(t_window=0.1, num_nodes=512, max_iters=30), p=1
        )
        assert res.converged
        assert all(f < 0.5 for f in res.contraction_factors)
        rec = simulate(s0, SolverConfig(p=1, dt=0.1 / 512, t_end=0.1, record_stride=1))
        assert len(rec) == 513
        worst = 0.0
        for j in range(1, 513):
            pj = res.state_at(j)
            err = np.sqrt(np.sum((pj.u.samples - rec.snapshots_u[j]) ** 2) * g.dx)
            worst = max(worst, err)
        assert worst < 1e-6  # measured 1.04e-7

    def test_long_window_raises(self):
        g = SpectralGrid(20.0, 128)
        w = Field(g, 1.0 / np.cosh(g.x))
        with pytest.raises(NonContractionError, match="t_window"):
            picard_solve(
                CoupledState(0.0, w, w),
                PicardConfig(t_window=5.0, num_nodes=64, max_iters=25),
                p=1,
            )

    def test_factors_grow_with_window(self):
        g = SpectralGrid(20.0, 128)
        w = Field(g, 1.0 / np.cosh(g.x))
        s0 = CoupledState(0.0, w, w)
        firsts = []
        for t_window in (0.02, 0.08, 0.32):
            res = picard_solve(
                s0, PicardConfig(t_window=t_window, num_nodes=64), p=1
            )
            firsts.append(res.contraction_factors[0])
        assert firsts[0] < firsts[1] < firsts[2]


class TestSwapSymmetry:
    """Swapping u and v maps the system to itself, and the stacked pair must
    not mix its components: swapped data give swapped results bit for bit."""

    @staticmethod
    def _pair(p):
        g = SpectralGrid(10.0, 128)
        s = bandlimited_state(g, 21, amp=0.6 if p == 1 else 0.4)
        return s, CoupledState(s.t, s.v, s.u)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("scheme", ["if_rk4", "strang"])
    def test_simulate(self, scheme, p):
        s, swapped = self._pair(p)
        cfg = SolverConfig(p=p, dt=2e-3, t_end=0.1, scheme=scheme, record_stride=10)
        a, b = simulate(s, cfg), simulate(swapped, cfg)
        assert len(a) == len(b) == 6
        for i in range(len(a)):
            assert np.array_equal(a.snapshots_u[i], b.snapshots_v[i])
            assert np.array_equal(a.snapshots_v[i], b.snapshots_u[i])
        assert not np.array_equal(a.snapshots_u[-1], a.snapshots_v[-1])

    @pytest.mark.parametrize("p", [1, 2])
    def test_picard(self, p):
        s, swapped = self._pair(p)
        cfg = PicardConfig(t_window=0.02, num_nodes=16)
        a, b = picard_solve(s, cfg, p), picard_solve(swapped, cfg, p)
        assert a.converged and a.iterations == b.iterations
        assert a.diffs == b.diffs
        assert np.array_equal(a.coeffs, b.coeffs[::-1])


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

    def test_state_grid_mismatch(self):
        a = Field(SpectralGrid(1.0, 16), np.zeros(16))
        b = Field(SpectralGrid(2.0, 16), np.zeros(16))
        with pytest.raises(ValueError, match="grid"):
            CoupledState(0.0, a, b)
